import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import cos2phi.eigensolver as eigensolver
from cos2phi.analysis import convergence_ladder, solve_circuit
from cos2phi.eigensolver import (
    DENSE_THRESHOLD,
    FLOOR_TOL,
    SHIFT_GAP,
    NonConvergenceError,
    _fix_phases,
    _lanczos_floor,
    factor_below_spectrum,
    lowest_eigenpairs,
)
from cos2phi.hamiltonians import full_hamiltonian
from cos2phi.model import (
    BasisTruncation,
    BiasPoint,
    CircuitParams,
    HermitianOperator,
    build_primitives,
)
from test_hamiltonians import DISORDER_SETS


def _wrap(mat):
    return HermitianOperator(sp.csr_matrix(mat), "test")


class TestLowestEigenpairs:
    def test_tiny_diagonal(self):
        sol = lowest_eigenpairs(_wrap(np.diag([3.0, 1.0, 2.0])), k=2)
        assert np.allclose(sol.energies, [1.0, 2.0])
        assert sol.residuals.max() < 1e-12
        assert sol.meta["backend"] == "dense"

    def test_k_validation(self):
        H = _wrap(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            lowest_eigenpairs(H, k=0)
        with pytest.raises(ValueError):
            lowest_eigenpairs(H, k=3)

    def test_orthonormal_and_rayleigh(self, canonical, half_flux, small_trunc):
        H = full_hamiltonian(canonical, half_flux, small_trunc)
        sol = lowest_eigenpairs(H, k=6)
        G = sol.vectors.conj().T @ sol.vectors
        assert np.abs(G - np.eye(6)).max() < 1e-9
        for i in range(6):
            ray = np.vdot(sol.vectors[:, i], H.matrix @ sol.vectors[:, i]).real
            assert abs(ray - sol.energies[i]) <= 10 * 1e-10 * max(1, abs(ray))

    def test_backend_equivalence(self, canonical, half_flux, medium_trunc):
        H = full_hamiltonian(canonical, half_flux, medium_trunc)  # dim 1386
        dense = sla.eigh(H.toarray(), eigvals_only=True)[:6]
        kry = lowest_eigenpairs(H, k=6)
        assert kry.meta["backend"] == "krylov"
        assert np.abs(dense - kry.energies).max() < 1e-8

    def test_backend_follows_dimension(self, canonical, half_flux, medium_trunc):
        small = _wrap(np.diag(np.arange(DENSE_THRESHOLD, 0.0, -1.0)))
        assert lowest_eigenpairs(small, k=2).meta["backend"] == "dense"
        H = full_hamiltonian(canonical, half_flux, medium_trunc)  # dim 1386
        assert H.dim > DENSE_THRESHOLD
        assert lowest_eigenpairs(H, k=2).meta["backend"] == "krylov"

    def test_all_eigenpairs_above_threshold_are_dense(self, canonical, half_flux):
        # ARPACK cannot return k >= dim - 1 eigenpairs of a complex matrix
        H = full_hamiltonian(canonical, half_flux, BasisTruncation(2, 2, 10))
        assert H.dim > DENSE_THRESHOLD
        ref = sla.eigh(H.toarray(), eigvals_only=True)
        for k in (H.dim - 1, H.dim):
            sol = lowest_eigenpairs(H, k=k)
            assert sol.meta["backend"] == "dense"
            assert np.abs(sol.energies - ref[:k]).max() < 1e-10

    @pytest.mark.parametrize("k", [2, 6])
    def test_backend_equivalence_disordered_complex(self, k):
        # off half flux an asymmetric circuit has a genuinely complex H, even
        # in the gauged frame, so the floor pass, the shifted LU and Lanczos
        # all run in complex arithmetic
        params = CircuitParams(15.0, 2.0, 1.0, 0.02, delta_L=0.6)
        H = full_hamiltonian(params, BiasPoint(0.8 * np.pi, 0.125),
                             BasisTruncation(4, 4, 14))
        assert H.dim > DENSE_THRESHOLD
        assert np.abs(H.matrix.data.imag).max() > 0.1
        dense = sla.eigh(H.toarray(), eigvals_only=True)[:k]
        kry = lowest_eigenpairs(H, k=k)
        assert kry.meta["backend"] == "krylov"
        assert np.abs(dense - kry.energies).max() < 1e-10

    def test_shift_margin_at_large_ground_energy(self, half_flux, small_trunc):
        # the floor pass lands within 0.05 GHz above E0, so the certified
        # shift lies below E0 by at most SHIFT_GAP, also at eps_J = 60, where
        # the fallback margin 2 * FLOOR_TOL * |E0| would exceed 1 GHz
        for eps_J in (15.0, 60.0):
            params = CircuitParams(eps_J, 2.0, 1.0, 0.02)
            H = full_hamiltonian(params, half_flux, small_trunc)
            dense = sla.eigh(H.toarray(), eigvals_only=True)[:4]
            kry = lowest_eigenpairs(H, k=4)
            assert kry.meta["backend"] == "krylov"
            assert 0 < dense[0] - kry.meta["shift"] <= SHIFT_GAP + 0.05
            assert np.abs(dense - kry.energies).max() < 1e-10

    def _spy_factor(self, monkeypatch):
        """Record (sigma, factored) for each factorization of the solve."""
        calls, factor = [], eigensolver.factor_below_spectrum

        def spy(M, sigma):
            try:
                out = factor(M, sigma)
            except NonConvergenceError:
                calls.append((sigma, False))
                raise
            calls.append((sigma, True))
            return out

        monkeypatch.setattr(eigensolver, "factor_below_spectrum", spy)
        return calls

    def test_shift_falls_back_when_the_floor_is_an_excited_level(
            self, monkeypatch, canonical, half_flux, small_trunc):
        # a floor 0.5 GHz above E0 puts theta - SHIFT_GAP inside the
        # spectrum: pbtrf refuses it, and the fallback margin
        # max(1, 2 FLOOR_TOL |theta|) below theta serves the solve
        H = full_hamiltonian(canonical, half_flux, small_trunc)
        dense = sla.eigh(H.toarray(), eigvals_only=True)[:4]
        theta = dense[0] + 0.5
        monkeypatch.setattr(eigensolver, "_lanczos_floor", lambda M, v0: (theta, 0))
        calls = self._spy_factor(monkeypatch)
        kry = lowest_eigenpairs(H, k=4)
        fallback = theta - max(1.0, 2 * FLOOR_TOL * abs(theta))
        assert calls == [(theta - SHIFT_GAP, False), (fallback, True)]
        assert kry.meta["shift"] == fallback
        assert np.abs(dense - kry.energies).max() < 1e-10

    def test_shift_raises_when_the_fallback_is_inside_the_spectrum(
            self, monkeypatch, canonical, half_flux, small_trunc):
        H = full_hamiltonian(canonical, half_flux, small_trunc)
        theta = sla.eigh(H.toarray(), eigvals_only=True)[0] + 50.0
        monkeypatch.setattr(eigensolver, "_lanczos_floor", lambda M, v0: (theta, 0))
        calls = self._spy_factor(monkeypatch)
        with pytest.raises(NonConvergenceError, match="not positive definite"):
            lowest_eigenpairs(H, k=4)
        assert [ok for _, ok in calls] == [False, False]

    @pytest.mark.parametrize("offset", [0.0, -0.003])
    def test_spectrum_floor_near_zero(self, offset, canonical, half_flux,
                                      small_trunc):
        # a relative residual bound alone would never end the floor pass
        # with E0 at 0; below 1 GHz the bound is FLOOR_TOL GHz
        H = full_hamiltonian(canonical, half_flux, small_trunc)
        dense = sla.eigh(H.toarray(), eigvals_only=True)[:4]
        shifted = H.matrix - (dense[0] + offset) * sp.identity(H.dim)
        kry = lowest_eigenpairs(_wrap(shifted), k=4)
        assert kry.meta["backend"] == "krylov"
        assert kry.meta["floor_steps"] < H.dim
        assert 0 < -offset - kry.meta["shift"] <= SHIFT_GAP + 0.05
        assert np.abs(dense - dense[0] - offset - kry.energies).max() < 1e-10

    def test_krylov_meta_records_the_factorization(self, canonical, half_flux,
                                                   small_trunc):
        H = full_hamiltonian(canonical, half_flux, small_trunc)
        sol = lowest_eigenpairs(H, k=4)
        assert sol.meta["shift"] < sol.energies[0]
        # the band of the factor of H - sigma holds more than H's own pattern
        assert sol.meta["lu_nnz"] > H.matrix.nnz
        assert sol.meta["lu_solves"] >= sol.k
        # the floor pass checks its residual every FLOOR_CHECK steps
        assert sol.meta["floor_steps"] % eigensolver.FLOOR_CHECK == 0
        assert 0 < sol.meta["floor_steps"] < H.dim
        # a blocked solve sums the floor steps over its blocks
        P = build_primitives(small_trunc, canonical).parity()
        blocked = lowest_eigenpairs(H, k=4, symmetry=P)
        assert len(blocked.meta["blocks"]) == 2
        assert blocked.meta["floor_steps"] >= 2 * eigensolver.FLOOR_CHECK
        dense = lowest_eigenpairs(_wrap(np.diag([3.0, 1.0, 2.0])), k=2)
        assert not {"shift", "lu_nnz", "lu_solves", "floor_steps"} & set(dense.meta)

    def test_krylov_deterministic(self, canonical, half_flux, small_trunc):
        H = full_hamiltonian(canonical, half_flux, small_trunc)
        a = lowest_eigenpairs(H, k=4, seed=11)
        b = lowest_eigenpairs(H, k=4, seed=11)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.vectors, b.vectors)
        assert a.meta["seed"] == 11 and a.meta["backend"] == "krylov"

    def test_gauge_fixing_parity(self, canonical):
        # at N_g = 1/2 the symmetric circuit's doublet is degenerate to
        # 1e-11 GHz: a full-space solve mixes the two parity states (<P> off
        # +-1 by 5e-10 here), and the parity blocks keep them apart, each the
        # ground state of its block
        ls = solve_circuit(canonical, BiasPoint(np.pi, 0.5),
                           BasisTruncation(9, 7, 30), k=2)
        assert ls.solution.meta["blocks"] == [2356, 2356]
        assert 0.0 <= ls.splitting < 1e-9
        P = ls.primitives.parity()
        v = ls.solution.vectors
        for i in (0, 1):
            p = np.vdot(v[:, i], P @ v[:, i]).real
            assert abs(abs(p) - 1.0) < 1e-12
        assert {lab.parity for lab in ls.labels} == {1, -1}

    @pytest.mark.parametrize("trunc,delta_L,k", [
        ((7, 7, 30), 0.0, 6), ((7, 7, 30), 0.6, 6), ((10, 10, 46), 0.6, 2),
    ])
    def test_symmetry_blocks_match_full_space(self, canonical, trunc, delta_L,
                                              k):
        # parity blocks for the symmetric circuit, mirror blocks for the
        # disordered one: the same lowest energies as the full space, and
        # every vector an eigenvector of the symmetry
        tr = BasisTruncation(*trunc)
        params = canonical.replace(delta_L=delta_L)
        prim = build_primitives(tr, params)
        H = full_hamiltonian(params, BiasPoint(np.pi, 0.0), tr, primitives=prim)
        S = prim.mirror() if delta_L else prim.parity()
        full = lowest_eigenpairs(H, k=k)
        blocked = lowest_eigenpairs(H, k=k, symmetry=S)
        assert blocked.meta["backend"] == "krylov"
        assert sum(blocked.meta["blocks"]) == H.dim
        scale = np.abs(full.energies).max()
        assert np.abs(blocked.energies - full.energies).max() <= 1e-12 * scale
        v = blocked.vectors
        assert np.abs(np.abs(np.einsum("ij,ij->j", v, S @ v)) - 1.0).max() < 1e-12
        # the qubit doublet is the ground state of each block
        assert v[:, 0] @ S @ v[:, 0] * (v[:, 1] @ S @ v[:, 1]) < 0

    def test_symmetry_must_be_signed_permutation(self, canonical, half_flux,
                                                 small_trunc):
        H = full_hamiltonian(canonical, half_flux, small_trunc)
        for S in (2.0 * sp.identity(H.dim),
                  sp.csr_matrix(np.roll(np.eye(H.dim), 1, axis=0))):
            with pytest.raises(ValueError, match="signed permutation"):
                lowest_eigenpairs(H, k=2, symmetry=S)

    def test_phase_convention(self, canonical, half_flux, small_trunc):
        H = full_hamiltonian(canonical, half_flux, small_trunc)
        sol = lowest_eigenpairs(H, k=3)
        for i in range(3):
            j = np.argmax(np.abs(sol.vectors[:, i]))
            lead = sol.vectors[j, i]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_phase_tie_keeps_sign(self):
        # the two largest entries of a parity-odd state are mirror images of
        # equal magnitude; roundoff of 1e-13 either way must not pick the sign
        v = np.array([0.1, -0.7, 0.0, 0.7, -0.1])
        fixed = []
        for eps in (1e-13, -1e-13):
            w = v.copy()
            w[3] += eps
            fixed.append(_fix_phases(w[:, None])[:, 0])
        assert np.abs(fixed[0] - fixed[1]).max() < 1e-12
        assert fixed[0][1] > 0

    def test_variational_monotonicity(self, canonical, half_flux):
        prev = np.inf
        for tr in (BasisTruncation(3, 3, 8), BasisTruncation(4, 4, 12),
                   BasisTruncation(5, 5, 16)):
            H = full_hamiltonian(canonical, half_flux, tr)
            e0 = lowest_eigenpairs(H, k=1).energies[0]
            assert e0 <= prev + 1e-12
            prev = e0


class TestFactorBelowSpectrum:
    @pytest.mark.parametrize("phi_ext,dtype", [(np.pi, np.float64),
                                               (2.8, np.complex128)])
    @pytest.mark.parametrize("ncols", [None, 2])
    def test_solve_matches_dense(self, small_trunc, phi_ext, dtype, ncols):
        # real at half flux, complex off it; a 1-D and a two-column
        # right-hand side against a dense solve of H - sigma
        params = CircuitParams(15.0, 2.0, 1.0, 0.02, delta_L=0.6)
        H = full_hamiltonian(params, BiasPoint(phi_ext, 0.0), small_trunc).matrix
        assert H.dtype == dtype
        dense = H.toarray()
        sigma = np.linalg.eigvalsh(dense)[0] - 1.0
        shape = (H.shape[0],) if ncols is None else (H.shape[0], ncols)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(shape).astype(dtype)
        if dtype == np.complex128:
            b += 1j * rng.standard_normal(shape)
        factor = factor_below_spectrum(H, sigma)
        x = factor.solve(b)
        ref = np.linalg.solve(dense - sigma * np.eye(H.shape[0]), b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        # the band fill is (bandwidth + 1) * dim, well short of a dense factor
        assert H.shape[0] <= factor.nnz < H.shape[0] ** 2 // 4

    def test_shift_inside_spectrum_raises(self, canonical, half_flux, small_trunc):
        # H - sigma is indefinite once sigma lies above E0; the band Cholesky
        # finds it and the failure carries the numeric error type
        H = full_hamiltonian(canonical, half_flux, small_trunc).matrix
        sigma = np.linalg.eigvalsh(H.toarray())[0] + 0.1
        with pytest.raises(NonConvergenceError, match=f"dim {H.shape[0]}"):
            factor_below_spectrum(H, sigma)


class TestConvergenceLadder:
    def test_identical_levels_zero_deltas(self, canonical, half_flux):
        lv = BasisTruncation(3, 3, 8)
        rep = convergence_ladder(canonical, half_flux, [lv, lv], k=3, tolerance=1e-6)
        assert np.all(rep.deltas == 0.0)
        assert rep.converged

    def test_monotone_ground_deltas(self, canonical, half_flux):
        # absolute energies keep a slowly converging zero-point offset from
        # the strongly hybridized imbalance sector; the rung-to-rung deltas
        # still shrink monotonically, and the physical doublet splitting is
        # converged to well under 1e-4 GHz between the last two rungs
        levels = [BasisTruncation(5, 5, 20), BasisTruncation(7, 7, 30),
                  BasisTruncation(9, 9, 40)]
        rep = convergence_ladder(canonical, half_flux, levels, k=2,
                                 tolerance=1e-2)
        ground_deltas = rep.deltas[:, 0]
        assert np.all(np.diff(ground_deltas) < 0)
        split = rep.energies[:, 1] - rep.energies[:, 0]
        assert abs(split[2] - split[1]) < 1e-4

    def test_verdict_judges_transitions(self, canonical, half_flux):
        # between these rungs every absolute energy moves by 0.061 GHz, the
        # zero-point offset of the imbalance sector, while the splitting
        # E1 - E0 moves by 2.5e-5 GHz; the verdict follows the splitting
        levels = [BasisTruncation(4, 4, 12), BasisTruncation(5, 5, 16)]
        rep = convergence_ladder(canonical, half_flux, levels, k=2,
                                 tolerance=1e-3)
        assert np.all(rep.deltas[-1] > 1e-2)
        assert rep.converged
        strict = convergence_ladder(canonical, half_flux, levels, k=2,
                                    tolerance=1e-5)
        assert not strict.converged

    def test_single_state_ladder_rejected(self, canonical, half_flux):
        lv = BasisTruncation(3, 3, 8)
        with pytest.raises(ValueError):
            convergence_ladder(canonical, half_flux, [lv, lv], k=1)

    def test_decreasing_levels_rejected(self, canonical, half_flux):
        with pytest.raises(ValueError):
            convergence_ladder(
                canonical, half_flux,
                [BasisTruncation(4, 4, 10), BasisTruncation(3, 4, 10)],
            )

    def test_decoupled_ladder_spacing_exact(self, half_flux):
        # with the junction off, loop-sum mode quanta are exact at every rung
        from cos2phi.model import CircuitParams

        with pytest.warns(UserWarning):
            p = CircuitParams(eps_J=1e-12, eps_C=2.0, eps_L=1.0, x=0.5)
        omega_a = np.sqrt(8 * 2.0 * 1.0)
        for tr in (BasisTruncation(2, 3, 20), BasisTruncation(3, 4, 30)):
            H = full_hamiltonian(p, half_flux, tr)
            w = np.linalg.eigvalsh(H.toarray())
            # find the one-quantum partner of the ground state
            assert np.any(np.abs((w - w[0]) - omega_a) < 1e-10)


def test_backend_equivalence_at_production_basis(canonical, half_flux):
    # the production basis (dim 3720) is solved by Krylov; it must agree
    # with an independent full dense solve there too (slow)
    H = full_hamiltonian(canonical, half_flux, BasisTruncation(7, 7, 30))
    dense = sla.eigh(H.toarray(), eigvals_only=True)[:6]
    kry = lowest_eigenpairs(H, k=6)
    assert kry.meta["backend"] == "krylov"
    assert np.abs(dense - kry.energies).max() < 1e-8


@pytest.mark.parametrize("disorder", DISORDER_SETS)
@pytest.mark.parametrize("trunc", [BasisTruncation(4, 5, 10), BasisTruncation(7, 7, 30)])
@pytest.mark.parametrize("bias", [BiasPoint(np.pi, 0.25), BiasPoint(2.8, 0.0)])
def test_lanczos_floor_lies_just_above_the_ground_energy(disorder, trunc, bias):
    # theta is a Rayleigh quotient, so never below E0, and within 0.05 GHz
    # of it: well inside SHIFT_GAP, so the first shift is certified.  E0 is
    # the dense solve at (4, 5, 10) and the Krylov solve at (7, 7, 30),
    # which test_backend_equivalence_at_production_basis checks against dense
    params = CircuitParams(15.0, 2.0, 1.0, 0.02, **disorder)
    H = full_hamiltonian(params, bias, trunc)
    if trunc.N0 == 4:
        e0 = sla.eigh(H.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
    else:
        e0 = lowest_eigenpairs(H, k=1).energies[0]
    v0 = np.random.default_rng(0).standard_normal(H.dim)
    theta, steps = _lanczos_floor(H.matrix.tocsc(), v0)
    assert e0 - 1e-12 <= theta < e0 + 0.05
    assert steps < H.dim


def test_shift_invert_budget_at_the_dispersion_basis():
    # the charge-dispersion solve of the operated point: two pairs from a
    # shift SHIFT_GAP below the floor take 15 band solves (38 from 1 GHz
    # below it with ARPACK's default ncv)
    params = CircuitParams(15.0, 2.0, 1.0, 0.02, delta_L=0.6)
    H = full_hamiltonian(params, BiasPoint(np.pi, 0.25), BasisTruncation(10, 10, 46))
    sol = lowest_eigenpairs(H, k=2)
    assert sol.meta["backend"] == "krylov"
    assert sol.meta["lu_solves"] <= 20
