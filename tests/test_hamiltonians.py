import numpy as np
import pytest
import scipy.sparse as sp

from cos2phi.hamiltonians import (
    ToyParams,
    effective_params,
    full_hamiltonian,
    josephson_term,
    toy_hamiltonian,
)
from cos2phi.model import (
    BasisTruncation,
    BiasPoint,
    build_primitives,
    displaced_cosine,
    kron3,
)
from oracles import lab_phases

#: symmetric; each asymmetry alone; mixed junction/capacitance/inductance
DISORDER_SETS = [
    {}, {"delta_J": 0.2}, {"delta_C": 0.15}, {"delta_A": 0.1},
    {"delta_L": 0.6}, {"delta_J": 0.1, "delta_C": 0.05, "delta_L": 0.3},
]


class TestToyHamiltonian:
    def test_diagonal_limit(self):
        tp = ToyParams(E_J=0.0, E_C=1.5, N0_toy=6)
        w = np.linalg.eigvalsh(toy_hamiltonian(tp))
        expect = np.sort(4 * 1.5 * np.arange(-6, 7) ** 2.0)
        assert np.allclose(w, expect)

    def test_single_pair_hopping_absent(self):
        H = toy_hamiltonian(ToyParams(E_J=3.0, E_C=1.0, N0_toy=5))
        assert np.abs(np.diag(H, 1)).max() == 0.0
        assert np.allclose(np.diag(H, 2), -1.5)

    def test_ground_doublet_splitting_regression(self):
        # dense oracle at two truncations; frozen value from the same oracle
        tp40 = ToyParams(E_J=100.0, E_C=2.0, N0_toy=40)
        tp60 = ToyParams(E_J=100.0, E_C=2.0, N0_toy=60)
        for tp in (tp40, tp60):
            w = np.linalg.eigvalsh(toy_hamiltonian(tp))
            split = w[1] - w[0]
            assert split == pytest.approx(0.033234646977, rel=1e-7)
        # closed-form asymptotic overshoots the exact splitting by ~10%
        # at E_J/E_C = 50 (it converges only as the ratio grows large)
        asym = 16 * 2.0 * np.sqrt(2 / np.pi) * 100**0.75 * np.exp(-10.0)
        rel = abs(split - asym) / asym
        assert 0.05 < rel < 0.12


class TestFullHamiltonian:
    def test_pair_structure_reference_point(self, canonical_medium):
        e = canonical_medium.energies - canonical_medium.energies[0]
        # two near-degenerate pairs separated by the imbalance-mode quantum
        assert e[1] < 1e-3
        pair_gap = e[2] - e[0]
        assert pair_gap == pytest.approx(0.8, rel=0.05)
        assert e[3] - e[2] < 0.01

    @pytest.mark.parametrize("disorder", DISORDER_SETS)
    @pytest.mark.parametrize("phi_ext", [np.pi, 0.8 * np.pi])
    @pytest.mark.parametrize("N_g", [0.0, 0.3])
    def test_hermitian_and_real_structure(self, canonical, disorder, phi_ext, N_g):
        tr = BasisTruncation(3, 3, 8)
        H = full_hamiltonian(canonical.replace(**disorder), BiasPoint(phi_ext, N_g), tr)
        m = H.toarray()
        assert np.abs(m - m.conj().T).max() < 1e-12 * np.abs(m).max()

    @pytest.mark.parametrize("disorder", DISORDER_SETS)
    def test_canonical_csr(self, canonical, disorder):
        # sorted indices and no duplicates, so every product H @ v sums each
        # row in one fixed order however the terms were grouped
        tr = BasisTruncation(3, 3, 8)
        H = full_hamiltonian(canonical.replace(**disorder), BiasPoint(0.8 * np.pi, 0.3), tr)
        assert H.matrix.has_canonical_format

    def test_decoupled_junction_free_spectrum(self):
        # with the junction term off, the loop-sum mode is exact and the
        # imbalance sector solves as a squeezed displaced oscillator per
        # conserved island charge
        from cos2phi.model import CircuitParams

        eC, eL, x = 2.0, 1.0, 0.5  # gentle squeezing for fast Fock convergence
        with pytest.warns(UserWarning):
            params = CircuitParams(eps_J=1e-12, eps_C=eC, eps_L=eL, x=x)
        tr = BasisTruncation(3, 3, 40)
        H = full_hamiltonian(params, BiasPoint(np.pi, 0.0), tr)
        w = np.linalg.eigvalsh(H.toarray())
        omega_a = np.sqrt(8 * eL * eC)
        omega_b = np.sqrt(16 * x * eC * eL)
        omega_p = np.sqrt(omega_b**2 * (1 + 1 / (2 * x)))  # dressed imbalance mode
        charge_term = lambda N: 4 * x * eC / (1 + 2 * x) * N**2
        analytic = []
        for N in range(-3, 4):
            for p in range(4):
                for q in range(8):
                    analytic.append(
                        omega_a * p + omega_p * q + (omega_p - omega_b) / 2
                        + charge_term(N)
                    )
        analytic = np.sort(analytic)
        assert np.allclose(w[:10], analytic[:10], atol=2e-6)

    @pytest.mark.parametrize("disorder", [
        {}, {"delta_J": 0.1, "delta_L": 0.3}, {"delta_A": 0.1, "delta_L": 0.3},
    ])
    @pytest.mark.parametrize("bias", [BiasPoint(np.pi, 0.0), BiasPoint(1.37, 0.3)])
    def test_linear_in_junction_energy(self, canonical, disorder, bias):
        # the Josephson term is the whole eps_J dependence of H
        tr = BasisTruncation(3, 3, 8)
        p = canonical.replace(**disorder)
        prim = build_primitives(tr, p)
        H2 = full_hamiltonian(p.replace(eps_J=2 * p.eps_J), bias, tr)
        H1 = full_hamiltonian(p, bias, tr)
        diff = H2.matrix - H1.matrix
        HJ = josephson_term(p, bias.phi_ext, prim)
        assert H2.fingerprint == H1.fingerprint == prim.fingerprint
        assert np.abs((diff - HJ).toarray()).max() <= 1e-15 * np.abs(HJ.toarray()).max()

    def test_flux_periodicity(self, canonical):
        tr = BasisTruncation(3, 3, 8)
        b1 = BiasPoint(0.8 * np.pi, 0.0)
        b2 = BiasPoint(0.8 * np.pi + 4 * np.pi, 0.0)
        w1 = np.linalg.eigvalsh(full_hamiltonian(canonical, b1, tr).toarray())
        w2 = np.linalg.eigvalsh(full_hamiltonian(canonical, b2, tr).toarray())
        assert np.abs(w1[:6] - w2[:6]).max() < 1e-10

    def test_offset_charge_periodicity(self, canonical):
        # exact in the infinite charge basis; the truncated window recovers
        # it once the charge support clears the shifted boundary
        devs = []
        for n0 in (8, 9, 10):
            tr = BasisTruncation(n0, 2, 8)
            w1 = np.linalg.eigvalsh(
                full_hamiltonian(canonical, BiasPoint(np.pi, 0.2), tr).toarray()
            )
            w2 = np.linalg.eigvalsh(
                full_hamiltonian(canonical, BiasPoint(np.pi, 1.2), tr).toarray()
            )
            devs.append(np.abs(w1[:2] - w2[:2]).max())
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-9

    def test_parity_commutator(self, canonical, half_flux):
        tr = BasisTruncation(3, 3, 8)
        prim = build_primitives(tr, canonical)
        H = full_hamiltonian(canonical, half_flux, tr, primitives=prim).matrix
        P = prim.parity()
        comm = (H @ P - P @ H).toarray()
        scale = np.abs(H.toarray()).max()
        assert np.abs(comm).max() <= 1e-10 * scale

    @pytest.mark.parametrize("disorder", [
        {}, {"delta_J": 0.1}, {"delta_C": 0.1}, {"delta_A": 0.1},
        {"delta_L": 0.1}, {"delta_J": 0.1, "delta_C": 0.2, "delta_L": 0.3},
    ])
    def test_mirror_commutator(self, canonical, disorder):
        # the half-flux mirror is a real signed permutation with M^2 = 1 and
        # an exact symmetry of every circuit at N_g = 0, but not off it
        tr = BasisTruncation(4, 5, 10)
        params = canonical.replace(**disorder)
        prim = build_primitives(tr, params)
        M = prim.mirror()
        assert M.dtype == np.float64
        assert np.array_equal(np.abs(M.data), np.ones(tr.dim))
        assert abs(M @ M - sp.identity(tr.dim)).max() == 0.0
        for N_g, commutes in ((0.0, True), (0.3, False)):
            H = full_hamiltonian(params, BiasPoint(np.pi, N_g), tr,
                                 primitives=prim).matrix
            comm = abs(H @ M - M @ H).max()
            assert (comm == 0.0) if commutes else (comm > 1.0)

    def test_charge_parity_alone_does_not_commute(self, canonical, half_flux):
        # the junction term flips island-charge parity and loop-mode parity
        # together; the bare charge parity is not a symmetry
        tr = BasisTruncation(3, 3, 8)
        prim = build_primitives(tr, canonical)
        H = full_hamiltonian(canonical, half_flux, tr, primitives=prim).matrix
        charge_par = prim.kron((prim.charge_parity, None, None))
        comm = (H @ charge_par - charge_par @ H).toarray()
        assert np.abs(comm).max() > 1e-3 * np.abs(H.toarray()).max()


class TestChargeReflection:
    """N -> -N with complex conjugation maps H(N_g) onto H(-N_g), so the
    spectrum is even in the offset charge for any disorder and flux."""

    @pytest.mark.parametrize("disorder", DISORDER_SETS)
    @pytest.mark.parametrize("phi_ext", [0.8 * np.pi, np.pi, 1.37])
    def test_spectrum_even_in_offset_charge(self, canonical, disorder, phi_ext):
        tr = BasisTruncation(3, 3, 8)
        params = canonical.replace(**disorder)

        def lowest(N_g):
            H = full_hamiltonian(params, BiasPoint(phi_ext, N_g), tr)
            return np.linalg.eigvalsh(H.toarray())[:6]

        plus = lowest(0.3)
        assert np.abs(plus - lowest(-0.3)).max() <= 1e-10
        # the offset charge does move the levels
        assert np.abs(plus - lowest(0.0)).max() > 1e-2


class TestDisorder:
    def test_inductive_prefactor(self, canonical, half_flux):
        # H'_L, the part of H that delta_L adds on a fixed dressed basis,
        # equals [delta/(1-delta^2)] times the unit-coefficient coupling
        tr = BasisTruncation(3, 3, 8)
        d = 0.3
        p = canonical.replace(delta_L=d)
        prim = build_primitives(tr, p)
        Hp = (full_hamiltonian(p, half_flux, tr, primitives=prim).matrix
              - full_hamiltonian(p.replace(delta_L=0.0), half_flux, tr,
                                 primitives=prim).matrix)
        slope = canonical.eps_L * prim.kron((None, prim.dphi, prim.theta))
        ratio = d / (1 - d**2)
        assert ratio == pytest.approx(0.32967, rel=1e-4)
        diff = (Hp - ratio * slope).toarray()
        assert np.abs(diff).max() < 1e-12

    def test_area_equals_joint_jc(self, canonical, half_flux):
        tr = BasisTruncation(3, 3, 8)
        pA = canonical.replace(delta_A=0.2)
        pJC = canonical.replace(delta_J=0.2, delta_C=0.2)
        HA = full_hamiltonian(pA, half_flux, tr).toarray()
        HJC = full_hamiltonian(pJC, half_flux, tr).toarray()
        assert np.abs(HA - HJC).max() < 1e-12 * np.abs(HA).max()
        # the eps_J eps_C product is preserved per junction
        for s in (+1, -1):
            prod = (1 + s * 0.2) * pA.eps_J * pA.eps_C / (1 + s * 0.2)
            assert prod == pytest.approx(pA.eps_J * pA.eps_C)

    def test_junction_asymmetry_parity_odd(self, canonical, half_flux):
        # H'_J anticommutes with the combined parity at half flux
        tr = BasisTruncation(3, 3, 6)
        p = canonical.replace(delta_J=0.4)
        prim = build_primitives(tr, p)
        Hp = (josephson_term(p, half_flux.phi_ext, prim)
              - josephson_term(p.replace(delta_J=0.0), half_flux.phi_ext, prim))
        assert np.abs(Hp.toarray()).max() > 1.0
        P = prim.parity()
        anti = (P @ Hp + Hp @ P).toarray()
        assert np.abs(anti).max() < 1e-12

    def test_delta_out_of_range(self, canonical, half_flux):
        with pytest.raises(ValueError):
            canonical.replace(delta_L=1.0)


class TestEffective:
    def test_leading_coefficients_reference_point(self, canonical, half_flux):
        ep = effective_params(canonical, half_flux, "leading")
        assert ep.c1 == 0.0
        assert ep.c2 == pytest.approx(-13.75, rel=1e-12)
        assert ep.c3 == ep.c4 == 0.0

    def test_extended_c4(self, canonical, half_flux):
        ep = effective_params(canonical, half_flux, "extended")
        z = 1.0 / 15.0
        assert ep.c4 == pytest.approx(-(1 / 12 - 17 * z / 72), rel=1e-12)
        assert ep.c4 == pytest.approx(-0.06759, rel=1e-3)

    def test_odd_harmonics_vanish_at_half_flux(self, canonical, half_flux):
        for order in ("leading", "extended"):
            ep = effective_params(canonical, half_flux, order)
            assert ep.c1 == 0.0 and ep.c3 == 0.0

    def test_kinetic_prefactors_close(self, canonical):
        from cos2phi.model import CircuitParams

        for z in np.linspace(0.02, 0.2, 10):
            p = CircuitParams(eps_J=1.0 / z, eps_C=2.0, eps_L=1.0, x=0.02)
            lead = effective_params(p, BiasPoint(np.pi), "leading")
            ext = effective_params(p, BiasPoint(np.pi), "extended")
            assert abs(lead.kinetic_prefactor - ext.kinetic_prefactor) <= z**2 / 2


class TestGaugedFrame:
    """D^ H D with D = diag(i^N) (x) diag(i^p) (x) diag(i^q) is real at half
    flux for every circuit and offset charge (ROADMAP M4)."""

    @pytest.mark.parametrize("disorder", DISORDER_SETS)
    @pytest.mark.parametrize("phi_ext", [np.pi, 3 * np.pi])
    @pytest.mark.parametrize("N_g", [0.0, 0.3, 0.5])
    def test_real_at_half_flux(self, canonical, disorder, phi_ext, N_g):
        tr = BasisTruncation(3, 3, 8)
        params = canonical.replace(**disorder)
        H = full_hamiltonian(params, BiasPoint(phi_ext, N_g), tr)
        assert H.matrix.dtype == np.float64
        HJ = josephson_term(params, phi_ext, build_primitives(tr, params))
        assert not np.iscomplexobj(HJ.data)

    @pytest.mark.parametrize("disorder", DISORDER_SETS)
    def test_complex_off_half_flux(self, canonical, disorder):
        tr = BasisTruncation(3, 3, 8)
        H = full_hamiltonian(canonical.replace(**disorder),
                             BiasPoint(0.8 * np.pi, 0.0), tr)
        assert H.matrix.dtype == np.complex128
        assert np.abs(H.matrix.data.imag).max() > 1e-3 * np.abs(H.matrix.data).max()

    @pytest.mark.parametrize("disorder", [{}, DISORDER_SETS[-1]])
    def test_energies_equal_lab_frame(self, canonical, disorder):
        from cos2phi.analysis import solve_circuit

        tr = BasisTruncation(4, 4, 14)
        params = canonical.replace(**disorder)
        bias = BiasPoint(np.pi, 0.3)
        d = lab_phases(tr)
        H = full_hamiltonian(params, bias, tr).toarray()
        lab = d[:, None] * H * d.conj()[None, :]
        assert np.abs(lab.imag).max() > 1e-3  # the lab frame is complex
        ref = np.linalg.eigvalsh(lab)[:6]
        ls = solve_circuit(params, bias, tr, k=6)
        assert ls.solution.meta["backend"] == "krylov"
        assert ls.solution.vectors.dtype == np.float64
        assert np.abs(ls.energies - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_projection_undoes_the_gauge(self, canonical_medium):
        from cos2phi.analysis import _hermite_column, _theta0_projection

        ls = canonical_medium
        prim, tr = ls.primitives, ls.primitives.trunc
        phi = np.linspace(0.0, 2 * np.pi, 37)
        chi_q0 = _hermite_column(tr.q0, np.array([0.0]))[0] / np.sqrt(prim.theta_zpf)
        chi_p = (_hermite_column(tr.p0, (phi - ls.bias.phi_ext) / prim.phi_zpf)
                 / np.sqrt(prim.phi_zpf))
        for i in range(2):
            lab = (lab_phases(tr) * ls.solution.vectors[:, i]).reshape(
                2 * tr.N0 + 1, tr.p0 + 1, tr.q0 + 1)
            expect = (lab @ chi_q0) @ chi_p.T
            got = _theta0_projection(ls, i, phi)
            assert np.abs(got - expect).max() <= 1e-13

    @pytest.mark.parametrize("disorder", DISORDER_SETS)
    @pytest.mark.parametrize("phi_ext", [np.pi, 0.8 * np.pi])
    def test_to_lab_undoes_the_kron_gauge(self, canonical, disorder, phi_ext):
        # to_lab is D v for the independent D, keeps the norm, and takes each
        # gauged single-mode block back to its lab-frame meaning:
        # to_lab(kron(B) v) = kron3(B) to_lab(v), so kron and to_lab share D
        from cos2phi.analysis import solve_circuit

        tr = BasisTruncation(3, 3, 8)
        ls = solve_circuit(canonical.replace(**disorder), BiasPoint(phi_ext, 0.3),
                           tr, k=2)
        prim = ls.primitives
        rng = np.random.default_rng(7)
        vectors = [*ls.solution.vectors.T,
                   rng.normal(size=tr.dim) + 1j * rng.normal(size=tr.dim)]
        blocks = [(prim.N, None, None), (prim.cos_hop, None, None),
                  (prim.sin_hop, None, None), (None, prim.dphi, None),
                  (None, prim.n, None), (None, None, prim.theta),
                  (None, None, prim.eta), (None, None, prim.num_b),
                  (None, displaced_cosine(prim.phi_zpf, phi_ext, tr.p0), None)]
        d = lab_phases(tr)
        for v in vectors:
            lab = prim.to_lab(v)
            assert lab.shape == (2 * tr.N0 + 1, tr.p0 + 1, tr.q0 + 1)
            assert np.abs(lab.ravel() - d * v).max() <= 1e-15
            assert abs(np.linalg.norm(lab) - np.linalg.norm(v)) <= (
                1e-15 * np.linalg.norm(v))
            for term in blocks:
                lab_op = kron3(*(sp.identity(n) if b is None else b
                                 for b, n in zip(term, lab.shape)))
                got = prim.to_lab(prim.kron(term) @ v).ravel()
                expect = lab_op @ lab.ravel()
                assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
