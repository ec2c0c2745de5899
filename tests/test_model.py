import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cos2phi.analysis import LabelingError, label_states
from cos2phi.config import _CHANNEL_KEYS
from cos2phi.constants import (DELTA_GAP, E_CHARGE, H_PLANCK, R_K,
                               PhysicalConstants)
from cos2phi.eigensolver import lowest_eigenpairs
from cos2phi.hamiltonians import full_hamiltonian
from cos2phi.model import (
    BasisTruncation,
    BiasPoint,
    CircuitParams,
    DimensionCapError,
    HermitianOperator,
    _displacement_amplitudes,
    build_primitives,
    displaced_cosine,
    displaced_sine,
    ladder,
)
from oracles import displaced_trig_quadrature
import scipy.sparse as sp


def test_constants_consistency():
    assert R_K == pytest.approx(H_PLANCK / E_CHARGE**2, rel=1e-15)
    assert PhysicalConstants().temperature == pytest.approx(0.016)
    # aluminum gap default around 180 ueV
    assert DELTA_GAP / 1.602176634e-19 == pytest.approx(181e-6, rel=0.02)


def test_constants_record_holds_only_the_environment():
    # every field is one a config sets; the SI constants are module constants
    names = {f.name for f in dataclasses.fields(PhysicalConstants)}
    assert names == {"temperature", *_CHANNEL_KEYS}


class TestCircuitParams:
    def test_positivity(self):
        with pytest.raises(ValueError):
            CircuitParams(eps_J=-1.0, eps_C=2.0, eps_L=1.0, x=0.02)
        with pytest.raises(ValueError):
            CircuitParams(eps_J=15.0, eps_C=2.0, eps_L=1.0, x=0.0)

    def test_delta_ranges(self):
        with pytest.raises(ValueError):
            CircuitParams(15.0, 2.0, 1.0, 0.02, delta_L=1.0)
        with pytest.raises(ValueError):
            CircuitParams(15.0, 2.0, 1.0, 0.02, delta_J=-0.1)

    def test_area_disorder_exclusive(self):
        with pytest.raises(ValueError):
            CircuitParams(15.0, 2.0, 1.0, 0.02, delta_A=0.2, delta_J=0.1)
        p = CircuitParams(15.0, 2.0, 1.0, 0.02, delta_A=0.2)
        assert p.delta_J_eff == 0.2 and p.delta_C_eff == 0.2

    @pytest.mark.parametrize("disorder", [{}, {"delta_J": 0.3}, {"delta_A": 0.2}])
    def test_junction_energies(self, disorder):
        # junction + carries (1 + dJ) eps_J, junction - (1 - dJ) eps_J
        p = CircuitParams(15.0, 2.0, 1.0, 0.02, **disorder)
        d = p.delta_J_eff
        assert p.junction_energies == ((1.0 + d) * 15.0, (1.0 - d) * 15.0)

    def test_z_warning(self):
        with pytest.warns(UserWarning, match="semiclassical"):
            CircuitParams(eps_J=3.0, eps_C=2.0, eps_L=1.0, x=0.02)

    def test_dressings(self):
        p = CircuitParams(15.0, 2.0, 1.0, 0.02, delta_L=0.6, delta_C=0.3)
        assert p.eps_L_dressed == pytest.approx(1.0 / (1 - 0.36))
        assert p.eps_C_dressed == pytest.approx(2.0 / (1 - 0.09))


class TestBiasPoint:
    def test_finite(self):
        with pytest.raises(ValueError):
            BiasPoint(np.inf, 0.0)

    def test_folding(self):
        assert BiasPoint(np.pi).phi_ext_folded == pytest.approx(np.pi)
        assert BiasPoint(3.5 * np.pi).phi_ext_folded == pytest.approx(0.5 * np.pi)
        assert BiasPoint(-0.3).phi_ext_folded == pytest.approx(0.3)

    def test_at_half_flux(self):
        for phi in (np.pi, 3 * np.pi, -np.pi, np.pi + 5e-10):
            assert BiasPoint(phi).at_half_flux
        for phi in (0.0, 2 * np.pi, np.pi + 2e-9, 0.9 * np.pi):
            assert not BiasPoint(phi).at_half_flux


class TestBasisTruncation:
    def test_dim(self):
        assert BasisTruncation(7, 7, 30).dim == 15 * 8 * 31

    def test_validation(self):
        with pytest.raises(ValueError):
            BasisTruncation(0, 5, 5)


class TestOperatorAlgebra:
    def test_labels_reject_other_basis(self, canonical, half_flux):
        tr = BasisTruncation(2, 2, 2)
        sol = lowest_eigenpairs(full_hamiltonian(canonical, half_flux, tr), 2)
        other = build_primitives(BasisTruncation(2, 2, 3), canonical)
        with pytest.raises(LabelingError, match="different bases"):
            label_states(sol, half_flux, other)

    def test_symmetry_shape_checked(self, canonical, half_flux):
        H = full_hamiltonian(canonical, half_flux, BasisTruncation(2, 2, 2))
        other = build_primitives(BasisTruncation(2, 2, 3), canonical)
        with pytest.raises(ValueError, match="symmetry of shape"):
            lowest_eigenpairs(H, 2, symmetry=other.parity())

    def test_dressing_changes_fingerprint(self, canonical):
        tr = BasisTruncation(2, 2, 2)
        p1 = build_primitives(tr, canonical)
        p2 = build_primitives(tr, canonical.replace(delta_L=0.5))
        assert p1.fingerprint != p2.fingerprint

    def test_hermiticity_enforced(self):
        bad = sp.csr_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="hermiticity"):
            HermitianOperator(bad, "fp")

    def test_dimension_cap(self, canonical):
        with pytest.raises(DimensionCapError):
            build_primitives(BasisTruncation(60, 60, 60), canonical)


class TestPrimitives:
    def test_charge_number_minimal(self, canonical):
        prim = build_primitives(BasisTruncation(1, 0, 0), canonical)
        N = prim.kron((prim.N, None, None))
        assert np.allclose(N.toarray(), np.diag([-1.0, 0.0, 1.0]))

    def test_cos_hop_minimal(self, canonical):
        prim = build_primitives(BasisTruncation(1, 0, 0), canonical)
        # the gauge phases i^N turn the real hop into an imaginary one
        m = prim.kron((prim.cos_hop, None, None)).toarray()
        assert np.count_nonzero(m) == 4
        assert np.allclose(np.abs(m[m != 0]), 0.5)

    def test_ladder_commutator(self, canonical):
        p0 = 6
        prim = build_primitives(BasisTruncation(1, p0, 0), canonical)
        a = prim.kron((None, ladder(p0 + 1)[0], None))
        adag = a.conj().T
        comm = (a @ adag - adag @ a).toarray()
        eye = prim.kron((None, None, None)).toarray()
        # deviation confined to the truncation corner p = p0
        diff = comm - eye
        nb = 1  # q0 = 0
        corner = [(n * (p0 + 1) + p0) * nb for n in range(3)]
        mask = np.ones_like(diff, dtype=bool)
        for c in corner:
            mask[c, c] = False
        assert np.abs(diff[mask]).max() < 1e-14
        for c in corner:
            assert diff[c, c] == pytest.approx(-(p0 + 1))

    def test_zpf_values_reference_point(self, canonical):
        prim = build_primitives(BasisTruncation(2, 2, 2), canonical)
        assert prim.phi_zpf == pytest.approx(2.0, rel=1e-12)
        assert prim.eta_zpf == pytest.approx(0.5 * (1 / 0.04) ** 0.25, rel=1e-12)
        assert prim.eta_zpf == pytest.approx(1.118, rel=1e-3)
        assert prim.omega_b == pytest.approx(0.8, rel=1e-12)

    def test_eta_theta_conjugate(self, canonical):
        nb = 9
        prim = build_primitives(BasisTruncation(1, 0, nb - 1), canonical)
        theta = prim.kron((None, None, prim.theta))
        eta = prim.kron((None, None, prim.eta))
        comm = (theta @ eta - eta @ theta).toarray()
        # [theta, eta] = i on each charge block, up to the truncation corner
        block = comm[:nb, :nb]
        inner = block[:-1, :-1]
        assert np.abs(inner - 1j * np.eye(nb - 1)).max() < 1e-12

    def test_all_primitives_hermitian(self, canonical):
        prim = build_primitives(BasisTruncation(2, 3, 4), canonical)
        blocks = ((prim.N, None, None), (prim.cos_hop, None, None),
                  (prim.sin_hop, None, None), (None, prim.n, None),
                  (None, prim.dphi, None), (None, None, prim.theta),
                  (None, None, prim.eta))
        for op in [prim.kron(b) for b in blocks] + [prim.parity()]:
            m = op.toarray()
            assert np.abs(m - m.conj().T).max() <= 1e-12 * max(np.abs(m).max(), 1e-300)


class TestDisplacedCosine:
    def test_zero_zpf_constant(self):
        for off in (0.0, 1.3, np.pi):
            m = displaced_cosine(0.0, off, 5)
            assert np.allclose(m, np.cos(off / 2) * np.eye(6))

    @pytest.mark.parametrize("p0", [7, 12, 40])
    def test_amplitudes_match_scipy_laguerre(self, p0):
        # the recurrence against the closed form evaluated by scipy.special,
        # which the package no longer imports
        from scipy.special import eval_genlaguerre, gammaln

        for lam in (0.05, 0.3, 0.7, 1.1, 1.5):
            ref = np.zeros((p0 + 1, p0 + 1))
            for m in range(p0 + 1):
                for n in range(m + 1):
                    ref[m, n] = ref[n, m] = (
                        np.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)) - 0.5 * lam**2)
                        * lam ** (m - n) * eval_genlaguerre(n, m - n, lam**2))
            dev = np.abs(_displacement_amplitudes(lam, p0) - ref).max()
            assert dev <= 2e-16 * (p0 + 1)

    def test_vacuum_element(self):
        lam = 0.7 / 2
        m = displaced_cosine(0.7, 0.0, 8)
        assert m[0, 0] == pytest.approx(np.exp(-lam**2 / 2), rel=1e-12)

    def test_offset_two_pi_negates(self):
        m0 = displaced_cosine(1.1, 0.0, 10)
        m2 = displaced_cosine(1.1, 2 * np.pi, 10)
        assert np.abs(m0 + m2).max() < 1e-12

    def test_dual_construction_interior(self):
        # closed form vs padded quadrature oracle; the last 10% of rows are
        # excluded per the stated tolerance region, though the padded oracle
        # agrees everywhere
        p0 = 60
        keep = int(0.9 * (p0 + 1))
        for zpf, off in ((3.0, 0.0), (2.0, np.pi), (1.0, 0.4)):
            a = displaced_cosine(zpf, off, p0)[:keep, :keep]
            b = displaced_trig_quadrature(zpf, off, p0, "cos", pad=60)[:keep, :keep]
            assert np.abs(a - b).max() < 1e-9
            a = displaced_sine(zpf, off, p0)[:keep, :keep]
            b = displaced_trig_quadrature(zpf, off, p0, "sin", pad=60)[:keep, :keep]
            assert np.abs(a - b).max() < 1e-9

    @given(
        zpf=st.floats(0.05, 3.0),
        off=st.floats(-2 * np.pi, 2 * np.pi),
        p0=st.integers(2, 40),
    )
    def test_dual_construction_property(self, zpf, off, p0):
        keep = max(1, int(0.9 * (p0 + 1)))
        a = displaced_cosine(zpf, off, p0)[:keep, :keep]
        b = displaced_trig_quadrature(zpf, off, p0, "cos", pad=60)[:keep, :keep]
        assert np.abs(a - b).max() < 1e-9

    def test_sine_parity_odd_at_zero_offset(self):
        # sin of the pure quadrature anticommutes with Fock parity
        p0 = 12
        m = displaced_sine(1.3, 0.0, p0)
        par = np.diag((-1.0) ** np.arange(p0 + 1))
        assert np.abs(par @ m @ par + m).max() < 1e-12

    def test_negative_zpf_rejected(self):
        with pytest.raises(ValueError):
            displaced_cosine(-0.1, 0.0, 4)
