from dataclasses import replace

import numpy as np
import pytest

from cos2phi.hamiltonians import ToyParams, toy_hamiltonian
from cos2phi.mathieu import TruncationError, asymptotic_dispersion, exact_dispersion


def tracked_bands(tp: ToyParams, ngs, nbands: int) -> np.ndarray:
    """Lowest ``nbands`` bands over ``ngs``, shape (len(ngs), nbands).

    Each band is held in its charge-parity sector of ``toy_hamiltonian``;
    band indices follow the energy order at N_g = 0.
    """
    N = np.arange(-tp.N0_toy, tp.N0_toy + 1)

    def sectors(ng):
        H = toy_hamiltonian(replace(tp, N_g=ng))
        return [np.linalg.eigvalsh(H[np.ix_(N % 2 == s, N % 2 == s)]) for s in (0, 1)]

    ref = sectors(0.0)
    order = sorted((ref[s][i], s, i) for s in (0, 1) for i in range(nbands))[:nbands]
    rows = []
    for ng in ngs:
        e = sectors(ng)
        rows.append([e[s][i] for _, s, i in order])
    return np.array(rows)


@pytest.mark.parametrize("ratio", [30, 40, 50, 60, 70, 80])
def test_swing_from_stationary_offset_charges(ratio):
    # a band held in one sector is even in N_g and 2-periodic, so it is
    # stationary at N_g = 0 and 1 and its swing is E(1) - E(0)
    tp = ToyParams(E_J=2.0 * ratio, E_C=2.0, N0_toy=40)
    ngs = np.linspace(0.0, 1.0, 201)
    E = tracked_bands(tp, ngs, 4)
    # eigenvalue roundoff is absolute, so tolerances scale with the largest band
    tol = 1e-12 * np.abs(E).max()
    np.testing.assert_allclose(tracked_bands(tp, -ngs, 4), E, rtol=0, atol=tol)
    np.testing.assert_allclose(tracked_bands(tp, ngs + 2.0, 4), E, rtol=0, atol=tol)
    for k in range(4):
        steps = np.diff(E[:, k])
        assert np.all(steps > 0) or np.all(steps < 0)
        assert exact_dispersion(tp, k) == pytest.approx(
            E[-1, k] - E[0, k], abs=tol
        )


class TestExactDispersion:
    def test_free_charge_self_consistency(self):
        # E_J = 0: bands are exactly 4 E_C (N - Ng)^2 tracked per sector
        tp = ToyParams(E_J=0.0, E_C=1.0, N0_toy=10)
        ngs = np.linspace(0.0, 1.0, 9)
        band_expect = 4.0 * (0.0 - ngs) ** 2
        assert np.allclose(tracked_bands(tp, ngs, 1)[:, 0], band_expect, atol=1e-12)
        assert exact_dispersion(tp, 0) == pytest.approx(4.0)

    def test_ground_splitting_regression(self):
        tp = ToyParams(E_J=100.0, E_C=2.0, N0_toy=50)
        eps = exact_dispersion(tp, 0)
        # frozen from the dense diagonalization oracle
        assert eps == pytest.approx(0.033234646977, rel=1e-6)
        # splitting at Ng = 0 equals the dispersion in the symmetric model
        e0, e1 = tracked_bands(tp, [0.0], 2)[0]
        assert abs(e1 - e0) == pytest.approx(abs(eps), rel=1e-9)

    def test_extrema_at_endpoints(self):
        tp = ToyParams(E_J=80.0, E_C=2.0, N0_toy=40)
        band = tracked_bands(tp, np.linspace(0.0, 1.0, 21), 1)[:, 0]
        assert band.argmax() in (0, len(band) - 1)
        assert band.argmin() in (0, len(band) - 1)

    def test_sign_alternation(self):
        tp = ToyParams(E_J=100.0, E_C=2.0, N0_toy=40)
        eps = [exact_dispersion(tp, k) for k in range(4)]
        assert eps[0] > 0 and eps[1] == pytest.approx(-eps[0], rel=1e-9)
        assert eps[2] * eps[3] < 0
        assert abs(eps[2]) > abs(eps[0])  # higher doublets disperse more

    def test_even_ladder_spacing(self):
        # doublet centers climb like the junction plasma ladder; the printed
        # linear coefficient ignores the quadratic (anharmonic) term, which
        # contributes -4 E_C at the first rung
        tp = ToyParams(E_J=100.0, E_C=2.0, N0_toy=40)
        e = tracked_bands(tp, [0.0], 4)[0]
        spacing = e[2] - e[0]
        plasma = np.sqrt(32 * tp.E_J * tp.E_C)
        assert spacing == pytest.approx(plasma - 4 * tp.E_C, rel=0.03)
        assert spacing == pytest.approx(plasma - 2 * tp.E_C, rel=0.08)

    def test_out_of_phase_oscillation(self):
        tp = ToyParams(E_J=100.0, E_C=2.0, N0_toy=40)
        s = tracked_bands(tp, np.linspace(0, 1, 11), 2).sum(axis=1)
        eps2 = exact_dispersion(tp, 2)
        assert max(s) - min(s) <= 2 * abs(eps2)

    def test_truncation_guard(self):
        tp = ToyParams(E_J=4000.0, E_C=1.0, N0_toy=4)
        with pytest.raises(TruncationError):
            exact_dispersion(tp, 0)


class TestAsymptoticDispersion:
    def test_doublet0_formula(self):
        tp = ToyParams(E_J=100.0, E_C=2.0)
        lead, _ = asymptotic_dispersion(tp, 0)
        expect = (16 * 2.0 * np.sqrt(2 / np.pi) * (2 * tp.E_J / tp.E_C) ** 0.75
                  * np.exp(-np.sqrt(2 * tp.E_J / tp.E_C)))
        assert lead == pytest.approx(expect, rel=1e-12)
        assert lead == pytest.approx(0.0366, rel=2e-3)

    def test_doublet_ratio(self):
        tp = ToyParams(E_J=100.0, E_C=2.0)
        r = asymptotic_dispersion(tp, 1)[0] / asymptotic_dispersion(tp, 0)[0]
        assert r == pytest.approx(-4 * np.sqrt(2 * tp.E_J / tp.E_C), rel=1e-12)
        # the exact doublet-1/doublet-0 magnitude ratio trends with the
        # printed k-dependence but the k = 1 closed form is ~30% high here
        ex0 = exact_dispersion(ToyParams(100.0, 2.0, N0_toy=40), 0)
        ex2 = exact_dispersion(ToyParams(100.0, 2.0, N0_toy=40), 2)
        assert abs(ex2 / ex0) == pytest.approx(abs(r), rel=0.35)

    def test_low_ratio_warns(self):
        with pytest.warns(UserWarning, match="asymptotic"):
            asymptotic_dispersion(ToyParams(E_J=10.0, E_C=1.0), 0)


RATIOS = (30, 40, 50, 60, 70, 80)


@pytest.fixture(scope="module")
def table():
    rows = []
    for r in RATIOS:
        tp = ToyParams(E_J=2.0 * r, E_C=2.0, N0_toy=40)
        ex = exact_dispersion(tp, 0)
        asym, _ = asymptotic_dispersion(tp, 0)
        rows.append((r, ex, asym))
    return rows


class TestAsymptoticQuality:
    """Measured accuracy of the closed form against the exact bands."""

    def test_relative_error_decreasing(self, table):
        errs = [abs(ex - asym) / abs(asym) for _, ex, asym in table]
        assert np.all(np.diff(errs) < 0)
        # honest magnitude: ~12% at ratio 40 falling to ~8% at 80
        assert 0.07 < errs[-1] < 0.09
        assert errs[1] < 0.12

    def test_log_scale_agreement(self, table):
        for r, ex, asym in table:
            if r < 40:
                continue
            assert abs(np.log(abs(ex)) - np.log(abs(asym))) < 0.05 * abs(
                np.log(abs(asym))
            )

    def test_exponential_suppression_slope(self, table):
        # the raw fit of log eps vs sqrt(ratio) is contaminated by the
        # power-law prefactor; dividing it out recovers -sqrt(2) tightly
        rs = np.array([r for r, _, _ in table], dtype=float)
        lny = np.log([abs(ex) for _, ex, _ in table])
        plain = np.polyfit(np.sqrt(rs), lny, 1)[0]
        corrected = np.polyfit(np.sqrt(rs), lny - 0.75 * np.log(2 * rs), 1)[0]
        assert plain == pytest.approx(-1.188, abs=0.01)
        assert corrected == pytest.approx(-np.sqrt(2.0), rel=0.02)


class TestNextOrder:
    """The DLMF 28.8.2 correction against the exact bands (ROADMAP M7)."""

    @pytest.mark.parametrize("k, bound", [(0, 0.01), (1, 0.03)])
    def test_next_order_error(self, k, bound):
        for r in (40, 50, 60, 70, 80):
            tp = ToyParams(E_J=2.0 * r, E_C=2.0, N0_toy=40)
            # doublet k of the closed form is exact band 2k
            ex = exact_dispersion(tp, 2 * k)
            lead, nxt = asymptotic_dispersion(tp, k)
            assert abs(abs(ex) / abs(nxt) - 1) <= bound
            # the correction is what moves the closed form onto the bands
            assert abs(abs(ex) / abs(lead) - 1) > bound

    def test_next_order_factor(self):
        tp = ToyParams(E_J=100.0, E_C=2.0)
        sqrt_q = np.sqrt(2 * tp.E_J / tp.E_C) / 4
        for k in (0, 1, 2):
            lead, nxt = asymptotic_dispersion(tp, k)
            expect = lead * (1 - (6 * k**2 + 14 * k + 7) / (32 * sqrt_q))
            assert nxt == pytest.approx(expect, rel=1e-14)
