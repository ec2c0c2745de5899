import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from cos2phi import coherence
from cos2phi.analysis import disorder_sweep
from cos2phi.cache import SolutionCache
from cos2phi.coherence import (
    CHANNELS,
    full_report,
    q_cap,
    q_ind,
    t1_channel,
    tphi_charge,
    tphi_critical_current,
    tphi_flux,
    tphi_shot,
)
from cos2phi.constants import (GHZ_TO_RAD_PER_S, HBAR, H_PLANCK, K_B,
                               PhysicalConstants)
from cos2phi.constants import T1_CHANNELS
from cos2phi.eigensolver import NonConvergenceError
from cos2phi.hamiltonians import UnsupportedBiasError, full_hamiltonian
from cos2phi.model import BasisTruncation, BiasPoint
from oracles import lab_phases


class TestQualityFactors:
    def test_q_cap_nominal(self):
        assert q_cap(2 * np.pi * 6e9) == pytest.approx(1e6, rel=1e-12)

    def test_q_cap_power_law(self):
        assert q_cap(2 * np.pi * 0.6e9) == pytest.approx(1e6 * 10**0.7, rel=1e-12)

    def test_q_cap_monotone(self):
        ws = 2 * np.pi * np.array([0.1e9, 1e9, 6e9, 20e9])
        qs = [q_cap(w) for w in ws]
        assert np.all(np.diff(qs) < 0)

    def test_q_cap_zero_rejected(self):
        with pytest.raises(ValueError):
            q_cap(0.0)

    def test_q_ind_nominal(self):
        w = 2 * np.pi * 0.5e9
        assert q_ind(w) == pytest.approx(500e6, rel=1e-12)

    def test_q_ind_even(self):
        w = 2 * np.pi * 0.1e9
        assert q_ind(w) == pytest.approx(q_ind(-w), rel=1e-14)

    def test_q_ind_small_frequency_series(self):
        # K0(x) sinh(x) -> x (ln 2 - ln x - gamma) for small x
        T = 0.016
        w = 2 * np.pi * 1e5  # 100 kHz
        x = HBAR * w / (2 * K_B * T)
        series = x * (math.log(2.0) - math.log(x) - 0.5772156649015329)
        x_ref = H_PLANCK * 0.5e9 / (2 * K_B * T)
        from scipy.special import kv

        ref = kv(0, x_ref) * np.sinh(x_ref)
        assert q_ind(w, PhysicalConstants(temperature=T)) == pytest.approx(
            500e6 * ref / series, rel=1e-3)

    def test_k0_matches_scipy(self):
        # the trapezoid rule is accurate to about 4e-16; scipy.special.kv
        # itself is off by up to 1.4e-15 on this range
        from scipy.special import kv

        for x in np.geomspace(1e-5, 30.0, 400):
            assert coherence._k0(x) == pytest.approx(kv(0, x), rel=3e-15, abs=0)

    def test_q_ind_domain(self):
        with pytest.raises(ValueError):
            q_ind(0.0)

    def test_nominal_values_scale(self):
        # the quality factors are linear in their nominal field
        c = PhysicalConstants(q_cap=2e6, q_ind=1e9)
        w = 2 * np.pi * 1.3e9
        assert q_cap(w, c) == pytest.approx(2 * q_cap(w), rel=1e-15)
        assert q_ind(w, c) == pytest.approx(2 * q_ind(w), rel=1e-15)


class TestEnvironment:
    @pytest.mark.parametrize("field,value", [
        ("q_cap", 0.0), ("q_ind", 0.0), ("q_cap", -1.0), ("q_ind", -5e8),
        ("temperature", 0.0), ("temperature", -1.0), ("x_qp", -1.0),
        ("sqrt_A_flux", -1e-6), ("sqrt_A_epsJ_rel", -1e-7),
        ("q_cap", float("nan")),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PhysicalConstants(**{field: value})

    def test_zero_amplitudes_allowed(self):
        c = PhysicalConstants(x_qp=0.0, sqrt_A_flux=0.0, sqrt_A_epsJ_rel=0.0)
        assert c.x_qp == c.sqrt_A_flux == c.sqrt_A_epsJ_rel == 0.0


class TestT1Channels:
    def test_inductive_magnitude(self, canonical_medium):
        t1 = t1_channel("inductive", canonical_medium)
        # converges to ~0.64 ms on the production basis; the medium basis
        # sits within a factor of two
        assert 0.3 < t1 < 1.3

    def test_capacitive_large(self, canonical_medium):
        t1 = t1_channel("capacitive", canonical_medium)
        assert t1 > 1e4

    def test_purcell_sentinel_symmetric(self, canonical_medium):
        assert math.isinf(t1_channel("purcell", canonical_medium))

    def test_purcell_finite_with_asymmetry(self, canonical, half_flux, medium_trunc):
        ls = SolutionCache().get_or_solve(
            canonical.replace(delta_L=0.6), half_flux, medium_trunc, k=2)
        t1 = t1_channel("purcell", ls)
        assert np.isfinite(t1) and t1 > 1.0

    def test_quasiparticle_sentinel_all_asymmetries(self, canonical, half_flux,
                                                    small_trunc):
        for dL in (0.0, 0.3, 0.6, 0.9):
            ls = SolutionCache().get_or_solve(canonical.replace(delta_L=dL), half_flux,
                                              small_trunc, k=2)
            assert math.isinf(t1_channel("quasiparticle", ls))

    def test_quasiparticle_element_structurally_dark(self, canonical_medium):
        from cos2phi.coherence import _quasiparticle_elements

        ls = canonical_medium
        v0 = ls.solution.vectors[:, 0]
        v1 = ls.solution.vectors[:, 1]
        prim = ls.primitives
        for _, op, embed in _quasiparticle_elements(ls.params, ls.bias, prim):
            w0 = embed @ prim.to_lab(v0).ravel()
            w1 = embed @ prim.to_lab(v1).ravel()
            me = abs(np.vdot(w1, op @ w0))
            denom = np.sqrt(np.real(np.vdot(op @ w0, op @ w0)))
            assert denom > 0.1  # the operator itself is far from zero
            assert me / denom < 1e-8

    def test_quasiparticle_embedding_undoes_the_gauge(self, canonical, small_trunc):
        # the returned embedding is frame free: the plain embedding onto the
        # integer sublattice of the doubled charge lattice, which takes the
        # lab-frame amplitudes to_lab(v) of a gauged vector v to D v there
        from cos2phi.coherence import _quasiparticle_elements

        ls = SolutionCache().get_or_solve(
            canonical, BiasPoint(0.9 * np.pi, 0.0), small_trunc, k=2)
        t, prim = small_trunc, ls.primitives
        d = lab_phases(t)
        nN = 2 * t.N0 + 1
        sublattice = sp.csr_matrix((np.ones(nN), (np.arange(0, 2 * nN - 1, 2),
                                                  np.arange(nN))),
                                   shape=(2 * nN - 1, nN))
        lab_embed = sp.kron(sublattice, sp.identity((t.p0 + 1) * (t.q0 + 1)))
        for _, op, embed in _quasiparticle_elements(ls.params, ls.bias, prim):
            assert (embed != lab_embed).nnz == 0
            for v in ls.solution.vectors.T:
                w = lab_embed @ (d * v)
                assert np.abs(embed @ prim.to_lab(v).ravel() - w).max() <= 1e-15
                # the lab-frame operator acts on it far from trivially
                assert np.linalg.norm(op @ w) > 0.1

    def test_unknown_channel(self, canonical_medium):
        with pytest.raises(ValueError):
            t1_channel("gravitational", canonical_medium)

    def test_pair_is_lowest_two_states_whatever_the_labels(
            self, canonical, half_flux, small_trunc):
        # relaxation reads states 0 and 1 of the solve, as flux and
        # critical-current dephasing do: swapping the labels of states 0
        # and 2 moves (0, +) to state 2 and leaves every T1 channel bit for
        # bit as solved
        ls = SolutionCache().get_or_solve(canonical.replace(delta_L=0.6), half_flux,
                                          small_trunc, k=3)
        swap = {0: 2, 2: 0}
        relabeled = dataclasses.replace(ls, labels=[
            dataclasses.replace(lab, index=swap.get(lab.index, lab.index))
            for lab in ls.labels
        ])
        assert ls.find(0, "+") == 0 and relabeled.find(0, "+") == 2
        for kind in T1_CHANNELS:
            t1 = t1_channel(kind, ls)
            assert t1_channel(kind, relabeled).hex() == t1.hex(), kind
        assert math.isfinite(t1_channel("purcell", ls))

    def test_detailed_balance_high_frequency_limit(self):
        xs = HBAR * 2 * np.pi * np.array([1e9, 5e9, 2e10, 1e11]) / (
            2 * K_B * 0.016
        )
        coths = 1.0 / np.tanh(xs)
        assert np.all(np.diff(coths) <= 0)
        assert np.all(coths >= 1.0)
        assert coths[-1] == pytest.approx(1.0, abs=1e-6)


class TestDephasing:
    def test_charge_rate_formula(self):
        eps = 4.2e-4  # GHz
        t = tphi_charge(eps)
        rate = (np.pi / (2 * np.e) ** 2) * eps * 2 * np.pi * 1e9
        assert t == pytest.approx(1e3 / rate, rel=1e-12)

    def test_charge_zero_sentinel(self):
        assert math.isinf(tphi_charge(0.0))

    def test_flux_sweet_spot_guard(self, canonical, small_trunc):
        ls = SolutionCache().get_or_solve(
            canonical, BiasPoint(0.9 * np.pi), small_trunc, k=2)
        with pytest.raises(UnsupportedBiasError):
            tphi_flux(ls)

    def test_flux_curvature_against_two_level_model(self, canonical):
        tr = BasisTruncation(4, 4, 14)
        ls = SolutionCache().get_or_solve(canonical, BiasPoint(np.pi, 0.0), tr, k=2)
        t = tphi_flux(ls)
        dE = ls.energies[1] - ls.energies[0]
        curv_model = (np.pi * canonical.eps_L) ** 2 / dE
        rate_model = (2 * np.pi * 3e-6) ** 2 * curv_model * 2 * np.pi * 1e9
        assert t == pytest.approx(1e3 / rate_model, rel=0.35)

    def test_flux_first_derivative_vanishes(self, canonical):
        tr = BasisTruncation(4, 4, 14)
        h = 1e-3

        def split(p):
            ls = SolutionCache().get_or_solve(canonical, BiasPoint(p, 0.0), tr, k=2)
            return ls.energies[1] - ls.energies[0]

        d1 = (split(np.pi + h) - split(np.pi - h)) / (2 * h)
        assert abs(d1) < 1e-6

    def test_curvature_splitting_product_roughly_constant(self, canonical):
        # the two-level model predicts curvature x splitting = (pi eps_L)^2
        tr = BasisTruncation(4, 4, 14)
        prods = []
        for dL in (0.0, 0.3):
            p = canonical.replace(delta_L=dL)
            b = BiasPoint(np.pi, 0.0)
            ls = SolutionCache().get_or_solve(p, b, tr, k=2)
            dE = ls.energies[1] - ls.energies[0]
            t = tphi_flux(ls)
            rate = 1e3 / t
            curv = rate / ((2 * np.pi * 3e-6) ** 2 * 2 * np.pi * 1e9)
            prods.append(curv * dE)
        assert prods[1] == pytest.approx(prods[0], rel=0.35)

    def test_shot_formula_and_sentinels(self):
        t = tphi_shot(-5e-3, 0.78)
        wp = 0.78 * 2 * np.pi * 1e9
        chi = -5e-3 * 2 * np.pi * 1e9
        n_th = 1 / math.expm1(HBAR * wp / (K_B * 0.016))
        kappa = wp / q_cap(wp)
        rate = n_th * kappa * chi**2 / (chi**2 + kappa**2)
        assert t == pytest.approx(1e3 / rate, rel=1e-9)
        assert math.isinf(tphi_shot(0.0, 0.78))
        cold = PhysicalConstants(temperature=1e-6)
        assert math.isinf(tphi_shot(-5e-3, 0.78, constants=cold))

    def test_critical_current_zero_amplitude(self, canonical, small_trunc):
        ls = SolutionCache().get_or_solve(canonical, BiasPoint(np.pi), small_trunc, k=2)
        quiet = PhysicalConstants(sqrt_A_epsJ_rel=0.0)
        assert math.isinf(tphi_critical_current(ls, quiet))

    def test_critical_current_magnitude(self, canonical):
        tr = BasisTruncation(4, 4, 14)
        ls = SolutionCache().get_or_solve(canonical, BiasPoint(np.pi, 0.0), tr, k=2)
        t = tphi_critical_current(ls)
        # the splitting depends exponentially on the junction energy, so the
        # logarithmic derivative is a few times the splitting itself
        assert 50.0 < t < 500.0


    @pytest.mark.parametrize("disorder", [
        {}, {"delta_L": 0.3}, {"delta_J": 0.1}, {"delta_A": 0.1, "delta_L": 0.3},
    ])
    def test_critical_current_slope_against_finite_differences(
        self, canonical, disorder
    ):
        # Hellmann-Feynman slope eps_J d(E1 - E0)/d eps_J against central
        # differences of dense splittings, Richardson-extrapolated
        tr = BasisTruncation(4, 4, 14)
        p = canonical.replace(**disorder)
        b = BiasPoint(np.pi, 0.0)
        t = tphi_critical_current(SolutionCache().get_or_solve(p, b, tr, k=2),
                                  PhysicalConstants(sqrt_A_epsJ_rel=1.0))
        slope = 1e3 / (t * GHZ_TO_RAD_PER_S)

        def central(s):
            up = _dense_splitting(p.replace(eps_J=p.eps_J * (1 + s)), b, tr)
            dn = _dense_splitting(p.replace(eps_J=p.eps_J * (1 - s)), b, tr)
            return (up - dn) / (2 * s)

        fd = (4 * central(5e-4) - central(1e-3)) / 3
        assert slope == pytest.approx(abs(fd), rel=1e-6)

    def test_flux_curvature_against_finite_differences(self, canonical):
        # Sternheimer curvature against Richardson-extrapolated second
        # differences of dense splittings; steps stay inside the sweet-spot
        # quadratic, whose width scales with the splitting
        tr = BasisTruncation(4, 4, 14)
        p = canonical.replace(delta_L=0.3)
        ls = SolutionCache().get_or_solve(p, BiasPoint(np.pi, 0.0), tr, k=2)
        unit = PhysicalConstants(sqrt_A_flux=1.0)
        curv = 1e3 / (tphi_flux(ls, unit) * GHZ_TO_RAD_PER_S)

        mid = _dense_splitting(p, BiasPoint(np.pi), tr)

        def second(h):
            up = _dense_splitting(p, BiasPoint(np.pi + h), tr)
            dn = _dense_splitting(p, BiasPoint(np.pi - h), tr)
            return (up - 2 * mid + dn) / h**2

        fd = (4 * second(1e-5) - second(2e-5)) / 3
        assert curv == pytest.approx(abs(fd), rel=1e-5)


    def test_flux_curvature_iteration_cap(self, canonical, small_trunc,
                                          monkeypatch):
        # an unconverged Sternheimer solve is a non-convergence, not a number
        monkeypatch.setattr(coherence, "STERNHEIMER_MAX_ITER", 2)
        ls = SolutionCache().get_or_solve(
            canonical, BiasPoint(np.pi, 0.0), small_trunc, k=2)
        with pytest.raises(NonConvergenceError):
            tphi_flux(ls)

def _dense_splitting(params, bias, trunc):
    H = full_hamiltonian(params, bias, trunc).toarray()
    w = sla.eigh(H, eigvals_only=True, subset_by_index=[0, 1])
    return w[1] - w[0]

@pytest.fixture(scope="module")
def report(canonical):
    tr = BasisTruncation(4, 4, 14)
    return full_report(canonical, BiasPoint(np.pi, 0.0), tr)


class TestFullReport:

    def test_channels_present(self, report):
        assert set(report.t1) == {"capacitive", "inductive", "purcell",
                                  "quasiparticle"}
        assert set(report.tphi) == {"charge", "flux", "shot", "critical_current"}

    def test_t2_combination_identity(self, report):
        rate = 0.5 / report.t1_total + 1.0 / report.tphi_total
        assert report.t2 == pytest.approx(1.0 / rate, rel=1e-12)

    def test_rate_additivity(self, report, canonical):
        # dropping a channel never shortens T2
        tr = BasisTruncation(4, 4, 14)
        partial = full_report(
            canonical, BiasPoint(np.pi, 0.0), tr,
            channels=[k for k in CHANNELS if k != "charge"],
        )
        assert partial.t2 >= report.t2

    def test_all_disabled_sentinel(self, canonical):
        tr = BasisTruncation(4, 4, 14)
        rep = full_report(canonical, BiasPoint(np.pi, 0.0), tr, channels=())
        assert math.isinf(rep.t2)
        assert rep.as_dict()["charge_dispersion_ghz"] is None
        assert rep.as_dict()["charge_dispersion_unresolved"] is None

    def test_unknown_channel_rejected(self, canonical):
        # checked before any solve, so a typo costs nothing
        tr = BasisTruncation(4, 4, 14)
        solver = SolutionCache()
        with pytest.raises(ValueError, match="capactive"):
            full_report(canonical, BiasPoint(np.pi, 0.0), tr,
                        channels=("capactive", "inductive"), solver=solver)
        assert solver.misses == 0

    def test_serialization(self, report):
        d = report.as_dict()
        assert math.isinf(d["t1_ms"]["purcell"])
        assert isinstance(d["t2_ms"], float)
        assert d["inputs"]["temperature_K"] == pytest.approx(0.016)
        # the charge channel's dispersion and its truncation defect
        assert d["charge_dispersion_ghz"] == report.eps > 0
        assert d["charge_dispersion_defect"] == report.defect >= 0
        assert report.tphi["charge"] == tphi_charge(report.eps)

    def test_dispersion_verdict_is_the_sweep_verdict(self, tmp_path, canonical,
                                                      half_flux):
        # at delta_L = 0.9 the defect is about 0.35, above DEFECT_MAX: the
        # budget flags its charge dispersion as disorder flags that point,
        # from the same four solves
        solver = SolutionCache(tmp_path / "store")
        trunc = BasisTruncation()
        rep = full_report(canonical.replace(delta_L=0.9), half_flux, trunc,
                          channels=("charge",), solver=solver)
        sweep = disorder_sweep(canonical, "L", [0.9], floor=trunc,
                               solver=solver)
        assert rep.unresolved is True
        assert rep.as_dict()["charge_dispersion_unresolved"] is True
        assert rep.unresolved == sweep.unresolved[0]
        assert (rep.eps, rep.defect) == (sweep.eps[0], sweep.defect[0])
        assert solver.misses == 1 + 4 and solver.hits == 4

    def test_solver_seed_reaches_every_channel(self, tmp_path, canonical):
        # the store keys on the solver's Krylov seed, so a store filled at
        # one seed serves none of the budget's solves at another
        tr = BasisTruncation(3, 3, 8)
        channels = ("inductive", "charge", "flux", "critical_current")

        def run(seed):
            solver = SolutionCache(tmp_path / "store", seed=seed)
            full_report(canonical, BiasPoint(np.pi, 0.0), tr,
                        channels=channels, solver=solver)
            return solver

        first = run(5)
        assert first.hits == 0 and first.misses > 0
        again = run(5)
        assert again.hits == first.misses and again.misses == 0
        other = run(11)
        assert other.hits == 0 and other.misses == first.misses
