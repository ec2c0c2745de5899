from types import SimpleNamespace

import numpy as np
import pytest

from cos2phi.analysis import (
    DEFECT_MAX,
    DISPERSION_FLOOR,
    FLUXON_ABSENT,
    FLUXON_MINUS,
    FLUXON_PLUS,
    FLUXON_PRESENT,
    FLUXON_UNLABELED,
    LabelingError,
    charge_dispersion,
    dispersion_truncation,
    dispersion_unresolved,
    dispersive_shift,
    disorder_sweep,
    flux_sweep,
    normalized_matrix_elements,
    plasmon_spacings,
    solve_circuit,
    wavefunction_charge,
    wavefunction_phase,
)
from cos2phi.cache import SolutionCache
from cos2phi.eigensolver import NonConvergenceError
from cos2phi.model import BasisTruncation, BiasPoint, CircuitParams
from cos2phi.hamiltonians import full_hamiltonian
from test_hamiltonians import DISORDER_SETS


class TestLabels:
    def test_half_flux_labels(self, canonical_medium):
        labs = canonical_medium.labels
        got = [(l.m, l.fluxon) for l in labs[:4]]
        assert got == [(0, FLUXON_PLUS), (0, FLUXON_MINUS),
                       (1, FLUXON_MINUS), (1, FLUXON_PLUS)]
        assert labs[0].parity == 1

    def test_ground_parity_expectation(self, canonical_medium):
        prim = canonical_medium.primitives
        v0 = canonical_medium.solution.vectors[:, 0]
        p = np.vdot(v0, prim.parity() @ v0).real
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_off_bias_symbols(self, canonical, medium_trunc):
        ls = solve_circuit(canonical, BiasPoint(0.9 * np.pi, 0.0), medium_trunc,
                           k=4)
        assert ls.labels[0].fluxon == FLUXON_ABSENT
        symbols = {l.fluxon for l in ls.labels}
        assert symbols <= {FLUXON_ABSENT, FLUXON_PRESENT}
        assert FLUXON_PRESENT in symbols

    @pytest.mark.parametrize("disorder,bias,symmetry", [
        ({}, (np.pi, 0.5), "parity"),
        ({}, (3 * np.pi, 0.0), "parity"),
        ({"delta_L": 0.6}, (np.pi, 0.0), "mirror"),
        (DISORDER_SETS[-1], (np.pi, 0.0), "mirror"),
        ({"delta_L": 0.6}, (np.pi, 0.3), None),
        ({}, (0.9 * np.pi, 0.0), None),
    ])
    def test_symmetry_follows_bias(self, canonical, disorder, bias, symmetry):
        # parity for the symmetric circuit at half flux, the mirror for any
        # circuit there at N_g = 0, the full space otherwise; the states
        # are eigenstates of the symmetry the solve used
        ls = solve_circuit(canonical.replace(**disorder), BiasPoint(*bias),
                           BasisTruncation(3, 3, 8), k=4)
        assert ("blocks" in ls.solution.meta) == (symmetry is not None)
        if symmetry is not None:
            S = getattr(ls.primitives, symmetry)()
            v = ls.solution.vectors
            sv = np.einsum("ij,ij->j", v.conj(), S @ v).real
            assert np.abs(np.abs(sv) - 1.0).max() < 1e-12

    def test_integer_flux_unlabeled(self, canonical, small_trunc):
        ls = solve_circuit(canonical, BiasPoint(0.0, 0.0), small_trunc,
                           k=2)
        assert all(l.fluxon == FLUXON_UNLABELED for l in ls.labels)


class TestFluxSweep:
    def test_single_point_matches_direct(self, canonical, half_flux, small_trunc):
        (res,) = flux_sweep(canonical, [np.pi], k=4, trunc=small_trunc)
        ls = solve_circuit(canonical, half_flux, small_trunc, k=4)
        assert np.allclose(res.energies, ls.energies, atol=1e-10)

    def test_plasmon_branch_flux_flat(self, canonical, medium_trunc):
        grid = np.linspace(0.85 * np.pi, 1.15 * np.pi, 5)
        res = flux_sweep(canonical, grid, k=4, trunc=medium_trunc)
        plasmon = []
        for ls in res:
            labs = {(l.m, l.fluxon): l.index for l in ls.labels}
            lo = [v for (m, f), v in labs.items() if m == 0 and f in
                  (FLUXON_PLUS, FLUXON_ABSENT)][0]
            hi = [v for (m, f), v in labs.items() if m == 1 and f in
                  (FLUXON_PLUS, FLUXON_ABSENT)][0]
            plasmon.append(ls.energies[hi] - ls.energies[lo])
        plasmon = np.array(plasmon)
        assert np.all(np.abs(plasmon / plasmon.mean() - 1) < 0.02)

    def test_near_degenerate_pair_at_half_flux(self, canonical_medium):
        e = canonical_medium.energies - canonical_medium.energies[0]
        assert e[1] < 1e-2 * e[2]

    def test_monotone_grid_required(self, canonical, small_trunc):
        with pytest.raises(ValueError):
            flux_sweep(canonical, [3.0, 2.0], trunc=small_trunc)


class _RecordingSolver:
    """Stands in for ``SolutionCache``: records the problems of ``map`` and
    answers each with a fixed splitting and ground-state parity."""

    def __init__(self, splittings, parity):
        self.splittings = splittings  # {N_g: E1 - E0}
        self.parity = parity
        self.problems = []

    def map(self, problems):
        self.problems += problems
        for _, bias, _, _ in problems:
            yield SimpleNamespace(splitting=self.splittings[bias.N_g],
                                  labels=[SimpleNamespace(parity=self.parity)])


class TestChargeDispersion:
    def test_symmetric_dispersion_equals_splitting(self, canonical, medium_trunc):
        dE, eps, defect = charge_dispersion(canonical, np.pi, medium_trunc)
        assert eps >= 0
        # perfect symmetry: the swing over one period equals the splitting,
        # up to the charge-window asymmetry of this small basis (~3%)
        assert eps == pytest.approx(abs(dE), rel=0.05)
        assert dE > 0  # even-parity state lies lower at integer offset charge
        # the splitting collapses at half-integer offset charge
        half = SolutionCache().get_or_solve(
            canonical, BiasPoint(np.pi, 0.5), medium_trunc, 2
        )
        assert half.splitting < 0.05 * abs(dE)

    def test_four_offset_charges_one_rule(self, canonical, small_trunc):
        solver = _RecordingSolver({0.0: 3.0, 0.25: 2.0, 0.5: 1.0, 1.0: 3.5},
                                  parity=-1)
        dE, eps, defect = charge_dispersion(canonical, np.pi, small_trunc,
                                            solver=solver)
        # N_g = 0, the one blocked solve, comes last
        assert [(p, b.phi_ext, b.N_g, t, k) for p, b, t, k in solver.problems] == [
            (canonical, np.pi, ng, small_trunc, 2) for ng in (0.25, 0.5, 1.0, 0.0)
        ]
        assert (dE, eps, defect) == (-3.0, 2.0, 0.25)
        # the swing may rise from Ng = 0 to 1/2 as well
        solver = _RecordingSolver({0.0: 1.0, 0.25: 1.5, 0.5: 3.0, 1.0: 1.0},
                                  parity=1)
        assert charge_dispersion(canonical, np.pi, small_trunc,
                                 solver=solver) == (1.0, 2.0, 0.0)

    @pytest.mark.parametrize("quarter", [0.5, 1.0, 3.0, 3.5])
    def test_non_monotone_swing_is_non_convergence(self, canonical, small_trunc,
                                                   quarter):
        # s(1/4) outside the open interval (s(1/2), s(0)): the two stationary
        # offset charges need not hold the extrema
        solver = _RecordingSolver({0.0: 3.0, 0.25: quarter, 0.5: 1.0, 1.0: 3.0},
                                  parity=1)
        with pytest.raises(NonConvergenceError, match=r"s\(1/4\)"):
            charge_dispersion(canonical, np.pi, small_trunc, solver=solver)

    @pytest.mark.parametrize("disorder", DISORDER_SETS)
    def test_swing_within_dense_grid_and_defect(self, canonical, disorder,
                                                medium_trunc):
        # the 17-point max - min counts the physical swing plus at most the
        # truncation defect
        p = canonical.replace(**disorder)
        solver = SolutionCache()
        s = np.array([ls.splitting for ls in solver.map(
            [(p, BiasPoint(np.pi, ng), medium_trunc, 2)
             for ng in np.linspace(0.0, 1.0, 17)]
        )])
        _, eps, defect = charge_dispersion(p, np.pi, medium_trunc, solver=solver)
        swing = s.max() - s.min()
        assert eps * (1 - 1e-6) <= swing <= eps * (1 + defect) * (1 + 1e-6)


class TestDisorderSweep:
    def test_zero_delta_identical_across_kinds(self, canonical, small_trunc):
        rows = {}
        for kind in ("J", "C", "A", "L"):
            res = disorder_sweep(canonical, kind, [0.0], floor=small_trunc)
            rows[kind] = (res.eps[0], res.dE[0])
        vals = list(rows.values())
        for v in vals[1:]:
            assert v[0] == pytest.approx(vals[0][0], rel=1e-9)
            assert v[1] == pytest.approx(vals[0][1], rel=1e-9)

    def test_inductive_suppresses_fastest(self, canonical):
        # needs the production basis: the truncation artifact must sit below
        # the physical dispersions being compared
        tr = BasisTruncation(7, 7, 30)
        eps = {}
        for kind in ("J", "C", "A", "L"):
            res = disorder_sweep(canonical, kind, [0.3], floor=tr)
            eps[kind] = res.eps[0]
        assert eps["L"] < eps["J"]
        assert eps["L"] < eps["C"]
        assert eps["L"] < eps["A"]

    def test_area_and_inductive_initial_splitting_slopes(self, canonical, medium_trunc):
        dEs = {}
        for kind in ("A", "L"):
            res = disorder_sweep(canonical, kind, [0.15], floor=medium_trunc)
            dEs[kind] = abs(res.dE[0])
        assert dEs["A"] == pytest.approx(dEs["L"], rel=0.5)

    @pytest.mark.parametrize("kind", ["J", "C", "A", "L"])
    @pytest.mark.parametrize("delta, row", [
        (0.0, (7, 7, 30)), (0.3, (10, 10, 46)), (0.9, (12, 12, 56)),
    ])
    def test_dispersion_basis_by_largest_asymmetry(self, canonical, kind,
                                                   delta, row):
        # the schedule row of delta, whichever asymmetry carries it
        p = canonical.replace(**{f"delta_{kind}": delta})
        assert dispersion_truncation(p).as_tuple() == row
        floored = dispersion_truncation(p, BasisTruncation(11, 5, 20))
        assert floored.as_tuple() == (max(11, row[0]), *row[1:])

    def test_sweep_basis_reads_the_whole_circuit(self, canonical):
        # a delta_J = 0 point of a delta_L = 0.6 circuit is solved on the
        # basis of delta_L = 0.6, as coherence solves that circuit
        base = canonical.replace(delta_L=0.6)
        assert dispersion_truncation(base).as_tuple() == (10, 10, 46)
        solver = _RecordingSolver({0.0: 3.0, 0.25: 2.0, 0.5: 1.0, 1.0: 3.0},
                                  parity=1)
        disorder_sweep(base, "J", [0.0], solver=solver)
        assert {t.as_tuple() for _, _, t, _ in solver.problems} == {(10, 10, 46)}

    def test_sweep_solves_on_its_floor(self, canonical):
        # a floor above the schedule row raises every solve of the sweep to
        # it, as it raises coherence's dispersion solves
        solver = _RecordingSolver({0.0: 3.0, 0.25: 2.0, 0.5: 1.0, 1.0: 3.0},
                                  parity=1)
        disorder_sweep(canonical, "L", [0.0], floor=BasisTruncation(7, 7, 40),
                       solver=solver)
        assert {t.as_tuple() for _, _, t, _ in solver.problems} == {(7, 7, 40)}


class TestDispersionVerdict:
    @pytest.mark.parametrize("eps, defect, unresolved", [
        (DISPERSION_FLOOR, DEFECT_MAX, False),
        (np.nextafter(DISPERSION_FLOOR, 0.0), DEFECT_MAX, True),
        (DISPERSION_FLOOR, np.nextafter(DEFECT_MAX, 1.0), True),
        (np.nextafter(DISPERSION_FLOOR, 0.0), np.nextafter(DEFECT_MAX, 1.0), True),
        (1.0, 0.0, False),
    ])
    def test_bounds_are_resolved(self, eps, defect, unresolved):
        # a dispersion at either bound is resolved; one ulp past it is not
        assert dispersion_unresolved(eps, defect) == unresolved

    def test_elementwise_over_a_sweep(self):
        eps = np.array([1e-3, 1e-10, 1e-3])
        defect = np.array([0.0, 0.0, 0.2])
        np.testing.assert_array_equal(dispersion_unresolved(eps, defect),
                                      [False, True, True])

    def test_grid_bounds(self, canonical, small_trunc):
        with pytest.raises(ValueError):
            disorder_sweep(canonical, "L", [0.95], floor=small_trunc)
        with pytest.raises(ValueError, match="at least one"):
            disorder_sweep(canonical, "L", [], floor=small_trunc)


class TestWavefunctions:
    def test_charge_parity_support(self, canonical_medium):
        Nvals, amps0 = wavefunction_charge(canonical_medium, 0)
        _, amps1 = wavefunction_charge(canonical_medium, 1)
        odd = (Nvals % 2) != 0
        assert np.abs(amps0[odd]).max() < 1e-8
        assert np.abs(amps1[~odd]).max() < 1e-8
        assert np.sum(np.abs(amps0) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_parity_support_all_lowest_states(self, canonical_medium):
        for lab in canonical_medium.labels:
            Nvals, amps = wavefunction_charge(canonical_medium, lab.index)
            odd = (Nvals % 2) != 0
            wrong = odd if lab.parity > 0 else ~odd
            assert np.abs(amps[wrong]).max() < 1e-6

    def test_plasmon_excited_envelope_node(self, canonical_medium):
        # first plasmon states carry an odd (first-order) envelope: the
        # phase-fixed amplitudes change sign exactly once across the center,
        # while the ground doublet does not change sign at all
        for idx in (2, 3):
            Nvals, amps = wavefunction_charge(canonical_medium, idx)
            sig = np.real(amps[np.abs(amps) > 1e-3 * np.abs(amps).max()])
            flips = np.count_nonzero(np.diff(np.sign(sig)))
            assert flips == 1
        for idx in (0, 1):
            Nvals, amps = wavefunction_charge(canonical_medium, idx)
            sig = np.real(amps[np.abs(amps) > 1e-3 * np.abs(amps).max()])
            assert np.count_nonzero(np.diff(np.sign(sig))) == 0

    def test_phase_field_norm_and_gauge(self, canonical_medium):
        vg, pg, field = wavefunction_phase(canonical_medium, 0)
        norm = np.trapezoid(
            np.trapezoid(np.abs(field) ** 2, pg, axis=1), vg
        )
        assert norm == pytest.approx(1.0, abs=1e-9)
        # global-phase invariance of the magnitude field
        ls = canonical_medium
        rotated = ls.solution.vectors.astype(complex)
        rotated[:, 0] *= np.exp(0.7j)
        from dataclasses import replace

        sol2 = replace(ls.solution, vectors=rotated)
        ls2 = replace(ls, solution=sol2)
        _, _, field2 = wavefunction_phase(ls2, 0)
        assert np.abs(np.abs(field2) - np.abs(field)).max() < 1e-12

    def test_bonding_antibonding_structure(self, canonical_medium):
        vg, pg, f0 = wavefunction_phase(canonical_medium, 0)
        _, _, f1 = wavefunction_phase(canonical_medium, 1)
        z = canonical_medium.params.z
        iv0 = np.argmin(np.abs(vg - 0.0))
        ivp = np.argmin(np.abs(vg - np.pi))
        ip0 = np.argmin(np.abs(pg - np.pi * z / (1 + z)))
        ipp = np.argmin(np.abs(pg - np.pi * (2 + z) / (1 + z)))
        # symmetric state: equal-magnitude weight on both ridges
        a, b = f0[iv0, ip0], f0[ivp, ipp]
        assert abs(abs(a) - abs(b)) < 0.05 * abs(a)
        assert np.sign(a.real) == np.sign(b.real)
        # antisymmetric partner flips the relative sign
        c, d = f1[iv0, ip0], f1[ivp, ipp]
        assert np.sign(c.real) == -np.sign(d.real)


class TestMatrixElements:
    def test_selection_rules(self, canonical_medium):
        eta2 = normalized_matrix_elements(canonical_medium, "eta")
        phi2 = normalized_matrix_elements(canonical_medium, "phi")
        i_0m = canonical_medium.find(0, FLUXON_MINUS)
        i_1p = canonical_medium.find(1, FLUXON_PLUS)
        assert eta2[i_0m] < 1e-6
        assert eta2[i_1p] > 0.9
        assert phi2[i_0m] > 0.8
        assert np.all(eta2 >= 0) and np.all(eta2 <= 1)

    def test_parity_selection_exact(self, canonical_medium):
        prim = canonical_medium.primitives
        v0 = canonical_medium.solution.vectors[:, 0]
        v1 = canonical_medium.solution.vectors[:, 1]
        eta = prim.kron((None, None, prim.eta))
        dphi = prim.kron((None, prim.dphi, None))
        assert abs(np.vdot(v1, eta @ v0)) < 1e-8
        assert abs(np.vdot(v1, dphi @ v0)) > 1.0

    def test_parity_forbidden_weights_read_zero(self, canonical_medium):
        # at half flux eta keeps the Cooper-pair parity and the loop phase
        # flips it; the forbidden weights are roundoff (1e-32 to 1e-23 on
        # this basis) and come back as exactly 0
        parity = np.array([l.parity for l in canonical_medium.labels])
        same = parity == parity[0]
        eta2 = normalized_matrix_elements(canonical_medium, "eta")
        phi2 = normalized_matrix_elements(canonical_medium, "phi")
        assert np.all(eta2[~same] == 0.0)
        assert np.all(phi2[same] == 0.0)
        assert eta2[same].max() > 0.9 and phi2[~same].max() > 0.8

    def test_completeness_dense_instance(self, canonical, half_flux):
        tr = BasisTruncation(2, 2, 6)
        ls = solve_circuit(canonical, half_flux, tr, k=tr.dim)
        for op in ("eta", "phi"):
            w = normalized_matrix_elements(ls, op)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-6)

    def test_bad_operator_rejected(self, canonical_medium):
        with pytest.raises(ValueError):
            normalized_matrix_elements(canonical_medium, "nope")


class TestDispersiveShift:
    def test_decoupled_limit_vanishes(self, half_flux):
        # with the junction off, the island charge is conserved and every
        # charge sector carries an identical imbalance-mode ladder, so the
        # charge-state-conditioned ladder spacing difference is exactly zero
        with pytest.warns(UserWarning):
            p = CircuitParams(eps_J=1e-12, eps_C=2.0, eps_L=1.0, x=0.5)
        tr = BasisTruncation(2, 2, 30)
        H = full_hamiltonian(p, half_flux, tr).toarray()
        t = tr.as_tuple()
        blocks = H.reshape(5, (t[1]+1)*(t[2]+1), 5, (t[1]+1)*(t[2]+1))
        spacings = []
        for n in (2, 3):  # charge N = 0 and N = +1 sectors
            w = np.linalg.eigvalsh(blocks[n, :, n, :])
            spacings.append(w[1] - w[0])
        assert abs(spacings[1] - spacings[0]) < 1e-10

    def test_even_in_detuning(self, canonical, medium_trunc):
        chis = []
        for dphi in (-0.06, 0.06):
            ls = solve_circuit(canonical, BiasPoint(np.pi + dphi, 0.0),
                               medium_trunc, k=6)
            chis.append(dispersive_shift(ls))
        assert chis[0] == pytest.approx(chis[1], rel=1e-3)

    def test_plasmon_spacings_read_the_labelled_pairs(self, canonical_medium):
        # at half flux the absent chain is "+" and the present chain "-"
        ls = canonical_medium
        E = ls.energies
        absent = E[ls.find(1, FLUXON_PLUS)] - E[ls.find(0, FLUXON_PLUS)]
        present = E[ls.find(1, FLUXON_MINUS)] - E[ls.find(0, FLUXON_MINUS)]
        assert plasmon_spacings(ls) == (absent, present)
        assert dispersive_shift(ls) == present - absent

    def test_plasmon_spacings_off_half_flux(self, canonical, medium_trunc):
        ls = solve_circuit(canonical, BiasPoint(0.9 * np.pi, 0.0),
                           medium_trunc, k=6)
        E = ls.energies
        assert plasmon_spacings(ls) == tuple(
            E[ls.find(1, f)] - E[ls.find(0, f)]
            for f in (FLUXON_ABSENT, FLUXON_PRESENT))
        # at integer flux no state carries a fluxon symbol
        ls = solve_circuit(canonical, BiasPoint(0.0, 0.0), medium_trunc, k=6)
        assert {l.fluxon for l in ls.labels} == {FLUXON_UNLABELED}
        with pytest.raises(LabelingError):
            plasmon_spacings(ls)

    def test_value_regression(self, canonical_medium):
        chi = dispersive_shift(canonical_medium)
        # converges toward -4.8 MHz on larger bases
        assert chi == pytest.approx(-6.17e-3, rel=0.05)


class TestLabelConfidence:
    def test_chain_relative_assignment(self, canonical_medium):
        # the occupation increments per chain step are close to one quantum
        # despite the hybridization offset: within 0.15 of the rounded m
        ls = canonical_medium
        prim = ls.primitives
        num_b = prim.kron((None, None, prim.num_b))
        occ = [np.vdot(v, num_b @ v).real for v in ls.solution.vectors.T]
        base = {}
        for lab, n in zip(ls.labels, occ):
            base.setdefault(lab.fluxon, n)
        labs = ls.labels
        inc = [n - base[lab.fluxon] for lab, n in zip(labs, occ)]
        assert labs[0].m == 0 and inc[0] == 0.0
        assert labs[2].m == 1 and abs(inc[2] - 1) < 0.15

    def test_labels_survive_strong_asymmetry(self, canonical, half_flux):
        # strong inductive asymmetry offsets all occupations; chain-relative
        # rounding still enumerates the plasmon ladder in both parity chains
        # (the parity order within excited doublets is truncation-sensitive)
        ls = solve_circuit(canonical.replace(delta_L=0.6), half_flux,
                           BasisTruncation(5, 5, 20), k=6)
        got = [(l.m, l.fluxon) for l in ls.labels]
        assert set(got[:2]) == {(0, FLUXON_PLUS), (0, FLUXON_MINUS)}
        assert set(got[2:4]) == {(1, FLUXON_PLUS), (1, FLUXON_MINUS)}
        assert set(got[4:6]) == {(2, FLUXON_PLUS), (2, FLUXON_MINUS)}
