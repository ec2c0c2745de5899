"""Spectrum post-processing: sweeps, charge dispersion, convergence
ladder, wavefunction projections, matrix elements, dispersive shift.

The labelled solutions come from ``SolutionCache.get_or_solve``; the state
labels, their conventions and ``LabeledSolution`` live beside it in
``cache`` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import (FLUXON_ABSENT, FLUXON_MINUS, FLUXON_PLUS, FLUXON_PRESENT,
                    FLUXON_UNLABELED, LabeledSolution, LabelingError,
                    SolutionCache, StateLabel, label_states)
from .eigensolver import NonConvergenceError, fix_global_phase
from .model import BasisTruncation, BiasPoint, CircuitParams

__all__ = [
    "StateLabel",
    "LabeledSolution",
    "DisorderSweep",
    "LabelingError",
    "label_states",
    "flux_sweep",
    "charge_dispersion",
    "disorder_sweep",
    "dispersion_truncation",
    "dispersion_unresolved",
    "convergence_ladder",
    "LadderReport",
    "wavefunction_phase",
    "wavefunction_charge",
    "normalized_matrix_elements",
    "dispersive_shift",
    "plasmon_spacings",
    "DISPERSION_FLOOR",
    "DEFECT_MAX",
    "ME_FLOOR",
]

DISPERSION_FLOOR = 1e-9  # GHz; smaller dispersions are flagged unresolved
DEFECT_MAX = 0.1         # larger truncation defects are flagged unresolved
ME_FLOOR = 1e-10         # normalized coupling amplitude below this is absent


def flux_sweep(
    params: CircuitParams,
    phi_grid,
    N_g: float = 0.0,
    k: int = 6,
    trunc: BasisTruncation = BasisTruncation(),
    solver: SolutionCache | None = None,
) -> list[LabeledSolution]:
    """Labelled solutions along an external-flux grid, in grid order, by
    one ``solver.map`` (pooled over ``solver.jobs`` workers)."""
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.ndim != 1 or len(phi_grid) < 1:
        raise ValueError("need a one-dimensional flux grid of at least one point")
    if len(phi_grid) > 1 and not np.all(np.diff(phi_grid) > 0):
        raise ValueError("flux grid must be strictly increasing")
    solver = solver or SolutionCache()
    return solver.map(
        [(params, BiasPoint(float(p), N_g), trunc, k) for p in phi_grid]
    )


def charge_dispersion(
    params: CircuitParams,
    phi_ext: float = np.pi,
    trunc: BasisTruncation = BasisTruncation(),
    solver: SolutionCache | None = None,
) -> tuple[float, float, float]:
    """Signed qubit splitting at Ng = 0, its swing over one charge period,
    and the truncation defect of that swing.

    The spectrum is even in Ng and of unit period, so the splitting s is
    stationary at Ng = 0 and 1/2 and the swing is eps = |s(0) - s(1/2)|.
    s(1/4) must lie strictly between the two, else the extrema lie elsewhere
    and ``NonConvergenceError`` is raised.  The defect |s(1) - s(0)| / eps
    is how far the truncated basis breaks the period.  The signed value at
    Ng = 0 follows the parity labels, positive when the even state is lower.
    """
    solver = solver or SolutionCache()
    # N_g = 0 last: after its blocked solve a full-space one peaks 6 MB higher
    (s4, _), (s2, _), (s1, _), (s0, parity) = [
        (ls.splitting, ls.labels[0].parity)
        for ls in solver.map(
            [(params, BiasPoint(phi_ext, ng), trunc, 2) for ng in (0.25, 0.5, 1.0, 0.0)]
        )
    ]
    if not min(s0, s2) < s4 < max(s0, s2):
        raise NonConvergenceError(
            f"splitting not monotone in Ng on [0, 1/2]: s(0) = {s0:.6e}, "
            f"s(1/4) = {s4:.6e}, s(1/2) = {s2:.6e} GHz"
        )
    eps = abs(s0 - s2)
    return parity * s0, eps, abs(s1 - s0) / eps


#: the charge-dispersion basis by the circuit's largest asymmetry
#: max(delta_J_eff, delta_C_eff, delta_L), whatever the subcommand; the
#: residual offset-charge sensitivity is exponentially small at strong
#: asymmetry and needs a larger basis before the truncation artifact drops
#: below it (on the default basis the periodicity defect of delta_L = 0.3 is
#: already 0.125, above ``DEFECT_MAX``)
DISPERSION_TRUNCATIONS = (
    (0.25, BasisTruncation()),
    (0.70, BasisTruncation(10, 10, 46)),
    (1.00, BasisTruncation(12, 12, 56)),
)


def dispersion_truncation(
    params: CircuitParams, floor: BasisTruncation = BasisTruncation()
) -> BasisTruncation:
    """Schedule basis for a charge dispersion of ``params``, by its largest asymmetry.

    Never smaller than ``floor`` in any dimension.
    """
    delta = max(params.delta_J_eff, params.delta_C_eff, params.delta_L)
    sched = next(
        (tr for hi, tr in DISPERSION_TRUNCATIONS if delta <= hi),
        DISPERSION_TRUNCATIONS[-1][1],
    )
    return BasisTruncation(*map(max, floor.as_tuple(), sched.as_tuple()))


def dispersion_unresolved(eps, defect):
    """Whether a charge dispersion is unresolved, elementwise: ``eps``
    below ``DISPERSION_FLOOR`` or its truncation ``defect`` above
    ``DEFECT_MAX``."""
    return (eps < DISPERSION_FLOOR) | (defect > DEFECT_MAX)


@dataclass(frozen=True)
class DisorderSweep:
    """Charge dispersion and signed splitting at each asymmetry of a sweep."""

    deltas: np.ndarray
    eps: np.ndarray         # dispersion over one charge period (GHz)
    defect: np.ndarray      # truncation defect of eps, |s(1) - s(0)| / eps
    dE: np.ndarray          # signed splitting at Ng = 0 (GHz)
    unresolved: np.ndarray  # by dispersion_unresolved
    eps_monotone_decreasing: bool  # over the resolved points
    dE_monotone_increasing: bool   # in |dE|


def disorder_sweep(
    params: CircuitParams,
    kind: str,
    deltas,
    phi_ext: float = np.pi,
    floor: BasisTruncation = BasisTruncation(),
    solver: SolutionCache | None = None,
) -> DisorderSweep:
    """Charge dispersion and splitting versus one disorder parameter.

    Each point is solved on ``dispersion_truncation`` of its circuit and
    ``floor``, which keeps the truncation artifact below the shrinking
    physical dispersion.  Points that ``dispersion_unresolved`` flags are
    marked rather than extrapolated.
    """
    if kind not in ("J", "C", "A", "L"):
        raise ValueError("kind must be one of J, C, A, L")
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or len(deltas) < 1:
        raise ValueError("need a one-dimensional disorder grid of at least one point")
    if deltas.min() < 0 or deltas.max() > 0.9:
        raise ValueError("disorder grid must lie within [0, 0.9]")

    solver = solver or SolutionCache()
    dE, eps, defect = np.array([
        charge_dispersion(p, phi_ext, dispersion_truncation(p, floor),
                          solver=solver)
        for p in (params.replace(**{f"delta_{kind}": float(d)}) for d in deltas)
    ]).T
    unresolved = dispersion_unresolved(eps, defect)
    resolved_eps = eps[~unresolved]
    return DisorderSweep(
        deltas=deltas,
        eps=eps,
        defect=defect,
        dE=dE,
        unresolved=unresolved,
        eps_monotone_decreasing=bool(np.all(np.diff(resolved_eps) < 0)),
        dE_monotone_increasing=bool(np.all(np.diff(np.abs(dE)) > 0)),
    )


@dataclass(frozen=True)
class LadderReport:
    """Per-level lowest-k energies of a truncation ladder and their deltas.

    ``deltas`` are the successive |differences| of the absolute energies;
    ``converged`` judges the transition energies E_i - E_0 instead.
    """

    levels: list
    energies: np.ndarray  # (n_levels, k)
    deltas: np.ndarray    # (n_levels - 1, k) successive |differences|
    converged: bool
    tolerance: float


def convergence_ladder(
    params: CircuitParams,
    bias: BiasPoint,
    levels,
    k: int = 4,
    tolerance: float = 1e-4,
    solver: SolutionCache | None = None,
) -> LadderReport:
    """Diagonalize on an increasing truncation ladder and report drift.

    ``levels`` must be strictly increasing in every dimension.  Convergence
    is flagged when every transition energy E_i - E_0 (i = 1 .. k-1) moves
    by less than ``tolerance`` between the last two rungs.  The absolute
    energies are not judged: they carry a zero-point offset of the
    imbalance sector that converges much more slowly than any transition.
    """
    if len(levels) < 2:
        raise ValueError("need at least two ladder levels")
    if k < 2:
        raise ValueError("need k >= 2 to judge a transition energy")
    for lo, hi in zip(levels, levels[1:]):
        if hi.N0 < lo.N0 or hi.p0 < lo.p0 or hi.q0 < lo.q0:
            raise ValueError("ladder levels must not decrease in any dimension")

    solver = solver or SolutionCache()
    sols = solver.map([(params, bias, lv, k) for lv in levels])
    E = np.vstack([ls.energies for ls in sols])
    deltas = np.abs(np.diff(E, axis=0))
    transitions = E[:, 1:] - E[:, :1]
    converged = bool(np.all(np.abs(transitions[-1] - transitions[-2]) < tolerance))
    return LadderReport(
        levels=list(levels), energies=E, deltas=deltas,
        converged=converged, tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# wavefunction projections
# ---------------------------------------------------------------------------

def _hermite_column(p_max: int, xi: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunctions chi_p(xi) for the unit-variance convention.

    xi is position in zero-point units (so the ground state has unit
    variance); rows index xi, columns p.  Stable three-term recurrence in
    the normalized functions.
    """
    n = len(xi)
    out = np.empty((n, p_max + 1))
    x = xi / np.sqrt(2.0)
    out[:, 0] = (2 * np.pi) ** -0.25 * np.exp(-(xi**2) / 4.0)
    if p_max >= 1:
        out[:, 1] = np.sqrt(2.0) * x * out[:, 0]
    for p in range(2, p_max + 1):
        out[:, p] = np.sqrt(2.0 / p) * x * out[:, p - 1] - np.sqrt(
            (p - 1) / p
        ) * out[:, p - 2]
    return out


def _theta0_projection(
    ls: LabeledSolution, index: int, phi: np.ndarray
) -> np.ndarray:
    """Amplitudes <N, phi, theta = 0 | psi>, shape (charges, len(phi)), from
    the lab-frame amplitudes ``Primitives.to_lab`` of the stored vector."""
    prim = ls.primitives
    t = prim.trunc
    vec = prim.to_lab(ls.solution.vectors[:, index])
    chi_q0 = _hermite_column(t.q0, np.array([0.0]))[0] / np.sqrt(prim.theta_zpf)
    w_Np = vec @ chi_q0  # (nN, na)
    xi = (phi - ls.bias.phi_ext) / prim.phi_zpf
    chi_p = _hermite_column(t.p0, xi) / np.sqrt(prim.phi_zpf)  # (nphi, na)
    return w_Np @ chi_p.T


def wavefunction_phase(
    ls: LabeledSolution, index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase-space wavefunction <vphi, phi | psi> projected onto theta = 0.

    Returns (vphi_grid, phi_grid, field) with the field normalized to unit
    double integral on the grid and its global phase fixed by
    ``fix_global_phase``.  The grid spans one vphi period in 121 points and
    phi_ext +/- (pi + 4 phi_zpf) in 141.
    """
    prim = ls.primitives
    t = prim.trunc
    vphi_grid = np.linspace(0.0, 2 * np.pi, 121)
    center = ls.bias.phi_ext
    half = 4.0 * prim.phi_zpf
    phi_grid = np.linspace(center - np.pi - half, center + np.pi + half, 141)

    Nvals = np.arange(-t.N0, t.N0 + 1)
    plane = np.exp(-1j * np.outer(Nvals, vphi_grid))  # (nN, nvphi)
    fieldT = plane.T @ _theta0_projection(ls, index, phi_grid)  # (nvphi, nphi)

    norm2 = np.trapezoid(
        np.trapezoid(np.abs(fieldT) ** 2, phi_grid, axis=1), vphi_grid
    )
    fieldT = fix_global_phase(fieldT / np.sqrt(norm2))
    return vphi_grid, phi_grid, fieldT


def wavefunction_charge(
    ls: LabeledSolution, index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Charge wavefunction <N | psi> via constraint to the tunneling path.

    Projects onto theta = 0, constrains the loop phase to the analytic
    path, normalizes on the compact circle, and Fourier transforms.  The
    returned amplitudes are renormalized to unit total weight, so parity
    support can be read off directly.  The path is sampled at 512 points.
    """
    from .instanton import path_approx

    n_vphi = 512
    t = ls.primitives.trunc
    vg = np.arange(n_vphi) * 2.0 * np.pi / n_vphi
    phi_path = path_approx(vg, ls.bias, ls.params.z)

    Nvals = np.arange(-t.N0, t.N0 + 1)
    plane = np.exp(-1j * np.outer(Nvals, vg))  # (nN, nvphi)
    A = _theta0_projection(ls, index, phi_path)  # loop phase on the path
    f = np.einsum("nv,nv->v", plane, A)  # <vphi|psi> unnormalized

    # normalize on the circle, transform, then renormalize discretely
    f = f / np.sqrt(np.sum(np.abs(f) ** 2) * (2 * np.pi / n_vphi))
    amps = (plane.conj() @ f) / n_vphi  # (1/2pi) integral e^{iNv} f(v) dv
    amps = fix_global_phase(amps / np.sqrt(np.sum(np.abs(amps) ** 2)))
    return Nvals, amps


def normalized_matrix_elements(ls: LabeledSolution, operator: str) -> np.ndarray:
    """Transition weights |<psi| O |g>|^2 / <g| O^2 |g> for O in {eta, phi}.

    ``g`` is the ground state of ``ls``.
    The phi operator is the dynamical loop phase (zero static offset), so
    the weights lie in [0, 1] and sum to one over a complete eigenbasis.
    A weight below ``ME_FLOOR**2`` (a parity-forbidden transition, roundoff
    only) is returned as exactly 0.
    """
    if operator not in ("eta", "phi"):
        raise ValueError("operator must be 'eta' or 'phi'")
    prim = ls.primitives
    O = prim.kron((None, None, prim.eta) if operator == "eta"
                  else (None, prim.dphi, None))
    g = ls.solution.vectors[:, 0]
    Og = O @ g
    denom = float(np.real(np.vdot(Og, Og)))
    out = np.empty(ls.solution.k)
    for i in range(ls.solution.k):
        out[i] = abs(np.vdot(ls.solution.vectors[:, i], Og)) ** 2 / denom
    out[out < ME_FLOOR**2] = 0.0
    return out


def plasmon_spacings(ls: LabeledSolution) -> tuple[float, float]:
    """E(1) - E(0) (GHz) of the fluxon-absent and of the fluxon-present
    chain: "+" and "-" at half flux, "o" and "*" elsewhere.

    ``LabelingError`` when either chain lacks either level, as at integer
    flux, where no state carries a fluxon symbol.
    """
    E = ls.energies
    chains = ((FLUXON_PLUS, FLUXON_MINUS) if ls.bias.at_half_flux
              else (FLUXON_ABSENT, FLUXON_PRESENT))
    return tuple(float(E[ls.find(1, f)] - E[ls.find(0, f)]) for f in chains)


def dispersive_shift(ls: LabeledSolution) -> float:
    """Plasmon frequency pull (GHz): present minus absent ``plasmon_spacings``."""
    absent, present = plasmon_spacings(ls)
    return present - absent
