"""Golden-rule relaxation and pure-dephasing budgets.

Every channel takes the qubit as states 0 and 1 of the solve, split by
omega = E1 - E0; only shot dephasing reads further levels, the plasmon
pairs of ``analysis.plasmon_spacings``, at any flux with fluxon labels.
The charge channel's dispersion basis is ``analysis.dispersion_truncation``
of the circuit, by its largest asymmetry, as in ``disorder``.  Relaxation
through a channel with coupling operator O and bath spectral density S
follows

    1/T1 = (1/hbar^2) |<1| O |0>|^2 [S(omega) + S(-omega)]

summed incoherently over the two junctions or superinductances where the
channel has two elements, paired as in ``hamiltonians``.  Flux and
critical-current dephasing are exact derivatives of the same splitting.
Energies arrive as GHz, every environment number comes from one
``PhysicalConstants`` record, and the SI constants from ``constants``.  One
rule turns each rate (1/s) into a time in ms: 1e3 / rate, or ``inf``
(numerical infinity) below 1e-12 per ms.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .analysis import (
    ME_FLOOR,
    LabeledSolution,
    charge_dispersion,
    dispersion_truncation,
    dispersion_unresolved,
    dispersive_shift,
    plasmon_spacings,
)
from .cache import SolutionCache
from .constants import (CHANNELS, DEFAULT_CONSTANTS, DELTA_GAP, E_CHARGE,
                        GHZ_TO_RAD_PER_S, HBAR, H_PLANCK, K_B, R_K,
                        T1_CHANNELS, PhysicalConstants)
from .eigensolver import SHIFT_GAP, NonConvergenceError, factor_below_spectrum
from .hamiltonians import UnsupportedBiasError, full_hamiltonian, josephson_term
from .model import (
    BasisTruncation,
    BiasPoint,
    CircuitParams,
    Primitives,
    charge_hops,
    displaced_cosine,
    displaced_sine,
    kron3,
)

__all__ = [
    "CHANNELS",
    "CoherenceReport",
    "q_cap",
    "q_ind",
    "t1_channel",
    "tphi_charge",
    "tphi_flux",
    "tphi_shot",
    "tphi_critical_current",
    "full_report",
]

Q_CAP_REF_HZ = 6e9
Q_IND_REF_HZ = 0.5e9

RATE_FLOOR = 1e-9       # 1/s, i.e. 1e-12 per ms

STERNHEIMER_RTOL = 1e-12    # relative change that ends the Neumann iteration
STERNHEIMER_MAX_ITER = 200  # the cap raises NonConvergenceError


# ---------------------------------------------------------------------------
# frequency-dependent quality factors
# ---------------------------------------------------------------------------

def _k0(x: float) -> float:
    """Modified Bessel function K_0(x), x > 0, as exp(-x) times

        int_0^inf exp(-2x sinh^2(t/2)) dt,

    by the trapezoid rule with step min(1/16, 0.5/sqrt x).  The integrand is
    analytic in a strip about the real axis and decays doubly exponentially,
    so the rule converges to roundoff; it is cut where x (cosh t - 1) reaches
    760, beyond which every term is below exp(-760) of the first.
    """
    h = min(0.0625, 0.5 / math.sqrt(x))
    t = np.arange(0.0, math.acosh(1.0 + 760.0 / x) + h, h)
    f = np.exp(-2.0 * x * np.sinh(0.5 * t) ** 2)
    return math.exp(-x) * h * (f.sum() - 0.5)


def q_cap(omega: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Dielectric quality factor Q0 (2 pi 6 GHz / |omega|)^0.7, Q0 = ``q_cap``."""
    if omega == 0:
        raise ValueError("q_cap undefined at zero frequency")
    return constants.q_cap * (2 * np.pi * Q_CAP_REF_HZ / abs(omega)) ** 0.7


def q_ind(omega: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Inductive quality factor with the Bessel frequency dependence.

    Referenced so the nominal ``q_ind`` Q0 corresponds to a 0.5 GHz
    measurement: Q(omega) = Q0 K0(x_ref) sinh(x_ref) / (K0(x) sinh(x)) with
    x = hbar |omega| / 2 kB T.
    """
    if omega == 0:
        raise ValueError("q_ind undefined at zero frequency")
    two_kT = 2 * K_B * constants.temperature
    x_ref = H_PLANCK * Q_IND_REF_HZ / two_kT
    x = HBAR * abs(omega) / two_kT
    return constants.q_ind * (_k0(x_ref) * np.sinh(x_ref)) / (
        _k0(x) * np.sinh(x)
    )


def _lifetime_ms(rate: float) -> float:
    """Time (ms) of a rate in 1/s; ``inf`` below ``RATE_FLOOR``."""
    return math.inf if rate < RATE_FLOOR else 1e3 / rate


# ---------------------------------------------------------------------------
# relaxation (element pairings fixed in the hamiltonians module)
# ---------------------------------------------------------------------------

def _golden_rule_elements(kind: str, params: CircuitParams, prim: Primitives):
    """(element energy in GHz, coupling operator, quality factor) of each
    element of the inductive, capacitive or Purcell channel."""
    if kind == "inductive":
        for s in (+1.0, -1.0):
            eps_L_i = params.eps_L / (1.0 + s * params.delta_L)
            yield eps_L_i, prim.kron((None, 0.5 * prim.dphi, None),
                                     (None, None, -s * prim.theta)), q_ind
    elif kind == "capacitive":
        for s in (+1.0, -1.0):
            eps_C_i = params.eps_C / (1.0 + s * params.delta_C_eff)
            # n + s (N - eta) / 2
            yield 8.0 * eps_C_i, prim.kron((None, prim.n, None),
                                           (0.5 * s * prim.N, None, None),
                                           (None, None, -0.5 * s * prim.eta)), q_cap
    else:  # purcell: (2e)^2 / C_shunt through the shunt
        yield 8.0 * params.x * params.eps_C, prim.kron((None, None, prim.eta)), q_cap


def _quasiparticle_elements(params: CircuitParams, bias: BiasPoint, prim: Primitives):
    """Junction operators sin(phi_i / 2) on the half-integer charge lattice.

    Half-angle functions of the compact phase shift the island charge by
    half a Cooper pair, which maps integer-charge states onto the
    interleaved half-integer lattice.  The operators are built honestly on
    the doubled lattice together with the embedding of physical states into
    its integer sublattice; matrix elements between physical states then
    vanish by charge-parity structure rather than by fiat.

    The gauge of ``Primitives.kron`` does not cover the doubled lattice, so
    the operators are built in the lab frame, and the embedding takes a
    lab-frame vector: callers write ``embed @ prim.to_lab(v).ravel()``.
    """
    t = prim.trunc
    nN = 2 * t.N0 + 1
    next_ = 2 * nN - 1  # half-integer lattice covering the same charge range
    embed_rows = np.arange(0, next_, 2)
    E = sp.csr_matrix(
        (np.ones(nN), (embed_rows, np.arange(nN))), shape=(next_, nN)
    )
    cos_half, sin_half = charge_hops(next_)

    sin_quarter = displaced_sine(prim.phi_zpf / 2.0, bias.phi_ext / 2.0, t.p0)
    cos_quarter = displaced_cosine(prim.phi_zpf / 2.0, bias.phi_ext / 2.0, t.p0)
    embed = sp.kron(E, sp.identity((t.p0 + 1) * (t.q0 + 1)), format="csr")
    imb = sp.identity(t.q0 + 1)
    for s, eps_J_i in zip((+1.0, -1.0), params.junction_energies):
        op = kron3(cos_half, sin_quarter, imb) + kron3(s * sin_half, cos_quarter, imb)
        yield eps_J_i, op, embed


def _normalized_amp(op_matrix, v0, v1) -> tuple[float, float]:
    """(raw |<1|O|0>|^2, normalized amplitude) for the sentinel check."""
    Ov0 = op_matrix @ v0
    me2 = abs(np.vdot(v1, Ov0)) ** 2
    denom = float(np.real(np.vdot(Ov0, Ov0)))
    return me2, (math.sqrt(me2 / denom) if denom > 0 else 0.0)


def t1_channel(
    kind: str,
    ls: LabeledSolution,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Relaxation time (ms) from state 1 to state 0 of ``ls`` through one
    loss channel, at their splitting ``ls.splitting``; ``inf`` when no
    element's normalized coupling amplitude reaches 1e-10.
    """
    if kind not in T1_CHANNELS:
        raise ValueError(f"unknown T1 channel {kind!r}")
    params, prim = ls.params, ls.primitives
    v0, v1 = ls.solution.vectors[:, 0], ls.solution.vectors[:, 1]
    omega = ls.splitting * GHZ_TO_RAD_PER_S
    if omega == 0:
        raise ValueError("degenerate qubit pair: relaxation rate undefined")
    x_th = HBAR * omega / (2 * K_B * constants.temperature)
    coth = 1.0 / math.tanh(x_th)

    rate = 0.0
    if kind == "quasiparticle":
        lab0, lab1 = prim.to_lab(v0).ravel(), prim.to_lab(v1).ravel()
        for eps_J_i, op, embed in _quasiparticle_elements(params, ls.bias, prim):
            me2, amp = _normalized_amp(op, embed @ lab0, embed @ lab1)
            if amp >= ME_FLOOR:
                re_y = _re_y_qp(eps_J_i, omega, constants)
                s_sum = 2.0 * HBAR * omega * re_y * coth
                rate += me2 * s_sum / E_CHARGE**2  # (2 phi0)^2 / hbar^2 = 1/e^2
    else:
        for energy, op, q in _golden_rule_elements(kind, params, prim):
            me2, amp = _normalized_amp(op, v0, v1)
            if amp >= ME_FLOOR:
                rate += (2.0 * (energy * GHZ_TO_RAD_PER_S) * me2 * coth
                         / q(omega, constants))
    return _lifetime_ms(rate)


def _re_y_qp(eps_J_GHz: float, omega: float, constants: PhysicalConstants) -> float:
    """Dissipative junction admittance from thermal-equilibrium tunneling."""
    eps_J = eps_J_GHz * 1e9 * H_PLANCK  # J
    hw = HBAR * abs(omega)
    x = hw / (2 * K_B * constants.temperature)
    return (
        math.sqrt(2.0 / math.pi)
        * (8.0 * eps_J / (R_K * DELTA_GAP))
        * (2.0 * DELTA_GAP / hw) ** 1.5
        * constants.x_qp
        * math.sqrt(x)
        * _k0(x)
        * math.sinh(x)
    )


# ---------------------------------------------------------------------------
# pure dephasing
# ---------------------------------------------------------------------------

def tphi_charge(eps_GHz: float) -> float:
    """Slow-charge-noise bound: rate = [pi / (2e)^2] eps / hbar, e = Euler.

    The offset charge is taken frozen within a run and random between runs,
    so no spectral amplitude enters.
    """
    if eps_GHz < 0:
        raise ValueError("dispersion must be nonnegative")
    return _lifetime_ms((math.pi / (2.0 * math.e) ** 2) * eps_GHz * GHZ_TO_RAD_PER_S)


def _flux_curvature(ls: LabeledSolution) -> float:
    """d^2(E1 - E0)/dphi_ext^2 (GHz / rad^2) of the lowest pair of ``ls``.

    Second-order perturbation theory on the solution's own eigenpairs, with
    the exact H' = H_J(phi_ext + pi)/2 and H'' = -H_J(phi_ext)/4.  Level n
    of the pair, with partner m, has

        E_n'' = <n|H''|n> + 2 |<m|H'|n>|^2 / (E_n - E_m) - 2 Re <Q H'n | x_n>,

    where Q projects out the pair and x_n solves the Sternheimer equation
    (H - E_n) x_n = Q H'n on range(Q).  Both x_n come from one band Cholesky
    factor of H - sigma at sigma = E_0 - ``SHIFT_GAP``, below the spectrum
    (``factor_below_spectrum``), by the Neumann iteration
    x <- Q (H - sigma)^-1 (Q H'n + (E_n - sigma) x), which contracts by
    (E_n - sigma) / (E_2 - sigma) per step, about 0.11 at the operated
    point.
    """
    params, bias, prim = ls.params, ls.bias, ls.primitives
    H = full_hamiltonian(params, bias, prim.trunc, primitives=prim).matrix
    d1 = 0.5 * josephson_term(params, bias.phi_ext + np.pi, prim)
    d2 = -0.25 * josephson_term(params, bias.phi_ext, prim)
    V, E = ls.solution.vectors[:, :2], ls.energies[:2]
    sigma = E[0] - SHIFT_GAP
    factor = factor_below_spectrum(H, sigma)

    def solve(r):
        # at half flux the factor is real and H' imaginary; a complex
        # right-hand side would upcast, and so copy, the real factor, so the
        # real and imaginary parts go as two columns of one real solve
        y = factor.solve(np.column_stack([r.real, r.imag]))
        return y[:, 0] + 1j * y[:, 1]

    def project(v):
        return v - V @ (V.conj().T @ v)

    curv = []
    for n, m in ((0, 1), (1, 0)):
        d1n = d1 @ V[:, n]
        b = project(d1n)
        x = np.zeros_like(b)
        for _ in range(STERNHEIMER_MAX_ITER):
            x_new = project(solve(b + (E[n] - sigma) * x))
            step = np.linalg.norm(x_new - x)
            x = x_new
            if step <= STERNHEIMER_RTOL * np.linalg.norm(x):
                break
        else:
            raise NonConvergenceError(
                f"Sternheimer iteration for level {n} did not reach a relative "
                f"change of {STERNHEIMER_RTOL:g} in {STERNHEIMER_MAX_ITER} steps"
            )
        curv.append(
            np.vdot(V[:, n], d2 @ V[:, n]).real
            + 2.0 * abs(np.vdot(V[:, m], d1n)) ** 2 / (E[n] - E[m])
            - 2.0 * np.vdot(b, x).real
        )
    return float(curv[1] - curv[0])


def tphi_flux(
    ls: LabeledSolution, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Second-order flux dephasing at the half-flux sweet spot (ms).

    The curvature of the splitting of the two lowest states of ``ls`` is
    exact for its truncated Hamiltonian; no further diagonalization is made.
    The noise amplitude is ``constants.sqrt_A_flux``.
    """
    if not ls.bias.at_half_flux:
        raise UnsupportedBiasError("flux dephasing bound applies at phi_ext = pi")
    curvature = abs(_flux_curvature(ls))
    return _lifetime_ms(constants.sqrt_A_flux**2 * curvature * GHZ_TO_RAD_PER_S)


def tphi_shot(
    chi_GHz: float,
    omega_p_GHz: float,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Thermal-photon dephasing through the plasmon mode (ms)."""
    if omega_p_GHz <= 0:
        raise ValueError("plasmon frequency must be positive")
    omega_p = omega_p_GHz * GHZ_TO_RAD_PER_S
    chi = chi_GHz * GHZ_TO_RAD_PER_S
    try:
        n_th = 1.0 / math.expm1(
            HBAR * omega_p / (K_B * constants.temperature)
        )
    except OverflowError:
        n_th = 0.0
    kappa = omega_p / q_cap(omega_p, constants)
    return _lifetime_ms(n_th * kappa * chi**2 / (chi**2 + kappa**2))


def tphi_critical_current(
    ls: LabeledSolution, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Junction-energy-fluctuation dephasing (ms).

    Both junctions scale together; the bound uses |d(dE)/d ln eps_J| with the
    relative spectral amplitude ``constants.sqrt_A_epsJ_rel``, so only the
    logarithmic derivative enters.  H is exactly linear in eps_J, so by
    Hellmann-Feynman eps_J d(E1 - E0)/d eps_J = <1|H_J|1> - <0|H_J|0>.
    """
    HJ = josephson_term(ls.params, ls.bias.phi_ext, ls.primitives)
    v0, v1 = ls.solution.vectors[:, 0], ls.solution.vectors[:, 1]
    deriv = np.vdot(v1, HJ @ v1).real - np.vdot(v0, HJ @ v0).real  # GHz
    return _lifetime_ms(constants.sqrt_A_epsJ_rel * abs(deriv) * GHZ_TO_RAD_PER_S)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoherenceReport:
    """Per-channel lifetimes (ms, inf = numerical infinity) and totals.

    ``eps`` and ``defect`` are the charge dispersion (GHz) behind the charge
    channel and its truncation defect, and ``unresolved`` their
    ``dispersion_unresolved`` verdict; ``None`` when that channel is off.
    """

    t1: dict
    tphi: dict
    t1_total: float
    tphi_total: float
    t2: float
    inputs: dict
    eps: float | None
    defect: float | None
    unresolved: bool | None

    def as_dict(self) -> dict:
        return {
            "t1_ms": dict(self.t1),
            "tphi_ms": dict(self.tphi),
            "t1_total_ms": self.t1_total,
            "tphi_total_ms": self.tphi_total,
            "t2_ms": self.t2,
            "charge_dispersion_ghz": self.eps,
            "charge_dispersion_defect": self.defect,
            "charge_dispersion_unresolved": self.unresolved,
            "inputs": self.inputs,
        }


def _combine(times: Iterable[float]) -> float:
    total_rate = sum(0.0 if math.isinf(t) else 1.0 / t for t in times)
    return math.inf if total_rate == 0.0 else 1.0 / total_rate


def full_report(
    params: CircuitParams,
    bias: BiasPoint,
    trunc: BasisTruncation = BasisTruncation(),
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    channels: Collection[str] = CHANNELS,
    solver: SolutionCache | None = None,
) -> CoherenceReport:
    """Coherence budget at one operating point over the named ``channels``.

    Every channel reads its environment from ``constants``; a name outside
    ``CHANNELS`` raises ``ValueError``.  The charge dispersion, where
    truncation artifacts dominate first, is solved on
    ``dispersion_truncation`` of the circuit (its largest asymmetry), never
    smaller than ``trunc``, and judged by ``dispersion_unresolved`` as in
    ``disorder``; shot dephasing reads ``plasmon_spacings``.
    """
    unknown = sorted(set(channels) - set(CHANNELS))
    if unknown:
        raise ValueError(
            f"unknown coherence channels {unknown}; known: {list(CHANNELS)}"
        )
    solver = solver or SolutionCache()
    ls = solver.get_or_solve(params, bias, trunc, 6)

    t1 = {kind: t1_channel(kind, ls, constants)
          for kind in T1_CHANNELS if kind in channels}

    tphi: dict[str, float] = {}
    eps = defect = unresolved = None
    if "charge" in channels:
        # dispersions shrink exponentially with asymmetry and fall below the
        # truncation artifact of the working basis
        _, eps, defect = charge_dispersion(
            params, bias.phi_ext, dispersion_truncation(params, trunc),
            solver=solver,
        )
        unresolved = bool(dispersion_unresolved(eps, defect))
        tphi["charge"] = tphi_charge(eps)
    if "flux" in channels:
        tphi["flux"] = tphi_flux(ls, constants)
    if "shot" in channels:
        omega_p, _ = plasmon_spacings(ls)
        tphi["shot"] = tphi_shot(dispersive_shift(ls), omega_p, constants)
    if "critical_current" in channels:
        tphi["critical_current"] = tphi_critical_current(ls, constants)

    t1_total = _combine(t1.values())
    tphi_total = _combine(tphi.values())
    return CoherenceReport(
        t1=t1,
        tphi=tphi,
        t1_total=t1_total,
        tphi_total=tphi_total,
        t2=_combine((2.0 * t1_total, tphi_total)),
        inputs={
            "params": asdict(params),
            "bias": {"phi_ext": bias.phi_ext, "N_g": bias.N_g},
            "trunc": trunc.as_tuple(),
            "temperature_K": constants.temperature,
        },
        eps=eps,
        defect=defect,
        unresolved=unresolved,
    )
