"""Classical potential landscape and the minimum-action tunneling path.

The tunneling trajectory between adjacent potential minima solves the
classical equations of motion in the inverted potential.  Direct
collocation of that boundary-value problem is exponentially ill-conditioned
here (transverse rates near 16 GHz over horizons of tens of units), so the
path is computed as the equivalent fixed-energy minimum-action geodesic:
with mass matrix M and inverted-potential energy E0 = -U(min), the
trajectory extremizes

    S[q] = integral sqrt(2 (U(q) - U_min)) sqrt(dq . M dq)

which is relaxed on a discretized string with arc-length redistribution
after each outer pass (the simplified string method of E, Ren and
Vanden-Eijnden, J. Chem. Phys. 126, 164103 (2007)).  The path is solved at
phi_ext = pi only, where the two wells are degenerate; at every other bias
the path solve and the numeric-path reduction raise ``UnsupportedBiasError``
(the potential, ``find_minima`` and the ``approx`` reduction hold at every
bias).  At phi_ext = pi the potential and the mass metric are invariant
under the reflection R(vphi, phi, theta) = (pi - vphi, 2 phi_ext - phi,
-theta), which swaps the two minima, so the path is R-symmetric: only the
half from the near end to the fixed point of R is relaxed, and the other
half is its mirror image.  The passes stop once one changes the action by
at most ``ACTION_PLATEAU`` relative; ``max_outer`` caps them.  Time along
the path is recovered afterwards from d tau = sqrt(dq . M dq / (2 (U - U_min))),
and the second-order equations of motion are verified pointwise as a
residual diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize

from .hamiltonians import EffectiveParams, UnsupportedBiasError, effective_params
from .model import BiasPoint, CircuitParams

__all__ = [
    "InstantonPath",
    "potential",
    "potential_gradient",
    "potential_hessian",
    "mass_matrix",
    "find_minima",
    "path_approx",
    "solve_instanton",
    "reduce_to_effective",
    "MinimizationError",
]

ENDPOINT_OFFSET = 1e-3  # rad; clamp offset from the true minima
GRADIENT_TOL = 1e-8
ACTION_PLATEAU = 1e-8  # relative action change between outer passes that ends them
N_QUAD = 1024  # uniform quadrature points of the path Fourier reduction


class MinimizationError(RuntimeError):
    """Optimizer failed to locate a valid potential minimum."""


def _junction_energies(params: CircuitParams) -> tuple[float, float]:
    d = params.delta_J_eff
    return (1.0 + d) * params.eps_J, (1.0 - d) * params.eps_J


def potential(params: CircuitParams, bias: BiasPoint, point):
    """Classical potential energy (GHz) at (vphi, phi, theta).

    ``point`` has shape (..., 3) and the result the leading shape; a single
    point gives a float.
    """
    q = np.asarray(point, dtype=float)
    vphi, phi, th = q[..., 0], q[..., 1], q[..., 2]
    eL = params.eps_L_dressed
    dL = params.delta_L
    ej1, ej2 = _junction_energies(params)
    dphi = phi - bias.phi_ext
    u = eL * (0.25 * dphi**2 + th**2) + eL * dL * dphi * th
    u -= ej1 * np.cos(0.5 * phi + vphi)
    u -= ej2 * np.cos(0.5 * phi - vphi)
    return float(u) if q.ndim == 1 else u


def potential_gradient(params: CircuitParams, bias: BiasPoint, point) -> np.ndarray:
    """Gradient of :func:`potential`, shape (..., 3) for points (..., 3)."""
    q = np.asarray(point, dtype=float)
    vphi, phi, th = q[..., 0], q[..., 1], q[..., 2]
    eL = params.eps_L_dressed
    dL = params.delta_L
    ej1, ej2 = _junction_energies(params)
    dphi = phi - bias.phi_ext
    s1 = np.sin(0.5 * phi + vphi)
    s2 = np.sin(0.5 * phi - vphi)
    return np.stack(
        [
            ej1 * s1 - ej2 * s2,
            0.5 * eL * dphi + eL * dL * th + 0.5 * (ej1 * s1 + ej2 * s2),
            2.0 * eL * th + eL * dL * dphi,
        ],
        axis=-1,
    )


def potential_hessian(params: CircuitParams, bias: BiasPoint, point) -> np.ndarray:
    vphi, phi, th = point
    eL = params.eps_L_dressed
    dL = params.delta_L
    ej1, ej2 = _junction_energies(params)
    c1 = np.cos(0.5 * phi + vphi)
    c2 = np.cos(0.5 * phi - vphi)
    H = np.zeros((3, 3))
    H[0, 0] = ej1 * c1 + ej2 * c2
    H[0, 1] = H[1, 0] = 0.5 * (ej1 * c1 - ej2 * c2)
    H[1, 1] = 0.5 * eL + 0.25 * (ej1 * c1 + ej2 * c2)
    H[1, 2] = H[2, 1] = eL * dL
    H[2, 2] = 2.0 * eL
    return H


def mass_matrix(params: CircuitParams) -> np.ndarray:
    """Velocity-space mass matrix for coordinates (vphi, phi, theta).

    Inverse of the momentum Hessian of the kinetic energy; capacitive
    disorder enters through its cross terms, inductive disorder not at all.
    """
    eC = params.eps_C_dressed
    dC = params.delta_C_eff
    x_eC = params.x * params.eps_C
    # momenta ordered as (N, n, eta), conjugate to (vphi, phi, theta)
    Hpp = np.array(
        [
            [4.0 * eC, -8.0 * eC * dC, -4.0 * eC],
            [-8.0 * eC * dC, 16.0 * eC, 8.0 * eC * dC],
            [-4.0 * eC, 8.0 * eC * dC, 4.0 * eC + 8.0 * x_eC],
        ]
    )
    return np.linalg.inv(Hpp)


def _require_degenerate_minima(bias: BiasPoint) -> None:
    """Raise ``UnsupportedBiasError`` unless phi_ext = pi.

    At every other bias, half-flux biases (3 pi, -pi, ...) included,
    ``find_minima`` returns minima of different potential, between which
    there is no tunneling path.
    """
    if abs(bias.phi_ext - np.pi) >= 1e-9:
        raise UnsupportedBiasError(
            "the tunneling path is solved at phi_ext = pi only, where its two "
            f"minima are degenerate, not at {bias.phi_ext!r}"
        )


def path_approx(vphi, bias: BiasPoint, z: float):
    """Piecewise-linear approximation of the loop phase along the path.

    phi = (2 |vphi - 2 pi round(vphi / 2 pi)| + z phi_ext) / (1 + z);
    2 pi periodic in vphi by the folding.
    """
    v = np.asarray(vphi, dtype=float)
    fold = v - 2 * np.pi * np.round(v / (2 * np.pi))
    return (2.0 * np.abs(fold) + z * bias.phi_ext) / (1.0 + z)


def find_minima(
    params: CircuitParams, bias: BiasPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Locate the two adjacent potential minima flanking the tunneling path."""
    z = params.z
    seeds = [
        np.array([0.0, float(path_approx(0.0, bias, z)), 0.0]),
        np.array([np.pi, float(path_approx(np.pi, bias, z)), 0.0]),
    ]
    minima = []
    for seed in seeds:
        res = minimize(
            lambda q: potential(params, bias, q),
            seed,
            jac=lambda q: potential_gradient(params, bias, q),
            method="BFGS",
            options={"gtol": 1e-12, "maxiter": 500},
        )
        g = np.linalg.norm(potential_gradient(params, bias, res.x))
        if g > GRADIENT_TOL:
            raise MinimizationError(
                f"gradient norm {g:.2e} at candidate minimum {res.x}; "
                f"optimizer message: {res.message}"
            )
        hess = potential_hessian(params, bias, res.x)
        if np.any(np.linalg.eigvalsh(hess) <= 0):
            raise MinimizationError(f"Hessian not positive definite at {res.x}")
        minima.append(res.x)
    return minima[0], minima[1]


@dataclass(frozen=True)
class InstantonPath:
    """Discretized tunneling trajectory with its solver diagnostics.

    ``samples`` has columns (tau, vphi, phi, theta); the endpoints are the
    clamped points offset by ``endpoint_offset`` from the true minima along
    the slowest unstable direction of the inverted dynamics.  ``action`` is
    that of the returned beads.  ``residual`` carries the action
    stationarity norm, the worst interior equation-of-motion defect, the
    discrete energy-conservation span, the number of outer relaxation passes
    (``outer_iterations``), the action of the whole string after each of
    them (``action_history``), and whether the action plateau ended them
    (``action_stop``: a relative change of at most ``ACTION_PLATEAU``;
    otherwise the ``max_outer`` cap did).  The beads are mirror images of
    each other under the reflection R.
    """

    samples: np.ndarray
    endpoints: tuple[np.ndarray, np.ndarray]
    endpoint_offset: float
    action: float
    residual: dict = field(default_factory=dict)

    @property
    def tau(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def coords(self) -> np.ndarray:
        return self.samples[:, 1:4]


def _slow_unstable_direction(params, bias, minimum) -> np.ndarray:
    M = mass_matrix(params)
    Hs = potential_hessian(params, bias, minimum)
    w2, V = sla.eigh(Hs, M)
    d = V[:, int(np.argmin(w2))]
    return d / np.linalg.norm(d)


def _action_and_grad(flat, qa, qb, M, U0, params, bias):
    Q = np.vstack([qa, flat.reshape(-1, 3), qb])
    dQ = np.diff(Q, axis=0)
    MdQ = dQ @ M
    seg = np.sqrt(np.einsum("ij,ij->i", dQ, MdQ))
    mid = 0.5 * (Q[1:] + Q[:-1])
    g = 2.0 * np.maximum(potential(params, bias, mid) - U0, 1e-15)
    sq = np.sqrt(g)
    action = float(np.sum(sq * seg))
    t = MdQ / seg[:, None]
    w = (seg / (2.0 * sq))[:, None] * potential_gradient(params, bias, mid)
    grad = sq[1:, None] * (-t[1:]) + sq[:-1, None] * t[:-1] + w[1:] + w[:-1]
    return action, grad.ravel()


def _redistribute(Q: np.ndarray, M: np.ndarray, snew: np.ndarray) -> np.ndarray:
    """Points at fractions ``snew`` of the mass-metric arc length of ``Q``."""
    dQ = np.diff(Q, axis=0)
    seg = np.sqrt(np.einsum("ij,jk,ik->i", dQ, M, dQ))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    s /= s[-1]
    return np.stack([np.interp(snew, s, Q[:, k]) for k in range(3)], axis=1)


def _on_plateau(history: list[float]) -> bool:
    """Whether the last outer pass changed the action by at most ACTION_PLATEAU."""
    if len(history) < 2:
        return False
    return abs(history[-1] - history[-2]) <= ACTION_PLATEAU * abs(history[-1])


def solve_instanton(
    params: CircuitParams,
    bias: BiasPoint,
    n_beads: int,
    max_outer: int,
) -> InstantonPath:
    """Relax the minimum-action string between the two degenerate minima.

    The true trajectory takes infinite time, so the endpoints are clamped at
    ``ENDPOINT_OFFSET`` from the minima along the slowest unstable mode of
    the linearized inverted dynamics (the direction the exact trajectory
    departs along).  The far end is the mirror image R(qa) of the near one
    and only the free half of the string is relaxed: its ``n_beads // 2``
    beads run from qa towards the fixed point of R, the other half is their
    mirror image, and an odd string carries the fixed point itself as its
    centre bead.  Outer passes (L-BFGS relaxation, then arc-length
    redistribution) end when one changes the action by at most
    ``ACTION_PLATEAU`` relative, or after ``max_outer`` passes.  The clamp
    offset and all residual diagnostics are reported on the result.  Biases
    other than phi_ext = pi raise ``UnsupportedBiasError`` before any
    minimization.
    """
    if params.z >= 0.3:
        raise ValueError("instanton reduction requires eps_L/eps_J < 0.3")
    _require_degenerate_minima(bias)
    m1, m2 = find_minima(params, bias)
    M = mass_matrix(params)
    d1 = _slow_unstable_direction(params, bias, m1)
    if d1[2] < 0:
        d1 = -d1
    qa = m1 + ENDPOINT_OFFSET * d1
    U0 = min(potential(params, bias, m1), potential(params, bias, m2))

    # R(q) = c - q; every R-symmetric path passes through its fixed point c/2,
    # where the relaxed half string ends, halfway along the whole string
    c = np.array([np.pi, 2.0 * bias.phi_ext, 0.0])
    qb, end = c - qa, 0.5 * c
    # an odd string carries c/2 as its centre bead; an even one has it
    # midway between its two middle beads, where the relaxed half takes
    # the centre segment's potential at the midpoint of its own half of
    # it rather than at c/2
    centre = np.tile(end, (n_beads % 2, 1))

    def full_string(X):
        return np.vstack([qa, X, centre, (c - X)[::-1], qb])

    def full_action(X):
        Q = full_string(X)
        return _action_and_grad(Q[1:-1].ravel(), qa, qb, M, U0, params, bias)

    # the free beads lie at fractions sg of the whole string, so at 2 sg of
    # the relaxed half
    sg = np.linspace(0.0, 1.0, n_beads + 2)[1:n_beads // 2 + 1]
    vg = qa[0] + (qb[0] - qa[0]) * sg
    X = np.stack(
        [vg, path_approx(vg, bias, params.z), np.interp(sg, [0, 1], [qa[2], qb[2]])],
        axis=1,
    )

    history = []
    while len(history) < max_outer and not _on_plateau(history):
        res = minimize(
            _action_and_grad,
            X.ravel(),
            args=(qa, end, M, U0, params, bias),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 400, "ftol": 1e-16, "gtol": 1e-13},
        )
        X = _redistribute(np.vstack([qa, res.x.reshape(-1, 3), end]), M, 2.0 * sg)
        history.append(full_action(X)[0])

    # action and stationarity of the redistributed string that is returned
    action, grad = full_action(X)
    full = full_string(X)
    tau, diag = _time_parameterization(full, M, U0, params, bias)
    samples = np.column_stack([tau, full])
    diag["action_grad_norm"] = float(np.abs(grad).max())
    diag["outer_iterations"] = len(history)
    diag["action_stop"] = _on_plateau(history)
    diag["action_history"] = history
    return InstantonPath(
        samples=samples,
        endpoints=(m1, m2),
        endpoint_offset=ENDPOINT_OFFSET,
        action=action,
        residual=diag,
    )


def _time_parameterization(full, M, U0, params, bias):
    dQ = np.diff(full, axis=0)
    seg = np.sqrt(np.einsum("ij,jk,ik->i", dQ, M, dQ))
    umid = potential(params, bias, 0.5 * (full[1:] + full[:-1]))
    g = 2.0 * np.maximum(umid - U0, 1e-300)
    dtau = seg / np.sqrt(g)
    tau = np.concatenate([[0.0], np.cumsum(dtau)])

    # equation-of-motion defect M q'' = grad U on the nonuniform tau grid
    h1, h2 = dtau[:-1, None], dtau[1:, None]
    qdd = 2 * (h1 * full[2:] - (h1 + h2) * full[1:-1] + h2 * full[:-2]) / (
        h1 * h2 * (h1 + h2)
    )
    resid = np.full(len(tau), np.nan)
    resid[1:-1] = np.linalg.norm(
        qdd @ M.T - potential_gradient(params, bias, full[1:-1]), axis=1
    )
    vphi = full[:, 0]
    interior = (vphi > 0.2) & (vphi < np.pi - 0.2)
    # centered velocities for the discrete energy check
    vel = np.gradient(full, tau, axis=0)
    kin = 0.5 * np.einsum("ij,jk,ik->i", vel, M, vel)
    energy_dev = np.abs(kin - (potential(params, bias, full) - U0))
    return tau, {
        "eom_interior_max": float(np.nanmax(np.where(interior, resid, np.nan)))
        if interior.any()
        else float("nan"),
        "eom_median": float(np.nanmedian(resid)),
        "energy_span": float(energy_dev[1:-1].max()) if len(energy_dev) > 2 else 0.0,
        "horizon": float(tau[-1]),
    }


def reduce_to_effective(
    params: CircuitParams,
    bias: BiasPoint,
    path: InstantonPath | str = "approx",
) -> EffectiveParams:
    """Fourier-reduce the potential along the tunneling path.

    Evaluates U(vphi, phi(vphi), theta=0) over one junction-difference
    period on a uniform grid (trapezoid quadrature is spectrally accurate
    for the smooth periodic integrand) and extracts the cos(k vphi)
    coefficients for k = 1..4.  The kinetic prefactor is taken from the
    leading-order closed-form reduction.
    """
    z = params.z
    vg = np.arange(N_QUAD) * 2.0 * np.pi / N_QUAD
    if isinstance(path, str):
        if path != "approx":
            raise ValueError("path must be an InstantonPath or 'approx'")
        phi_of_v = path_approx(vg, bias, z)
    else:
        _require_degenerate_minima(bias)
        coords = path.coords
        order = np.argsort(coords[:, 0])
        v_samp = coords[order, 0]
        p_samp = coords[order, 1]
        v_fold = np.where(vg <= np.pi, vg, 2 * np.pi - vg)
        phi_of_v = np.interp(v_fold, v_samp, p_samp)

    u = potential(params, bias, np.stack([vg, phi_of_v, np.zeros_like(vg)], axis=-1))
    coeffs = [float(np.sum(u * np.cos(k * vg)) * 2.0 / N_QUAD) for k in range(1, 5)]
    ep = effective_params(params, bias, "leading")
    return EffectiveParams(
        z=z,
        c1=coeffs[0],
        c2=coeffs[1],
        c3=coeffs[2],
        c4=coeffs[3],
        kinetic_prefactor=ep.kinetic_prefactor,
        phi_ext_folded=bias.phi_ext_folded,
        order="quadrature/leading",
    )
