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
after each outer pass (the string method of E, Ren and Vanden-Eijnden,
J. Chem. Phys. 126, 164103 (2007)).  Each midpoint term of the discrete
action couples only neighbouring beads, so its Hessian is block-tridiagonal,
and each pass is one damped (Levenberg-Marquardt) Newton step that moves the
beads normal to the string, solved by a 2x2-block Cholesky elimination bead
by bead and accepted only if the action does not rise (the geometric minimum
action method of Heymann and Vanden-Eijnden, Commun. Pure Appl. Math. 61,
1052 (2008)).  The string is relaxed on a bead ladder, 12, 24, 48, ... free
beads and then the requested count, each rung interpolated onto the next.  The
path is solved at phi_ext = pi only, where the two wells are degenerate; at
every other bias the path solve and the numeric-path reduction raise
``UnsupportedBiasError`` (the potential, ``find_minima`` and the ``approx``
reduction hold at every bias).  At phi_ext = pi the potential and the mass
metric are invariant under the reflection R(vphi, phi, theta) = (pi - vphi,
2 phi_ext - phi, -theta), which swaps the two minima, so the path is
R-symmetric: only the half from the near end to the fixed point of R is
relaxed, and the other half is its mirror image.  On each rung the passes
stop once one changes the action by at most ``ACTION_PLATEAU`` relative;
``max_outer`` caps them.  Time along the path is recovered afterwards from
d tau = sqrt(dq . M dq / (2 (U - U_min))), and the second-order equations of
motion are verified pointwise as a residual diagnostic.  The module runs on
numpy alone: ``cos2phi instanton`` loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import EffectiveParams, UnsupportedBiasError, effective_params
from .model import BiasPoint, CircuitParams, NonConvergenceError

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
NEWTON_STEPS = 50  # cap on the Newton steps of each minimum search
LADDER_START = 12  # free beads on the coarsest rung of the bead ladder
DAMPING = 1e-3  # initial Levenberg-Marquardt damping of the Newton steps
DAMPING_FACTOR = 4.0  # damping growth on a rejected step, decay on an accepted one
DAMPING_MAX = 1e8  # damping beyond which a pass leaves the string unmoved
N_QUAD = 1024  # uniform quadrature points of the path Fourier reduction


class MinimizationError(NonConvergenceError):
    """Newton search failed to locate a valid potential minimum."""


def potential(params: CircuitParams, bias: BiasPoint, point):
    """Classical potential energy (GHz) at (vphi, phi, theta).

    ``point`` has shape (..., 3) and the result the leading shape; a single
    point gives a float.
    """
    q = np.asarray(point, dtype=float)
    vphi, phi, th = q[..., 0], q[..., 1], q[..., 2]
    eL = params.eps_L_dressed
    dL = params.delta_L
    ej1, ej2 = params.junction_energies
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
    ej1, ej2 = params.junction_energies
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
    """Hessian of :func:`potential`, shape (..., 3, 3) for points (..., 3)."""
    q = np.asarray(point, dtype=float)
    vphi, phi = q[..., 0], q[..., 1]
    eL = params.eps_L_dressed
    dL = params.delta_L
    ej1, ej2 = params.junction_energies
    c1 = ej1 * np.cos(0.5 * phi + vphi)
    c2 = ej2 * np.cos(0.5 * phi - vphi)
    H = np.zeros(q.shape[:-1] + (3, 3))
    H[..., 0, 0] = c1 + c2
    H[..., 0, 1] = H[..., 1, 0] = 0.5 * (c1 - c2)
    H[..., 1, 1] = 0.5 * eL + 0.25 * (c1 + c2)
    H[..., 1, 2] = H[..., 2, 1] = eL * dL
    H[..., 2, 2] = 2.0 * eL
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
    """Locate the two adjacent potential minima flanking the tunneling path.

    Newton iteration with the analytic Hessian, from the plug-in points of
    :func:`path_approx` at vphi = 0 and pi.
    """
    z = params.z
    seeds = [
        np.array([0.0, float(path_approx(0.0, bias, z)), 0.0]),
        np.array([np.pi, float(path_approx(np.pi, bias, z)), 0.0]),
    ]
    minima = []
    for q in seeds:
        try:
            for _ in range(NEWTON_STEPS):
                g = potential_gradient(params, bias, q)
                if np.linalg.norm(g) <= 1e-3 * GRADIENT_TOL:
                    break
                q = q - np.linalg.solve(potential_hessian(params, bias, q), g)
        except np.linalg.LinAlgError as exc:
            raise MinimizationError(f"singular Hessian at {q}") from exc
        g = np.linalg.norm(potential_gradient(params, bias, q))
        if g > GRADIENT_TOL:
            raise MinimizationError(
                f"gradient norm {g:.2e} at candidate minimum {q} after "
                f"{NEWTON_STEPS} Newton steps"
            )
        hess = potential_hessian(params, bias, q)
        if np.any(np.linalg.eigvalsh(hess) <= 0):
            raise MinimizationError(f"Hessian not positive definite at {q}")
        minima.append(q)
    return minima[0], minima[1]


@dataclass(frozen=True)
class InstantonPath:
    """Discretized tunneling trajectory with its solver diagnostics.

    ``samples`` has columns (tau, vphi, phi, theta); its first and last
    rows are the clamped points, offset by ``endpoint_offset`` from the
    true minima along the slowest unstable direction of the inverted
    dynamics, and ``endpoints`` holds the two true minima themselves.
    ``tau`` holds about 8 significant digits: it integrates
    seg / sqrt(2 (U - U0)), and U - U0 is about 1e-7 GHz at the clamped
    ends.  ``action`` is that of the returned beads.  ``residual`` carries
    the action stationarity norm, the worst interior equation-of-motion
    defect, the discrete energy-conservation span, the number of outer
    relaxation passes (damped Newton steps, each followed by arc-length
    redistribution) on the requested string, the last rung of the bead ladder
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
    """Unit vector along the slowest mode at ``minimum``: the generalized
    eigenvector of Hs v = w^2 M v with the least w^2, from the symmetric
    problem L^-1 Hs L^-T, M = L L^T."""
    Linv = np.linalg.inv(np.linalg.cholesky(mass_matrix(params)))
    Hs = potential_hessian(params, bias, minimum)
    _, V = np.linalg.eigh(Linv @ Hs @ Linv.T)  # ascending w^2
    d = Linv.T @ V[:, 0]
    return d / np.linalg.norm(d)


def _segments(flat, qa, qb, M, U0, params, bias):
    """Per segment of the string qa, beads, qb: M dq, its mass-metric length,
    the midpoint and sqrt(2 (U - U0)) there (floored)."""
    Q = np.vstack([qa, flat.reshape(-1, 3), qb])
    dQ = np.diff(Q, axis=0)
    MdQ = dQ @ M
    seg = np.sqrt(np.einsum("ij,ij->i", dQ, MdQ))
    mid = 0.5 * (Q[1:] + Q[:-1])
    sq = np.sqrt(2.0 * np.maximum(potential(params, bias, mid) - U0, 1e-15))
    return MdQ, seg, mid, sq


def _action_and_grad(flat, qa, qb, M, U0, params, bias):
    MdQ, seg, mid, sq = _segments(flat, qa, qb, M, U0, params, bias)
    action = float(np.sum(sq * seg))
    t = MdQ / seg[:, None]
    w = (seg / (2.0 * sq))[:, None] * potential_gradient(params, bias, mid)
    grad = sq[1:, None] * (-t[1:]) + sq[:-1, None] * t[:-1] + w[1:] + w[:-1]
    return action, grad.ravel()


def _action_hessian(flat, qa, qb, M, U0, params, bias):
    """Block-tridiagonal Hessian of the action of :func:`_action_and_grad`.

    Segment term f = s(m) L(d) depends on its end beads a, b only through
    the midpoint m = (a + b) / 2 and d = b - a, with s = sqrt(2 (U - U0))
    and L = sqrt(d . M d).  Returns the 3x3 diagonal blocks, one per free
    bead, and the blocks coupling each free bead to the next.
    """
    MdQ, seg, mid, sq = _segments(flat, qa, qb, M, U0, params, bias)
    sq = sq[:, None, None]
    t = (MdQ / seg[:, None])[:, :, None]  # grad_d L
    ds = potential_gradient(params, bias, mid)[:, :, None] / sq  # grad_m s
    f_mm = seg[:, None, None] * (
        potential_hessian(params, bias, mid) - ds * ds.transpose(0, 2, 1)
    ) / sq
    f_dd = sq * (M - t * t.transpose(0, 2, 1)) / seg[:, None, None]
    f_md = ds * t.transpose(0, 2, 1)
    f_dm = f_md.transpose(0, 2, 1)
    # d/da = d/dm / 2 - d/dd and d/db = d/dm / 2 + d/dd
    h_aa = 0.25 * f_mm - 0.5 * (f_md + f_dm) + f_dd
    h_bb = 0.25 * f_mm + 0.5 * (f_md + f_dm) + f_dd
    h_ab = 0.25 * f_mm + 0.5 * (f_md - f_dm) - f_dd
    return h_bb[:-1] + h_aa[1:], h_ab[1:-1]


def _normal_frames(Q: np.ndarray) -> np.ndarray:
    """Two orthonormal directions normal to the chord through the neighbours
    of each interior bead of ``Q``, shape (len(Q) - 2, 3, 2)."""
    tan = Q[2:] - Q[:-2]
    tan /= np.linalg.norm(tan, axis=1, keepdims=True)
    n1 = np.cross(tan, np.eye(3)[np.argmin(np.abs(tan), axis=1)])
    n1 /= np.linalg.norm(n1, axis=1, keepdims=True)
    return np.stack([n1, np.cross(tan, n1)], axis=2)


def _normal_blocks(diag, off, N) -> tuple[np.ndarray, np.ndarray]:
    """N^T H N as 2x2 blocks, H the block-tridiagonal Hessian and N the
    per-bead normal frames: one diagonal block per free bead and the blocks
    coupling each to the next."""
    D = np.einsum("iak,iab,ibl->ikl", N, diag, N)
    O = np.einsum("iak,iab,ibl->ikl", N[:-1], off, N[1:])
    return D, O


def _block_solve(D, O, rhs) -> np.ndarray:
    """Solve A y = rhs, A symmetric block-tridiagonal with the 2x2 diagonal
    blocks ``D`` (read in their lower triangle) and the blocks ``O``
    coupling each bead to the next; ``rhs`` and y have shape (len(D), 2).

    Block Cholesky A = L L^T bead by bead, in scalar arithmetic: the
    diagonal block L_i of L is the Cholesky factor of the Schur block
    S_i = D_i - V_{i-1}^T V_{i-1}, with V_i = L_i^-1 O_i, so the cost is
    O(len(D)).  A is positive definite exactly when every S_i is; the first
    that is not raises ``LinAlgError``.
    """
    O = np.concatenate([O, np.zeros((1, 2, 2))])  # the last bead couples to none
    factors, zs = [], []
    c00 = c10 = c11 = r0 = r1 = 0.0  # V^T V and V^T z of the previous bead
    for i, ((d00, _, d10, d11), (o00, o01, o10, o11), (b0, b1)) in enumerate(
            zip(D.reshape(-1, 4).tolist(), O.reshape(-1, 4).tolist(), rhs.tolist())):
        s00 = d00 - c00
        l0 = math.sqrt(s00) if s00 > 0.0 else math.nan
        l1 = (d10 - c10) / l0
        s11 = d11 - c11 - l1 * l1
        if not s11 > 0.0:  # also false for the NaN of a nonpositive s00
            raise np.linalg.LinAlgError(f"Schur block {i} is not positive definite")
        l2 = math.sqrt(s11)
        z0 = (b0 - r0) / l0
        z1 = (b1 - r1 - l1 * z0) / l2
        v00, v01 = o00 / l0, o01 / l0
        v10, v11 = (o10 - l1 * v00) / l2, (o11 - l1 * v01) / l2
        factors.append((l0, l1, l2, v00, v01, v10, v11))
        zs.append((z0, z1))
        c00, c10 = v00 * v00 + v10 * v10, v01 * v00 + v11 * v10
        c11 = v01 * v01 + v11 * v11
        r0, r1 = v00 * z0 + v10 * z1, v01 * z0 + v11 * z1
    # back substitution, L_i^T y_i = z_i - V_i y_{i+1}, from the last bead
    y = []
    y0 = y1 = 0.0
    for (l0, l1, l2, v00, v01, v10, v11), (z0, z1) in zip(factors[::-1], zs[::-1]):
        x0 = z0 - v00 * y0 - v01 * y1
        y1 = (z1 - v10 * y0 - v11 * y1) / l2
        y0 = (x0 - l1 * y1) / l0
        y.append((y0, y1))
    return np.array(y[::-1])


def minimize(X, qa, qb, M, U0, params, bias, damping):
    """One outer relaxation pass: a damped Newton step of the free beads
    ``X`` normal to the string.

    The step solves (N^T H N + damping) y = -N^T grad by ``_block_solve``
    and is accepted only if the action does not rise; otherwise, or when the
    damped system is indefinite, the damping grows and the step is solved
    again.  Returns the beads and the damping for the next pass; past
    ``DAMPING_MAX`` no step lowers the action, ``X`` is returned as it is
    and the damping restarts at ``DAMPING``.  ``perfbench/tracer.py`` counts
    its calls: every pass of every ladder rung (27 on ``instanton-short``),
    where ``residual["outer_iterations"]`` counts the last rung's only.
    """
    args = (qa, qb, M, U0, params, bias)
    action, grad = _action_and_grad(X.ravel(), *args)
    diag, off = _action_hessian(X.ravel(), *args)
    N = _normal_frames(np.vstack([qa, X, qb]))
    D, O = _normal_blocks(diag, off, N)
    rhs = -np.einsum("iak,ia->ik", N, grad.reshape(-1, 3))
    while damping <= DAMPING_MAX:
        try:
            y = _block_solve(D + damping * np.eye(2), O, rhs)
        except np.linalg.LinAlgError:  # indefinite: damp harder
            damping *= DAMPING_FACTOR
            continue
        trial = X + np.einsum("iak,ik->ia", N, y)
        if _action_and_grad(trial.ravel(), *args)[0] <= action:
            return trial, damping / DAMPING_FACTOR
        damping *= DAMPING_FACTOR
    return X, DAMPING


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
    centre bead.  An outer pass is one damped Newton step normal to the
    string, then arc-length redistribution.  The passes run on a bead
    ladder: the piecewise-linear path on ``LADDER_START`` free beads, then
    twice as many, and so on below ``n_beads // 2``, each rung interpolated
    onto the next, and last the requested string.  On each rung they end
    when one changes the action by at most ``ACTION_PLATEAU`` relative, or
    after ``max_outer`` passes; the residual reports the passes of the last
    rung.  The clamp offset and all residual diagnostics are reported on
    the result.  Biases other than phi_ext = pi raise
    ``UnsupportedBiasError`` before any minimization, and an ``n_beads``
    below 2, which leaves the half string no free bead, ``ValueError``.
    """
    if n_beads < 2:
        raise ValueError(
            f"n_beads must be at least 2, so that the half string has a free "
            f"bead; got {n_beads}"
        )
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
    half = (qa, end, M, U0, params, bias)

    def full_string(X):
        return np.vstack([qa, X, centre, (c - X)[::-1], qb])

    def full_action(X):
        Q = full_string(X)
        return _action_and_grad(Q[1:-1].ravel(), qa, qb, M, U0, params, bias)

    def relax(X, frac, damping, action_of):
        """Passes on the free beads at fractions ``frac`` of the half string."""
        X = _redistribute(np.vstack([qa, X, end]), M, frac)
        history = []
        while len(history) < max_outer and not _on_plateau(history):
            X, damping = minimize(X, *half, damping)
            X = _redistribute(np.vstack([qa, X, end]), M, frac)
            history.append(action_of(X))
        return X, damping, history

    # a rung of k free beads is the half of an odd string of 2 k + 1 beads,
    # at fractions j / (k + 1) of the half; the requested free beads lie at
    # fractions sg of the whole string, so at 2 sg of the half
    sg = np.linspace(0.0, 1.0, n_beads + 2)[1:n_beads // 2 + 1]
    fracs, k = [], LADDER_START
    while k < n_beads // 2:
        fracs.append(np.arange(1, k + 1) / (k + 1))
        k *= 2
    fracs.append(2.0 * sg)
    vg = qa[0] + (qb[0] - qa[0]) * 0.5 * fracs[0]
    X = np.stack(
        [vg, path_approx(vg, bias, params.z), qa[2] * (1.0 - fracs[0])], axis=1
    )
    damping = DAMPING
    for frac in fracs[:-1]:
        X, damping, _ = relax(
            X, frac, damping, lambda X: _action_and_grad(X.ravel(), *half)[0]
        )
    X, _, history = relax(X, fracs[-1], damping, lambda X: full_action(X)[0])

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
    ranked = np.sort(resid[1:-1])  # np.median would import numpy.ma
    return tau, {
        "eom_interior_max": float(np.nanmax(np.where(interior, resid, np.nan)))
        if interior.any()
        else float("nan"),
        "eom_median": float(ranked[(len(ranked) - 1) // 2:len(ranked) // 2 + 1].mean()),
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
    vg = np.arange(N_QUAD) * 2.0 * np.pi / N_QUAD
    if isinstance(path, str):
        if path != "approx":
            raise ValueError("path must be an InstantonPath or 'approx'")
        phi_of_v = path_approx(vg, bias, params.z)
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
        c1=coeffs[0],
        c2=coeffs[1],
        c3=coeffs[2],
        c4=coeffs[3],
        kinetic_prefactor=ep.kinetic_prefactor,
    )
