"""Lowest-eigenpair solvers with dense and Krylov backends.

Dense diagonalization is the default below ``DENSE_THRESHOLD`` (the desk
scale default basis lands there).  Above it, shift-invert Lanczos with a
seeded start vector takes over; the two backends agree to well below 1e-8
on anything either can do, which the test suite checks directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .model import HermitianOperator, Operator

__all__ = [
    "EigenSolution",
    "lowest_eigenpairs",
    "convergence_ladder",
    "LadderReport",
    "NonConvergenceError",
    "DENSE_THRESHOLD",
    "DEFAULT_SEED",
]

DENSE_THRESHOLD = 4096
DEFAULT_SEED = 7  # Krylov start-vector seed
DEGENERACY_WINDOW = 1e-9  # GHz; clusters inside are gauge-fixed together


class NonConvergenceError(RuntimeError):
    """Iterative solver failed; carries the best residuals seen."""

    def __init__(self, msg: str, residuals=None):
        super().__init__(msg)
        self.residuals = residuals


@dataclass(frozen=True)
class EigenSolution:
    """Converged lowest-k eigenpairs of a Hermitian operator.

    ``energies`` ascend; ``vectors[:, i]`` is the i-th eigenvector with the
    global phase fixed so its largest-magnitude component is real positive.
    ``meta`` records backend, tolerance, seed, and the basis truncation when
    the caller supplies one.
    """

    energies: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    fingerprint: str
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.energies)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for i in range(out.shape[1]):
        j = int(np.argmax(np.abs(out[:, i])))
        ph = out[j, i]
        if ph != 0:
            out[:, i] *= np.conj(ph) / abs(ph)
    return out


def _gauge_fix_clusters(
    H: HermitianOperator,
    energies: np.ndarray,
    vectors: np.ndarray,
    gauge_operator: Operator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate near-degenerate clusters to diagonalize the gauge operator.

    Leaves well-separated states untouched.  Cluster energies are recomputed
    as Rayleigh quotients of the rotated vectors and re-sorted so the
    ascending-order invariant survives the rotation.  Without a gauge
    operator the arbitrary degenerate mixing from the backend is kept as-is.
    """
    if gauge_operator is None:
        return energies, vectors
    evs = energies.copy()
    out = vectors.copy()
    i = 0
    k = len(energies)
    while i < k:
        j = i + 1
        while j < k and evs[j] - evs[j - 1] <= DEGENERACY_WINDOW:
            j += 1
        if j - i > 1:
            block, _ = np.linalg.qr(out[:, i:j])
            g = block.conj().T @ (gauge_operator.matrix @ block)
            g = 0.5 * (g + g.conj().T)
            _, rot = np.linalg.eigh(g)
            block = block @ rot
            ray = np.array(
                [np.vdot(block[:, c], H.matrix @ block[:, c]).real
                 for c in range(block.shape[1])]
            )
            order = np.argsort(ray)
            out[:, i:j] = block[:, order]
            evs[i:j] = ray[order]
        i = j
    return evs, out


def lowest_eigenpairs(
    H: HermitianOperator,
    k: int,
    tol: float = 1e-10,
    dense_threshold: int = DENSE_THRESHOLD,
    seed: int = DEFAULT_SEED,
    gauge_operator: Operator | None = None,
    meta: dict | None = None,
) -> EigenSolution:
    """Lowest k eigenpairs; dense below ``dense_threshold``, else Krylov.

    The Krylov path locates the spectrum floor with a cheap Lanczos pass and
    then runs shift-invert from just below it, with the start vector drawn
    from a seeded generator so repeated runs are bit-identical.
    """
    dim = H.dim
    if not (1 <= k <= dim):
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if gauge_operator is not None and gauge_operator.fingerprint != H.fingerprint:
        raise ValueError("gauge operator built on a different basis")

    backend = "dense" if dim <= dense_threshold else "krylov"
    if backend == "dense":
        M = H.toarray()
        if np.abs(M.imag).max() == 0.0:
            M = M.real
        evals, evecs = sla.eigh(M)
        energies, vectors = evals[:k], evecs[:, :k]
    else:
        energies, vectors = _krylov_lowest(H, k, tol, seed)

    energies, vectors = _gauge_fix_clusters(H, energies, vectors, gauge_operator)
    vectors = _fix_phases(vectors)

    resid = np.array(
        [
            np.linalg.norm(H.matrix @ vectors[:, i] - energies[i] * vectors[:, i])
            for i in range(k)
        ]
    )
    scale = max(abs(energies[0]), abs(energies[-1]), 1.0)
    if backend == "krylov" and np.any(resid > max(tol, 1e-12) * scale * 100):
        raise NonConvergenceError(
            f"krylov residuals {resid} exceed tolerance {tol}", residuals=resid
        )

    info = {"backend": backend, "tol": tol, "seed": seed}
    if meta:
        info.update(meta)
    return EigenSolution(
        energies=np.asarray(energies, dtype=float),
        vectors=vectors,
        residuals=resid,
        fingerprint=H.fingerprint,
        meta=info,
    )


def _krylov_lowest(H: HermitianOperator, k: int, tol: float, seed: int):
    M = H.matrix.tocsc()
    if M.nnz and np.iscomplexobj(M.data) and np.abs(M.data.imag).max() == 0.0:
        M = M.real
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(M.shape[0])
    try:
        floor = spla.eigsh(
            M, k=1, which="SA", return_eigenvectors=False, tol=1e-4, v0=v0
        )[0]
        sigma = floor - 1.0
        evals, evecs = spla.eigsh(
            M, k=k, sigma=sigma, which="LM", tol=0, v0=v0, maxiter=5000
        )
    except spla.ArpackNoConvergence as exc:
        raise NonConvergenceError(
            f"ARPACK failed to converge: {exc}", residuals=getattr(exc, "eigenvalues", None)
        ) from exc
    order = np.argsort(evals)
    return evals[order], evecs[:, order]


@dataclass(frozen=True)
class LadderReport:
    """Per-level lowest-k energies of a truncation ladder and their deltas."""

    levels: list
    energies: np.ndarray  # (n_levels, k)
    deltas: np.ndarray    # (n_levels - 1, k) successive |differences|
    converged: bool
    tolerance: float


def convergence_ladder(
    params,
    bias,
    levels,
    k: int = 4,
    tolerance: float = 1e-4,
    dense_threshold: int = DENSE_THRESHOLD,
) -> LadderReport:
    """Diagonalize on an increasing truncation ladder and report drift.

    ``levels`` must be strictly increasing in every dimension.  Convergence
    is flagged when every lowest-k energy moves by less than ``tolerance``
    between the last two rungs.
    """
    from .hamiltonians import full_hamiltonian  # local import avoids a cycle

    if len(levels) < 2:
        raise ValueError("need at least two ladder levels")
    for lo, hi in zip(levels, levels[1:]):
        if hi.N0 < lo.N0 or hi.p0 < lo.p0 or hi.q0 < lo.q0:
            raise ValueError("ladder levels must not decrease in any dimension")

    rows = []
    for lv in levels:
        H = full_hamiltonian(params, bias, lv)
        sol = lowest_eigenpairs(H, k, dense_threshold=dense_threshold,
                                meta={"trunc": lv.as_tuple()})
        rows.append(sol.energies)
    E = np.vstack(rows)
    deltas = np.abs(np.diff(E, axis=0))
    converged = bool(np.all(deltas[-1] < tolerance))
    return LadderReport(
        levels=list(levels), energies=E, deltas=deltas,
        converged=converged, tolerance=tolerance,
    )
