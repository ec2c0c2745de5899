"""Lowest-eigenpair solver with dense and Krylov backends.

The backend follows from the problem: dense ``eigh`` up to
``DENSE_THRESHOLD`` (the measured crossover, well below every circuit
basis the CLI uses) or when (nearly) all eigenpairs are asked for, and
shift-invert Lanczos with a seeded start vector otherwise.  The two
backends agree to well below 1e-8, which the test suite checks directly.
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
    "NonConvergenceError",
    "DENSE_THRESHOLD",
    "DEFAULT_SEED",
]

DENSE_THRESHOLD = 160  # dim; measured dense/Krylov crossover: 150-180
KRYLOV_TOL = 1e-10  # Krylov residuals above 100 * KRYLOV_TOL * |E| raise
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
    seed: int = DEFAULT_SEED,
    gauge_operator: Operator | None = None,
    meta: dict | None = None,
) -> EigenSolution:
    """Lowest k eigenpairs; dense up to ``DENSE_THRESHOLD`` or for k near dim.

    The Krylov path locates the spectrum floor with a cheap Lanczos pass and
    then runs shift-invert from just below it, with the start vector drawn
    from a seeded generator so repeated runs are bit-identical.
    """
    dim = H.dim
    if not (1 <= k <= dim):
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    if gauge_operator is not None and gauge_operator.fingerprint != H.fingerprint:
        raise ValueError("gauge operator built on a different basis")

    # ARPACK needs k < dim - 1 on complex matrices
    backend = "dense" if dim <= DENSE_THRESHOLD or k >= dim - 1 else "krylov"
    if backend == "dense":
        M = H.toarray()
        if np.abs(M.imag).max() == 0.0:
            M = M.real
        evals, evecs = sla.eigh(M)
        energies, vectors = evals[:k], evecs[:, :k]
    else:
        energies, vectors = _krylov_lowest(H, k, seed)

    energies, vectors = _gauge_fix_clusters(H, energies, vectors, gauge_operator)
    vectors = _fix_phases(vectors)

    resid = np.array(
        [
            np.linalg.norm(H.matrix @ vectors[:, i] - energies[i] * vectors[:, i])
            for i in range(k)
        ]
    )
    scale = max(abs(energies[0]), abs(energies[-1]), 1.0)
    if backend == "krylov" and np.any(resid > KRYLOV_TOL * scale * 100):
        raise NonConvergenceError(
            f"krylov residuals {resid} exceed tolerance {KRYLOV_TOL}",
            residuals=resid,
        )

    info = {"backend": backend, "tol": KRYLOV_TOL, "seed": seed}
    if meta:
        info.update(meta)
    return EigenSolution(
        energies=np.asarray(energies, dtype=float),
        vectors=vectors,
        residuals=resid,
        fingerprint=H.fingerprint,
        meta=info,
    )


def _krylov_lowest(H: HermitianOperator, k: int, seed: int):
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
