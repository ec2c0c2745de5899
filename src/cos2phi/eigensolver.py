"""Lowest-eigenpair solver with dense and Krylov backends.

The backend follows from the problem: dense ``eigh`` up to
``DENSE_THRESHOLD`` (the measured crossover, well below every circuit
basis the CLI uses) or when (nearly) all eigenpairs are asked for, and
shift-invert Lanczos with a seeded start vector otherwise.  The two
backends agree to well below 1e-8, which the test suite checks directly.
Both run in the arithmetic of H as ``Primitives.kron`` returned it: real at
half flux (the gauged frame of ``model``), complex elsewhere.  Nothing here
casts H.

Every shifted factorization in the package, the Lanczos operator here and
the Sternheimer solve of the flux curvature, comes from
``factor_below_spectrum``: with the shift below the spectrum floor, H - sigma
is positive definite, and in reverse Cuthill-McKee order it is banded (the
imbalance mode enters only through the at most pentadiagonal eta, eta^2 and
theta), so one LAPACK band Cholesky factor serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .constants import DEFAULT_SEED
from .model import HermitianOperator, NonConvergenceError

__all__ = [
    "BandCholesky",
    "EigenSolution",
    "lowest_eigenpairs",
    "NonConvergenceError",
    "DENSE_THRESHOLD",
    "DEFAULT_SEED",
    "factor_below_spectrum",
    "fix_global_phase",
]

DENSE_THRESHOLD = 160  # dim; measured dense/Krylov crossover: 150-180
KRYLOV_TOL = 1e-10  # Krylov residuals above 100 * KRYLOV_TOL * |E| raise
FLOOR_TOL = 1e-2  # relative residual of the Lanczos pass that finds the floor
DEGENERACY_WINDOW = 1e-9  # GHz; clusters inside are gauge-fixed together
PHASE_TIE_RTOL = 1e-8  # entries this close to the largest magnitude tie


@dataclass(frozen=True)
class EigenSolution:
    """Converged lowest-k eigenpairs of a Hermitian operator.

    ``energies`` ascend; ``vectors[:, i]`` is the i-th eigenvector with its
    global phase fixed by ``fix_global_phase``.
    ``meta`` records backend, tolerance, seed, and the basis truncation when
    the caller supplies one; Krylov solves add the ``shift`` sigma, the band
    fill ``lu_nnz`` of the Cholesky factor of H - sigma and the
    ``lu_solves`` made on it.
    """

    energies: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    fingerprint: str
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.energies)


def fix_global_phase(v: np.ndarray) -> np.ndarray:
    """``v`` times the unit phase that makes its anchor entry real positive.

    The anchor is the first entry, in flat order, whose magnitude lies
    within a relative ``PHASE_TIE_RTOL`` of the largest.  The mirror-image
    entries of a parity-symmetric state tie to roundoff, and a plain argmax
    would let the last bits pick between them, and so pick the sign.
    """
    mag = np.abs(v).ravel()
    ph = v.flat[int(np.argmax(mag >= (1.0 - PHASE_TIE_RTOL) * mag.max()))]
    return v * (np.conj(ph) / abs(ph)) if ph != 0 else v


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    return np.column_stack([fix_global_phase(v) for v in vectors.T])


def _gauge_fix_clusters(
    H: HermitianOperator,
    energies: np.ndarray,
    vectors: np.ndarray,
    gauge_operator: sp.spmatrix | None,
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
            g = block.conj().T @ (gauge_operator @ block)
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
    gauge_operator: sp.spmatrix | None = None,
    meta: dict | None = None,
) -> EigenSolution:
    """Lowest k eigenpairs; dense up to ``DENSE_THRESHOLD`` or for k near dim.

    The Krylov path locates the spectrum floor with a coarse Lanczos pass and
    then runs shift-invert from below it, with the start vector drawn from a
    seeded generator so repeated runs are bit-identical.
    """
    dim = H.dim
    if not (1 <= k <= dim):
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    if gauge_operator is not None and gauge_operator.shape != H.matrix.shape:
        raise ValueError(
            f"gauge operator of shape {gauge_operator.shape} does not act on "
            f"H of shape {H.matrix.shape}"
        )

    # ARPACK needs k < dim - 1 on complex matrices
    backend = "dense" if dim <= DENSE_THRESHOLD or k >= dim - 1 else "krylov"
    if backend == "dense":
        evals, evecs = sla.eigh(H.toarray())
        energies, vectors = evals[:k], evecs[:, :k]
        solve_info = {}
    else:
        energies, vectors, solve_info = _krylov_lowest(H, k, seed)

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

    info = {"backend": backend, "tol": KRYLOV_TOL, "seed": seed, **solve_info}
    if meta:
        info.update(meta)
    return EigenSolution(
        energies=np.asarray(energies, dtype=float),
        vectors=vectors,
        residuals=resid,
        fingerprint=H.fingerprint,
        meta=info,
    )


@dataclass(frozen=True)
class BandCholesky:
    """Band Cholesky factor of a Hermitian positive definite matrix.

    ``band`` is the Fortran-ordered lower band of the factor in LAPACK's
    packed form, for the matrix with its states taken in the order ``perm``.
    """

    band: np.ndarray
    perm: np.ndarray

    @property
    def nnz(self) -> int:
        """The band fill: (bandwidth + 1) * dim stored entries."""
        return self.band.size

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(M - sigma)^-1 b for a 1-D b or for each column of a 2-D b."""
        y = sla.cho_solve_banded(
            (self.band, True), b[self.perm], overwrite_b=True, check_finite=False
        )
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def factor_below_spectrum(M, sigma: float) -> BandCholesky:
    """Band Cholesky factor of M - sigma, sigma below the spectrum of sparse M.

    M is Hermitian.  The reverse Cuthill-McKee order of M's pattern makes
    M - sigma banded; its lower band is packed column-major, as ``pbtrf``
    reads it, so the factorization runs in place.  A sigma that is not below
    the spectrum leaves M - sigma indefinite, and ``pbtrf`` finds it: that
    raises ``NonConvergenceError``.
    """
    A = M.tocsr()  # canonical from CSC, so its COO form needs no sort
    n = A.shape[0]
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    rank = np.empty(n, dtype=np.intp)
    rank[perm] = np.arange(n)
    A = A.tocoo()
    A.sum_duplicates()
    row, col = rank[A.row], rank[A.col]
    lower = row >= col
    offset, col = row[lower] - col[lower], col[lower]
    band = np.zeros((int(offset.max(initial=0)) + 1, n), dtype=M.dtype, order="F")
    band[offset, col] = A.data[lower]
    band[0] -= sigma
    try:
        band = sla.cholesky_banded(
            band, lower=True, overwrite_ab=True, check_finite=False
        )
    except sla.LinAlgError as exc:
        raise NonConvergenceError(
            f"H - sigma is not positive definite at sigma = {sigma:.12g} GHz "
            f"(dim {n}): {exc}"
        ) from exc
    return BandCholesky(band=band, perm=perm)


def _krylov_lowest(H: HermitianOperator, k: int, seed: int):
    """Lowest k eigenpairs by shift-invert Lanczos, plus the solve's meta.

    The coarse floor pass returns a Ritz value theta >= E0 with residual at
    most ``FLOOR_TOL * |theta|``, which bounds theta - E0; the shift
    sigma = theta - max(1, 2 FLOOR_TOL |theta|) therefore lies below E0 for
    any |E0|.
    """
    M = H.matrix.tocsc()
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(M.shape[0])
    try:
        floor = spla.eigsh(
            M, k=1, which="SA", return_eigenvectors=False, tol=FLOOR_TOL, v0=v0
        )[0]
        sigma = floor - max(1.0, 2.0 * FLOOR_TOL * abs(floor))
        factor = factor_below_spectrum(M, sigma)
        solves = 0

        def inverse(x):
            nonlocal solves
            solves += 1
            return factor.solve(x)

        OPinv = spla.LinearOperator(M.shape, matvec=inverse, dtype=M.dtype)
        evals, evecs = spla.eigsh(
            M, k=k, sigma=sigma, which="LM", tol=0, v0=v0, maxiter=5000,
            OPinv=OPinv,
        )
    except spla.ArpackNoConvergence as exc:
        raise NonConvergenceError(
            f"ARPACK failed to converge: {exc}", residuals=getattr(exc, "eigenvalues", None)
        ) from exc
    order = np.argsort(evals)
    info = {"shift": float(sigma), "lu_nnz": int(factor.nnz), "lu_solves": solves}
    return evals[order], evecs[:, order], info
