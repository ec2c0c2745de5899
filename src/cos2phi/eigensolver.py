"""Lowest-eigenpair solver with dense and Krylov backends.

The backend follows from the problem: dense ``eigh`` up to
``DENSE_THRESHOLD`` (the measured crossover, well below every circuit
basis the CLI uses) or when (nearly) all eigenpairs are asked for, and
shift-invert Lanczos with a seeded start vector otherwise.  The two
backends agree to well below 1e-8, which the test suite checks directly.
Both run in the arithmetic of H as ``Primitives.kron`` returned it: real at
half flux (the gauged frame of ``model``), complex elsewhere.  Nothing here
casts H.  A symmetry of H splits the solve into its two eigenspaces.

Every shifted factorization in the package, the Lanczos operator here and
the Sternheimer solve of the flux curvature, comes from
``factor_below_spectrum`` with the shift ``SHIFT_GAP`` below the spectrum
floor: there H - sigma is positive definite, and in reverse Cuthill-McKee
order it is banded (the imbalance mode enters only through the at most
pentadiagonal eta, eta^2 and theta), so one LAPACK band Cholesky factor
serves, and its success certifies that the shift is below the spectrum.
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
    "SHIFT_GAP",
    "factor_below_spectrum",
    "fix_global_phase",
]

DENSE_THRESHOLD = 160  # dim; measured dense/Krylov crossover: 150-180
KRYLOV_TOL = 1e-10  # Krylov residuals above 100 * KRYLOV_TOL * |E| raise
FLOOR_TOL = 1e-2  # relative residual of the Lanczos pass that finds the floor
FLOOR_CHECK = 10  # Lanczos steps between the floor pass's convergence checks
SHIFT_GAP = 0.1  # GHz; every shifted factorization sits this far below the floor
PHASE_TIE_RTOL = 1e-8  # entries this close to the largest magnitude tie


@dataclass(frozen=True)
class EigenSolution:
    """Converged lowest-k eigenpairs of a Hermitian operator.

    ``energies`` ascend; ``vectors[:, i]`` is the i-th eigenvector with its
    global phase fixed by ``fix_global_phase``.
    ``meta`` records backend, tolerance, seed, and the basis truncation when
    the caller supplies one; Krylov solves add the ``shift`` sigma, the band
    fill ``lu_nnz`` of the Cholesky factor of H - sigma, the ``lu_solves``
    made on it and the Lanczos ``floor_steps`` of the floor pass, summed over
    the ``blocks`` (their dimensions) of a symmetry, with the lowest block
    ``shift``.
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


def _symmetry_blocks(S) -> list:
    """Isometries onto the nonempty +1 and -1 eigenspaces of S, where
    S e_j = s_j e_pi(j), s_j = +-1 and S^2 = 1: a fixed point e_j of pi in
    the block of s_j, a pair (e_j +- s_j e_pi(j)) / sqrt 2 in each.  The
    columns follow the lower index, so a diagonal S gives index masks."""
    S = sp.csc_matrix(S)
    image, sign, j = S.indices, S.data, np.arange(S.shape[0])
    if not (np.array_equal(S.indptr[1:], j + 1) and np.all(np.abs(sign) == 1)
            and np.array_equal(image[image], j)):
        raise ValueError("symmetry must be a signed permutation with S^2 = 1")
    blocks = []
    for eig in (1.0, -1.0):
        lead = j[np.where(image == j, sign == eig, image > j)]
        pair = image[lead] != lead
        r, cols = np.sqrt(0.5), np.arange(len(lead))
        blocks.append(sp.csc_matrix(
            (np.r_[np.where(pair, r, 1.0), eig * sign[lead[pair]] * r],
             (np.r_[lead, image[lead[pair]]], np.r_[cols, cols[pair]])),
            shape=(len(j), len(lead))))
    return [B for B in blocks if B.shape[1]]


def lowest_eigenpairs(
    H: HermitianOperator,
    k: int,
    seed: int = DEFAULT_SEED,
    symmetry: sp.spmatrix | None = None,
    meta: dict | None = None,
) -> EigenSolution:
    """Lowest k eigenpairs; dense up to ``DENSE_THRESHOLD`` or for k near dim.

    A ``symmetry`` S of H, a real signed permutation with S^2 = 1, splits the
    solve into eigenspace blocks B^T H B, the largest of which picks the
    backend; the lowest k of their lowest min(k, block dim) pairs return as
    eigenvectors of S.  The Krylov path locates the spectrum floor with a
    coarse three-term Lanczos pass and then runs shift-invert from
    ``SHIFT_GAP`` below it, with the start vector drawn from a seeded
    generator so repeated runs are bit-identical.
    """
    dim = H.dim
    if not (1 <= k <= dim):
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    if symmetry is not None and symmetry.shape != H.matrix.shape:
        raise ValueError(f"symmetry of shape {symmetry.shape} does not act "
                         f"on H of shape {H.matrix.shape}")
    blocks = [None] if symmetry is None else _symmetry_blocks(symmetry)
    dims = [dim if B is None else B.shape[1] for B in blocks]

    # ARPACK needs k < dim - 1 on complex matrices
    backend = ("dense" if max(dims) <= DENSE_THRESHOLD or k >= min(dims) - 1
               else "krylov")
    energies, vectors, infos = [], [], []
    for B in blocks:
        Hb = H.matrix if B is None else B.T @ H.matrix @ B
        if backend == "dense":
            evals, evecs = sla.eigh(Hb.toarray())
        else:  # k < dim - 1 in every block
            evals, evecs, info = _krylov_lowest(Hb, k, seed)
            infos.append(info)
        energies.append(evals[:k])
        vectors.append(evecs[:, :k] if B is None else B @ evecs[:, :k])
    order = np.argsort(np.concatenate(energies), kind="stable")[:k]
    energies = np.concatenate(energies)[order]
    vectors = _fix_phases(np.hstack(vectors)[:, order])

    resid = np.linalg.norm(H.matrix @ vectors - vectors * energies, axis=0)
    scale = max(abs(energies[0]), abs(energies[-1]), 1.0)
    if backend == "krylov" and np.any(resid > KRYLOV_TOL * scale * 100):
        raise NonConvergenceError(
            f"krylov residuals {resid} exceed tolerance {KRYLOV_TOL}",
            residuals=resid,
        )

    info = {"backend": backend, "tol": KRYLOV_TOL, "seed": seed}
    if symmetry is not None:
        info["blocks"] = dims
    if infos:
        info.update(shift=min(i["shift"] for i in infos), **{
            key: sum(i[key] for i in infos)
            for key in ("lu_nnz", "lu_solves", "floor_steps")})
    return EigenSolution(energies=energies, vectors=vectors, residuals=resid,
                         fingerprint=H.fingerprint, meta={**info, **(meta or {})})


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


def _lanczos_floor(M, v0: np.ndarray) -> tuple[float, int]:
    """Lowest Ritz value theta of M from v0, and the Lanczos steps it took.

    The plain three-term recurrence, without reorthogonalization: lost
    orthogonality only repeats converged Ritz values, and theta stays a
    Rayleigh quotient, so theta >= E0 up to roundoff.  Every ``FLOOR_CHECK`` steps theta
    and the last entry s_m of its tridiagonal eigenvector give the residual
    |beta_m s_m|; the pass ends once that is at most ``FLOOR_TOL * |theta|``,
    or ``FLOOR_TOL`` GHz for |theta| below 1 GHz, where a relative bound
    would ask for ever more steps as theta nears 0.
    """
    n = M.shape[0]
    alpha, beta = [], []
    q_prev, q, b = 0.0, v0 / np.linalg.norm(v0), 0.0
    for m in range(1, n + 1):
        w = M @ q - b * q_prev
        alpha.append(np.vdot(q, w).real)
        w -= alpha[-1] * q
        b = np.linalg.norm(w)
        if m % FLOOR_CHECK == 0 or m == n or b == 0.0:
            theta, s = sla.eigh_tridiagonal(alpha, beta, select="i",
                                            select_range=(0, 0))
            if abs(b * s[-1, 0]) <= FLOOR_TOL * max(abs(theta[0]), 1.0):
                return float(theta[0]), m
        beta.append(b)
        q_prev, q = q, w / b
    raise NonConvergenceError(
        f"Lanczos floor pass did not reach a relative residual of "
        f"{FLOOR_TOL:g} in {n} steps")


def _krylov_lowest(M, k: int, seed: int):
    """Lowest k eigenpairs by shift-invert Lanczos, plus the solve's meta.

    The floor pass (``_lanczos_floor``) returns a Ritz value theta >= E0,
    within FLOOR_TOL max(|theta|, 1) of an eigenvalue.  The shift
    sigma = theta - ``SHIFT_GAP`` is taken when the band Cholesky of
    M - sigma succeeds, which certifies that sigma lies below the spectrum;
    otherwise the floor pass found an excited level, and the shift falls back
    once to sigma = theta - max(1, 2 FLOOR_TOL |theta|).  A fallback that is
    not below the spectrum either raises ``NonConvergenceError``.
    """
    M = M.tocsc()
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(M.shape[0])
    floor, steps = _lanczos_floor(M, v0)
    try:
        sigma = floor - SHIFT_GAP
        factor = factor_below_spectrum(M, sigma)
    except NonConvergenceError:
        sigma = floor - max(1.0, 2.0 * FLOOR_TOL * abs(floor))
        factor = factor_below_spectrum(M, sigma)
    solves = 0

    def inverse(x):
        nonlocal solves
        solves += 1
        return factor.solve(x)

    OPinv = spla.LinearOperator(M.shape, matvec=inverse, dtype=M.dtype)
    try:
        evals, evecs = spla.eigsh(
            M, k=k, sigma=sigma, which="LM", tol=0, v0=v0, maxiter=5000,
            ncv=min(M.shape[0], 2 * k + 2), OPinv=OPinv,
        )
    except spla.ArpackNoConvergence as exc:
        raise NonConvergenceError(
            f"ARPACK failed to converge: {exc}", residuals=getattr(exc, "eigenvalues", None)
        ) from exc
    order = np.argsort(evals)
    info = {"shift": float(sigma), "lu_nnz": int(factor.nnz), "lu_solves": solves,
            "floor_steps": steps}
    return evals[order], evecs[:, order], info
