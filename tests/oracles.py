"""Independent constructions that the closed forms of ``cos2phi`` are
checked against."""

import numpy as np


def displaced_trig_quadrature(
    phi_zpf: float, offset: float, p0: int, kind: str = "cos", pad: int = 0
) -> np.ndarray:
    """Independent construction: diagonalize the quadrature, apply the trig map.

    X = phi_zpf (a + a^)/2 is real symmetric tridiagonal; with X = V D V^T the
    operator is V f(D + offset/2) V^T.  Serves as the oracle for the closed
    form of ``displaced_cosine`` / ``displaced_sine``.  Rows near the
    truncation edge are contaminated; ``pad`` enlarges the working space
    before restricting to (p0+1) rows so the oracle is clean over the whole
    requested block.
    """
    d = p0 + 1 + pad
    off = 0.5 * phi_zpf * np.sqrt(np.arange(1, d))
    X = np.diag(off, 1) + np.diag(off, -1)
    evals, V = np.linalg.eigh(X)
    f = np.cos if kind == "cos" else np.sin
    full = (V * f(evals + 0.5 * offset)) @ V.T
    return full[: p0 + 1, : p0 + 1]


def lab_phases(trunc) -> np.ndarray:
    """Independent construction of the gauge D = i^N (x) i^p (x) i^q: complex
    powers of i on the |N p q> grid, flattened in basis order.  Serves as
    the oracle for ``Primitives.to_lab`` and the gauged frame of
    ``Primitives.kron``."""
    N, p, q = np.meshgrid(np.arange(-trunc.N0, trunc.N0 + 1),
                          np.arange(trunc.p0 + 1), np.arange(trunc.q0 + 1),
                          indexing="ij")
    return (1j ** (N + p + q)).ravel()
