"""Domain types, per-mode operator blocks and their Kronecker assembly.

The circuit has one compact junction-difference mode (charge basis, Cooper
pair number ``N``), one loop-sum phase mode ``phi`` (oscillator ``a``), and
one inductance-imbalance mode ``theta`` (oscillator ``b``).  ``Primitives``
holds the small single-mode matrices of each; every operator on the tensor
product basis ``|N p q>`` with ``|N| <= N0``, ``p <= p0``, ``q <= q0`` is a
sum of Kronecker products of them, formed by ``Primitives.kron``.

Every full-space matrix is in the gauged frame D^ O D, with the diagonal
D = diag(i^N) (x) diag(i^p) (x) diag(i^q).  At half flux the circuit has the
exact N_g -> -N_g antiunitary symmetry, and D^ H D is real for every circuit
and offset charge, so every half-flux solve runs in real arithmetic.
Cooper-pair parity (``Primitives.parity``) commutes with H at half flux only
for the symmetric circuit: every disorder parameter delta couples the two
parity sectors; the mirror (``Primitives.mirror``) commutes with H there
at N_g = 0 for every circuit.  The single-mode blocks keep their lab-frame
meaning; only ``kron`` applies the phases and decides whether a full-space
matrix is real.  Matrix elements and expectation values are frame
independent; lab-frame amplitudes of a vector come from
``Primitives.to_lab``, the one other reader of the phases.

Zero point amplitudes follow from the quadratic sector,

    phi_zpf = (8 eps_C / eps_L)**0.25        loop-sum mode
    eta_zpf = 0.5 (eps_L / (x eps_C))**0.25  imbalance charge

with disorder-dressed coefficients substituted where applicable.

The parameter types import with numpy alone; scipy is loaded by the
functions that build the operator blocks, when they first run.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "CircuitParams",
    "BiasPoint",
    "BasisTruncation",
    "HermitianOperator",
    "Primitives",
    "build_primitives",
    "kron3",
    "charge_hops",
    "ladder",
    "displaced_cosine",
    "displaced_sine",
    "DimensionCapError",
    "NonConvergenceError",
]

HERMITICITY_RTOL = 1e-12
#: a full-space matrix whose imaginary part is at most this fraction of its
#: largest entry is returned real; at half flux the gauged frame leaves only
#: roundoff from entries such as cos(pi/2)
REAL_RTOL = 1e-14
#: i^k for k mod 4: the gauge phases, exact, with no complex powers
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])
#: hard cap on tensor product dimension; beyond this a solve is not desk scale
DIM_CAP = 400_000


class DimensionCapError(ValueError):
    """Tensor-product dimension exceeds the configured resource cap."""


class NonConvergenceError(RuntimeError):
    """Iterative solver failed; carries the best residuals seen."""

    def __init__(self, msg: str, residuals=None):
        super().__init__(msg)
        self.residuals = residuals


@dataclass(frozen=True)
class CircuitParams:
    """Circuit energy scales (GHz, meaning E/h) and disorder parameters.

    ``x`` is the junction-to-shunt capacitance ratio.  Each ``delta`` is a
    dimensionless asymmetry in [0, 1).  Area disorder ``delta_A`` implies
    correlated junction-energy and junction-capacitance asymmetry (the two
    junction areas are (1 +/- delta_A) times nominal, keeping the product
    of tunneling and charging energy fixed per junction), so it may not be
    combined with an independent ``delta_J`` or ``delta_C``.
    """

    eps_J: float
    eps_C: float
    eps_L: float
    x: float
    delta_J: float = 0.0
    delta_C: float = 0.0
    delta_A: float = 0.0
    delta_L: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eps_J", "eps_C", "eps_L", "x"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("delta_J", "delta_C", "delta_A", "delta_L"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.delta_A != 0.0 and (self.delta_J != 0.0 or self.delta_C != 0.0):
            raise ValueError(
                "delta_A encodes correlated junction disorder; "
                "set either delta_A or (delta_J, delta_C), not both"
            )
        if self.z >= 0.3:
            warnings.warn(
                f"eps_L/eps_J = {self.z:.3f} >= 0.3: the semiclassical "
                "reduction degrades as the inductive energy approaches the "
                "junction energy",
                stacklevel=2,
            )

    @property
    def z(self) -> float:
        """Inductive-to-junction energy ratio."""
        return self.eps_L / self.eps_J

    @property
    def delta_J_eff(self) -> float:
        """Junction-energy asymmetry, whether direct or via area disorder."""
        return self.delta_A if self.delta_A != 0.0 else self.delta_J

    @property
    def junction_energies(self) -> tuple[float, float]:
        """(eps_J,+, eps_J,-) = ((1 + dJ) eps_J, (1 - dJ) eps_J), with dJ
        the ``delta_J_eff`` asymmetry, paired as in ``hamiltonians``."""
        d = self.delta_J_eff
        return (1.0 + d) * self.eps_J, (1.0 - d) * self.eps_J

    @property
    def delta_C_eff(self) -> float:
        """Junction-capacitance asymmetry, whether direct or via area disorder."""
        return self.delta_A if self.delta_A != 0.0 else self.delta_C

    @property
    def eps_L_dressed(self) -> float:
        """eps_L / (1 - delta_L^2); the quadratic inductive coefficient."""
        return self.eps_L / (1.0 - self.delta_L**2)

    @property
    def eps_C_dressed(self) -> float:
        """eps_C / (1 - delta_C^2); the junction charging coefficient."""
        d = self.delta_C_eff
        return self.eps_C / (1.0 - d**2)

    def replace(self, **kw) -> "CircuitParams":
        from dataclasses import replace as _replace

        return _replace(self, **kw)


@dataclass(frozen=True)
class BiasPoint:
    """External flux (radians) and offset charge (Cooper pairs)."""

    phi_ext: float = np.pi
    N_g: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.phi_ext) or not np.isfinite(self.N_g):
            raise ValueError("bias values must be finite")

    @property
    def phi_ext_folded(self) -> float:
        """|phi_ext - 4 pi round(phi_ext / 4 pi)|: flux folded into [0, 2 pi]."""
        p = self.phi_ext
        return abs(p - 4 * np.pi * np.round(p / (4 * np.pi)))

    @property
    def at_half_flux(self) -> bool:
        """phi_ext within 1e-9 rad of pi (mod 2 pi).

        There the gauged Hamiltonian is real for every circuit; Cooper-pair
        parity is exact only when every disorder parameter is zero.
        """
        return abs(self.phi_ext % (2 * np.pi) - np.pi) < 1e-9


@dataclass(frozen=True)
class BasisTruncation:
    """Charge half-width N0 and Fock cutoffs p0 (phi mode), q0 (theta mode)."""

    N0: int = 7
    p0: int = 7
    q0: int = 30

    def __post_init__(self) -> None:
        if self.N0 < 1 or self.p0 < 0 or self.q0 < 0:
            raise ValueError("require N0 >= 1, p0 >= 0, q0 >= 0")

    @property
    def dim(self) -> int:
        return (2 * self.N0 + 1) * (self.p0 + 1) * (self.q0 + 1)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.N0, self.p0, self.q0)


def _fingerprint(trunc: BasisTruncation, scales: Iterable[float]) -> str:
    """Hash of the truncation plus the mode scales that define the basis.

    A solution belongs to a basis only if both the truncation and the
    oscillator frequencies / zero point amplitudes match, since disorder
    dressing re-adapts the basis.
    """
    payload = ",".join([repr(trunc.as_tuple())] + [f"{s:.15e}" for s in scales])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class HermitianOperator:
    """Sparse matrix on a fingerprinted basis, validated against the
    hermiticity tolerance once, at construction."""

    __slots__ = ("matrix", "dim", "fingerprint")

    def __init__(self, matrix: sp.spmatrix, fingerprint: str):
        import scipy.sparse as sp

        self.matrix = matrix.tocsr()
        self.dim = matrix.shape[0]
        self.fingerprint = fingerprint
        dev = sp.csr_matrix(self.matrix - self.matrix.conj().T)
        scale = max(np.abs(self.matrix.data).max() if self.matrix.nnz else 0.0, 1e-300)
        if dev.nnz and np.abs(dev.data).max() > HERMITICITY_RTOL * scale:
            raise ValueError(
                "matrix fails hermiticity tolerance: "
                f"max|H - H^| = {np.abs(dev.data).max():.3e} vs scale {scale:.3e}"
            )

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


# ---------------------------------------------------------------------------
# displaced cosine / sine on a Fock space
# ---------------------------------------------------------------------------

def _displacement_amplitudes(lam: float, p0: int) -> np.ndarray:
    """|<m| D(i lam) |n>| amplitudes via the associated Laguerre closed form.

    Returns the real array A[m, n] = exp(-lam^2/2) sqrt(n!/m!) lam^(m-n)
    L_n^{(m-n)}(lam^2) for m >= n, symmetrized.  The three-term recurrence
    in n runs for all orders k = m - n at once, on P_n = L_n^{(k)} /
    binom(n + k, n) and its increment, which stay of order one; with the
    binomial folded in, A = exp(-lam^2/2) sqrt(m!/n!) lam^k P_n / k!, and
    log-gamma handles the factorials so p0 up to a few hundred stays stable.
    """
    d = p0 + 1
    lam2 = lam * lam
    order = np.arange(d)
    P = np.ones((d, d))  # P[n, k] = L_n^{(k)}(lam^2) / binom(n + k, n)
    step = np.zeros(d)
    for n in range(d - 1):
        step = (n * step - lam2 * P[n]) / (n + 1 + order)
        P[n + 1] = P[n] + step
    m, n = np.tril_indices(d)
    ln_fact = np.array([math.lgamma(i + 1.0) for i in range(d)])
    val = (np.exp(0.5 * (ln_fact[m] - ln_fact[n]) - ln_fact[m - n] - 0.5 * lam2)
           * lam ** (m - n) * P[n, m - n])
    A = np.zeros((d, d))
    A[m, n] = val
    A[n, m] = val
    return A


def _displaced_trig(f, phi_zpf: float, offset: float, p0: int) -> np.ndarray:
    if phi_zpf < 0:
        raise ValueError("phi_zpf must be nonnegative")
    A = _displacement_amplitudes(0.5 * phi_zpf, p0)
    m = np.arange(p0 + 1)
    return A * f(0.5 * offset + 0.5 * np.pi * np.abs(m[:, None] - m[None, :]))


def displaced_cosine(phi_zpf: float, offset: float, p0: int) -> np.ndarray:
    """Exact matrix of cos(phi_zpf (a + a^)/2 + offset/2) on p0+1 Fock states.

    Built from the closed-form displacement matrix elements; the phase of
    each (m, n) element is cos(offset/2 + (m-n) pi/2), which keeps the
    matrix real symmetric.
    """
    return _displaced_trig(np.cos, phi_zpf, offset, p0)


def displaced_sine(phi_zpf: float, offset: float, p0: int) -> np.ndarray:
    """Exact matrix of sin(phi_zpf (a + a^)/2 + offset/2); real symmetric."""
    return _displaced_trig(np.sin, phi_zpf, offset, p0)


# ---------------------------------------------------------------------------
# per-mode blocks and their Kronecker assembly
# ---------------------------------------------------------------------------

def kron3(cb, ab, bb) -> sp.csr_matrix:
    """Charge (x) loop-sum (x) imbalance block product on the |N p q> basis."""
    import scipy.sparse as sp

    return sp.kron(
        sp.kron(sp.csr_matrix(cb), sp.csr_matrix(ab), format="csr"),
        sp.csr_matrix(bb),
        format="csr",
    )


def charge_hops(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """cos and sin of the compact phase on ``n`` charge states."""
    import scipy.sparse as sp

    hop = sp.diags([np.ones(n - 1)], [1], shape=(n, n)).tocsr()
    return 0.5 * (hop + hop.T), (hop - hop.T) * (1.0 / (2.0j))


def ladder(dim: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Oscillator lowering and raising operators on ``dim`` Fock states."""
    import scipy.sparse as sp

    v = np.sqrt(np.arange(1, dim))
    low = sp.diags([v], [1], shape=(dim, dim)).tocsr()
    return low, low.T.tocsr()


@dataclass(frozen=True, eq=False)
class Primitives:
    """Single-mode blocks and mode scales for one (params, truncation).

    Mode conventions (dressed coefficients where disorder applies):
      phi   = phi_ext + phi_zpf (a + a^)   loop-sum phase; ``dphi`` is the
                                           dynamical part phi - phi_ext
      n     = i n_zpf (a^ - a)             its conjugate charge
      theta = theta_zpf (b + b^)
      eta   = i eta_zpf (b^ - b)

    Full-space operators are formed where they are used, by ``kron``, in the
    gauged frame; ``to_lab`` takes a full-space vector back to the lab frame.
    The displaced trig blocks of the loop-sum mode depend on the flux and
    come from ``displaced_cosine`` / ``displaced_sine`` at ``phi_zpf``.
    """

    trunc: BasisTruncation
    fingerprint: str
    omega_a: float
    omega_b: float
    phi_zpf: float
    theta_zpf: float
    eta_zpf: float
    # charge mode
    N: sp.csr_matrix
    cos_hop: sp.csr_matrix
    sin_hop: sp.csr_matrix
    charge_parity: sp.csr_matrix
    # loop-sum mode
    num_a: sp.csr_matrix
    dphi: sp.csr_matrix
    n: sp.csr_matrix
    fock_parity: sp.csr_matrix
    # imbalance mode
    theta: sp.csr_matrix
    eta: sp.csr_matrix
    num_b: sp.csr_matrix

    def _phases(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gauge phases i^N, i^p, i^q of the charge, loop-sum and imbalance
        modes; the full-space D is their Kronecker product."""
        t = self.trunc
        return tuple(_I_POWERS[k % 4] for k in (
            np.arange(-t.N0, t.N0 + 1), np.arange(t.p0 + 1), np.arange(t.q0 + 1)))

    def to_lab(self, v: np.ndarray) -> np.ndarray:
        """Lab-frame amplitudes D v of a gauged full-space vector, shaped
        (charge, loop-sum, imbalance)."""
        dN, dp, dq = self._phases()
        return (np.kron(np.kron(dN, dp), dq) * v).reshape(len(dN), len(dp), len(dq))

    def kron(self, *terms) -> sp.csr_matrix:
        """Sum of Kronecker products (charge, loop-sum, imbalance) on |N p q>,
        in the gauged frame.

        Each term is a triple of single-mode blocks; ``None`` stands for the
        identity of that mode.  Each block B of a mode with phases d enters as
        B_ij conj(d_i) d_j.  This is the one place that decides realness: the
        sum is returned as a real matrix, without its explicit zeros, when its
        imaginary part is at most ``REAL_RTOL`` of its largest entry, and as a
        complex one otherwise.  The result is canonical CSR: sorted indices,
        no duplicates.
        """
        import scipy.sparse as sp

        phases = self._phases()
        total = None
        for blocks in terms:
            m = kron3(*(sp.identity(len(ph)) if b is None
                        else sp.diags(ph.conj()) @ b @ sp.diags(ph)
                        for b, ph in zip(blocks, phases)))
            total = m if total is None else total + m
        total.sum_duplicates()
        if total.nnz and np.abs(total.data.imag).max() <= (
                REAL_RTOL * np.abs(total.data).max()):
            total = total.real
            total.eliminate_zeros()
        return total

    def parity(self) -> sp.csr_matrix:
        """Combined Cooper-pair parity: (-1)^N times the loop-sum Fock parity.

        This is a symmetry of the symmetric circuit at half flux.
        """
        return self.kron((self.charge_parity, self.fock_parity, None))

    def mirror(self) -> sp.csr_matrix:
        """(-1)^N R_N (R_N: N -> -N) times both Fock parities, in the gauged
        frame |N p q> -> (-1)^(p+q) |-N p q>: a symmetry of every circuit at
        half flux and N_g = 0, the quantum form of the classical mirror
        (vphi, phi, theta) -> (pi - vphi, 2 phi_ext - phi, -theta)."""
        import scipy.sparse as sp

        reflect = sp.csr_matrix(np.eye(self.N.shape[0])[::-1])
        return self.kron((self.charge_parity @ reflect, self.fock_parity,
                          sp.diags((-1.0) ** np.arange(self.trunc.q0 + 1))))


def build_primitives(trunc: BasisTruncation, params: CircuitParams) -> Primitives:
    """Assemble the single-mode blocks of the tensor product basis.

    Oscillator frequencies and zero point amplitudes use the disorder
    dressed coefficients of ``params`` so that the basis stays adapted to
    the quadratic sector for any asymmetry.
    """
    if trunc.dim > DIM_CAP:
        raise DimensionCapError(
            f"dim = {trunc.dim} exceeds the desk-scale cap {DIM_CAP}"
        )
    import scipy.sparse as sp

    eL = params.eps_L_dressed
    eC = params.eps_C_dressed
    x_eC = params.x * params.eps_C  # shunt scale, never dressed

    omega_a = np.sqrt(8.0 * eL * eC)
    omega_b = np.sqrt(16.0 * x_eC * eL)
    phi_zpf = (8.0 * eC / eL) ** 0.25
    theta_zpf = (x_eC / eL) ** 0.25
    eta_zpf = 0.5 * (eL / x_eC) ** 0.25

    fp = _fingerprint(trunc, (omega_a, omega_b, phi_zpf, theta_zpf, eta_zpf))

    Nvals = np.arange(-trunc.N0, trunc.N0 + 1)
    na, nb = trunc.p0 + 1, trunc.q0 + 1
    cos_hop, sin_hop = charge_hops(len(Nvals))
    a, adag = ladder(na)
    b, bdag = ladder(nb)
    return Primitives(
        trunc=trunc,
        fingerprint=fp,
        omega_a=omega_a,
        omega_b=omega_b,
        phi_zpf=phi_zpf,
        theta_zpf=theta_zpf,
        eta_zpf=eta_zpf,
        N=sp.diags(Nvals.astype(float)).tocsr(),
        cos_hop=cos_hop,
        sin_hop=sin_hop,
        charge_parity=sp.diags((-1.0) ** Nvals).tocsr(),
        num_a=sp.diags(np.arange(na).astype(float)).tocsr(),
        dphi=phi_zpf * (a + adag),
        n=1j * (1.0 / (2.0 * phi_zpf)) * (adag - a),
        fock_parity=sp.diags((-1.0) ** np.arange(na)).tocsr(),
        theta=theta_zpf * (b + bdag),
        eta=1j * eta_zpf * (bdag - b),
        num_b=sp.diags(np.arange(nb).astype(float)).tocsr(),
    )
