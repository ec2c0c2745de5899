"""Hamiltonian assembly: the toy model, the full three-mode circuit with
disorder, and the printed coefficients of the reduced model.

The full circuit Hamiltonian, in the operator form used for numerics and
with disorder-dressed coefficients (tildes), reads

    H = sqrt(8 eL~ eC~) a^a + sqrt(16 x eC eL~) b^b
        + 2 eC~ (N - Ng - eta)^2
        - 2 eJ cos(vphi) cos(phi_zpf (a + a^)/2 + phi_ext/2)
        + H'_J + H'_C + H'_L

with the asymmetry terms

    H'_J = 2 eJ dJ  sin(vphi) sin(phi_zpf (a + a^)/2 + phi_ext/2)
    H'_C = -8 eC~ dC  n (N - Ng - eta)
    H'_L = + eL~ dL  (phi - phi_ext) theta

where eL~ = eL/(1 - dL^2) and eC~ = eC/(1 - dC^2).  The element pairing
conventions implied by these signs (which junction or superinductance is
"left") are fixed once here and reused by the coherence and instanton
modules; the junction energies, in this order, are
``CircuitParams.junction_energies``:

    junction i = +/-:        eps_J,i = (1 +/- dJ) eJ,   phase  phi/2 +/- vphi
    junction i = +/-:        eps_C,i = eC/(1 +/- dC),   charge n +/- (N-Ng-eta)/2
    superinductance i = +/-: eps_L,i = eL/(1 +/- dL),   flux   (phi-phi_ext)/2 -/+ theta

Every term is a Kronecker product of single-mode blocks (charge, loop-sum,
imbalance), and ``full_hamiltonian`` is their sum, assembled once by
``Primitives.kron``.  The toy model and the printed coefficients import
and run with numpy alone; the circuit operators load scipy when they are
built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .model import (
    BasisTruncation,
    BiasPoint,
    CircuitParams,
    HermitianOperator,
    Primitives,
    build_primitives,
    displaced_cosine,
    displaced_sine,
)

__all__ = [
    "ToyParams",
    "toy_hamiltonian",
    "full_hamiltonian",
    "josephson_term",
    "EffectiveParams",
    "effective_params",
    "UnsupportedBiasError",
]


class UnsupportedBiasError(ValueError):
    """Operation defined only at a particular bias point."""


# ---------------------------------------------------------------------------
# toy model: 4 E_C (N - N_g)^2 - E_J cos 2vphi
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyParams:
    """Single-mode model of a pure pair-tunneling element with shunt."""

    E_J: float
    E_C: float
    N_g: float = 0.0
    N0_toy: int = 40

    def __post_init__(self) -> None:
        if self.E_J < 0:
            raise ValueError("E_J must be nonnegative")
        if self.E_C <= 0:
            raise ValueError("E_C must be positive")
        if self.N0_toy < 2:
            raise ValueError("N0_toy must be at least 2")


def toy_hamiltonian(tp: ToyParams) -> np.ndarray:
    """Dense charge-basis matrix: diagonal 4 E_C (N - Ng)^2, hopping -E_J/2
    at |dN| = 2.

    Only pairs of Cooper pairs tunnel, so the +/-1 off-diagonals are exactly
    zero and the even/odd charge sectors decouple at every offset charge.
    """
    Nv = np.arange(-tp.N0_toy, tp.N0_toy + 1).astype(float)
    hop = np.full(len(Nv) - 2, -0.5 * tp.E_J)
    diag = np.diag(4.0 * tp.E_C * (Nv - tp.N_g) ** 2)
    return diag + np.diag(hop, 2) + np.diag(hop, -2)


# ---------------------------------------------------------------------------
# full three-mode circuit
# ---------------------------------------------------------------------------

def _josephson_terms(params: CircuitParams, phi_ext: float, prim: Primitives):
    p0 = prim.trunc.p0
    terms = [(-2.0 * params.eps_J * prim.cos_hop,
              displaced_cosine(prim.phi_zpf, phi_ext, p0), None)]
    dJ = params.delta_J_eff
    if dJ != 0.0:
        terms.append((2.0 * params.eps_J * dJ * prim.sin_hop,
                      displaced_sine(prim.phi_zpf, phi_ext, p0), None))
    return terms


def josephson_term(
    params: CircuitParams, phi_ext: float, prim: Primitives
) -> sp.csr_matrix:
    """The whole eps_J-proportional part of the circuit Hamiltonian,

        H_J = -2 eJ cos(vphi) cos(phi_zpf (a + a^)/2 + phi_ext/2)
              + 2 eJ dJ sin(vphi) sin(phi_zpf (a + a^)/2 + phi_ext/2),

    with dJ the junction-energy asymmetry, direct or through area disorder.
    Nothing else in H depends on eJ or on phi_ext, so H is exactly linear
    in eJ with slope H_J / eJ, and dH/dphi_ext = H_J(phi_ext + pi) / 2.
    """
    return prim.kron(*_josephson_terms(params, phi_ext, prim))


def full_hamiltonian(
    params: CircuitParams,
    bias: BiasPoint,
    trunc: BasisTruncation = BasisTruncation(),
    primitives: Primitives | None = None,
) -> HermitianOperator:
    """Assemble the complete (possibly disordered) circuit Hamiltonian.

    Term by term as in the module docstring, with 2 eC~ (N - Ng - eta)^2 and
    H'_C expanded mode by mode: disorder enters through the dressed
    coefficients of ``params`` (the oscillator frequencies come from
    ``build_primitives``) and through the asymmetry terms, each added only
    when its asymmetry is nonzero.  Passing ``primitives`` skips rebuilding
    the single-mode blocks.
    """
    floor = BasisTruncation()
    if trunc.N0 < floor.N0 or trunc.p0 < floor.p0 or trunc.q0 < floor.q0:
        warnings.warn(
            f"truncation {trunc.as_tuple()} is below the recommended "
            f"{floor.as_tuple()}; check convergence before trusting "
            "low-energy differences",
            stacklevel=2,
        )
    import scipy.sparse as sp

    prim = primitives if primitives is not None else build_primitives(trunc, params)

    charging = 2.0 * params.eps_C_dressed
    q = prim.N - bias.N_g * sp.identity(prim.N.shape[0])  # N - Ng
    terms = [
        (None, prim.omega_a * prim.num_a, None),
        (None, None, prim.omega_b * prim.num_b),
        (charging * (q @ q), None, None),
        (-2.0 * charging * q, None, prim.eta),
        (None, None, charging * (prim.eta @ prim.eta)),
        *_josephson_terms(params, bias.phi_ext, prim),
    ]
    dC = params.delta_C_eff
    if dC != 0.0:
        c = -8.0 * params.eps_C_dressed * dC
        terms += [(c * q, prim.n, None), (None, -c * prim.n, prim.eta)]
    dL = params.delta_L
    if dL != 0.0:
        terms.append((None, params.eps_L_dressed * dL * prim.dphi, prim.theta))
    return HermitianOperator(prim.kron(*terms), prim.fingerprint)


# ---------------------------------------------------------------------------
# printed coefficients of the reduced model along the tunneling path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveParams:
    """Fourier coefficients (GHz) and kinetic prefactor of the reduced model.

    ``c[k]`` multiplies cos(k vphi); odd coefficients vanish identically at
    half flux.  ``kinetic_prefactor`` multiplies 4 eps_C (N - Ng - eta)^2.
    """

    z: float
    c1: float
    c2: float
    c3: float
    c4: float
    kinetic_prefactor: float
    phi_ext_folded: float
    order: str = "leading"

    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.c1, self.c2, self.c3, self.c4)


def effective_params(
    params: CircuitParams, bias: BiasPoint, order: str = "leading"
) -> EffectiveParams:
    """Printed closed-form coefficients of the reduced one-dimensional model."""
    if order not in ("leading", "extended"):
        raise ValueError("order must be 'leading' or 'extended'")
    z = params.z
    eL, eJ = params.eps_L, params.eps_J
    f = np.pi - bias.phi_ext_folded
    if order == "leading":
        return EffectiveParams(
            z=z,
            c1=-(16.0 / (3 * np.pi)) * eL * f,
            c2=-eJ * (1.0 - 1.25 * z),
            c3=0.0,
            c4=0.0,
            kinetic_prefactor=1.0 / (4.0 * (1.0 - z)),
            phi_ext_folded=bias.phi_ext_folded,
            order=order,
        )
    return EffectiveParams(
        z=z,
        c1=-eL * (16.0 / (3 * np.pi) - 56.0 * z / (9 * np.pi)) * f,
        c2=-eJ * (1.0 - 1.25 * z + (81.0 - 2 * np.pi**2 - 6 * f**2) * z**2 / 48.0),
        c3=+eL * (16.0 / (45 * np.pi) - 88.0 * z / (75 * np.pi)) * f,
        c4=-eL * (1.0 / 12.0 - 17.0 * z / 72.0),
        kinetic_prefactor=0.5 / (1.0 + (1.0 + z) ** -2),
        phi_ext_folded=bias.phi_ext_folded,
        order=order,
    )
