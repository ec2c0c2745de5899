"""Hamiltonian assembly: toy model, full three-mode circuit, disorder,
effective two-mode reduction, and parity-sector forms.

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
"left") are fixed once here and reused by the coherence module:

    junction i = +/-:        eps_J,i = (1 +/- dJ) eJ,   phase  phi/2 +/- vphi
    junction i = +/-:        eps_C,i = eC/(1 +/- dC),   charge n +/- (N-Ng-eta)/2
    superinductance i = +/-: eps_L,i = eL/(1 +/- dL),   flux   (phi-phi_ext)/2 -/+ theta
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import (
    BasisTruncation,
    BiasPoint,
    CircuitParams,
    HermitianOperator,
    Primitives,
    build_primitives,
    charge_hops,
    displaced_cosine,
    displaced_sine,
    kron3,
    ladder,
)

__all__ = [
    "ToyParams",
    "toy_hamiltonian",
    "full_hamiltonian",
    "josephson_term",
    "EffectiveParams",
    "effective_params",
    "effective_hamiltonian",
    "parity_sector_hamiltonians",
    "NormalModeReport",
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


def toy_hamiltonian(tp: ToyParams) -> HermitianOperator:
    """Charge-basis matrix: diagonal 4 E_C (N - Ng)^2, hopping -E_J/2 at |dN|=2.

    Only pairs of Cooper pairs tunnel, so the +/-1 off-diagonals are exactly
    zero and the even/odd charge sectors decouple at every offset charge.
    """
    n = 2 * tp.N0_toy + 1
    Nv = np.arange(-tp.N0_toy, tp.N0_toy + 1).astype(float)
    diag = 4.0 * tp.E_C * (Nv - tp.N_g) ** 2
    hop = np.full(n - 2, -0.5 * tp.E_J)
    H = sp.diags([hop, diag, hop], [-2, 0, 2]).tocsr()
    fp = f"toy:{tp.N0_toy}"
    return HermitianOperator(H, fp)


# ---------------------------------------------------------------------------
# full three-mode circuit
# ---------------------------------------------------------------------------

def josephson_term(
    params: CircuitParams, phi_ext: float, prim: Primitives
) -> HermitianOperator:
    """The whole eps_J-proportional part of the circuit Hamiltonian,

        H_J = -2 eJ cos(vphi) cos(phi_zpf (a + a^)/2 + phi_ext/2)
              + 2 eJ dJ sin(vphi) sin(phi_zpf (a + a^)/2 + phi_ext/2),

    with dJ the junction-energy asymmetry, direct or through area disorder.
    Nothing else in H depends on eJ or on phi_ext, so H is exactly linear
    in eJ with slope H_J / eJ, and dH/dphi_ext = H_J(phi_ext + pi) / 2.
    """
    trunc = prim.trunc
    cos_b, sin_b = charge_hops(2 * trunc.N0 + 1)
    Ib = sp.identity(trunc.q0 + 1)
    cos_d = displaced_cosine(prim.phi_zpf, phi_ext, trunc.p0)
    H = (-2.0 * params.eps_J) * prim.wrap_hermitian(kron3(cos_b, cos_d, Ib))
    dJ = params.delta_J_eff
    if dJ != 0.0:
        sin_d = displaced_sine(prim.phi_zpf, phi_ext, trunc.p0)
        H = H + (2.0 * params.eps_J * dJ) * prim.wrap_hermitian(
            kron3(sin_b, sin_d, Ib)
        )
    return H


def full_hamiltonian(
    params: CircuitParams,
    bias: BiasPoint,
    trunc: BasisTruncation = BasisTruncation(),
    primitives: Primitives | None = None,
) -> HermitianOperator:
    """Assemble the complete (possibly disordered) circuit Hamiltonian.

    Term by term as in the module docstring: disorder enters through the
    dressed coefficients of ``params`` (the oscillator frequencies come
    from ``build_primitives``) and through the asymmetry terms, each added
    only when its asymmetry is nonzero.  Passing ``primitives`` skips
    rebuilding the operator toolbox.
    """
    floor = BasisTruncation()
    if trunc.N0 < floor.N0 or trunc.p0 < floor.p0 or trunc.q0 < floor.q0:
        warnings.warn(
            f"truncation {trunc.as_tuple()} is below the recommended "
            f"{floor.as_tuple()}; check convergence before trusting "
            "low-energy differences",
            stacklevel=2,
        )
    prim = primitives if primitives is not None else build_primitives(trunc, params)

    charge = prim.N - bias.N_g * prim.identity - prim.eta
    H = (
        prim.omega_a * prim.num_a
        + prim.omega_b * prim.num_b
        + 2.0 * params.eps_C_dressed * (charge @ charge).hermitize()
        + josephson_term(params, bias.phi_ext, prim)
    )
    dC = params.delta_C_eff
    if dC != 0.0:
        cross = (prim.n @ charge + charge @ prim.n) * 0.5
        H = H + (-8.0 * params.eps_C_dressed * dC) * cross.hermitize()
    dL = params.delta_L
    if dL != 0.0:
        H = H + (params.eps_L_dressed * dL) * (prim.dphi @ prim.theta).hermitize()
    return H


# ---------------------------------------------------------------------------
# effective two-mode model along the tunneling path
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


def effective_hamiltonian(
    params: CircuitParams,
    bias: BiasPoint,
    order: str = "leading",
    N0: int = 7,
    q0: int = 30,
) -> tuple[HermitianOperator, EffectiveParams]:
    """Two-mode Hamiltonian of the path-reduced model.

    Compact charge basis for the junction-difference mode, oscillator basis
    for the imbalance mode.  Only the symmetric circuit is reducible this
    way, so all disorder parameters must be zero.
    """
    if params.z >= 0.3:
        raise ValueError("effective model requires eps_L/eps_J < 0.3")
    if any(
        getattr(params, d) != 0.0
        for d in ("delta_J", "delta_C", "delta_A", "delta_L")
    ):
        raise ValueError("effective model is defined for the symmetric circuit")
    ep = effective_params(params, bias, order)
    Nv = np.arange(-N0, N0 + 1).astype(float)
    fp = (f"effective:{order}:{N0}:{q0}:{params.eps_L:.12e}:{params.eps_C:.12e}"
          f":{params.x:.12e}")
    harmonics = enumerate(ep.coefficients(), start=1)
    H = _reduced_model(params, Nv - bias.N_g, ep.kinetic_prefactor, harmonics, q0)
    return HermitianOperator(H, fp), ep


def _reduced_model(
    params: CircuitParams, charge: np.ndarray, kappa: float, harmonics, q0: int
) -> sp.csr_matrix:
    """omega_b b^b + 4 eC kappa (charge - eta)^2 + sum_k c_k cos(k vphi).

    ``charge`` is the diagonal of the compact-mode charge, offset included,
    and ``harmonics`` yields the pairs (k, c_k); the imbalance mode is an
    oscillator on q0 + 1 Fock states, whose theta^2 + x eta^2 quadratic
    sector is the omega_b ladder.
    """
    eL, eC, x = params.eps_L, params.eps_C, params.x
    nN, nb = len(charge), q0 + 1
    b, bdag = ladder(nb)
    Ib, IN = sp.identity(nb), sp.identity(nN)
    omega_b = np.sqrt(16.0 * x * eC * eL)
    eta_zpf = 0.5 * (eL / (x * eC)) ** 0.25
    eta1 = 1j * eta_zpf * (bdag - b)

    q = sp.kron(sp.diags(charge), Ib) - sp.kron(IN, eta1)
    H = sp.kron(IN, omega_b * sp.diags(np.arange(nb).astype(float))).tocsr()
    H = H + 4.0 * eC * kappa * (q @ q)
    for k, ck in harmonics:
        if ck != 0.0:
            H = H + ck * sp.kron(charge_hops(nN, k)[0], Ib)
    return H.tocsr()


# ---------------------------------------------------------------------------
# parity sectors at half flux
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalModeReport:
    """Scalar summary of the quadratic normal modes at half flux."""

    plasmon_freq: float
    self_resonance: float
    quartic_coefficient: float


def parity_sector_hamiltonians(
    params: CircuitParams,
    bias: BiasPoint,
    N0_sector: int = 10,
    q0: int = 30,
) -> tuple[HermitianOperator, HermitianOperator, NormalModeReport]:
    """Even and odd Cooper-pair-parity blocks of the reduced model.

    Valid only at half flux, where the single-pair harmonic vanishes and the
    doubled charge variable with sector offsets k+- in {0, 1} captures both
    parity manifolds exactly.
    """
    if not bias.at_half_flux:
        raise UnsupportedBiasError(
            "parity sector factorization is defined at phi_ext = pi"
        )
    eL, eC, eJ, x = params.eps_L, params.eps_C, params.eps_J, params.x
    ep = effective_params(params, bias, "leading")
    Ntil = np.arange(-N0_sector, N0_sector + 1).astype(float)

    out = []
    for k_pm in (0.0, 1.0):
        fp = f"sector:{k_pm:.0f}:{N0_sector}:{q0}:{eL:.12e}:{eC:.12e}:{eJ:.12e}:{x:.12e}"
        H = _reduced_model(
            params, 2.0 * Ntil + k_pm - bias.N_g, ep.kinetic_prefactor,
            [(1, ep.c2)], q0,
        )
        out.append(HermitianOperator(H, fp))

    report = NormalModeReport(
        plasmon_freq=np.sqrt(16.0 * x * eL * eC),
        self_resonance=np.sqrt(8.0 * eJ * eC),
        quartic_coefficient=-eJ / 24.0,
    )
    return out[0], out[1], report
