"""Physical constants, unit conventions and the package-wide defaults.

All circuit energies elsewhere in the package are stored as frequencies,
E/h in GHz.  SI constants only enter the coherence module, where rates are
assembled in rad/s and reported in ms.  The defaults that both the run
configuration and a solving layer read (the Krylov seed, the coherence
channels, the noise environment) live here, in a module that imports only
the standard library, so that ``config`` and the CLI front end load
without the layers that diagonalize, and without scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GHZ_TO_RAD_PER_S = 2.0e9 * 3.141592653589793  # angular frequency of a 1 GHz tone

H_PLANCK = 6.62607015e-34                    # J s
HBAR = H_PLANCK / (2 * 3.141592653589793)    # J s, derived so h = 2 pi hbar exactly
K_B = 1.380649e-23             # J / K
E_CHARGE = 1.602176634e-19     # C

#: aluminum superconducting gap, expressed as an equivalent temperature (K)
ALUMINUM_GAP_K = 2.1

DEFAULT_SEED = 7  # Krylov start-vector seed

#: every channel of the coherence budget: relaxation first, then pure dephasing
T1_CHANNELS = ("capacitive", "inductive", "purcell", "quasiparticle")
CHANNELS = T1_CHANNELS + ("charge", "flux", "shot", "critical_current")


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants plus the configurable environment parameters.

    ``delta_gap`` is the superconducting gap in joules (default aluminum,
    roughly 180 ueV) and ``temperature`` the bath temperature in kelvin.
    The default 16 mK is the calibration point for which the thermal
    plasmon occupation at 0.8 GHz is about 0.1.

    The noise environment of the coherence budget:

    ``q_cap``
        dielectric quality factor at 6 GHz (capacitive, Purcell and
        thermal-photon channels);
    ``q_ind``
        inductive quality factor at 0.5 GHz;
    ``sqrt_A_flux``
        1/f flux-noise amplitude sqrt(A) in radians of phi_ext;
    ``sqrt_A_epsJ_rel``
        1/f critical-current amplitude sqrt(A_epsJ) / eps_J;
    ``x_qp``
        normalized quasiparticle density.
    """

    h: float = H_PLANCK
    hbar: float = HBAR
    k_B: float = K_B
    e: float = E_CHARGE
    delta_gap: float = ALUMINUM_GAP_K * K_B
    temperature: float = 0.016
    x_qp: float = 3.3e-6
    q_cap: float = 1e6
    q_ind: float = 5e8
    sqrt_A_flux: float = 2 * math.pi * 3e-6
    sqrt_A_epsJ_rel: float = 5e-7

    def __post_init__(self) -> None:
        for name in ("h", "hbar", "k_B", "e", "delta_gap", "temperature",
                     "q_cap", "q_ind"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("x_qp", "sqrt_A_flux", "sqrt_A_epsJ_rel"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def R_K(self) -> float:
        """Resistance quantum h/e^2, consistent with h and e by construction."""
        return self.h / self.e**2


DEFAULT_CONSTANTS = PhysicalConstants()
