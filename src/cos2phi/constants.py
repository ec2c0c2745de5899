"""Physical constants, unit conventions and the package-wide defaults.

All circuit energies elsewhere in the package are stored as frequencies,
E/h in GHz.  The SI constants below, the aluminum gap ``DELTA_GAP`` among
them, only enter the coherence module, where rates are assembled in rad/s
and reported in ms; no run sets them.  The defaults that both the run
configuration and a solving layer read (the Krylov seed, the coherence
channels, the noise environment of ``PhysicalConstants``) live here, in a
module that imports only the standard library, so that ``config`` and the
CLI front end load without the layers that diagonalize, and without scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GHZ_TO_RAD_PER_S = 2.0e9 * 3.141592653589793  # angular frequency of a 1 GHz tone

H_PLANCK = 6.62607015e-34                    # J s
HBAR = H_PLANCK / (2 * 3.141592653589793)    # J s, derived so h = 2 pi hbar exactly
K_B = 1.380649e-23             # J / K
E_CHARGE = 1.602176634e-19     # C

R_K = H_PLANCK / E_CHARGE**2   # ohm, resistance quantum h/e^2
DELTA_GAP = 2.1 * K_B          # J, aluminum gap of 2.1 K, roughly 180 ueV

DEFAULT_SEED = 7  # Krylov start-vector seed

#: every channel of the coherence budget: relaxation first, then pure dephasing
T1_CHANNELS = ("capacitive", "inductive", "purcell", "quasiparticle")
CHANNELS = T1_CHANNELS + ("charge", "flux", "shot", "critical_current")


@dataclass(frozen=True)
class PhysicalConstants:
    """The environment of the coherence budget, every field of which a run
    configuration can set: ``temperature`` and the ``channels`` keys.

    ``temperature`` is the bath temperature in kelvin.  The default 16 mK
    is the calibration point for which the thermal plasmon occupation at
    0.8 GHz is about 0.1.

    The noise environment:

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

    temperature: float = 0.016
    x_qp: float = 3.3e-6
    q_cap: float = 1e6
    q_ind: float = 5e8
    sqrt_A_flux: float = 2 * math.pi * 3e-6
    sqrt_A_epsJ_rel: float = 5e-7

    def __post_init__(self) -> None:
        for name in ("temperature", "q_cap", "q_ind"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("x_qp", "sqrt_A_flux", "sqrt_A_epsJ_rel"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")


DEFAULT_CONSTANTS = PhysicalConstants()
