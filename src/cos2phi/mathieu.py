"""Toy-model band analytics: exact charge dispersion and the asymptotic form.

For a pure pair-tunneling element the even and odd Cooper-pair sectors
decouple at every offset charge, so bands are tracked exactly by (sector,
within-sector index).  Levels come in doublets whose dispersions are equal
and opposite; the closed-form asymptotic indexes the doublets.  A tracked
band is even in the offset charge (N -> -N keeps its sector) and has period
2 (N -> N + 2 keeps it), so it is stationary at N_g = 0 and 1: exact
dispersions come from dense diagonalization at those two points, never
from special-function libraries.
"""

from __future__ import annotations

from math import factorial
import warnings
from dataclasses import replace

import numpy as np

from .hamiltonians import ToyParams, toy_hamiltonian
from .model import NonConvergenceError

__all__ = ["exact_dispersion", "asymptotic_dispersion", "TruncationError"]


class TruncationError(NonConvergenceError):
    """Charge truncation too small; carries the boundary population."""

    def __init__(self, msg: str, boundary_population: float):
        super().__init__(msg)
        self.boundary_population = boundary_population


def _sector_eigh(tp: ToyParams, ng: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenpairs of the even and odd charge-sector blocks of ``toy_hamiltonian``."""
    H = toy_hamiltonian(replace(tp, N_g=ng))
    N = np.arange(-tp.N0_toy, tp.N0_toy + 1)
    return [np.linalg.eigh(H[np.ix_(N % 2 == s, N % 2 == s)]) for s in (0, 1)]


def _check_boundary(tp: ToyParams, vecs_by_sector) -> None:
    pop = 0.0
    for vec in vecs_by_sector:
        pop = max(pop, abs(vec[0]) ** 2 + abs(vec[-1]) ** 2)
    if pop > 1e-12:
        raise TruncationError(
            f"charge-boundary population {pop:.2e} exceeds 1e-12; "
            f"increase N0_toy beyond {tp.N0_toy}",
            boundary_population=pop,
        )


def exact_dispersion(tp: ToyParams, k: int) -> float:
    """Signed charge swing E_k(1) - E_k(0) of band k, by dense diagonalization.

    Band indices interleave the two sectors in the energy order they take
    at N_g = 0, which keeps each index attached to a fixed sector; adjacent
    levels of a doublet swing with opposite signs.  The boundary population
    of band k and its doublet partner is checked at N_g = 0.
    """
    if k < 0:
        raise ValueError("band index must be nonnegative")
    at0 = _sector_eigh(tp, 0.0)
    tagged = sorted((at0[s][0][i], s, i) for s in (0, 1) for i in range(k + 2))
    order = [(s, i) for _, s, i in tagged]
    _check_boundary(tp, [at0[s][1][:, i] for s, i in (order[k], order[k ^ 1])])
    s, i = order[k]
    return float(_sector_eigh(tp, 1.0)[s][0][i] - at0[s][0][i])


def asymptotic_dispersion(tp: ToyParams, k: int) -> tuple[float, float]:
    """Closed-form large-E_J/E_C dispersion of doublet k and its next order.

    The printed formula indexes doublets: its k-th value is the common
    magnitude of the two levels (2k, 2k+1), which disperse with opposite
    signs.  Returns (leading form, DLMF eq. 28.8.2 next order); the next
    order multiplies the leading form by 1 - (6k^2 + 14k + 7) / (32 sqrt q),
    with sqrt q = sqrt(2 E_J / E_C) / 4.
    """
    r = tp.E_J / tp.E_C
    if r < 20:
        warnings.warn(
            f"asymptotic dispersion requested at E_J/E_C = {r:.1f} < 20; "
            "the closed form degrades quickly here",
            stacklevel=2,
        )
    eps = (
        (-1.0) ** k
        * 4.0 ** (k + 2)
        / factorial(k)
        * tp.E_C
        * np.sqrt(2.0 / np.pi)
        * (2.0 * tp.E_J / tp.E_C) ** ((2.0 * k + 3.0) / 4.0)
        * np.exp(-np.sqrt(2.0 * tp.E_J / tp.E_C))
    )
    sqrt_q = np.sqrt(2.0 * tp.E_J / tp.E_C) / 4.0
    next_order = 1.0 - (6 * k**2 + 14 * k + 7) / (32.0 * sqrt_q)
    return float(eps), float(eps * next_order)
