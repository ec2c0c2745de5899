"""Toy-model band analytics: exact charge dispersion and the asymptotic form.

For a pure pair-tunneling element the even and odd Cooper-pair sectors
decouple at every offset charge, so bands are tracked exactly by (sector,
within-sector index).  Levels come in doublets whose dispersions are equal
and opposite; the closed-form asymptotic indexes the doublets.  Exact
dispersions come from dense diagonalization over an offset-charge grid,
never from special-function libraries.
"""

from __future__ import annotations

from math import factorial
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonians import ToyParams, toy_hamiltonian

__all__ = [
    "DispersionResult",
    "exact_dispersion",
    "asymptotic_dispersion",
    "toy_band_energies",
    "TruncationError",
]

NG_GRID_DEFAULT = 41  # uniform points on [0, 1]


class TruncationError(RuntimeError):
    """Charge truncation too small; carries the boundary population."""

    def __init__(self, msg: str, boundary_population: float):
        super().__init__(msg)
        self.boundary_population = boundary_population


@dataclass(frozen=True)
class DispersionResult:
    """Signed dispersion of one band plus its splitting table.

    ``eps_k`` is the full band swing across one offset-charge period, signed
    by the direction of travel; adjacent levels of a doublet carry opposite
    signs.  ``splitting`` tabulates the doublet gap over ``ng_grid``.  The
    closed form also gives ``eps_k_next_order``, its value with the first
    correction of DLMF 28.8.2; an exact result leaves it NaN.
    """

    k: int
    eps_k: float
    ng_grid: np.ndarray
    band: np.ndarray
    splitting: np.ndarray
    method: str
    eps_k_next_order: float = float("nan")


def _sector_matrices(tp: ToyParams, ng: float) -> list[np.ndarray]:
    """Even and odd charge-sector blocks of ``toy_hamiltonian`` at ``ng``."""
    H = toy_hamiltonian(replace(tp, N_g=ng)).toarray()
    N = np.arange(-tp.N0_toy, tp.N0_toy + 1)
    return [H[np.ix_(N % 2 == parity, N % 2 == parity)] for parity in (0, 1)]


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


def toy_band_energies(tp: ToyParams, ng: float, nbands: int) -> np.ndarray:
    """Band energies at one offset charge, tracked by parity sector.

    Band indices interleave the two sectors in the energy order they take
    at ng = 0, which keeps each index attached to a fixed sector across the
    whole offset-charge period.
    """
    order = _band_order(tp, nbands)
    per_sector = [np.linalg.eigvalsh(H) for H in _sector_matrices(tp, ng)]
    return np.array([per_sector[s][i] for s, i in order])


def _band_order(tp: ToyParams, nbands: int) -> list[tuple[int, int]]:
    ref = [np.linalg.eigvalsh(H) for H in _sector_matrices(tp, 0.0)]
    tagged = [(ref[s][i], s, i) for s in (0, 1) for i in range(nbands)]
    tagged.sort()
    return [(s, i) for _, s, i in tagged[:nbands]]


def exact_dispersion(
    tp: ToyParams, k: int, ng_points: int = NG_GRID_DEFAULT
) -> DispersionResult:
    """Band-k dispersion from dense diagonalization over an offset-charge grid.

    The extrema of a tracked band sit at the period endpoints, so the swing
    equals the signed endpoint difference; both are computed and reconciled.
    """
    if k < 0:
        raise ValueError("band index must be nonnegative")
    order = _band_order(tp, k + 2)
    ng_grid = np.linspace(0.0, 1.0, ng_points)
    band = np.empty(ng_points)
    partner = np.empty(ng_points)
    s_k, i_k = order[k]
    pair = k + 1 if k % 2 == 0 else k - 1
    s_p, i_p = order[pair]
    for j, ng in enumerate(ng_grid):
        evals, vecs = zip(*(np.linalg.eigh(H) for H in _sector_matrices(tp, ng)))
        if j == 0:
            _check_boundary(tp, [vecs[s][:, i] for (s, i) in (order[k], order[pair])])
        band[j] = evals[s_k][i_k]
        partner[j] = evals[s_p][i_p]
    swing = band.max() - band.min()
    sign = np.sign(band[-1] - band[0]) or 1.0
    return DispersionResult(
        k=k,
        eps_k=float(sign * swing),
        ng_grid=ng_grid,
        band=band,
        splitting=np.abs(partner - band),
        method="exact",
    )


def asymptotic_dispersion(
    tp: ToyParams, k: int, ng_points: int = NG_GRID_DEFAULT
) -> DispersionResult:
    """Closed-form large-E_J/E_C dispersion for doublet k.

    The printed formula indexes doublets: its k-th value is the common
    magnitude of the two levels (2k, 2k+1), which disperse with opposite
    signs.  The splitting table is |eps_k cos(pi Ng)|.  The next order of
    DLMF eq. 28.8.2 multiplies the printed form by
    1 - (6k^2 + 14k + 7) / (32 sqrt q), with sqrt q = sqrt(2 E_J / E_C) / 4.
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
    ng_grid = np.linspace(0.0, 1.0, ng_points)
    splitting = np.abs(eps * np.cos(np.pi * ng_grid))
    return DispersionResult(
        k=k,
        eps_k=float(eps),
        ng_grid=ng_grid,
        band=np.full(ng_points, np.nan),
        splitting=splitting,
        method="asymptotic",
        eps_k_next_order=float(eps * next_order),
    )
