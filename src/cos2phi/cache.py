"""The one solve path: labelled solutions through a content-addressed store.

``SolutionCache.get_or_solve`` is the only place that turns (params, bias,
truncation, k) into a labelled solution.  A ``SolutionCache`` carries the
Krylov seed and, when it has a ``root``, a directory of serialized
eigen-solutions.  Keys hash the full problem description (circuit
parameters, bias, truncation, k, seed) and a format version, so identical
physics never diagonalizes twice regardless of which config asked for it.
Version 8 stores vectors in the gauged frame of ``model`` (real at half
flux), solved in the symmetry blocks of their bias on the band Cholesky
factor of ``eigensolver.factor_below_spectrum``, shifted
``eigensolver.SHIFT_GAP`` below the Lanczos floor.  An entry that does not
load is a miss.  Without a root every request is solved.  Hit and miss
counts feed the run log.

Label conventions.  Cooper-pair parity means the combined charge/loop-mode
parity operator from the primitives, read as the sign of its expectation
value.  It is an exact quantum number only for the symmetric circuit at
half flux; every disorder parameter couples the two parity sectors there,
and the sign then labels the dominant sector.  The plasmon number m comes
from rounding the imbalance-mode occupation.  Fluxon symbols: "+" / "-" at
half flux (by that parity sign; parity eigenstates only for the symmetric
circuit), "*" (fluxon present) / "o" (fluxon absent) elsewhere, assigned by
which cosine ridge the state occupies relative to the true ground state,
and "unlabeled" at integer flux where the doublet structure degenerates.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import _ONE_BLAS_THREAD, _POOL_START
from .constants import DEFAULT_SEED
from .eigensolver import EigenSolution, lowest_eigenpairs
from .hamiltonians import full_hamiltonian
from .model import (BasisTruncation, BiasPoint, CircuitParams, Primitives,
                    build_primitives)

__all__ = ["SolutionCache", "worker_pool", "StateLabel", "LabeledSolution",
           "LabelingError", "label_states"]

FLUXON_PLUS = "+"
FLUXON_MINUS = "-"
FLUXON_PRESENT = "*"
FLUXON_ABSENT = "o"
FLUXON_UNLABELED = "unlabeled"

#: what reading a truncated, garbled or incomplete store entry raises
_UNREADABLE = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile,
               zlib.error)


class LabelingError(ValueError):
    """Quantum-number assignment failed for a required state."""


@dataclass(frozen=True)
class StateLabel:
    index: int
    m: int
    fluxon: str
    parity: int


@dataclass(frozen=True)
class LabeledSolution:
    """EigenSolution bundled with its primitives, params, and state labels."""

    solution: EigenSolution
    labels: list
    primitives: Primitives
    params: CircuitParams
    bias: BiasPoint

    @property
    def energies(self) -> np.ndarray:
        return self.solution.energies

    @property
    def splitting(self) -> float:
        """E1 - E0 of the two lowest states (GHz)."""
        return float(self.energies[1] - self.energies[0])

    def find(self, m: int, fluxon: str) -> int:
        for lab in self.labels:
            if lab.m == m and lab.fluxon == fluxon:
                return lab.index
        raise LabelingError(f"no state labeled (m={m}, fluxon={fluxon!r})")


def label_states(
    sol: EigenSolution, bias: BiasPoint, prim: Primitives
) -> list[StateLabel]:
    """Assign (m, fluxon, parity) labels to every state of a solution.

    The plasmon number is rounded from the imbalance-mode occupation
    measured relative to the lowest state of the same fluxon chain: the
    hybridization with the island charge offsets all occupations by a
    common amount that grows with asymmetry, while the chain ground defines
    m = 0.
    """
    if sol.fingerprint != prim.fingerprint:
        raise LabelingError("solution and primitives built on different bases")
    at_half = bias.at_half_flux
    # phi_ext is at integer flux exactly when phi_ext + pi is at half flux
    at_zero = BiasPoint(bias.phi_ext + np.pi).at_half_flux
    parity = prim.parity()
    num_b = prim.kron((None, None, prim.num_b))
    cos_hop = None if at_zero or at_half else prim.kron((prim.cos_hop, None, None))

    parities = []
    occupations = []
    chains = []
    cos_ground = None
    for i in range(sol.k):
        v = sol.vectors[:, i]
        pexp = np.vdot(v, parity @ v).real
        parities.append(1 if pexp >= 0 else -1)
        occupations.append(np.vdot(v, num_b @ v).real)
        if at_zero:
            chains.append(FLUXON_UNLABELED)
        elif at_half:
            chains.append(FLUXON_PLUS if parities[-1] > 0 else FLUXON_MINUS)
        else:
            cexp = np.vdot(v, cos_hop @ v).real
            if cos_ground is None:
                cos_ground = cexp
            same_well = np.sign(cexp) == np.sign(cos_ground) and cos_ground != 0
            chains.append(FLUXON_ABSENT if same_well else FLUXON_PRESENT)

    chain_floor: dict[str, float] = {}
    labels = []
    for i in range(sol.k):
        base = chain_floor.setdefault(chains[i], occupations[i])
        labels.append(StateLabel(index=i, m=int(round(occupations[i] - base)),
                                 fluxon=chains[i], parity=parities[i]))
    return labels


#: the thread-count setters of OpenBLAS builds: the system library's, and
#: the 32- and 64-bit-integer builds that the numpy and scipy wheels bundle
_SET_NUM_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                    "scipy_openblas_set_num_threads",
                    "scipy_openblas_set_num_threads64_")


def _pin_one_blas_thread() -> None:
    """Set every OpenBLAS mapped into this process to one thread.

    The initializer of a forked worker: its numpy and scipy were loaded by
    the parent, under whatever ``OPENBLAS_NUM_THREADS`` the parent had, so
    the variable alone no longer reaches them.  Linux only, as fork is.
    """
    import ctypes

    with open("/proc/self/maps") as fh:
        mapped = {fields[5] for fields in (line.rstrip("\n").split(maxsplit=5)
                                           for line in fh) if len(fields) == 6}
    for lib in sorted(p for p in mapped if "openblas" in Path(p).name):
        handle = ctypes.CDLL(lib)
        for sym in _SET_NUM_THREADS:
            if hasattr(handle, sym):
                setter = getattr(handle, sym)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


@contextmanager
def worker_pool(jobs: int):
    """A process pool of ``jobs`` workers with one BLAS thread each.

    Workers start as ``_POOL_START`` says.  On Linux they fork, with this
    process's numpy, scipy and cos2phi loaded (and any monkeypatch in
    place), and ``_pin_one_blas_thread`` sets each inherited OpenBLAS to one
    thread; a fork pool starts all ``jobs`` workers at its first task,
    before its manager thread starts.  Elsewhere they spawn as fresh
    interpreters.  Either way ``_ONE_BLAS_THREAD`` is in the environment
    while the pool runs, for a numpy or scipy a worker loads itself, and is
    restored after: ``jobs`` workers run ``jobs`` BLAS threads, not ``jobs``
    times ``nproc``.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    saved = {k: os.environ.get(k) for k in _ONE_BLAS_THREAD}
    os.environ.update(_ONE_BLAS_THREAD)
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=get_context(_POOL_START),
            initializer=_pin_one_blas_thread if _POOL_START == "fork" else None,
        ) as ex:
            yield ex
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _problem_key(
    params: CircuitParams,
    bias: BiasPoint,
    trunc: BasisTruncation,
    k: int,
    seed: int,
) -> str:
    payload = json.dumps(
        {
            "p": astuple(params),
            "b": [bias.phi_ext, bias.N_g],
            "t": trunc.as_tuple(),
            "k": k,
            "seed": seed,
            "v": 8,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class SolutionCache:
    """Krylov seed, worker count and an optional directory of solutions by
    problem hash.

    ``root=None`` keeps nothing on disk: every request diagonalizes.
    ``jobs`` is the number of worker processes ``map`` may use; 1 solves
    in this process.
    """

    def __init__(self, root: str | Path | None = None, seed: int = DEFAULT_SEED,
                 jobs: int = 1):
        self.root = None if root is None else Path(root)
        self.seed = seed
        self.jobs = jobs
        self.hits = 0
        self.misses = 0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def load(self, key: str) -> EigenSolution | None:
        """The stored solution, or None when there is no entry that loads."""
        if self.root is None:
            return None
        try:
            # our own handle: ``np.load`` leaves its own open on a bad entry
            with (open(self._path(key), "rb") as fh,
                  np.load(fh, allow_pickle=False) as data):
                return EigenSolution(
                    energies=data["energies"],
                    vectors=data["vectors"],
                    residuals=data["residuals"],
                    fingerprint=str(data["fingerprint"]),
                    meta=json.loads(str(data["meta_json"])),
                )
        except _UNREADABLE:
            return None

    def store(self, key: str, sol: EigenSolution) -> None:
        """Write to a file of this process, then rename it into place."""
        if self.root is None:
            return
        path = self._path(key)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh,
                    energies=sol.energies,
                    vectors=sol.vectors,
                    residuals=sol.residuals,
                    fingerprint=np.str_(sol.fingerprint),
                    meta_json=np.str_(json.dumps(sol.meta, sort_keys=True, default=str)),
                )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def get_or_solve(
        self,
        params: CircuitParams,
        bias: BiasPoint,
        trunc: BasisTruncation,
        k: int,
    ) -> LabeledSolution:
        """The labelled solution, from the store when an entry of this basis
        fingerprint loads, else solved, labelled and stored.  The solve runs
        in the blocks of an exact symmetry: at half flux Cooper-pair parity
        for the symmetric circuit, else the mirror at N_g = 0."""
        prim = build_primitives(trunc, params)
        key = _problem_key(params, bias, trunc, k, self.seed)
        sol = self.load(key)
        hit = sol is not None and sol.fingerprint == prim.fingerprint
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            symmetry = None
            if bias.at_half_flux and not any(
                    (params.delta_J, params.delta_C, params.delta_A, params.delta_L)):
                symmetry = prim.parity()
            elif bias.at_half_flux and bias.N_g == 0.0:
                symmetry = prim.mirror()
            sol = lowest_eigenpairs(
                full_hamiltonian(params, bias, trunc, primitives=prim), k,
                seed=self.seed, symmetry=symmetry, meta={"trunc": trunc.as_tuple()})
        labels = label_states(sol, bias, prim)
        if not hit:
            self.store(key, sol)
        return LabeledSolution(
            solution=sol, labels=labels, primitives=prim, params=params, bias=bias
        )

    def map(self, problems: list) -> Iterator:
        """``get_or_solve`` over ``(params, bias, trunc, k)`` tuples: an
        iterator over the solutions, in order.

        With ``jobs`` 1, or a single problem, each problem is solved in this
        process when the iterator reaches it, so a caller that keeps only
        part of each solution holds one at a time.  Otherwise all problems
        run before this returns, in a ``worker_pool`` of
        ``min(jobs, len(problems))`` workers, each through a copy of this
        store; their hits and misses are added to this store's counts.  A
        worker's error, ``NonConvergenceError`` with its ``residuals``
        among them, is raised here as it was raised there.
        """
        workers = min(self.jobs, len(problems))
        if workers <= 1:
            return (self.get_or_solve(*p) for p in problems)
        with worker_pool(workers) as ex:
            done = list(ex.map(self._solve_in_worker, problems))
        for _, hit in done:
            self.hits += hit
            self.misses += not hit
        return iter([ls for ls, _ in done])

    def _solve_in_worker(self, problem) -> tuple:
        hits = self.hits
        ls = self.get_or_solve(*problem)
        return ls, self.hits > hits
