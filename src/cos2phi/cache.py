"""The one solve path: labelled solutions through a content-addressed store.

A ``SolutionCache`` carries the Krylov seed and, when it has a ``root``, a
directory of serialized eigen-solutions.  Keys hash the full problem
description (circuit parameters, bias, truncation, k, seed) and a format
version, so identical physics never diagonalizes twice regardless of which
config asked for it.  Version 7 stores vectors in the gauged frame of
``model`` (real at half flux), solved in the symmetry blocks of their bias
on the band Cholesky factor of ``eigensolver.factor_below_spectrum``.
Without a root every request is solved.  Hit and miss counts feed the run log for
idempotence checks.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import _ONE_BLAS_THREAD
from .constants import DEFAULT_SEED
from .eigensolver import EigenSolution
from .model import BasisTruncation, BiasPoint, CircuitParams, build_primitives

__all__ = ["SolutionCache", "worker_pool"]


@contextmanager
def worker_pool(jobs: int):
    """A process pool of ``jobs`` fresh interpreters with one BLAS thread each.

    Spawned workers inherit the environment of the moment they start, so
    ``_ONE_BLAS_THREAD`` is in place while the pool runs and restored after:
    ``jobs`` workers run ``jobs`` BLAS threads, not ``jobs`` times ``nproc``.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    saved = {k: os.environ.get(k) for k in _ONE_BLAS_THREAD}
    os.environ.update(_ONE_BLAS_THREAD)
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=get_context("spawn")
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
            "v": 7,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class SolutionCache:
    """Krylov seed plus an optional directory of solutions by problem hash.

    ``root=None`` keeps nothing on disk: every request diagonalizes.
    """

    def __init__(self, root: str | Path | None = None, seed: int = DEFAULT_SEED):
        self.root = None if root is None else Path(root)
        self.seed = seed
        self.hits = 0
        self.misses = 0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def load(self, key: str) -> EigenSolution | None:
        if self.root is None or not self._path(key).exists():
            return None
        data = np.load(self._path(key), allow_pickle=False)
        meta = json.loads(str(data["meta_json"]))
        return EigenSolution(
            energies=data["energies"],
            vectors=data["vectors"],
            residuals=data["residuals"],
            fingerprint=str(data["fingerprint"]),
            meta=meta,
        )

    def store(self, key: str, sol: EigenSolution) -> None:
        if self.root is None:
            return
        np.savez_compressed(
            self._path(key),
            energies=sol.energies,
            vectors=sol.vectors,
            residuals=sol.residuals,
            fingerprint=np.str_(sol.fingerprint),
            meta_json=np.str_(json.dumps(sol.meta, sort_keys=True, default=str)),
        )

    def get_or_solve(
        self,
        params: CircuitParams,
        bias: BiasPoint,
        trunc: BasisTruncation,
        k: int,
    ):
        """LabeledSolution via the store; labels are recomputed on load."""
        # analysis imports this module for SolutionCache, so it is imported
        # on first use, not at module level
        from .analysis import LabeledSolution, label_states, solve_circuit

        key = _problem_key(params, bias, trunc, k, self.seed)
        sol = self.load(key)
        if sol is not None:
            prim = build_primitives(trunc, params)
            if prim.fingerprint == sol.fingerprint:
                self.hits += 1
                labels = label_states(sol, bias, prim)
                return LabeledSolution(
                    solution=sol, labels=labels, primitives=prim,
                    params=params, bias=bias,
                )
        self.misses += 1
        ls = solve_circuit(params, bias, trunc, k=k, seed=self.seed)
        self.store(key, ls.solution)
        return ls

    def map(self, problems: list, jobs: int = 1) -> Iterator:
        """``get_or_solve`` over ``(params, bias, trunc, k)`` tuples: an
        iterator over the solutions, in order.

        Serially each problem is solved when the iterator reaches it, so a
        caller that keeps only part of each solution holds one at a time.
        With ``jobs > 1`` all problems run before this returns, in a
        ``worker_pool``, each through a copy of this store; their hits and
        misses are added to this store's counts.
        """
        if jobs <= 1 or len(problems) <= 1:
            return (self.get_or_solve(*p) for p in problems)
        with worker_pool(jobs) as ex:
            done = list(ex.map(self._solve_in_worker, problems))
        for _, hit in done:
            self.hits += hit
            self.misses += not hit
        return iter([ls for ls, _ in done])

    def _solve_in_worker(self, problem) -> tuple:
        hits = self.hits
        ls = self.get_or_solve(*problem)
        return ls, self.hits > hits
