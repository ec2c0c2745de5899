"""Numerical simulator for a capacitively shunted pair-tunneling qubit.

The public names below load their module, and with it numpy, on first
access (PEP 562), so that ``cos2phi.cli`` can fix the BLAS thread count
before numpy starts its thread pool.  Importing the package alone loads no
numpy and leaves ``os.environ`` as it was.
"""

import os
import sys

__version__ = "0.1.0"

#: caps numpy's and scipy's OpenBLAS (and OpenMP) at one thread.  It is read
#: only when numpy loads, so ``cli`` applies it to its own process before it
#: imports numpy, and ``cache.worker_pool`` to each worker it starts; a
#: forked worker inherits a numpy already loaded, so the pool's initializer
#: also sets each OpenBLAS to one thread directly.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: how ``cache.worker_pool`` starts its workers.  On Linux by fork: a worker
#: starts with the parent's numpy and scipy loaded, in about 15 ms for an
#: empty pool.  Elsewhere by spawn: a fresh interpreter that imports them
#: again, about 0.4 s of CPU each, so the CLI runs serially by default there.
_POOL_START = "fork" if sys.platform.startswith("linux") else "spawn"


#: the most workers the CLI starts by default.  Each worker holds its own
#: Hamiltonian and band factor: a cold ``coherence`` at delta_L = 0.6, its
#: dispersion solved at (10,10,46), peaks at about 124 MB of PSS summed
#: over its processes serially, 199 MB in two workers and 301 MB in four.
#: Two is the largest count timed (on a 2-vCPU machine).
_MAX_DEFAULT_JOBS = 2


def _default_jobs() -> int:
    """The CLI's default ``--jobs``: the cores this process may run on, at
    most ``_MAX_DEFAULT_JOBS``, where workers fork; else 1."""
    if _POOL_START != "fork":
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_DEFAULT_JOBS)


_EXPORTS = {
    "constants": ("PhysicalConstants", "DEFAULT_CONSTANTS"),
    "model": (
        "BasisTruncation",
        "BiasPoint",
        "CircuitParams",
        "HermitianOperator",
        "build_primitives",
        "displaced_cosine",
        "displaced_sine",
    ),
    "hamiltonians": (
        "EffectiveParams",
        "ToyParams",
        "effective_params",
        "full_hamiltonian",
        "toy_hamiltonian",
    ),
    "eigensolver": ("EigenSolution", "lowest_eigenpairs"),
    "analysis": (
        "DisorderSweep",
        "LabeledSolution",
        "StateLabel",
        "charge_dispersion",
        "convergence_ladder",
        "dispersive_shift",
        "disorder_sweep",
        "flux_sweep",
        "label_states",
        "normalized_matrix_elements",
        "solve_circuit",
        "wavefunction_charge",
        "wavefunction_phase",
    ),
    "coherence": (
        "CoherenceReport",
        "full_report",
        "q_cap",
        "q_ind",
        "t1_channel",
        "tphi_charge",
        "tphi_critical_current",
        "tphi_flux",
        "tphi_shot",
    ),
    "instanton": (
        "InstantonPath",
        "find_minima",
        "path_approx",
        "potential",
        "reduce_to_effective",
        "solve_instanton",
    ),
    "mathieu": ("asymptotic_dispersion", "exact_dispersion"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
#: modules reachable as ``cos2phi.<module>`` without an import of their own
_MODULES = (*_EXPORTS, "cache")

__all__ = [*_MODULE_OF, *_MODULES]


def __getattr__(name):
    from importlib import import_module

    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _MODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
