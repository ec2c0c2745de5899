"""One ``cos2phi`` CLI invocation run in process, with a span per layer call.

Usage: python3 tracer.py METRICS_JSON -- SUBCOMMAND [CLI ARGS...]

The package is imported as usual; then the public functions of each module
(and the scipy calls inside the eigensolver) are replaced, everywhere the
package has bound them, by wrappers that time each call, count the
diagonalizations made inside it and keep the largest sizes seen.  A target
the package no longer has is skipped and reads as zero.  Spans stay in
memory and are written to METRICS_JSON when the invocation ends; the exit
code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

#: (module, attribute, span name, also record process CPU time)
SPANS = [
    ("cos2phi.config", "load_config", "config.load_config", False),
    ("cos2phi.model", "build_primitives", "model.build_primitives", False),
    ("cos2phi.hamiltonians", "full_hamiltonian", "hamiltonians.full_hamiltonian", False),
    ("cos2phi.eigensolver", "lowest_eigenpairs", "eigensolver.lowest_eigenpairs", True),
    ("cos2phi.analysis", "label_states", "analysis.label_states", False),
    ("cos2phi.analysis", "charge_dispersion", "analysis.charge_dispersion", False),
    ("cos2phi.coherence", "t1_channel", "coherence.t1_channel", False),
    ("cos2phi.coherence", "tphi_flux", "coherence.tphi_flux", False),
    ("cos2phi.coherence", "tphi_critical_current", "coherence.tphi_critical_current", False),
    ("cos2phi.coherence", "full_report", "coherence.full_report", False),
    ("cos2phi.instanton", "solve_instanton", "instanton.solve_instanton", True),
    ("cos2phi.instanton", "reduce_to_effective", "instanton.reduce_to_effective", False),
    ("cos2phi.cli", "write_csv", "cli.write", False),
    ("cos2phi.cli", "write_json", "cli.write", False),
]
#: methods of the solution store
METHOD_SPANS = [("load", "cache.load"), ("store", "cache.store")]
#: (module, attribute, counter): calls counted, not timed, for the hot scalars
COUNTERS = [
    ("cos2phi.instanton", "potential", "instanton.potential_calls"),
    ("cos2phi.instanton", "potential_gradient", "instanton.potential_gradient_calls"),
    ("cos2phi.instanton", "minimize", "instanton.minimize_calls"),
]
SOLVE_SPAN = "eigensolver.lowest_eigenpairs"


class Tracer:
    """In-memory span totals: calls, seconds, CPU seconds, solves inside."""

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, float] = {}
        self.stack: list[list] = []
        self.covered = 0.0  # seconds under some top-level span
        self.caches: list = []

    def _record(self, name: str) -> dict:
        return self.spans.setdefault(
            name, {"calls": 0, "s": 0.0, "cpu_s": 0.0, "solves": 0})

    def keep_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    def span(self, name, fn, cpu=False, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            if name == SOLVE_SPAN:
                for outer in self.stack:
                    outer[0] += 1
            self.stack.append(frame)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                rec = self._record(name)
                rec["calls"] += 1
                rec["s"] += dt
                rec["solves"] += frame[0]
                if cpu:
                    rec["cpu_s"] += time.process_time() - c0
                if not self.stack:
                    self.covered += dt
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(original, replacement) -> None:
    """Point every name the package bound to ``original`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if name != "cos2phi" and not name.startswith("cos2phi."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class _ModuleProxy:
    """A module with some attributes replaced, for one module's namespace."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer target the package has; return the ones it lacks."""
    missing = []
    modules = {}
    for modname in {t[0] for t in SPANS + COUNTERS} | {"cos2phi.cache"}:
        try:
            modules[modname] = importlib.import_module(modname)
        except ImportError:
            missing.append(modname)

    hooks = {
        "hamiltonians.full_hamiltonian":
            lambda H: tracer.keep_max("hamiltonians.nnz_max", H.matrix.nnz),
        SOLVE_SPAN: lambda sol: (
            tracer.keep_max("eigensolver.dim_max", sol.vectors.shape[0]),
            tracer.keep_max("eigensolver.residual_max", max(sol.residuals, default=0.0)),
        ),
    }
    for modname, attr, name, cpu in SPANS:
        fn = getattr(modules.get(modname), attr, None)
        if fn is None:
            missing.append(f"{modname}.{attr}")
            continue
        _rebind(fn, tracer.span(name, fn, cpu, hooks.get(name)))
    for modname, attr, key in COUNTERS:
        fn = getattr(modules.get(modname), attr, None)
        if fn is None:
            missing.append(f"{modname}.{attr}")
            continue
        _rebind(fn, tracer.counter(key, fn))

    store_cls = getattr(modules.get("cos2phi.cache"), "SolutionCache", None)
    if store_cls is None:
        missing.append("cos2phi.cache.SolutionCache")
    else:
        for attr, name in METHOD_SPANS:
            fn = getattr(store_cls, attr, None)
            if fn is None:
                missing.append(f"SolutionCache.{attr}")
                continue
            setattr(store_cls, attr, tracer.span(name, fn))
        init = store_cls.__init__

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.caches.append(self)

        store_cls.__init__ = tracked_init

    eig = modules.get("cos2phi.eigensolver")
    if eig is not None and hasattr(eig, "spla") and hasattr(eig, "sla"):
        eigsh, eigh = eig.spla.eigsh, eig.sla.eigh

        def eigsh_split(*args, **kwargs):
            if kwargs.get("sigma") is not None:
                return si(*args, **kwargs)
            return floor(*args, **kwargs)

        si = tracer.span("eigensolver.shift_invert", eigsh)
        floor = tracer.span("eigensolver.floor_pass", eigsh)
        eig.spla = _ModuleProxy(eig.spla, eigsh=eigsh_split)
        eig.sla = _ModuleProxy(eig.sla, eigh=tracer.span("eigensolver.dense", eigh))
    else:
        missing.append("cos2phi.eigensolver scipy calls")
    return missing


def _tree_bytes(root: Path) -> int:
    if not root.is_dir():
        return 0
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


def _out_dir(args: list[str]) -> Path | None:
    for i, a in enumerate(args):
        if a == "--out" and i + 1 < len(args):
            return Path(args[i + 1])
    return None


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 64
    metrics_path, cli_args = Path(argv[0]), argv[2:]
    import cos2phi.cli as cli

    tracer = Tracer()
    missing = install(tracer)
    out = _out_dir(cli_args)
    store = out / ".solutions" if out is not None else None
    bytes_before = _tree_bytes(store) if store is not None else 0

    code = 0
    try:
        cli.main(args=cli_args, prog_name="cos2phi", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1

    doc = {
        "covered_s": tracer.covered,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "maxima": tracer.maxima,
        "cache_hits": sum(getattr(c, "hits", 0) for c in tracer.caches),
        "cache_misses": sum(getattr(c, "misses", 0) for c in tracer.caches),
        "store_bytes": (_tree_bytes(store) - bytes_before) if store is not None else 0,
        "missing": missing,
    }
    metrics_path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
