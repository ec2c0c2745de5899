#!/usr/bin/env python3
"""Benchmark of the cos2phi command line on two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src/``.
An operation is one ``cos2phi`` invocation in a child process, in a fresh
output directory, checked against references computed in ``checks.py``; it
fails on a nonzero exit or a failed check.  A round is one operation, and
the timed phase repeats rounds until ``--seconds`` have passed (at least
one round).

``--trace 0`` prints the end-to-end metrics: the median round's wall and
child CPU seconds, the largest child peak RSS, and the median set-up time of
a fresh interpreter that imports ``cos2phi.cli`` and loads the config (two
samples before the timed phase and three after it).  ``--trace 1`` runs one
plain round and one round through ``tracer.py``, which runs the invocation
in process with a span around every layer call, and prints the per-layer
metrics with the tracing overhead.  Metric names and units are those of
``BENCHMARK.json``.  The last line of standard output is the JSON result.

Workloads (README.md has the inputs and the expected effect of each layer):
    coherence-operated  cold ``coherence`` at delta_L = 0.6
    instanton-short     ``instanton`` on the symmetric circuit, capped at
                        10 outer string iterations
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

SETUP_SAMPLES = (2, 3)  # before and after the timed phase, to span its drift
SETUP_CODE = (
    "import sys, cos2phi.cli\n"
    "from cos2phi.config import load_config\n"
    "load_config(sys.argv[1])\n"
)


class Fatal(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def spawn(argv: list[str], cwd: Path, log: Path) -> dict:
    """Run one child to its end; wall, CPU and peak RSS from ``wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # kilobytes on Linux
    }


def _tail(log: Path, n: int = 600) -> str:
    return log.read_text(errors="replace")[-n:]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """A config with the run's seed, and the checks of what one round wrote."""

    subcommand: str
    config_name: str

    def __init__(self, seed: int, work: Path):
        self.work = work
        base = (HERE / "configs" / self.config_name).read_text()
        self.config = work / self.config_name
        self.config.write_text(base.rstrip("\n") + f"\nseed: {seed}\n")
        self.cfg = checks.load_config(self.config)

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError

    def final_checks(self, outs: list[Path]) -> list[str]:
        """Checks made once per run over the rounds that succeeded."""
        return []


class CoherenceOperated(Workload):
    subcommand = "coherence"
    config_name = "coherence_operated.yaml"

    def check(self, out: Path) -> list[str]:
        errors = checks.check_runlog(checks.read_json(out / "coherence_runlog.json"))
        return errors + checks.check_operated(
            checks.read_coherence_csv(out / "coherence.csv"))

    def final_checks(self, outs: list[Path]) -> list[str]:
        """Stored operating-point energies against one dense diagonalization."""
        sys.path.insert(0, str(SRC))
        from cos2phi.config import load_config
        from cos2phi.hamiltonians import full_hamiltonian

        cfg = load_config(self.config)
        H = full_hamiltonian(cfg.circuit, cfg.bias, cfg.truncation).matrix
        reference = checks.dense_lowest(H, cfg.truncation.N0, 6)
        errors = []
        for out in outs:
            errors += checks.check_stored_energies(
                checks.stored_solutions(out / ".solutions"), reference)
        return errors


class InstantonShort(Workload):
    subcommand = "instanton"
    config_name = "instanton_short.yaml"

    def check(self, out: Path) -> list[str]:
        return checks.check_instanton(
            checks.Circuit(self.cfg),
            checks.read_path_csv(out / "instanton_path.csv"),
            checks.read_json(out / "instanton.json"),
        )


WORKLOADS = {
    "coherence-operated": CoherenceOperated,
    "instanton-short": InstantonShort,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Runner:
    """Runs and checks rounds, keeping the count of failures."""

    def __init__(self, workload: Workload, work: Path):
        self.workload, self.work = workload, work
        self.rounds = 0
        self.failed = 0
        self.wrong: list[str] = []  # wrong answers, not crashes
        self.good: list[Path] = []  # output directories of rounds that passed

    def round(self, traced: bool = False) -> dict:
        self.rounds += 1
        out = self.work / f"round-{self.rounds}"
        out.mkdir()
        log = self.work / f"round-{self.rounds}.log"
        args = [self.workload.subcommand, "--config", str(self.workload.config),
                "--out", str(out)]
        metrics = self.work / f"round-{self.rounds}.trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(metrics), "--", *args]
        else:
            argv = [sys.executable, "-m", "cos2phi.cli", *args]
        res = spawn(argv, out, log)
        if res["code"] != 0:
            self.failed += 1
            sys.stderr.write(f"exit {res['code']}: {args}\n{_tail(log)}\n")
            return res
        try:
            errors = self.workload.check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        if errors:
            self.failed += 1
            self.wrong += errors
            sys.stderr.write(f"check failed: {args}\n  " + "\n  ".join(errors) + "\n")
            return res
        self.good.append(out)
        if traced:
            res["trace"] = json.loads(metrics.read_text())
            if res["trace"]["missing"]:
                sys.stderr.write(f"tracer: package lacks {res['trace']['missing']}, "
                                 "read as 0\n")
        return res

    def setup_samples(self, n: int) -> list[float]:
        """Wall times of fresh interpreters importing the CLI and loading the config."""
        samples = []
        for _ in range(n):
            log = self.work / "setup.log"
            res = spawn([sys.executable, "-c", SETUP_CODE, str(self.workload.config)],
                        self.work, log)
            if res["code"] != 0:
                raise Fatal(f"set-up child failed: {_tail(log)}")
            samples.append(res["wall_s"])
        return samples


def layer_values(trace: dict, wall_s: float, overhead_pct: float) -> dict:
    """Per-layer metric values from the span totals of one traced invocation."""
    spans = trace["spans"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    hits, misses = trace["cache_hits"], trace["cache_misses"]
    return {
        "config.load_config.s": span("config.load_config", "s"),
        "model.build_primitives.calls": span("model.build_primitives", "calls"),
        "model.build_primitives.s": span("model.build_primitives", "s"),
        "hamiltonians.full_hamiltonian.calls": span("hamiltonians.full_hamiltonian", "calls"),
        "hamiltonians.full_hamiltonian.s": span("hamiltonians.full_hamiltonian", "s"),
        "hamiltonians.nnz_max": trace["maxima"].get("hamiltonians.nnz_max", 0),
        "eigensolver.solves": span("eigensolver.lowest_eigenpairs", "calls"),
        "eigensolver.s": span("eigensolver.lowest_eigenpairs", "s"),
        "eigensolver.cpu_s": span("eigensolver.lowest_eigenpairs", "cpu_s"),
        "eigensolver.floor_pass_s": span("eigensolver.floor_pass", "s"),
        "eigensolver.shift_invert_s": span("eigensolver.shift_invert", "s"),
        "eigensolver.dense_s": span("eigensolver.dense", "s"),
        "eigensolver.dim_max": trace["maxima"].get("eigensolver.dim_max", 0),
        "eigensolver.residual_max": trace["maxima"].get("eigensolver.residual_max", 0.0),
        "cache.misses": misses,
        "cache.hits": hits,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.load_s": span("cache.load", "s"),
        "cache.store_s": span("cache.store", "s"),
        "cache.store_bytes": trace["store_bytes"],
        "analysis.label_states.calls": span("analysis.label_states", "calls"),
        "analysis.label_states.s": span("analysis.label_states", "s"),
        "analysis.charge_dispersion.s": span("analysis.charge_dispersion", "s"),
        "analysis.charge_dispersion.solves": span("analysis.charge_dispersion", "solves"),
        "coherence.t1_channel.s": span("coherence.t1_channel", "s"),
        "coherence.tphi_flux.s": span("coherence.tphi_flux", "s"),
        "coherence.tphi_flux.solves": span("coherence.tphi_flux", "solves"),
        "coherence.tphi_critical_current.s": span("coherence.tphi_critical_current", "s"),
        "coherence.tphi_critical_current.solves":
            span("coherence.tphi_critical_current", "solves"),
        "coherence.full_report.s": span("coherence.full_report", "s"),
        "instanton.solve_instanton.s": span("instanton.solve_instanton", "s"),
        "instanton.solve_instanton.cpu_s": span("instanton.solve_instanton", "cpu_s"),
        "instanton.outer_iterations": trace["counts"].get("instanton.minimize_calls", 0),
        "instanton.potential_calls": trace["counts"].get("instanton.potential_calls", 0),
        "instanton.potential_gradient_calls":
            trace["counts"].get("instanton.potential_gradient_calls", 0),
        "instanton.reduce_to_effective.s": span("instanton.reduce_to_effective", "s"),
        "cli.write_s": span("cli.write", "s"),
        # the child's wall time that no top-level span covers
        "cli.self_s": wall_s - trace["covered_s"],
        "trace.overhead_pct": overhead_pct,
    }


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "cos2phi" / "cli.py").is_file():
        raise Fatal(f"no cos2phi package under {SRC}; run from a source checkout")
    spec = checks.read_json(ROOT / "BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    work = OUT / f"run-{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(WORKLOADS[workload_name](seed, work), work)
        if trace:
            plain = runner.round()
            traced = runner.round(traced=True)
            overhead = 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
        else:
            setup = runner.setup_samples(SETUP_SAMPLES[0])
            rounds = []
            t0 = time.perf_counter()
            while not rounds or time.perf_counter() - t0 < seconds:
                rounds.append(runner.round())
            setup += runner.setup_samples(SETUP_SAMPLES[1])

        if runner.good:
            final = runner.workload.final_checks(runner.good)
            for e in final:
                sys.stderr.write(f"check failed: {e}\n")
            runner.wrong += final

        if trace:
            if "trace" not in traced:
                raise Fatal("the traced round failed; no per-layer metrics")
            values = layer_values(traced["trace"], traced["wall_s"], overhead)
        else:
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in rounds),
                "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                "peak_rss_mb": max(r["rss_mb"] for r in rounds),
                "setup_s": statistics.median(setup),
            }
        return {
            "correct": not runner.wrong,
            "attempted": runner.rounds,
            "failed": runner.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Fatal as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
