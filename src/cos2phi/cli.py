"""Batch front end: config-driven subcommands mirroring the main artifacts.

Each subcommand is one function below that tabulates the result of one
analysis call; ``cos2phi --help`` lists them with their docstrings.

Exit codes, by the base class of the error: 0 success; 1 domain,
configuration or usage error (``ValueError``); 2 numerical non-convergence
(``NonConvergenceError``).  A subcommand returns its tables, and ``_run``
writes them and lists them in the run log once it has returned: a run that
fails writes only its diagnostics.  A CSV artifact starts with a provenance
comment and a checksum of its data section; a JSON artifact carries a
``provenance`` key.  A float is written to 17 significant digits in a CSV
and in its shortest round-trip form in JSON; a non-finite one is ``inf``,
``-inf`` or ``nan`` in both, so every JSON artifact is strict JSON.  The
solution store under ``<out>/.solutions/`` is the one cache: re-running an
unchanged config rewrites the same artifacts from it without a
diagonalization, and ``--no-cache`` runs without a store.

The front end imports with numpy alone: its config, its exit-code error
types and the ``instanton`` and ``mathieu`` layers need no scipy.  The
subcommands that build or diagonalize the circuit (``spectrum``,
``wavefunctions``, ``matrix-elements``, ``disorder``, ``coherence``,
``converge``) import their layers, the solution store and with them scipy
when they run.

The three subcommands that solve independent problems of one size
(``spectrum``, ``disorder``, ``coherence``) take ``--jobs``, the worker
processes of their store's ``map``: by default the cores this process may
run on, at most two, where workers fork (Linux), else 1.  ``converge``
runs serially, as its largest rung outlasts the others together.  Every
process, worker or not, runs one BLAS thread, and the artifacts do not
depend on ``--jobs``.
"""

from __future__ import annotations

import os

from . import _ONE_BLAS_THREAD, __version__, _default_jobs

# One BLAS thread per process, whatever the caller's environment: the
# ``--jobs`` workers are a run's only parallelism (``cache.worker_pool``
# gives each of them one BLAS thread too), and artifacts do not depend on
# the thread count.  OpenBLAS reads the variable once, when numpy loads
# below.
os.environ.update(_ONE_BLAS_THREAD)

import hashlib
import json
import math
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .config import RunConfig, load_config
from .constants import PhysicalConstants
from .hamiltonians import ToyParams, effective_params
from .instanton import reduce_to_effective, solve_instanton
from .mathieu import asymptotic_dispersion, exact_dispersion
from .model import BasisTruncation, NonConvergenceError

_DOMAIN_ERRORS = (ValueError, TypeError, KeyError)
_NUMERIC_ERRORS = (NonConvergenceError,)


# ---------------------------------------------------------------------------
# artifact I/O
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    """A CSV cell, and a non-finite float anywhere: a float to 17
    significant digits, ``inf``, ``-inf`` or ``nan``; else ``str``."""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _spelt(obj):
    """``obj`` with every non-finite float in it spelt by ``_fmt``."""
    if isinstance(obj, dict):
        return {k: _spelt(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_spelt(v) for v in obj]
    return _fmt(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_csv(path: Path, header: list[str], rows, provenance: dict) -> None:
    """CSV with provenance comments and a checksum over the data section."""
    body_lines = [",".join(header)]
    for row in rows:
        body_lines.append(",".join(_fmt(v) for v in row))
    body = "\n".join(body_lines) + "\n"
    checksum = hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write(f"# provenance: {json.dumps(provenance, sort_keys=True)}\n")
        fh.write(f"# checksum: {checksum}\n")
        fh.write(body)


def write_json(path: Path, payload: dict, provenance: dict) -> None:
    """Strict JSON: the payload and its ``provenance``, numbers as ``_fmt``
    spells them where JSON has no literal."""
    doc = _spelt({"provenance": provenance, **payload})
    body = json.dumps(doc, sort_keys=True, indent=2, default=_fmt,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(body + "\n")


class _Runner:
    """Shared per-invocation state: config, execution flags, solution store,
    output dir, run log.  The store is built on first use, so a subcommand
    that solves nothing loads neither it nor scipy."""

    def __init__(self, subcommand: str, cfg: RunConfig, out: Path,
                 no_cache: bool, jobs: int):
        self.subcommand = subcommand
        self.cfg = cfg
        self.out = out
        self.no_cache = no_cache
        self.jobs = jobs
        self.provenance = {**cfg.provenance(), "subcommand": subcommand}
        self._cache = None

    @property
    def cache(self):
        """The ``SolutionCache`` of this run."""
        if self._cache is None:
            from .cache import SolutionCache

            self._cache = SolutionCache(
                None if self.no_cache else self.out / ".solutions",
                seed=self.cfg.seed, jobs=self.jobs,
            )
        return self._cache

    def finish(self, artifacts: dict) -> None:
        misses, hits = (0, 0) if self._cache is None else (
            self._cache.misses, self._cache.hits)
        log = {
            "subcommand": self.subcommand,
            "config_hash": self.cfg.config_hash,
            "diagonalizations": misses,
            "cache_hits": hits,
            "artifacts": list(artifacts),
        }
        (self.out / f"{self.subcommand}_runlog.json").write_text(
            json.dumps(log, sort_keys=True, indent=2) + "\n"
        )
        click.echo(
            f"{self.subcommand}: wrote {', '.join(artifacts)} "
            f"({misses} diagonalizations, {hits} cache hits)"
        )


def _run(subcommand, impl, config_path, out, overrides, no_cache, jobs=1):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        runner = _Runner(subcommand, load_config(config_path, overrides), out,
                         no_cache, jobs)
        artifacts = impl(runner)
        for name, table in artifacts.items():
            if name.endswith(".csv"):
                write_csv(out / name, *table, runner.provenance)
            else:
                write_json(out / name, table, runner.provenance)
    except _NUMERIC_ERRORS as exc:
        _emit_diagnostic(out, subcommand, "non-convergence", exc)
        sys.exit(2)
    except _DOMAIN_ERRORS as exc:
        _emit_diagnostic(out, subcommand, "domain", exc)
        sys.exit(1)
    runner.finish(artifacts)


def _emit_diagnostic(out_dir, subcommand, kind, exc) -> None:
    diag = {
        "subcommand": subcommand,
        "error_kind": kind,
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(limit=6),
    }
    sys.stderr.write(json.dumps(diag, sort_keys=True) + "\n")
    if out_dir is not None:
        (Path(out_dir) / f"{subcommand}_diagnostics.json").write_text(
            json.dumps(diag, sort_keys=True, indent=2) + "\n"
        )


class _Group(click.Group):
    """Click's command group, except that a usage error (no or an unknown
    subcommand, an unknown option, a bad option value) exits 1 like any
    other bad input: click's own code for it, 2, is the one this CLI keeps
    for numerical non-convergence.  Click's usage text goes to stderr as
    usual, followed by a ``domain`` diagnostic line."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_exit_1():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_exit_1():
            return super().invoke(ctx)


@contextmanager
def _usage_errors_exit_1():
    try:
        yield
    except click.UsageError as exc:
        exc.show()
        sub = exc.ctx.info_name if exc.ctx is not None and exc.ctx.parent else None
        _emit_diagnostic(None, sub, "domain", exc)
        sys.exit(1)


@click.group(cls=_Group)
@click.version_option(__version__)
def main() -> None:
    """Simulator for the capacitively shunted pair-tunneling qubit."""


_COMMON_OPTIONS = (
    click.Option(["--config", "config_path"], type=click.Path(exists=True),
                 help="YAML run configuration"),
    click.Option(["--out"], default="runs", show_default=True,
                 help="output directory"),
    click.Option(["--set", "overrides"], multiple=True,
                 help="dotted-path config override, e.g. circuit.delta_L=0.6"),
    click.Option(["--no-cache"], is_flag=True,
                 help="no solution store: read and write nothing under .solutions/"),
)

#: the option of the subcommands that spread independent solves over workers
_JOBS = click.Option(
    ["--jobs"], type=click.IntRange(min=1), default=_default_jobs,
    show_default="the usable cores, at most 2, on Linux; else 1",
    help="worker processes for the run's independent solves",
)


def _subcommand(name: str, *extra_options: click.Option):
    """Register ``fn(runner) -> artifacts`` as the subcommand ``name``.

    ``artifacts`` maps each file name, in the run log's order, to its
    table: ``(header, rows)`` for a ``.csv`` name, the payload for a
    ``.json`` one.

    The command takes the common options and ``extra_options``, runs ``fn``
    through ``_run`` and shows ``fn``'s docstring as its help.
    """

    def register(fn):
        main.add_command(click.Command(
            name,
            callback=lambda **opts: _run(name, fn, **opts),
            params=[*_COMMON_OPTIONS, *extra_options],
            help=fn.__doc__,
        ))
        return fn

    return register


@_subcommand("spectrum", _JOBS)
def spectrum(r: _Runner) -> dict:
    """Transition energies versus external flux."""
    from .analysis import flux_sweep

    cfg = r.cfg
    sw = cfg.section("sweep")
    grid = np.linspace(sw["flux_start"], sw["flux_stop"], sw["flux_points"])
    k = sw["k"]
    sols = flux_sweep(cfg.circuit, grid, cfg.bias.N_g, k, cfg.truncation,
                      r.cache)
    rows = [
        [ls.bias.phi_ext, *ls.energies, *(ls.energies - ls.energies[0]),
         *(f"{l.m}{l.fluxon}" for l in ls.labels)]
        for ls in sols
    ]
    header = ["phi_ext"] + [f"{col}{i}" for col in ("E", "T", "label")
                            for i in range(k)]
    return {"spectrum.csv": (header, rows)}


@_subcommand("wavefunctions")
def wavefunctions(r: _Runner) -> dict:
    """Charge and phase wavefunctions of the four lowest states."""
    from .analysis import wavefunction_charge

    cfg = r.cfg
    ls = r.cache.get_or_solve(cfg.circuit, cfg.bias, cfg.truncation, 4)
    rows = []
    for idx in range(4):
        Nvals, amps = wavefunction_charge(ls, idx)
        rows += [[idx, int(Nv), a.real, a.imag, abs(a) ** 2]
                 for Nv, a in zip(Nvals, amps)]
    return {
        "wavefunction_charge.csv": (["state", "N", "re", "im", "weight"], rows),
        **{f"wavefunction_phase_state{idx}.csv":
           (["vphi", "phi", "re", "im"], _phase_rows(ls, idx))
           for idx in range(4)},
    }


def _phase_rows(ls, idx):
    """Rows of state ``idx``'s phase wavefunction, made as they are written:
    one phase table is held at a time."""
    from .analysis import wavefunction_phase

    vg, pg, field = wavefunction_phase(ls, idx)
    for i, v in enumerate(vg):
        for j, p in enumerate(pg):
            yield [v, p, field[i, j].real, field[i, j].imag]


@_subcommand("matrix-elements")
def matrix_elements(r: _Runner) -> dict:
    """Normalized transition weights from the ground state."""
    from .analysis import normalized_matrix_elements

    cfg = r.cfg
    k = cfg.section("sweep")["k"]
    ls = r.cache.get_or_solve(cfg.circuit, cfg.bias, cfg.truncation, k)
    eta2 = normalized_matrix_elements(ls, "eta")
    phi2 = normalized_matrix_elements(ls, "phi")
    rows = [
        [lab.index, lab.m, lab.fluxon, lab.parity, ls.energies[lab.index],
         eta2[lab.index], phi2[lab.index]]
        for lab in ls.labels
    ]
    return {"matrix_elements.csv": (
        ["state", "m", "fluxon", "parity", "energy", "eta2", "phi2"], rows)}


@_subcommand("disorder", _JOBS)
def disorder(r: _Runner) -> dict:
    """Charge dispersion and splitting versus one asymmetry parameter.

    Each point is solved on analysis.dispersion_truncation of its circuit,
    by its largest asymmetry, with the config's truncation as the floor, as
    in coherence.
    """
    from .analysis import disorder_sweep

    cfg = r.cfg
    sw = cfg.section("sweep")
    kind = sw["kind"]
    res = disorder_sweep(
        cfg.circuit, kind, sw["deltas"],
        phi_ext=cfg.bias.phi_ext, floor=cfg.truncation, solver=r.cache,
    )
    rows = zip(res.deltas, res.eps, res.defect, res.dE, np.abs(res.dE),
               res.unresolved)
    return {
        "disorder.csv": (
            ["delta", "eps", "defect", "dE", "abs_dE", "unresolved"], rows),
        "disorder.json": {
            "kind": kind,
            "eps_monotone_decreasing": res.eps_monotone_decreasing,
            "dE_monotone_increasing": res.dE_monotone_increasing,
        },
    }


@_subcommand("coherence", _JOBS)
def coherence(r: _Runner) -> dict:
    """Relaxation and dephasing budget at the configured operating point."""
    from .coherence import full_report

    cfg = r.cfg
    ch_cfg = cfg.section("channels")
    # every channels key but ``enabled`` is a PhysicalConstants field
    constants = PhysicalConstants(
        temperature=cfg.temperature,
        **{k: v for k, v in ch_cfg.items() if k != "enabled"},
    )
    report = full_report(
        cfg.circuit, cfg.bias, cfg.truncation,
        constants=constants, channels=ch_cfg["enabled"], solver=r.cache,
    )
    rows = [["T1", k, v] for k, v in sorted(report.t1.items())]
    rows += [["Tphi", k, v] for k, v in sorted(report.tphi.items())]
    rows += [
        ["T1", "total", report.t1_total],
        ["Tphi", "total", report.tphi_total],
        ["T2", "total", report.t2],
    ]
    return {
        "coherence.csv": (["type", "channel", "time_ms"], rows),
        "coherence.json": report.as_dict(),
    }


@_subcommand("instanton")
def instanton(r: _Runner) -> dict:
    """Minimum-action tunneling path and its Fourier reduction."""
    cfg = r.cfg
    ic = cfg.section("instanton")
    path = solve_instanton(
        cfg.circuit, cfg.bias,
        n_beads=ic["n_beads"], max_outer=ic["max_outer"],
    )
    eff_num = reduce_to_effective(cfg.circuit, cfg.bias, path)
    eff_approx = reduce_to_effective(cfg.circuit, cfg.bias, "approx")
    eff_printed = effective_params(cfg.circuit, cfg.bias, "extended")
    return {
        "instanton_path.csv": (
            ["tau", "vphi", "phi", "theta"],
            [list(map(float, row)) for row in path.samples],
        ),
        "instanton.json": {
            "action": path.action,
            "endpoint_offset": path.endpoint_offset,
            "residual": path.residual,
            "endpoints": [list(map(float, e)) for e in path.endpoints],
            "fourier_numeric_path": list(eff_num.coefficients()),
            "fourier_approx_path": list(eff_approx.coefficients()),
            "fourier_printed_extended": list(eff_printed.coefficients()),
        },
    }


@_subcommand("mathieu")
def mathieu(r: _Runner) -> dict:
    """Toy-model dispersion: exact bands versus the closed form."""
    mc = r.cfg.section("mathieu")
    E_C = mc["E_C"]
    rows = []
    for ratio in mc["ratios"]:
        tp = ToyParams(E_J=ratio * E_C, E_C=E_C, N0_toy=mc["N0_toy"])
        ex = exact_dispersion(tp, 0)
        lead, nxt = asymptotic_dispersion(tp, 0)
        rows.append([ratio, ex, lead, abs(ex - lead) / abs(lead),
                     nxt, abs(ex - nxt) / abs(nxt)])
    return {"mathieu.csv": (
        ["EJ_over_EC", "eps0_exact", "eps0_asymptotic", "rel_err",
         "eps0_next_order", "rel_err_next_order"], rows)}


@_subcommand("converge")
def converge(r: _Runner) -> dict:
    """Truncation-ladder convergence of the lowest energies."""
    from .analysis import convergence_ladder

    cfg = r.cfg
    cc = cfg.section("converge")
    k = cc["k"]
    rep = convergence_ladder(
        cfg.circuit, cfg.bias,
        [BasisTruncation(*lv) for lv in cc["levels"]],
        k=k, tolerance=cc["tolerance"], solver=r.cache,
    )
    rows = [
        [str(lv.as_tuple()).replace(",", ";"), *E]
        for lv, E in zip(rep.levels, rep.energies)
    ]
    return {
        "converge.csv": (["level"] + [f"E{i}" for i in range(k)], rows),
        "converge.json": {
            "deltas": [list(map(float, d)) for d in rep.deltas],
            "converged": rep.converged,
            "tolerance": rep.tolerance,
        },
    }


if __name__ == "__main__":
    main()
