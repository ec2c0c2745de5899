import dataclasses
import gc
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cos2phi
import cos2phi.cache as cache_module
from cos2phi.cache import SolutionCache, _problem_key, worker_pool
import cos2phi.cli as cli_module
from cos2phi.cli import _fmt, main
from cos2phi.config import ConfigError, load_config, parse_override
from cos2phi.hamiltonians import ToyParams
from cos2phi.mathieu import exact_dispersion
from cos2phi.instanton import MinimizationError
from cos2phi.model import BasisTruncation, BiasPoint, NonConvergenceError


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.circuit.eps_J == 15.0
        assert cfg.truncation.as_tuple() == (7, 7, 30)
        assert cfg.bias.phi_ext == pytest.approx(np.pi)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("circuit:\n  eps_X: 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(p)

    def test_override_parsing(self):
        tree = parse_override("circuit.delta_L=0.6")
        assert tree == {"circuit": {"delta_L": 0.6}}
        with pytest.raises(ConfigError):
            parse_override("no_equals_sign")

    def test_overrides_apply(self, tmp_path):
        cfg = load_config(None, overrides=["circuit.delta_L=0.3",
                                           "truncation.N0=5"])
        assert cfg.circuit.delta_L == 0.3
        assert cfg.truncation.N0 == 5

    def test_hash_stability_and_sensitivity(self):
        a = load_config(None)
        b = load_config(None)
        c = load_config(None, overrides=["seed=8"])
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    @pytest.mark.parametrize("key", ["jobs=2", "cache=false",
                                     "output_dir=elsewhere"])
    def test_execution_settings_not_config(self, key):
        # the worker count, the solution store and the output directory are
        # the flags --jobs, --no-cache and --out, and nothing else
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(None, overrides=[key])

    @pytest.mark.parametrize("spelt, plain", [
        ("circuit.eps_J=15", "circuit.eps_J=15.0"),
        ("bias.N_g=0", "bias.N_g=0.0"),
        ("truncation.N0=7.0", "truncation.N0=7"),
        # YAML 1.1 reads 2.0e6 (no exponent sign) as a string
        ("channels.q_cap=2.0e6", "channels.q_cap=2000000.0"),
    ])
    def test_equal_values_hash_alike(self, spelt, plain):
        a = load_config(None, overrides=[spelt])
        b = load_config(None, overrides=[plain])
        assert a.raw == b.raw
        assert a.config_hash == b.config_hash

    @pytest.mark.parametrize("override", [
        "truncation.N0=7.9",
        "sweep.k=true",
        "circuit.x=[1]",
        "sweep.kind=3",
        "temperature=.inf",
    ])
    def test_wrong_type_rejected_at_load(self, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            load_config(None, overrides=[override])

    @pytest.mark.parametrize("spelt, plain", [
        ("converge.levels=[[7.0, 7, 30], [9, 9, 40]]",
         "converge.levels=[[7, 7, 30], [9, 9, 40]]"),
        ("mathieu.ratios=[30, 40]", "mathieu.ratios=[30.0, 40.0]"),
        ("sweep.deltas=[0, 0.3]", "sweep.deltas=[0.0, 0.3]"),
    ])
    def test_list_elements_typed_at_load(self, spelt, plain):
        a = load_config(None, overrides=[spelt])
        b = load_config(None, overrides=[plain])
        assert a.raw == b.raw
        assert a.config_hash == b.config_hash
        levels = a.raw["converge"]["levels"]
        assert all(type(n) is int for row in levels for n in row)
        assert all(type(r) is float for r in a.raw["mathieu"]["ratios"])
        assert all(type(d) is float for d in a.raw["sweep"]["deltas"])

    @pytest.mark.parametrize("override, key", [
        ("converge.levels=[[7.9, 7, 30], [9, 9, 40]]", "converge.levels[0][0]"),
        ("converge.levels=[[7, 7], [9, 9, 40]]", "converge.levels"),
        ("converge.levels=[7, 9]", "converge.levels[0]"),
        ("mathieu.ratios=[true, 40]", "mathieu.ratios[0]"),
        ("channels.enabled=[1]", "channels.enabled[0]"),
    ])
    def test_wrong_list_element_rejected_at_load(self, override, key):
        with pytest.raises(ConfigError, match=re.escape(f"config key '{key}'")):
            load_config(None, overrides=[override])

    def test_retired_dense_threshold_accepted_and_ignored(self, tmp_path):
        # configs written for the old solver still carry the backend knob
        p = tmp_path / "old.yaml"
        p.write_text("dense_threshold: 16\n")
        cfg = load_config(p)
        assert "dense_threshold" not in cfg.raw
        assert cfg.config_hash == load_config(None).config_hash

    def test_retired_ng_points_accepted_and_ignored(self, tmp_path):
        # the charge dispersion solves fixed offset charges; configs written
        # for the old grid, the benchmark's among them, still set its size
        root = Path(__file__).resolve().parent.parent
        old, new = tmp_path / "old.yaml", tmp_path / "new.yaml"
        old.write_text("seed: 3\nsweep: {ng_points: 9, k: 4}\n")
        new.write_text("seed: 3\nsweep: {k: 4}\n")
        cfg = load_config(old)
        assert "ng_points" not in cfg.raw["sweep"]
        assert cfg.config_hash == load_config(new).config_hash
        bench = load_config(root / "perfbench" / "configs" / "coherence_operated.yaml")
        assert "ng_points" not in bench.raw["sweep"]

    def test_hashes_pinned(self):
        # the channel and temperature defaults are read from
        # PhysicalConstants; a drift in any of them moves these hashes, and
        # with them the provenance of every artifact
        root = Path(__file__).resolve().parent.parent
        assert load_config(None).config_hash == "5d5887c5e362bfd1"
        assert (load_config(root / "configs" / "protected_point.yaml").config_hash
                == "d04f33bf28c4ec29")

    @pytest.mark.parametrize("text, overrides, message", [
        ("circuit:\n  eps_X: 3\n", (), "unknown config key 'circuit.eps_X'"),
        (None, ("circuit.eps_X=3",), "unknown config key 'circuit.eps_X'"),
        ("circuit: 5\n", (), "'circuit' must be a mapping"),
        (None, ("sweep=3",), "'sweep' must be a mapping"),
        # a later source's section does not hide the scalar an earlier set
        ("circuit: 5\n", ("circuit.eps_J=3",), "'circuit' must be a mapping"),
        ("dense_threshold: 16\n", (), None),
        (None, ("dense_threshold=16",), None),
    ], ids=["unknown-file", "unknown-set", "scalar-file", "scalar-set",
            "scalar-file-section-set", "retired-file", "retired-set"])
    def test_config_fault_table(self, tmp_path, text, overrides, message):
        path = None
        if text is not None:
            path = tmp_path / "c.yaml"
            path.write_text(text)
        args = ["mathieu", "--out", str(tmp_path / "out"),
                *(["--config", str(path)] if path else []),
                *(a for o in overrides for a in ("--set", o))]
        r = CliRunner().invoke(main, args)
        if message is None:
            assert (load_config(path, overrides).config_hash
                    == load_config(None).config_hash)
            assert r.exit_code == 0, r.output
            return
        with pytest.raises(ConfigError) as exc:
            load_config(path, overrides)
        assert str(exc.value) == message
        assert r.exit_code == 1, r.output
        diag = json.loads((tmp_path / "out" / "mathieu_diagnostics.json")
                          .read_text())
        assert diag["error_kind"] == "domain"
        assert diag["error_type"] == "ConfigError"
        assert diag["message"] == message

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v.yaml"
        p.write_text("config_version: 99\n")
        with pytest.raises(ConfigError, match="config_version"):
            load_config(p)


class TestSolutionCache:
    def test_round_trip_and_hit_counting(self, tmp_path, canonical, half_flux):
        cache = SolutionCache(tmp_path / "store")
        tr = BasisTruncation(3, 3, 8)
        a = cache.get_or_solve(canonical, half_flux, tr, k=3)
        assert cache.misses == 1 and cache.hits == 0
        b = cache.get_or_solve(canonical, half_flux, tr, k=3)
        assert cache.misses == 1 and cache.hits == 1
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.solution.vectors, b.solution.vectors)
        assert [l.fluxon for l in a.labels] == [l.fluxon for l in b.labels]

    def test_half_flux_store_is_real(self, tmp_path, canonical):
        # in the gauged frame a disordered circuit at half flux and N_g != 0
        # has a real Hamiltonian, so the store keeps float64 vectors
        params = canonical.replace(delta_L=0.6)
        bias = BiasPoint(np.pi, 0.3)
        tr = BasisTruncation(3, 3, 8)
        cache = SolutionCache(tmp_path / "store")
        a = cache.get_or_solve(params, bias, tr, k=3)
        b = cache.get_or_solve(params, bias, tr, k=3)
        assert cache.misses == 1 and cache.hits == 1
        (stored,) = (tmp_path / "store").glob("*.npz")
        with np.load(stored) as data:
            assert data["vectors"].dtype == np.float64
        assert a.solution.vectors.dtype == b.solution.vectors.dtype == np.float64
        assert np.array_equal(a.energies, b.energies)
        assert a.labels == b.labels
        # stored vectors are in the gauged frame and solved on the band
        # Cholesky factor in the symmetry blocks, shifted SHIFT_GAP below the
        # Lanczos floor: the key carries version 8
        payload = json.dumps({"p": dataclasses.astuple(params),
                              "b": [bias.phi_ext, bias.N_g], "t": tr.as_tuple(),
                              "k": 3, "seed": cache.seed, "v": 8}, sort_keys=True)
        assert stored.stem == hashlib.sha256(payload.encode()).hexdigest()

    def test_distinct_problems_distinct_entries(self, tmp_path, canonical, half_flux):
        cache = SolutionCache(tmp_path / "store")
        tr = BasisTruncation(3, 3, 8)
        cache.get_or_solve(canonical, half_flux, tr, k=2)
        cache.get_or_solve(canonical, BiasPoint(np.pi, 0.1), tr, k=2)
        assert cache.misses == 2

    def test_key_sees_every_circuit_field(self, half_flux):
        # a field left out of the key would serve one circuit's solution for
        # another; delta_A excludes delta_J and delta_C, so it moves on a
        # base of its own
        tr = BasisTruncation(3, 3, 8)
        default = cos2phi.CircuitParams(15.0, 2.0, 1.0, 0.02, delta_J=0.1,
                                        delta_C=0.1, delta_L=0.1)
        bases = {"delta_A": cos2phi.CircuitParams(15.0, 2.0, 1.0, 0.02,
                                                  delta_A=0.1)}
        for f in dataclasses.fields(default):
            base = bases.get(f.name, default)
            moved = base.replace(**{f.name: getattr(base, f.name) + 0.05})
            assert (_problem_key(moved, half_flux, tr, 2, 0)
                    != _problem_key(base, half_flux, tr, 2, 0)), f.name

    def test_pooled_map_matches_serial(self, canonical):
        # (4, 4, 10) has dim 495, and the parity blocks of the half-flux
        # point dim 253 and 242, so every point is a Krylov solve
        tr = BasisTruncation(4, 4, 10)
        problems = [(canonical, BiasPoint(phi, 0.0), tr, 3)
                    for phi in (2.9, np.pi, 3.4)]
        serial = SolutionCache(None).map(problems)
        store = SolutionCache(None, jobs=2)
        pooled = store.map(problems)
        assert store.misses == 3 and store.hits == 0
        for a, b in zip(serial, pooled):
            assert a.solution.meta["backend"] == "krylov"
            assert np.abs(a.energies - b.energies).max() < 1e-12

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_map_returns_list_in_order(self, canonical, jobs):
        tr = BasisTruncation(3, 3, 8)
        problems = [(canonical, BiasPoint(phi, 0.0), tr, 2)
                    for phi in (2.9, np.pi, 3.4)]
        sols = SolutionCache(None, jobs=jobs).map(problems)
        assert type(sols) is list
        assert [ls.bias for ls in sols] == [p[1] for p in problems]

    def test_worker_runs_one_blas_thread(self, monkeypatch):
        # a library caller with no thread setting (importing ``cos2phi.cli``
        # at collection has set both variables in this process)
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(k, raising=False)
        with worker_pool(2) as ex:
            env, threads = ex.submit(_blas_threads).result()
        assert env == "1"
        assert threads and all(n == 1 for n in threads)
        # the pool's environment does not leak into this process
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert "OMP_NUM_THREADS" not in os.environ

    def test_pooled_map_bit_identical_to_serial(self, tmp_path):
        # in a process of the CLI's kind (one BLAS thread) a worker runs the
        # same arithmetic as the caller: off half flux (complex), and the
        # parity blocks at half flux
        code = (
            "import json\n"
            "import cos2phi.cli\n"
            "import numpy as np\n"
            "from cos2phi.cache import SolutionCache\n"
            "from cos2phi.model import BasisTruncation, BiasPoint, CircuitParams\n"
            "p = CircuitParams(15.0, 2.0, 1.0, 0.02)\n"
            "problems = [(p, BiasPoint(phi, 0.0), BasisTruncation(4, 4, 10), 3)\n"
            "            for phi in (2.9, np.pi, 3.4)]\n"
            "serial = list(SolutionCache(None).map(problems))\n"
            "pooled = list(SolutionCache(None, jobs=2).map(problems))\n"
            "print(json.dumps([[a.solution.meta['backend'],\n"
            "    np.array_equal(a.energies, b.energies),\n"
            "    np.array_equal(a.solution.vectors, b.solution.vectors),\n"
            "    np.array_equal(a.solution.residuals, b.solution.residuals),\n"
            "    a.solution.meta == b.solution.meta, a.labels == b.labels]\n"
            "    for a, b in zip(serial, pooled)]))\n")
        assert _fresh_python(code, tmp_path, _child_env()) == [
            ["krylov", True, True, True, True, True]] * 3

    def test_map_starts_one_worker_per_problem_at_most(self, canonical,
                                                        monkeypatch):
        # a fork pool starts all its workers up front, so a pool sized by
        # ``jobs`` alone would fork idle copies of the caller
        sizes = []
        pool = cache_module.worker_pool

        def recording_pool(jobs):
            sizes.append(jobs)
            return pool(jobs)

        monkeypatch.setattr(cache_module, "worker_pool", recording_pool)
        tr = BasisTruncation(3, 3, 8)
        problems = [(canonical, BiasPoint(phi, 0.0), tr, 2) for phi in (2.9, 3.4)]
        store = SolutionCache(None, jobs=4)
        assert len(list(store.map(problems))) == 2
        assert sizes == [2]
        # one problem is solved in this process
        assert len(list(store.map(problems[:1]))) == 1
        assert sizes == [2]
        assert store.misses == 3

    def test_worker_non_convergence_reaches_caller(self, canonical,
                                                   monkeypatch):
        # a forked worker keeps this monkeypatch: the solve of one problem
        # fails there, and the caller gets the error of a serial run
        monkeypatch.setattr(cache_module, "lowest_eigenpairs",
                            _fail_at_trunc((4, 4, 12)))
        problems = [(canonical, BiasPoint(np.pi, 0.0), BasisTruncation(*t), 2)
                    for t in ((3, 3, 8), (4, 4, 12))]
        with pytest.raises(NonConvergenceError) as serial:
            list(SolutionCache(None).map(problems))
        with pytest.raises(NonConvergenceError) as pooled:
            list(SolutionCache(None, jobs=2).map(problems))
        assert str(serial.value) == f"forced in process {os.getpid()}"
        assert str(pooled.value).startswith("forced in process ")
        assert str(pooled.value) != str(serial.value)  # raised in a worker
        assert pooled.value.residuals == serial.value.residuals == [0.5, 0.25]

    @pytest.mark.skipif(cos2phi._POOL_START != "fork",
                        reason="workers start by fork on Linux only")
    def test_fork_workers_pin_a_loaded_blas(self, tmp_path):
        # numpy and scipy load with two BLAS threads before the pool forks:
        # every worker still runs one per OpenBLAS, and the parent keeps two
        code = (
            "import json, os, sys\n"
            "import multiprocessing, numpy, scipy.linalg\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_config_cli import _blas_threads\n"
            "from cos2phi.cache import worker_pool\n"
            "# forked workers inherit the barrier: each holds one task\n"
            "barrier = multiprocessing.get_context('fork').Barrier(2)\n"
            "def probe():\n"
            "    barrier.wait(timeout=60)\n"
            "    return os.getpid(), _blas_threads()[1]\n"
            "with worker_pool(2) as ex:\n"
            "    workers = [f.result(timeout=120) for f in [ex.submit(probe) for _ in '12']]\n"
            "print(json.dumps([workers, _blas_threads()[1]]))\n")
        workers, parent = _fresh_python(
            code, tmp_path, _child_env({"OPENBLAS_NUM_THREADS": "2"}))
        assert len({pid for pid, _ in workers}) == 2
        assert len(parent) == 2 and all(n == 2 for n in parent)
        for _, threads in workers:
            assert len(threads) == 2 and all(n == 1 for n in threads)

    @pytest.mark.parametrize("entry", ["truncated", "garbage", "missing_array"])
    def test_unreadable_entry_is_resolved(self, tmp_path, canonical, half_flux,
                                          entry):
        # an entry left by an interrupted or foreign write is a miss: it is
        # solved again, overwritten, and then served
        tr = BasisTruncation(3, 3, 8)
        root = tmp_path / "store"
        SolutionCache(root).get_or_solve(canonical, half_flux, tr, k=2)
        (path,) = root.glob("*.npz")
        if entry == "truncated":
            path.write_bytes(path.read_bytes()[:100])
        elif entry == "garbage":
            path.write_bytes(b"not a solution")
        else:
            np.savez(path, energies=np.zeros(2))
        cache = SolutionCache(root)
        a = cache.get_or_solve(canonical, half_flux, tr, k=2)
        assert cache.misses == 1 and cache.hits == 0
        b = cache.get_or_solve(canonical, half_flux, tr, k=2)
        assert cache.misses == 1 and cache.hits == 1
        assert np.array_equal(a.energies, b.energies)

    def test_unreadable_entry_closes_its_file(self, tmp_path, canonical,
                                              half_flux, monkeypatch):
        # a truncated entry is a miss, and the handle opened to read it is
        # closed, not left to the garbage collector's ResourceWarning
        tr = BasisTruncation(3, 3, 8)
        root = tmp_path / "store"
        SolutionCache(root).get_or_solve(canonical, half_flux, tr, k=2)
        (path,) = root.glob("*.npz")
        path.write_bytes(path.read_bytes()[:100])
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert SolutionCache(root).load(path.stem) is None
            gc.collect()
        assert [u.exc_value for u in unraisable] == []

    def test_interrupted_store_leaves_nothing(self, tmp_path, canonical,
                                              half_flux, monkeypatch):
        def fail_midway(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez_compressed", fail_midway)
        root = tmp_path / "store"
        with pytest.raises(OSError, match="No space"):
            SolutionCache(root).get_or_solve(canonical, half_flux,
                                             BasisTruncation(3, 3, 8), k=2)
        assert list(root.iterdir()) == []

    def test_disabled_cache(self, tmp_path, canonical, half_flux):
        cache = SolutionCache(None)
        tr = BasisTruncation(3, 3, 8)
        cache.get_or_solve(canonical, half_flux, tr, k=2)
        cache.get_or_solve(canonical, half_flux, tr, k=2)
        assert cache.misses == 2 and cache.hits == 0


def _fail_at_trunc(trunc):
    """``lowest_eigenpairs``, except that a solve on the basis ``trunc``
    raises ``NonConvergenceError`` naming the process it ran in."""
    solve = cache_module.lowest_eigenpairs

    def lowest_eigenpairs(H, k, **kw):
        if kw["meta"]["trunc"] == trunc:
            raise NonConvergenceError(f"forced in process {os.getpid()}",
                                      residuals=[0.5, 0.25])
        return solve(H, k, **kw)

    return lowest_eigenpairs


def _blas_threads():
    """This process's OPENBLAS_NUM_THREADS and the thread count of each
    OpenBLAS that numpy and scipy bundle (the wheels' ``*.libs`` folders)."""
    import ctypes

    import scipy

    threads = []
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads"):
                if hasattr(handle, sym):
                    get = getattr(handle, sym)
                    get.argtypes, get.restype = [], ctypes.c_int
                    threads.append(get())
                    break
    return os.environ.get("OPENBLAS_NUM_THREADS"), threads


# Directory that holds the imported ``cos2phi`` package.  The CLI runs in a
# subprocess with ``cwd=tmp_path``, where a relative ``PYTHONPATH`` no longer
# resolves, so the child gets this root as an absolute path: it then runs the
# same package copy as the test process, installed or not.
_PACKAGE_ROOT = str(Path(cos2phi.__file__).resolve().parent.parent)


def _child_env(extra_env=None):
    """This process's environment without the BLAS thread variables (which
    importing ``cos2phi.cli`` sets here), plus ``extra_env``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(extra_env or {})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


#: the shipped run configurations
_CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: every error type the package defines, with the exit code the CLI
#: documents for it
_EXIT_CODES = {
    "cache.LabelingError": 1,
    "config.ConfigError": 1,
    "hamiltonians.UnsupportedBiasError": 1,
    "model.DimensionCapError": 1,
    "instanton.MinimizationError": 2,
    "mathieu.TruncationError": 2,
    "model.NonConvergenceError": 2,
}


def test_every_error_type_has_an_exit_code():
    defined = set()
    for info in pkgutil.iter_modules(cos2phi.__path__):
        module = importlib.import_module(f"cos2phi.{info.name}")
        defined |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__}
    assert defined == set(_EXIT_CODES)


def _cli(*args, cwd, extra_env=None):
    return subprocess.run(
        [sys.executable, "-W", "ignore", "-m", "cos2phi.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=_child_env(extra_env),
    )


def _fresh_python(code, cwd, env, *argv):
    """The last line ``code`` prints, run by a fresh interpreter with the
    arguments ``argv``, as JSON."""
    r = subprocess.run([sys.executable, "-W", "ignore", "-c", code, *argv],
                       capture_output=True, text=True, cwd=cwd, env=env)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


#: prints the scipy modules loaded so far, as a JSON list
_PRINT_SCIPY = ("print(json.dumps(sorted(m for m in sys.modules\n"
                "                        if m.split('.')[0] == 'scipy')))\n")


def _csv_parts(path):
    """(checksum line, data rows as dicts) of a CLI CSV artifact."""
    lines = path.read_text().splitlines()
    checksum = next(l for l in lines if l.startswith("# checksum:"))
    data = [l for l in lines if not l.startswith("#")]
    header = data[0].split(",")
    return checksum, [dict(zip(header, l.split(","))) for l in data[1:]]


def _strict_json(text):
    """``text`` parsed as JSON proper: a bare NaN or Infinity is refused."""
    def refuse(literal):
        raise ValueError(f"not JSON: {literal}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture()
def fast_config(tmp_path):
    p = tmp_path / "fast.yaml"
    p.write_text(
        "truncation: {N0: 4, p0: 4, q0: 12}\n"
        "sweep: {flux_points: 3, flux_start: 2.9, flux_stop: 3.4, k: 4,\n"
        "        deltas: [0.0, 0.3], kind: L}\n"
        "mathieu: {ratios: [50], N0_toy: 40}\n"
        "converge: {levels: [[3, 3, 8], [4, 4, 12]], k: 2}\n"
        "instanton: {n_beads: 65, max_outer: 10}\n"
    )
    return p


class TestCli:
    def test_spectrum_and_idempotence(self, tmp_path, fast_config):
        out = tmp_path / "o1"
        r1 = _cli("spectrum", "--config", str(fast_config), "--out", str(out),
                  cwd=tmp_path)
        assert r1.returncode == 0, r1.stderr
        csv = (out / "spectrum.csv").read_text()
        assert csv.startswith("# provenance:")
        assert "# checksum:" in csv
        rows = [l for l in csv.splitlines() if not l.startswith("#")]
        assert rows[0].startswith("phi_ext,E0")
        assert len(rows) == 4  # header + 3 grid points
        grid = [float(r.split(",")[0]) for r in rows[1:]]
        assert grid == sorted(grid)
        log1 = json.loads((out / "spectrum_runlog.json").read_text())
        assert log1["diagonalizations"] == 3
        # unchanged config: every point served by the solution store, and
        # the artifact rewritten byte for byte
        r2 = _cli("spectrum", "--config", str(fast_config), "--out", str(out),
                  cwd=tmp_path)
        assert r2.returncode == 0, r2.stderr
        log2 = json.loads((out / "spectrum_runlog.json").read_text())
        assert log2["diagonalizations"] == 0
        assert log2["cache_hits"] == 3
        assert (out / "spectrum.csv").read_text() == csv

    def test_rerun_without_store_solves_again(self, tmp_path, fast_config):
        # no cache but the solution store: with the store gone, an unchanged
        # rerun into the same output directory diagonalizes every point
        out = tmp_path / "stale"
        args = ("spectrum", "--config", str(fast_config), "--out", str(out))
        assert _cli(*args, cwd=tmp_path).returncode == 0
        shutil.rmtree(out / ".solutions")
        r = _cli(*args, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        log = json.loads((out / "spectrum_runlog.json").read_text())
        assert log["diagonalizations"] == 3 and log["cache_hits"] == 0

    def test_no_cache_keeps_no_store(self, tmp_path, fast_config):
        out = tmp_path / "nostore"
        for _ in range(2):
            r = _cli("spectrum", "--config", str(fast_config), "--out",
                     str(out), "--no-cache", cwd=tmp_path)
            assert r.returncode == 0, r.stderr
            log = json.loads((out / "spectrum_runlog.json").read_text())
            assert log["diagonalizations"] == 3 and log["cache_hits"] == 0
        assert not (out / ".solutions").exists()

    def test_byte_identical_outputs(self, tmp_path, fast_config):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = _cli("spectrum", "--config", str(fast_config), "--out",
                     str(out), cwd=tmp_path)
            assert r.returncode == 0, r.stderr
            outs.append((out / "spectrum.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_set_override_changes_physics(self, tmp_path, fast_config):
        base, over = tmp_path / "o2_base", tmp_path / "o2"
        r = _cli("matrix-elements", "--config", str(fast_config), "--out",
                 str(base), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = _cli("matrix-elements", "--config", str(fast_config), "--out",
                 str(over), "--set", "circuit.delta_L=0.3", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        sum_base, rows_base = _csv_parts(base / "matrix_elements.csv")
        sum_over, rows_over = _csv_parts(over / "matrix_elements.csv")
        assert sum_base != sum_over
        e0_base = float(next(row["energy"] for row in rows_base
                             if row["state"] == "0"))
        e0_over = float(next(row["energy"] for row in rows_over
                             if row["state"] == "0"))
        assert e0_base != e0_over
        body = (over / "matrix_elements.csv").read_text()
        assert len(body.splitlines()) >= 6

    def test_coherence_artifacts(self, tmp_path, fast_config):
        out = tmp_path / "o3"
        r = _cli("coherence", "--config", str(fast_config), "--out", str(out),
                 cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads((out / "coherence.json").read_text())
        assert doc["t1_ms"]["purcell"] == "inf"
        assert float(doc["t1_ms"]["inductive"]) > 0.1
        csv = (out / "coherence.csv").read_text()
        assert "T2,total" in csv
        # the report's own solve plus one per offset charge 0, 1/4, 1/2, 1:
        # both dephasing derivatives come from the report's solve
        log = json.loads((out / "coherence_runlog.json").read_text())
        assert log["diagonalizations"] == 1 + 4 and log["cache_hits"] == 0
        assert doc["charge_dispersion_ghz"] > 0

    @pytest.mark.parametrize("override", [
        "channels.enabled=[capactive,inductive]",
        "channels.q_ind=0",
        "channels.q_cap=0",
        "channels.x_qp=-1.0",
    ])
    def test_coherence_environment_rejected(self, tmp_path, fast_config,
                                            override):
        # a misspelt channel or an out-of-range environment value is a
        # domain error, not a silently wrong budget
        out = tmp_path / "bad_env"
        r = _cli("coherence", "--config", str(fast_config), "--out", str(out),
                 "--set", override, cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        diag = json.loads(r.stderr.strip().splitlines()[-1])
        assert diag["error_kind"] == "domain"
        assert (out / "coherence_diagnostics.json").exists()
        assert not (out / "coherence.csv").exists()

    @pytest.mark.parametrize("override, reason", [
        ("channels.enabled=null", "must be a list"),
        ("channels.q_cap=[1]", "not 'list'"),
        # a scalar name would otherwise be read as the set of its letters
        ("channels.enabled=flux", "must be a list"),
    ])
    def test_coherence_wrong_type_rejected(self, tmp_path, fast_config,
                                           override, reason):
        out = tmp_path / "bad_type"
        r = _cli("coherence", "--config", str(fast_config), "--out", str(out),
                 "--set", override, cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        diag = json.loads(r.stderr.strip().splitlines()[-1])
        assert diag["error_kind"] == "domain"
        assert reason in diag["message"]
        written = json.loads((out / "coherence_diagnostics.json").read_text())
        assert written["error_kind"] == "domain"
        assert not (out / "coherence.csv").exists()

    def test_coherence_q_cap_reaches_budget(self, tmp_path, fast_config):
        # T1 through the dielectric is linear in its quality factor; YAML
        # reads 2.0e6 (no exponent sign) as a string, which must still count
        t1 = []
        for name, q in (("q1", "1.0e+6"), ("q2", "2.0e6")):
            out = tmp_path / name
            r = _cli("coherence", "--config", str(fast_config), "--out",
                     str(out), "--set", "channels.enabled=[capacitive,inductive]",
                     "--set", f"channels.q_cap={q}", cwd=tmp_path)
            assert r.returncode == 0, r.stderr
            doc = json.loads((out / "coherence.json").read_text())
            t1.append(doc["t1_ms"])
        assert t1[1]["capacitive"] == pytest.approx(2 * t1[0]["capacitive"],
                                                    rel=1e-12)
        assert t1[1]["inductive"] == t1[0]["inductive"]

    #: the reference circuit's shot channel alone, on a (5, 5, 20) basis
    _SHOT_ONLY = ("--config", str(_CONFIGS / "reference.yaml"), "--no-cache",
                  "--set", "channels.enabled=[shot]",
                  "--set", "truncation.N0=5", "--set", "truncation.p0=5",
                  "--set", "truncation.q0=20")

    def test_coherence_shot_off_half_flux(self, tmp_path):
        # off half flux the plasmon pairs carry the symbols "o" and "*"
        out = tmp_path / "shot"
        r = _cli("coherence", *self._SHOT_ONLY, "--set", "bias.phi_ext=3.0",
                 "--out", str(out), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        _, rows = _csv_parts(out / "coherence.csv")
        (shot,) = [row for row in rows
                   if (row["type"], row["channel"]) == ("Tphi", "shot")]
        assert math.isfinite(float(shot["time_ms"]))

    def test_coherence_shot_at_integer_flux_is_domain_error(self, tmp_path):
        # no state carries a fluxon symbol there: a typed labelling failure
        out = tmp_path / "shot0"
        r = _cli("coherence", *self._SHOT_ONLY,
                 "--set", "bias.phi_ext=6.283185307179586",
                 "--out", str(out), cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        diag = json.loads((out / "coherence_diagnostics.json").read_text())
        assert diag["error_type"] == "LabelingError"
        assert diag["error_kind"] == "domain"
        assert not (out / "coherence.csv").exists()

    def test_disorder_and_coherence_share_a_dispersion(self, tmp_path):
        # one circuit has one dispersion basis: the coherence budget of a
        # delta_J = 0.3 circuit reads the four solves of its disorder point
        out = tmp_path / "shared"
        ref = str(_CONFIGS / "reference.yaml")
        r = _cli("disorder", "--config", ref, "--set", "sweep.kind=J",
                 "--set", "sweep.deltas=[0.3]", "--out", str(out),
                 cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = _cli("coherence", "--config", ref, "--set", "circuit.delta_J=0.3",
                 "--set", "channels.enabled=[charge]", "--out", str(out),
                 cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        log = json.loads((out / "coherence_runlog.json").read_text())
        assert log["diagonalizations"] == 1 and log["cache_hits"] == 4

    def test_disorder_honours_a_truncation_above_the_schedule(self, tmp_path):
        # the config's truncation is the floor of disorder's basis as of
        # coherence's: at q0 = 40, above the (7, 7, 30) schedule row, the
        # budget reads the four dispersion solves of the disorder point
        out = tmp_path / "floor"
        ref = str(_CONFIGS / "reference.yaml")
        r = _cli("disorder", "--config", ref, "--set", "sweep.deltas=[0.0]",
                 "--set", "truncation.q0=40", "--out", str(out), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = _cli("coherence", "--config", ref, "--set", "truncation.q0=40",
                 "--set", "channels.enabled=[charge]", "--out", str(out),
                 cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        log = json.loads((out / "coherence_runlog.json").read_text())
        assert log["diagonalizations"] == 1 and log["cache_hits"] == 4
        _, (row,) = _csv_parts(out / "disorder.csv")
        doc = json.loads((out / "coherence.json").read_text())
        assert float(row["eps"]) == doc["charge_dispersion_ghz"]
        assert doc["charge_dispersion_unresolved"] is (row["unresolved"] == "True")

    def test_disorder_artifacts(self, tmp_path, fast_config):
        out = tmp_path / "o4"
        r = _cli("disorder", "--config", str(fast_config), "--out", str(out),
                 "--set", "truncation.N0=4", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        lines = [l for l in (out / "disorder.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "delta,eps,defect,dE,abs_dE,unresolved"
        assert len(lines) == 3

    @pytest.mark.parametrize("kind", ["J", "C", "A", "L"])
    def test_disorder_recipe_kind(self, tmp_path, fast_config, kind):
        # the README disorder loop: --set picks the kind and the deltas, and
        # the artifacts name that kind with one row per requested delta
        out = tmp_path / f"disorder_{kind}"
        r = _cli("disorder", "--config", str(fast_config), "--out", str(out),
                 "--set", f"sweep.kind={kind}",
                 "--set", "sweep.deltas=[0.0, 0.15]", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert json.loads((out / "disorder.json").read_text())["kind"] == kind
        _, rows = _csv_parts(out / "disorder.csv")
        assert [float(row["delta"]) for row in rows] == [0.0, 0.15]
        # the asymmetry of this kind moves the splitting off the symmetric one
        assert float(rows[1]["eps"]) != float(rows[0]["eps"])

    def test_disorder_band_edge(self, tmp_path, fast_config):
        # delta_L = 0.45 lies past the default basis's band of the dispersion
        # schedule; on (7, 7, 30) its splitting is not monotone in N_g and the
        # run exited 2, on the scheduled (10, 10, 46) the swing is resolved
        out = tmp_path / "edge"
        r = _cli("disorder", "--config", str(fast_config), "--out", str(out),
                 "--set", "sweep.deltas=[0.45]", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        _, rows = _csv_parts(out / "disorder.csv")
        assert len(rows) == 1 and rows[0]["unresolved"] == "False"

    def test_converge_and_instanton_and_wavefunctions(self, tmp_path, fast_config):
        out = tmp_path / "o5"
        for sub in ("converge", "instanton", "wavefunctions"):
            r = _cli(sub, "--config", str(fast_config), "--out", str(out),
                     cwd=tmp_path)
            assert r.returncode == 0, (sub, r.stderr)
        assert (out / "converge.json").exists()
        # every rung of the two-level ladder is one solve through the store
        log = json.loads((out / "converge_runlog.json").read_text())
        assert log["diagonalizations"] == 2 and log["cache_hits"] == 0
        path_csv = (out / "instanton_path.csv").read_text().splitlines()
        assert path_csv[0].startswith("# provenance:")
        assert path_csv[1].startswith("# checksum:")
        assert path_csv[2] == "tau,vphi,phi,theta"
        # one row per bead plus the two clamped endpoints, from tau = 0
        assert len(path_csv) == 3 + 65 + 2
        assert float(path_csv[3].split(",")[0]) == 0.0
        assert (out / "wavefunction_charge.csv").exists()

    @pytest.mark.parametrize("sub", ["spectrum", "wavefunctions",
                                     "matrix-elements", "disorder", "coherence",
                                     "instanton", "mathieu", "converge"])
    def test_runlog_lists_the_files_written(self, tmp_path, fast_config, sub):
        out = tmp_path / "listed"
        r = CliRunner().invoke(main, [sub, "--config", str(fast_config),
                                      "--out", str(out)])
        assert r.exit_code == 0, r.output
        runlog = f"{sub}_runlog.json"
        log = json.loads((out / runlog).read_text())
        written = {f.name for f in out.iterdir()
                   if not f.name.startswith(".")} - {runlog}
        assert written and sorted(log["artifacts"]) == sorted(written)

    def test_failed_run_writes_only_diagnostics(self, tmp_path, fast_config,
                                                monkeypatch):
        # the path is solved before the reduction fails, yet no artifact of
        # the run is written: the tables are written once all are made
        def fail(*args, **kwargs):
            raise MinimizationError("forced")

        monkeypatch.setattr(cli_module, "reduce_to_effective", fail)
        out = tmp_path / "failed"
        r = CliRunner().invoke(main, ["instanton", "--config", str(fast_config),
                                      "--out", str(out)])
        assert r.exit_code == 2, r.output
        assert sorted(f.name for f in out.iterdir()) == [
            "instanton_diagnostics.json"]

    def test_json_artifacts_are_strict(self, tmp_path, fast_config):
        # two beads leave no interior bead, so the path's interior residual
        # is nan: it is written as the string "nan", not as bare NaN
        out = tmp_path / "strict"
        r = CliRunner().invoke(main, ["instanton", "--config", str(fast_config),
                                      "--out", str(out),
                                      "--set", "instanton.n_beads=2"])
        assert r.exit_code == 0, r.output
        doc = _strict_json((out / "instanton.json").read_text())
        assert doc["residual"]["eom_interior_max"] == "nan"

    def test_descending_flux_grid_rejected(self, tmp_path, fast_config):
        # the spectrum grid goes through flux_sweep's check
        out = tmp_path / "desc"
        r = _cli("spectrum", "--config", str(fast_config), "--out", str(out),
                 "--set", "sweep.flux_start=3.4", "--set", "sweep.flux_stop=2.9",
                 cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        diag = json.loads(r.stderr.strip().splitlines()[-1])
        assert diag["error_kind"] == "domain"
        assert "increasing" in diag["message"]
        assert not (out / "spectrum.csv").exists()

    @pytest.mark.parametrize("phi_ext", ["9.42477796076938", "2.8"])
    def test_instanton_other_bias_rejected(self, tmp_path, fast_config, phi_ext):
        # phi_ext = 3 pi is at half flux and 2.8 is not; at neither are the
        # two minima degenerate, and the run leaves no partial artifact
        out = tmp_path / "i3"
        r = _cli("instanton", "--config", str(fast_config), "--out", str(out),
                 "--set", f"bias.phi_ext={phi_ext}", cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        diag = json.loads(r.stderr.strip().splitlines()[-1])
        assert diag["error_kind"] == "domain"
        assert diag["error_type"] == "UnsupportedBiasError"
        assert not (out / "instanton_path.csv").exists()
        assert not (out / "instanton.json").exists()

    @pytest.mark.parametrize("n_beads", ["0", "-5"])
    def test_instanton_without_free_bead_rejected(self, tmp_path, fast_config,
                                                  n_beads):
        out = tmp_path / "nb"
        r = _cli("instanton", "--config", str(fast_config), "--out", str(out),
                 "--set", f"instanton.n_beads={n_beads}", cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        diag = json.loads(r.stderr.strip().splitlines()[-1])
        assert diag["error_kind"] == "domain"
        assert diag["error_type"] == "ValueError"
        assert "n_beads must be at least 2" in diag["message"]
        assert not (out / "instanton_path.csv").exists()

    def test_mathieu_artifact(self, tmp_path, fast_config):
        out = tmp_path / "m"
        r = _cli("mathieu", "--config", str(fast_config), "--out", str(out),
                 cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        _, rows = _csv_parts(out / "mathieu.csv")
        assert list(rows[0]) == ["EJ_over_EC", "eps0_exact", "eps0_asymptotic",
                                 "rel_err", "eps0_next_order",
                                 "rel_err_next_order"]
        assert [float(row["EJ_over_EC"]) for row in rows] == [50.0]
        tp = ToyParams(E_J=100.0, E_C=2.0, N0_toy=40)
        assert float(rows[0]["eps0_exact"]) == exact_dispersion(tp, 0)

    def test_domain_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("circuit: {eps_J: -5}\n")
        r = _cli("spectrum", "--config", str(bad), "--out",
                 str(tmp_path / "x"), cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        diag = json.loads(r.stderr.strip().splitlines()[-1])
        assert diag["error_kind"] == "domain"
        # the output directory is known before the config loads
        assert (tmp_path / "x" / "spectrum_diagnostics.json").exists()

    @pytest.mark.parametrize("args", [
        ("coherence", "--bogus"),
        ("nosuch",),
        ("instanton", "--jobs", "2"),  # instanton makes no independent solves
        ("spectrum", "--jobs", "two"),
        ("spectrum", "--jobs", "0"),
    ])
    def test_usage_error_exit_code(self, tmp_path, args):
        # exit 2 is kept for non-convergence, so a usage error exits 1
        r = _cli(*args, cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        diag = json.loads(r.stderr.strip().splitlines()[-1])
        assert diag["error_kind"] == "domain"
        assert diag["error_type"] in ("NoSuchOption", "NoSuchCommand", "BadParameter")

    @pytest.mark.parametrize("qualname, code", sorted(_EXIT_CODES.items()))
    def test_error_type_exit_code(self, tmp_path, fast_config, monkeypatch,
                                  qualname, code):
        # the base class of an error decides its exit code and kind
        module, name = qualname.split(".")
        cls = getattr(importlib.import_module(f"cos2phi.{module}"), name)
        args = ("forced", 0.5) if name == "TruncationError" else ("forced",)

        def fail(*_args, **_kwargs):
            raise cls(*args)

        monkeypatch.setattr(cli_module, "exact_dispersion", fail)
        out = tmp_path / "err"
        r = CliRunner().invoke(main, ["mathieu", "--config", str(fast_config),
                                      "--out", str(out)])
        assert r.exit_code == code, r.output
        diag = json.loads((out / "mathieu_diagnostics.json").read_text())
        assert diag["error_type"] == name
        assert diag["error_kind"] == {1: "domain", 2: "non-convergence"}[code]

    def test_numerical_error_exit_code(self, tmp_path):
        cfg = tmp_path / "qc.yaml"
        cfg.write_text("mathieu: {ratios: [4000], N0_toy: 4, E_C: 1.0}\n")
        r = _cli("mathieu", "--config", str(cfg), "--out",
                 str(tmp_path / "y"), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert (tmp_path / "y" / "mathieu_diagnostics.json").exists()

    def test_jobs_flag_spectrum(self, tmp_path, fast_config):
        out = tmp_path / "o6"
        r = _cli("spectrum", "--config", str(fast_config), "--out", str(out),
                 "--jobs", "2", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        rows = [l for l in (out / "spectrum.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 4

    def test_jobs_flag_keeps_config_hash(self, tmp_path, fast_config):
        hashes = []
        for name, jobs in (("serial", "1"), ("pool", "2")):
            out = tmp_path / name
            r = _cli("spectrum", "--config", str(fast_config), "--out",
                     str(out), "--jobs", jobs, cwd=tmp_path)
            assert r.returncode == 0, r.stderr
            first = (out / "spectrum.csv").read_text().splitlines()[0]
            hashes.append(json.loads(first.removeprefix("# provenance: "))
                          ["config_hash"])
        assert hashes[0] == hashes[1]

    def test_jobs_run_served_from_store(self, tmp_path, fast_config):
        # serial and pooled runs take the same per-point path through the
        # solution store, so a pooled rerun diagonalizes nothing
        out = tmp_path / "o7"
        r = _cli("spectrum", "--config", str(fast_config), "--out", str(out),
                 "--jobs", "1", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        serial, _ = _csv_parts(out / "spectrum.csv")
        r = _cli("spectrum", "--config", str(fast_config), "--out", str(out),
                 "--jobs", "2", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        log = json.loads((out / "spectrum_runlog.json").read_text())
        assert log["diagonalizations"] == 0 and log["cache_hits"] == 3
        pooled, _ = _csv_parts(out / "spectrum.csv")
        assert pooled == serial

    def test_pooled_run_writes_serial_bytes(self, tmp_path, fast_config):
        # every file of a pooled coherence run, the run log among them,
        # equals the serial run's byte for byte
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            r = _cli("coherence", "--config", str(fast_config), "--out",
                     str(out), "--no-cache", "--jobs", jobs, cwd=tmp_path)
            assert r.returncode == 0, r.stderr
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert sorted(outs[0]) == ["coherence.csv", "coherence.json",
                                   "coherence_runlog.json"]
        assert outs[0] == outs[1]

    def test_pooled_non_convergence_exit_code(self, tmp_path, fast_config,
                                              monkeypatch):
        # a flux point that does not converge in a worker ends the run as
        # it would serially: exit 2 and a non-convergence diagnostic
        monkeypatch.setattr(cache_module, "lowest_eigenpairs",
                            _fail_at_trunc((4, 4, 12)))
        out = tmp_path / "nc"
        r = CliRunner().invoke(main, ["spectrum", "--config", str(fast_config),
                                      "--out", str(out), "--no-cache",
                                      "--jobs", "2"])
        assert r.exit_code == 2, r.output
        diag = json.loads((out / "spectrum_diagnostics.json").read_text())
        assert diag["error_kind"] == "non-convergence"
        assert diag["error_type"] == "NonConvergenceError"
        assert diag["message"].startswith("forced in process ")
        assert diag["message"] != f"forced in process {os.getpid()}"

    def test_converge_runs_serially(self, tmp_path, fast_config,
                                    monkeypatch):
        # converge's rungs differ in size, so it takes no --jobs and solves
        # in the CLI process whatever the cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(cache_module, "lowest_eigenpairs",
                            _fail_at_trunc((4, 4, 12)))
        out = tmp_path / "nc"
        r = CliRunner().invoke(main, ["converge", "--config", str(fast_config),
                                      "--out", str(out), "--no-cache"])
        assert r.exit_code == 2, r.output
        diag = json.loads((out / "converge_diagnostics.json").read_text())
        assert diag["message"] == f"forced in process {os.getpid()}"

    @pytest.mark.skipif(cos2phi._POOL_START != "fork",
                        reason="workers start by fork on Linux only")
    def test_default_jobs_capped(self, monkeypatch):
        # each worker holds its own factor: the default is the usable
        # cores, but never more than two
        for cores, jobs in ((range(64), 2), (range(2), 2), ({3}, 1)):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, c=set(cores): c)
            assert cos2phi._default_jobs() == jobs

    def test_artifacts_independent_of_caller_blas_threads(self, tmp_path,
                                                         fast_config):
        checksums = []
        for n in ("1", "2"):
            out = tmp_path / f"blas{n}"
            r = _cli("spectrum", "--config", str(fast_config), "--out",
                     str(out), "--no-cache", "--jobs", "1", cwd=tmp_path,
                     extra_env={"OPENBLAS_NUM_THREADS": n})
            assert r.returncode == 0, r.stderr
            checksums.append(_csv_parts(out / "spectrum.csv")[0])
        assert checksums[0] == checksums[1]

    def test_cli_process_runs_one_blas_thread(self, tmp_path):
        code = ("import json, sys\n"
                "import cos2phi.cli\n"
                f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                "from test_config_cli import _blas_threads\n"
                "print(json.dumps(_blas_threads()))\n")
        env, threads = _fresh_python(
            code, tmp_path, _child_env({"OPENBLAS_NUM_THREADS": "2"}))
        assert env == "1"
        assert threads and all(n == 1 for n in threads)

    def test_library_import_leaves_environment(self, tmp_path):
        env = _child_env()
        # every public name resolves, and none of them touches the variables
        code = ("import json, os\n"
                "import cos2phi, cos2phi.analysis\n"
                "[getattr(cos2phi, n) for n in cos2phi.__all__]\n"
                "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'),\n"
                "                  os.environ.get('OMP_NUM_THREADS')]))\n")
        assert _fresh_python(code, tmp_path, env) == [None, None]

    def test_cli_import_leaves_out_scipy_optimize(self, tmp_path):
        # the package minimizes by its own Newton iterations, so no CLI
        # process pays for importing scipy.optimize
        code = ("import json, sys\n"
                "import cos2phi.cli\n"
                "print(json.dumps('scipy.optimize' in sys.modules))\n")
        assert _fresh_python(code, tmp_path, _child_env()) is False

    def test_cli_and_config_load_no_scipy(self, tmp_path, fast_config):
        # the front end and its config import with numpy alone
        code = ("import json, sys\n"
                "import cos2phi.cli\n"
                "from cos2phi.config import load_config\n"
                "load_config(sys.argv[1])\n" + _PRINT_SCIPY)
        assert _fresh_python(code, tmp_path, _child_env(), str(fast_config)) == []

    def test_coherence_and_primitives_load_no_scipy_special(self, tmp_path):
        # K0 and the displacement amplitudes are computed in the package,
        # so a diagonalizing process never imports scipy.special
        code = ("import json, sys\n"
                "import cos2phi.coherence\n"
                "from cos2phi.model import BasisTruncation, CircuitParams, "
                "build_primitives\n"
                "build_primitives(BasisTruncation(3, 3, 8), "
                "CircuitParams(15.0, 2.0, 1.0, 0.02))\n"
                "print(json.dumps('scipy.special' in sys.modules))\n")
        assert _fresh_python(code, tmp_path, _child_env()) is False

    @pytest.mark.parametrize("args", [
        ("instanton", "--set", "instanton.n_beads=17"),
        ("mathieu",),
    ])
    def test_numpy_only_subcommands_load_no_scipy(self, tmp_path, fast_config,
                                                  args):
        # instanton and mathieu diagonalize no circuit, so a run of either,
        # in process, leaves scipy unimported
        code = ("import json, sys\n"
                "from cos2phi.cli import main\n"
                "main(args=sys.argv[1:], standalone_mode=False)\n" + _PRINT_SCIPY)
        out = tmp_path / "o"
        loaded = _fresh_python(code, tmp_path, _child_env(), args[0], "--config",
                               str(fast_config), "--out", str(out), *args[1:])
        assert (out / f"{args[0]}_runlog.json").exists()
        assert loaded == []


SUBCOMMANDS = ("spectrum", "wavefunctions", "matrix-elements", "disorder",
               "coherence", "instanton", "mathieu", "converge")
#: the subcommands that pool independent problems of one size: --jobs
SWEEPING = ("spectrum", "disorder", "coherence")


@pytest.mark.parametrize("value, spelt", [
    (0.1, "0.10000000000000001"), (float("inf"), "inf"),
    (float("-inf"), "-inf"), (float("nan"), "nan"), (np.float64(-1.5), "-1.5"),
    (3, "3"), (True, "True"), ("m0", "m0"),
])
def test_one_spelling_of_a_number(value, spelt):
    assert _fmt(value) == spelt


def test_json_writer_spells_non_finite_floats(tmp_path):
    path = tmp_path / "x.json"
    cli_module.write_json(
        path, {"a": [math.inf, (-math.inf, math.nan)], "b": {"c": 1.5}},
        {"seed": 0})
    doc = _strict_json(path.read_text())
    assert doc == {"a": ["inf", ["-inf", "nan"]], "b": {"c": 1.5},
                   "provenance": {"seed": 0}}


def test_subcommands_registered():
    assert sorted(main.commands) == sorted(SUBCOMMANDS)


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_subcommand_help_lists_options(sub):
    r = CliRunner().invoke(main, [sub, "--help"])
    assert r.exit_code == 0, r.output
    for opt in ("--config", "--out", "--set", "--no-cache"):
        assert opt in r.output
    assert ("--jobs" in r.output) == (sub in SWEEPING)
