import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cos2phi
from cos2phi.cache import SolutionCache, _problem_key, worker_pool
from cos2phi.cli import main
from cos2phi.config import ConfigError, load_config, parse_override
from cos2phi.hamiltonians import ToyParams
from cos2phi.mathieu import exact_dispersion
from cos2phi.model import BasisTruncation, BiasPoint


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

    def test_execution_knobs_not_hashed(self):
        # the worker count and the cache switch change how a run executes,
        # not what it computes
        a = load_config(None)
        b = load_config(None, overrides=["jobs=2", "cache=false"])
        assert b.jobs == 2 and not b.cache_enabled
        assert a.config_hash == b.config_hash

    def test_output_dir_not_hashed(self):
        # where a run writes is a deployment path, not physics
        a = load_config(None)
        b = load_config(None, overrides=["output_dir=/tmp/x"])
        assert b.raw["output_dir"] == "/tmp/x"
        assert a.config_hash == b.config_hash

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
        assert load_config(None).config_hash == "fcefa3b4ee4e29b0"
        assert (load_config(root / "configs" / "protected_point.yaml").config_hash
                == "15e7f3bfb3c254b3")

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
        # Cholesky factor: the key carries version 6
        payload = json.dumps({"p": dataclasses.astuple(params),
                              "b": [bias.phi_ext, bias.N_g], "t": tr.as_tuple(),
                              "k": 3, "seed": cache.seed, "v": 6}, sort_keys=True)
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
        # (3, 3, 8) has dim 252, so every point is a Krylov solve
        tr = BasisTruncation(3, 3, 8)
        problems = [(canonical, BiasPoint(phi, 0.0), tr, 3)
                    for phi in (2.9, np.pi, 3.4)]
        serial = SolutionCache(None).map(problems)
        store = SolutionCache(None)
        pooled = store.map(problems, jobs=2)
        assert store.misses == 3 and store.hits == 0
        for a, b in zip(serial, pooled):
            assert a.solution.meta["backend"] == "krylov"
            assert np.abs(a.energies - b.energies).max() < 1e-12

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

    def test_disabled_cache(self, tmp_path, canonical, half_flux):
        cache = SolutionCache(None)
        tr = BasisTruncation(3, 3, 8)
        cache.get_or_solve(canonical, half_flux, tr, k=2)
        cache.get_or_solve(canonical, half_flux, tr, k=2)
        assert cache.misses == 2 and cache.hits == 0


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


def _cli(*args, cwd, extra_env=None):
    return subprocess.run(
        [sys.executable, "-W", "ignore", "-m", "cos2phi.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=_child_env(extra_env),
    )


def _fresh_python(code, cwd, env):
    """stdout of ``code`` run by a fresh interpreter as JSON."""
    r = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                       capture_output=True, text=True, cwd=cwd, env=env)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def _csv_parts(path):
    """(checksum line, data rows as dicts) of a CLI CSV artifact."""
    lines = path.read_text().splitlines()
    checksum = next(l for l in lines if l.startswith("# checksum:"))
    data = [l for l in lines if not l.startswith("#")]
    header = data[0].split(",")
    return checksum, [dict(zip(header, l.split(","))) for l in data[1:]]


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
        # unchanged config: artifact cache hit, zero diagonalizations
        r2 = _cli("spectrum", "--config", str(fast_config), "--out", str(out),
                  cwd=tmp_path)
        assert r2.returncode == 0, r2.stderr
        log2 = json.loads((out / "spectrum_runlog.json").read_text())
        assert log2["diagonalizations"] == 0

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

    @pytest.mark.parametrize("args", [
        ("coherence", "--bogus"),
        ("nosuch",),
        ("coherence", "--jobs", "2"),  # --jobs belongs to spectrum alone
        ("spectrum", "--jobs", "two"),
    ])
    def test_usage_error_exit_code(self, tmp_path, args):
        # exit 2 is kept for non-convergence, so a usage error exits 1
        r = _cli(*args, cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        diag = json.loads(r.stderr.strip().splitlines()[-1])
        assert diag["error_kind"] == "domain"
        assert diag["error_type"] in ("NoSuchOption", "NoSuchCommand", "BadParameter")

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
        for name, jobs in (("serial", ()), ("pool", ("--jobs", "2"))):
            out = tmp_path / name
            r = _cli("spectrum", "--config", str(fast_config), "--out",
                     str(out), *jobs, cwd=tmp_path)
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
                 cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        serial, _ = _csv_parts(out / "spectrum.csv")
        (out / "spectrum_done.json").unlink()
        r = _cli("spectrum", "--config", str(fast_config), "--out", str(out),
                 "--jobs", "2", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        log = json.loads((out / "spectrum_runlog.json").read_text())
        assert log["diagonalizations"] == 0 and log["cache_hits"] == 3
        pooled, _ = _csv_parts(out / "spectrum.csv")
        assert pooled == serial

    def test_artifacts_independent_of_caller_blas_threads(self, tmp_path,
                                                         fast_config):
        checksums = []
        for n in ("1", "2"):
            out = tmp_path / f"blas{n}"
            r = _cli("spectrum", "--config", str(fast_config), "--out",
                     str(out), "--no-cache", cwd=tmp_path,
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


SUBCOMMANDS = ("spectrum", "wavefunctions", "matrix-elements", "disorder",
               "coherence", "instanton", "mathieu", "converge")


def test_subcommands_registered():
    assert sorted(main.commands) == sorted(SUBCOMMANDS)


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_subcommand_help_lists_options(sub):
    r = CliRunner().invoke(main, [sub, "--help"])
    assert r.exit_code == 0, r.output
    for opt in ("--config", "--out", "--set", "--no-cache"):
        assert opt in r.output
    assert ("--jobs" in r.output) == (sub == "spectrum")
