"""Each benchmark output check passes on right output and fails on wrong.

    python3 -m pytest perfbench/test_checks.py -q

The dense-diagonalization cases run the package from ``src/`` on a small
basis.  The instanton cases relax the string of the instanton-short
workload in process, which takes about 25 s: fewer beads or iterations give
a path that is neither converged nor symmetric enough to pass.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402

T1 = {"capacitive": 1282.33, "inductive": 1.18549, "purcell": 457.037,
      "quasiparticle": math.inf}
TPHI = {"charge": 74.92, "critical_current": 8.1488, "flux": 0.65063, "shot": 9.4131}


def budget(t1=None, tphi=None) -> dict:
    """Rows of a coherence.csv whose totals are the rate sums."""
    t1 = dict(T1, **(t1 or {}))
    tphi = dict(TPHI, **(tphi or {}))
    rows = {("T1", k): v for k, v in t1.items()}
    rows.update({("Tphi", k): v for k, v in tphi.items()})
    t1_total = 1.0 / sum(0.0 if math.isinf(v) else 1.0 / v for v in t1.values())
    tphi_total = 1.0 / sum(1.0 / v for v in tphi.values())
    rows[("T1", "total")] = t1_total
    rows[("Tphi", "total")] = tphi_total
    rows[("T2", "total")] = 1.0 / (0.5 / t1_total + 1.0 / tphi_total)
    return rows


def write_csv(path: Path, rows: dict) -> Path:
    lines = ["# provenance: {}", "# checksum: 0", "type,channel,time_ms"]
    for (kind, channel), v in rows.items():
        lines.append(f"{kind},{channel},{'inf' if math.isinf(v) else repr(v)}")
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# coherence budget
# ---------------------------------------------------------------------------

def test_budget_round_trip_passes(tmp_path):
    rows = checks.read_coherence_csv(write_csv(tmp_path / "coherence.csv", budget()))
    assert rows == budget()
    assert checks.check_operated(rows) == []


def test_t1_row_scaled_breaks_totals(tmp_path):
    rows = budget()
    rows[("T1", "capacitive")] *= 1.01
    rows = checks.read_coherence_csv(write_csv(tmp_path / "coherence.csv", rows))
    errors = checks.check_budget(rows)
    assert len(errors) == 2 and "T1 total" in errors[0] and "T2 total" in errors[1]


def test_tphi_total_and_missing_rows_fail():
    rows = budget()
    rows[("Tphi", "total")] *= 1.0 + 1e-9
    assert any("Tphi total" in e for e in checks.check_budget(rows))
    del rows[("T1", "purcell")]
    assert "lacks rows" in checks.check_budget(rows)[0]


def test_finite_quasiparticle_fails():
    errors = checks.check_operated(budget(t1={"quasiparticle": 1e6}))
    assert len(errors) == 1 and "quasiparticle" in errors[0]


@pytest.mark.parametrize("channel,kind,value", [
    ("charge", "tphi", 36.0), ("charge", "tphi", 149.0),
    ("purcell", "t1", 189.0), ("purcell", "t1", 761.0),
])
def test_acceptance_windows(channel, kind, value):
    errors = checks.check_operated(budget(**{kind: {channel: value}}))
    assert len(errors) == 1 and "outside" in errors[0]


def test_runlog_counts():
    assert checks.check_runlog({"diagonalizations": 27}) == []
    assert checks.check_runlog({"diagonalizations": 0})
    assert checks.check_runlog({})


# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_hamiltonian():
    from cos2phi.hamiltonians import full_hamiltonian
    from cos2phi.model import BasisTruncation, BiasPoint, CircuitParams

    params = CircuitParams(15.0, 2.0, 1.0, 0.02, delta_L=0.6)
    with pytest.warns(UserWarning, match="below the recommended"):
        H = full_hamiltonian(params, BiasPoint(np.pi, 0.0), BasisTruncation(2, 2, 6))
    return H.matrix


def test_charge_reflection_basis_is_unitary():
    C = checks.charge_reflection_basis(3)
    assert np.allclose(C.conj().T @ C, np.eye(7), atol=1e-15)


def test_dense_lowest_matches_complex_eigh(small_hamiltonian):
    ref = np.linalg.eigvalsh(small_hamiltonian.toarray())[:6]
    assert np.abs(checks.dense_lowest(small_hamiltonian, 2, 6) - ref).max() < 1e-10


def test_dense_lowest_without_reflection_symmetry():
    import scipy.sparse as sp

    rng = np.random.default_rng(1)
    A = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
    A = A + A.conj().T
    got = checks.dense_lowest(sp.csr_matrix(A), 2, 4)
    assert np.abs(got - np.linalg.eigvalsh(A)[:4]).max() < 1e-10


def test_stored_energies(small_hamiltonian):
    ref = checks.dense_lowest(small_hamiltonian, 2, 6)
    k2 = ref[:2] + 0.5
    assert checks.check_stored_energies([k2, ref.copy()], ref) == []
    off = ref.copy()
    off[3] += 1e-6
    assert "differ" in checks.check_stored_energies([k2, off], ref)[0]
    assert "no stored" in checks.check_stored_energies([k2], ref)[0]


def test_stored_solutions_reads_npz(tmp_path):
    store = tmp_path / ".solutions"
    store.mkdir()
    np.savez_compressed(store / "a.npz", energies=np.arange(6.0), vectors=np.eye(6))
    got = checks.stored_solutions(store)
    assert len(got) == 1 and np.array_equal(got[0], np.arange(6.0))


# ---------------------------------------------------------------------------
# instanton
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def instanton():
    """The instanton-short relaxation, shaped as the CLI writes it."""
    from cos2phi.instanton import reduce_to_effective, solve_instanton
    from cos2phi.model import BiasPoint, CircuitParams

    cfg = checks.load_config(HERE / "configs" / "instanton_short.yaml")
    c = cfg["circuit"]
    params = CircuitParams(c["eps_J"], c["eps_C"], c["eps_L"], c["x"])
    bias = BiasPoint(cfg["bias"]["phi_ext"], 0.0)
    path = solve_instanton(params, bias, **cfg["instanton"])
    report = {
        "action": path.action,
        "endpoints": [list(map(float, e)) for e in path.endpoints],
        "fourier_numeric_path": list(reduce_to_effective(params, bias, path).coefficients()),
    }
    return checks.Circuit(cfg), path.samples, report


def test_instanton_passes(instanton):
    circuit, samples, report = instanton
    assert checks.check_instanton(circuit, samples, report) == []


def test_read_path_csv(tmp_path, instanton):
    _, samples, _ = instanton
    text = "# provenance: {}\n# checksum: 0\ntau,vphi,phi,theta\n"
    text += "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in samples)
    (tmp_path / "p.csv").write_text(text)
    assert np.array_equal(checks.read_path_csv(tmp_path / "p.csv"), samples)


def test_displaced_bead_fails(instanton):
    circuit, samples, report = instanton
    moved = samples.copy()
    moved[len(moved) // 3, 2] += 0.01
    errors = checks.check_instanton(circuit, moved, report)
    assert any("quadrature" in e for e in errors)
    assert any("reflection" in e for e in errors)


def test_interior_deviation_fails(instanton):
    circuit, samples, report = instanton
    moved = samples.copy()
    i = int(np.argmin(np.abs(moved[:, 1] - np.pi / 2)))
    moved[i, 2] += 0.2
    assert any("deviation" in e for e in checks.check_instanton(circuit, moved, report))


def test_action_not_below_analytic_fails(instanton):
    circuit, samples, report = instanton
    q = samples[:, 1:4]
    flat = circuit.analytic_path(q[0], q[-1], len(q))
    straight = np.column_stack([samples[:, 0], flat])
    report = dict(report, action=circuit.action(flat, min(
        float(circuit.potential(np.asarray(m))) for m in report["endpoints"])))
    errors = checks.check_instanton(circuit, straight, report)
    assert any("not below" in e for e in errors)


def test_endpoint_not_minimum_fails(instanton):
    circuit, samples, report = instanton
    ends = [list(report["endpoints"][0]), report["endpoints"][1]]
    ends[0][1] += 0.01
    errors = checks.check_instanton(circuit, samples, dict(report, endpoints=ends))
    assert any("no potential minimum" in e for e in errors)


@pytest.mark.parametrize("index,factor,word", [(1, 1.05, "c2"), (0, None, "c1"),
                                               (2, None, "c3")])
def test_fourier_coefficients(instanton, index, factor, word):
    circuit, samples, report = instanton
    coeffs = list(report["fourier_numeric_path"])
    if factor is None:
        coeffs[index] = 0.01 * abs(coeffs[1])
    else:
        coeffs[index] *= factor
    errors = checks.check_instanton(circuit, samples,
                                    dict(report, fourier_numeric_path=coeffs))
    assert len(errors) == 1 and word in errors[0]
