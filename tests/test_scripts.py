"""Smoke runs of the driver scripts in ``scripts/`` with tiny arguments."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name, args, header", [
    ("run_flux_spectrum", ["--points", "3", "--trunc", "3", "3", "8"],
     ["phi_ext"] + [f"T{i}_over_plasmon" for i in range(1, 8)]
     + [f"label{i}" for i in range(8)]),
    ("run_disorder_sweep", ["--kinds", "L", "--deltas", "0.0"],
     ["kind", "delta", "eps", "defect", "dE", "unresolved"]),
    ("run_coherence_table", ["--deltas", "0.0"],
     ["delta_L", "type", "channel", "time_ms"]),
])
def test_script_writes_csv(tmp_path, name, args, header):
    out = tmp_path / f"{name}.csv"
    assert _main(name)(["--out", str(out), *args]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 1
