"""Every demo script runs to completion, and recorded outputs are reproduced.

``tests/data/space_s*`` holds a recorded ``report.csv`` and ``rates.csv``
of ``demos/03_convergence_space.py``, and ``tests/data/truncation_g*`` those
of ``fracopt truncation`` at its defaults, with ``--gamma 1`` and ``--gamma
0.5``. Every value must agree to 1e-10 relative (a recorded nan with nan)
and the iteration counts exactly; ``pg_norm`` is left out, since the final
projected gradient is at the roundoff floor and moves with summation order.
"""
import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracopt.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demo -> the out/ cases recorded under tests/data
RECORDED = {"03_convergence_space": ("space_s0.4", "space_s0.8")}
EXACT = {"case", "quantity", "M", "K", "N", "iters", "levels_used"}
SKIP = {"pg_norm"}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_matches_recorded(got_path, want_path):
    got, want = read_rows(got_path), read_rows(want_path)
    assert len(got) == len(want), got_path
    for row, ref in zip(got, want):
        assert row.keys() == ref.keys(), got_path
        for col, value in ref.items():
            if col in SKIP:
                continue
            if col in EXACT:
                assert row[col] == value, (got_path, col)
            else:
                assert float(row[col]) == pytest.approx(float(value), rel=1e-10, abs=0.0,
                                                        nan_ok=True), \
                    (got_path, row.get("M"), col)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # An empty working directory receives the demos' relative outputs, so a
    # test run leaves no out/ behind in the repository.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr[-4000:]
    for case in RECORDED.get(demo.stem, ()):
        for name in ("report.csv", "rates.csv"):
            assert_matches_recorded(tmp_path / "out" / case / name, DATA / case / name)


@pytest.mark.parametrize("gamma", ["1", "0.5"])
def test_truncation_cli_matches_recorded(gamma, tmp_path):
    assert cli_main(["truncation", "--gamma", gamma, "--out", str(tmp_path)]) == 0
    for name in ("report.csv", "rates.csv"):
        assert_matches_recorded(tmp_path / name, DATA / f"truncation_g{gamma}" / name)
