"""tools/bitcheck.py: a tree compared with itself differs nowhere, a tree
with another chi bisection differs in the chi* outputs alone, and its
deviations count NaNs and missing values."""

import importlib.util
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bitcheck.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bitcheck", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_against_itself():
    # the matrix in this process and again in a subprocess: reruns are
    # bit-identical
    res = subprocess.run([sys.executable, str(TOOL), "--against", str(ROOT)],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines() == ["0 of 93 outputs differ"]


def test_outputs_cover_runs_and_thresholds():
    got = load_tool().outputs(ROOT / "src")
    sims = [row for name, row in got.items() if not name.startswith("chi*")]
    assert len(sims) == 9
    for row in sims:
        assert set(row) == {"positions", "E1", "E2", "E3", "E4", "S",
                            "S_bar", "divergent_terms"}
    n32 = got["N32"]["positions"]
    assert len(n32) == 2 * 17 * 32 * 2
    # positions as run returned them, before the NaN rows are written
    assert all(map(math.isfinite, got["N8-blown"]["positions"]))
    chis = {name: row for name, row in got.items() if name.startswith("chi*")}
    assert list(chis) == ["chi*(1e-06,4)", "chi*(0.1,2.61)", "chi*(1,3.31)",
                          "chi*(10,3.51)", "chi*(10000,3.51)"]
    for row in chis.values():
        assert len(row["audit"]) == 3 * 4500
        assert row["chi_star"][0] == max(row["audit"][2::3])
    assert 3.27 <= chis["chi*(1e-06,4)"]["chi_for"][0] <= 3.30


def test_reports_a_changed_bisection(tmp_path):
    # the same tree with a coarser bisection tolerance: every chi* output
    # moves, no simulation output does
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "kspp" / "constants.py"
    text = path.read_text()
    assert "CHI_REL_TOL = 1e-8 " in text
    path.write_text(text.replace("CHI_REL_TOL = 1e-8 ", "CHI_REL_TOL = 1e-7 "))
    res = subprocess.run([sys.executable, str(TOOL), "--against", str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 1, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert lines[-1] == f"{len(lines) - 1} of 93 outputs differ"
    differ = [line.split()[:2] for line in lines[:-1]]
    assert all(name.startswith("chi*") for name, _ in differ)
    assert ["chi*(1e-06,4)", "chi_for"] in differ
    assert sum(out == "audit" for _, out in differ) == 5


def test_deviation_and_digest():
    tool = load_tool()
    assert tool.deviation([1.0, math.nan], [1.0, math.nan]) == 0.0
    assert tool.deviation([1.0 + 2 ** -52], [1.0]) == 2 ** -52
    assert tool.deviation([math.nan], [1.0]) == math.inf
    assert tool.deviation([1.0], [math.nan]) == math.inf
    assert tool.deviation([1.0], [math.inf]) == math.inf
    assert tool.deviation([1e-300], [0.0]) == math.inf
    assert tool.deviation([1.0], [1.0, 2.0]) == math.inf
    # -0.0 == 0.0, but their bits differ
    assert tool.digest([-0.0], "E1") != tool.digest([0.0], "E1")
