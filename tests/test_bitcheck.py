"""tools/bitcheck.py: a tree compared with itself differs nowhere, and its
deviations count NaNs and missing values."""

import importlib.util
import math
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
    assert res.stdout.splitlines() == ["0 of 63 outputs differ"]


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
