"""tools/bitcheck.py: a tree compared with itself differs nowhere, the
checks on run's drift memo equal those on their own pass, the row run
in tiles equals itself at the default budget, the row run on threads
equals itself run serially, and the row with noise passed in equals the
noise drawn, its blown replica aside; a tree
with another chi bisection differs in the chi* outputs alone, a tree with
another CSV float format in the CSV outputs alone, and its deviations count
NaNs and missing values."""

import hashlib
import importlib.util
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

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
    assert res.stdout.splitlines() == ["0 of 309 outputs differ"]


def test_outputs_cover_runs_and_thresholds():
    tool = load_tool()
    got = tool.outputs(ROOT / "src")
    sims = [row for name, row in got.items() if not name.startswith("chi*")]
    assert len(sims) == 12
    for row in sims:
        assert set(row) == {"positions", "blowups", "replica_blocks",
                            "drift_workspace_bytes", "drift_tile_rows",
                            "E1", "E2", "E3", "E4", "S",
                            "S_bar", "divergent_terms", "csv", "ksw1",
                            "csv_positions", "csv_dt", "ksw1_positions",
                            "ksw1_dt", "domination", "domination_miss",
                            "holder", "holder_miss", "ito", "martingale"}
        # run's drift memo and a pass of the check's own give one set of
        # bits
        for check in ("domination", "holder"):
            assert (tool.digest(row[check], check)
                    == tool.digest(row[f"{check}_miss"], check))
        # each reader returns the positions the files were written from
        assert row["csv_dt"] == row["ksw1_dt"] == [0.02]
        assert np.array_equal(row["csv_positions"], row["ksw1_positions"],
                              equal_nan=True)
    n32 = got["N32"]["positions"]
    assert len(n32) == 2 * 17 * 32 * 2
    assert bytes(got["N32"]["csv"]).startswith(b"replica,particle,step,t,x,y\n")
    assert len(got["N32"]["ksw1"]) == 24 + 8 * len(n32)
    # positions as run returned them, before the NaN rows are written;
    # the files hold the NaN rows
    blown = got["N8-blown"]
    assert all(map(math.isfinite, blown["positions"]))
    assert sum(map(math.isnan, blown["csv_positions"])) == 12 * 8 * 2
    assert b",nan,nan\n" in bytes(blown["csv"])
    # the checks and residuals leave the blown replica out
    assert blown["domination"][3] == blown["holder"][-1] == 1
    assert len(blown["ito"]) == len(blown["martingale"]) == 2
    # run's own blow-up, from an infinite increment passed in: the
    # estimators leave it out too
    noise = got["N3-noise"]
    assert noise["blowups"] == [1, 9] and blown["blowups"] == []
    assert noise["domination"][3] == noise["holder"][-1] == 1
    # the counters: one block and one tile of every row at the default
    # budget, two blocks on the thread row
    assert got["N32"]["replica_blocks"] == [1]
    assert got["N32"]["drift_tile_rows"] == [32]
    assert got["N5-threads"]["replica_blocks"] == [2]
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
    assert lines[-1] == f"{len(lines) - 1} of 309 outputs differ"
    differ = [line.split()[:2] for line in lines[:-1]]
    assert all(name.startswith("chi*") for name, _ in differ)
    assert ["chi*(1e-06,4)", "chi_for"] in differ
    assert sum(out == "audit" for _, out in differ) == 5


def test_reports_a_changed_csv_format(tmp_path):
    # the same tree writing 16 significant digits: the CSV bytes and the
    # positions read back move on every row, the CSV dt, the KSW1
    # outputs and everything else do not
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "kspp" / "io.py"
    text = path.read_text()
    assert text.count("%.17g,%.17g") == 1
    path.write_text(text.replace("%.17g,%.17g", "%.16g,%.16g"))
    res = subprocess.run([sys.executable, str(TOOL), "--against", str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 1, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert lines[-1] == "24 of 309 outputs differ"
    assert {line.split()[1] for line in lines[:-1]} == {"csv", "csv_positions"}


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
    # a file's bytes are hashed as bytes
    assert tool.digest(list(b"KSW1"), "ksw1") == hashlib.sha256(b"KSW1").hexdigest()


def test_tiled_row_equals_the_default_budget(monkeypatch):
    # the row whose estimators run in one-replica blocks and one-row
    # i-tiles has the bits of the same row at the default budget
    tool = load_tool()

    def digests():
        row = tool.outputs(ROOT / "src")["N5-tiled"]
        return {out: tool.digest(values, out) for out, values in row.items()}

    tiled = digests()
    monkeypatch.setattr(tool, "BUDGETS", {})
    assert digests() == tiled


def test_thread_and_noise_rows(monkeypatch):
    # the row stepped in two blocks on two threads has the bits of the same
    # row stepped serially; the row with its noise passed in has, outside
    # its blown replica, the paths of the noise drawn by `run` itself
    tool = load_tool()
    from kspp import estimators as E, kernels, simulator as S

    def rows():
        return {name: ens for name, _, ens, _ in tool.matrix(S, E, kernels)}

    threaded = rows()
    monkeypatch.setattr(tool, "THREADS", "1")
    serial = rows()["N5-threads"]
    ens = threaded["N5-threads"]
    assert np.array_equal(ens.positions.view(np.int64),
                          serial.positions.view(np.int64))
    assert ens.counters == serial.counters
    assert ens.counters["replica_blocks"] == 2
    passed = threaded["N3-noise"]
    drawn = S.run(passed.config).positions
    assert passed.blowups == [(1, 9)]
    assert np.isnan(passed.positions[1, 9:]).all()
    np.testing.assert_array_equal(passed.positions[[0, 2]], drawn[[0, 2]])
    np.testing.assert_array_equal(passed.positions[1, :9], drawn[1, :9])
