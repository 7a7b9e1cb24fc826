"""tools/bitcheck.py: a tree compared with itself differs nowhere, the
checks on run's drift memo equal those on their own pass, the row run
in tiles equals itself at the default budget, the row stepped and
estimated on threads equals itself run serially in every output, and the
row with noise passed in equals the noise drawn, its blown replica aside;
a tree with another chi bisection differs in the chi* outputs and the
Remark 6.1 table alone, a tree with another CSV float format in the CSV
outputs alone, and its deviations count NaNs and missing values; an
output that a tree lacks is skipped and named."""

import hashlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

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
    assert res.stdout.splitlines() == ["0 of 359 outputs differ, 0 skipped"]


def test_outputs_cover_runs_and_thresholds():
    tool = load_tool()
    got = tool.outputs(ROOT / "src")
    sims = {name: row for name, row in got.items()
            if not name.startswith("chi*") and name != "remark61"}
    assert len(sims) == 14
    for name, row in sims.items():
        assert set(row) == {"positions", "blowups", "replica_blocks",
                            "drift_workspace_bytes", "drift_tile_rows",
                            "E1", "E2", "E3", "E4", "S",
                            "S_bar", "divergent_terms", "csv", "ksw1",
                            "csv_positions", "csv_dt", "ksw1_positions",
                            "ksw1_dt", "domination", "domination_miss",
                            "holder", "holder_miss", "ito", "martingale",
                            *["step_drifts"] * (name == "N8-source")}
        # run's drift memo and a pass of the check's own give one set of
        # bits
        for check in ("domination", "holder"):
            assert (tool.digest(row[check], check)
                    == tool.digest(row[f"{check}_miss"], check))
        # each reader returns the positions the files were written from
        assert row["csv_dt"] == row["ksw1_dt"] == [0.02]
        assert np.array_equal(row["csv_positions"], row["ksw1_positions"],
                              equal_nan=True)
    # the source row's drifts at every step 0..20 of its 2 replicas
    assert len(got["N8-source"]["step_drifts"]) == 2 * 21 * 8 * 2
    # a mirrored pair under mirrored noise stays mirrored, bit for bit
    mirrored = np.array(got["N2-mirrored"]["positions"]).reshape(4, 41, 2, 2)
    np.testing.assert_array_equal(mirrored[:, :, 1], -mirrored[:, :, 0])
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
    assert got["N5"]["replica_blocks"] == [1]
    table = bytes(got["remark61"]["remark61.csv"]).decode()
    assert table.startswith("scenario,theta,p,gamma,alpha,computed,")
    assert len(table.splitlines()) == 6
    chis = {name: row for name, row in got.items() if name.startswith("chi*")}
    assert list(chis) == ["chi*(1e-06,4)", "chi*(0.1,2.61)", "chi*(1,3.31)",
                          "chi*(10,3.51)", "chi*(10000,3.51)"]
    for row in chis.values():
        assert len(row["audit"]) == 3 * 4500
        assert row["chi_star"][0] == max(row["audit"][2::3])
    assert 3.27 <= chis["chi*(1e-06,4)"]["chi_for"][0] <= 3.30


def test_reports_a_changed_bisection(tmp_path):
    # the same tree with a coarser bisection tolerance: every chi* output
    # and the Remark 6.1 table move, no simulation output does
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
    assert lines[-1] == f"{len(lines) - 1} of 359 outputs differ, 0 skipped"
    differ = [line.split()[:2] for line in lines[:-1]]
    assert all(name.startswith("chi*") for name, _ in differ[:-1])
    assert differ[-1] == ["remark61", "remark61.csv"]
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
    assert lines[-1] == "28 of 359 outputs differ, 0 skipped"
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
    # every output of the row stepped in two blocks and estimated in at
    # least two on two threads has the bits of the same row run serially:
    # `run` and the seven estimator calls each ask for two workers. The row
    # with its noise passed in has, outside its blown replica, the paths of
    # the noise drawn by `run` itself
    from concurrent.futures import ThreadPoolExecutor
    tool = load_tool()
    from kspp import estimators as E, kernels, simulator as S

    def digests():
        row = tool.outputs(ROOT / "src")["N5-threads"]
        assert row["replica_blocks"] == [2]
        return {out: tool.digest(values, out) for out, values in row.items()}

    with mock.patch("concurrent.futures.ThreadPoolExecutor",
                    wraps=ThreadPoolExecutor) as pool:
        threaded = digests()
    assert [c.kwargs["max_workers"] for c in pool.call_args_list] == [2] * 8
    monkeypatch.setattr(tool, "THREADS", "1")
    assert digests() == threaded
    passed = {name: ens for name, _, ens, _
              in tool.matrix(S, E, kernels)}["N3-noise"]
    drawn = S.run(passed.config).positions
    assert passed.blowups == [(1, 9)]
    assert np.isnan(passed.positions[1, 9:]).all()
    np.testing.assert_array_equal(passed.positions[[0, 2]], drawn[[0, 2]])
    np.testing.assert_array_equal(passed.positions[1, :9], drawn[1, :9])


def test_skips_and_names_an_output_a_tree_lacks(monkeypatch, capsys):
    # a tree whose `run` has no drift_tile_rows counter (an older one) dumps
    # it as null; fed in as TREE's dump, with one other output changed,
    # the counter is named and skipped, counted neither equal nor
    # differing, and every other output is compared
    tool = load_tool()
    matrix = tool.matrix

    def first_row(older):
        def rows(S, E, kernels):
            name, positions, ens, ep = matrix(S, E, kernels)[0]
            if older:
                del ens.counters["drift_tile_rows"]
            return [(name, positions, ens, ep)]
        return rows

    monkeypatch.setattr(tool, "THRESHOLDS", ((1e-6, 4.0),))
    monkeypatch.setattr(tool, "matrix", first_row(False))
    mine = tool.outputs(ROOT / "src")
    monkeypatch.setattr(tool, "matrix", first_row(True))
    theirs = tool.outputs(ROOT / "src")
    assert mine["N2"]["drift_tile_rows"] == [2]
    assert theirs["N2"]["drift_tile_rows"] is None
    assert theirs["N2"].keys() == mine["N2"].keys()
    assert len(theirs) == len(mine) == 3   # N2, one chi* row, remark61
    compared = sum(map(len, mine.values())) - 1
    theirs["N2"]["E1"] = [2 * v for v in theirs["N2"]["E1"]]
    monkeypatch.setattr(tool, "outputs", lambda src: mine)
    monkeypatch.setattr(tool, "subprocess", SimpleNamespace(
        run=lambda *args, **kw: SimpleNamespace(stdout=json.dumps(theirs))))
    capsys.readouterr()
    assert tool.main(["--against", "TREE"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{'N2':16} {'drift_tile_rows':16} skipped, missing from TREE",
        f"{'N2':16} {'E1':16} differs, worst relative deviation 0.5",
        f"1 of {compared} outputs differ, 1 skipped"]
    # this tree lacking an output, a row or an output both lack, and an
    # output of one tree's alone
    for ours, other, lacks in (({"a": None}, {"a": [1.0]}, "this tree"),
                               ({}, {"a": [1.0]}, "this tree"),
                               ({"a": None}, {"a": None}, "both trees"),
                               ({"a": [1.0]}, {}, "TREE")):
        assert tool.compare({"row": {"b": [0.0], **ours}},
                            {"row": {"b": [0.0], **other}}) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{'row':16} {'a':16} skipped, missing from {lacks}",
            "0 of 1 outputs differ, 1 skipped"]
    assert tool.compare({"row": {"b": [0.0]}}, {}) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "0 of 0 outputs differ, 1 skipped")
