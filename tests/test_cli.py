import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kspp
from kspp import cli

BASE_CONFIG = """\
theta = 1.0
lambda = 0.0
chi = 1.0
epsilon = 0.05
n_particles = 2
dt = 0.01
n_steps = 20
n_replicas = 3
seed = 11
init = gaussian
init_sigma = 1.0
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(BASE_CONFIG)
    return path


class TestSimulate:
    def test_writes_artifacts(self, tmp_path, config_file):
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--config", str(config_file),
                       "--out", str(out), "--format", "both"])
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "trajectory.ksw1").exists()
        assert (out / "config_resolved.txt").exists()
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["version"] == cli.__version__
        assert meta["blowups"] == []
        # one block of 3 replicas; dx, dy and coefficients over the N(N - 1)
        # pairs and 20 rows, and the (2, B, 2N - 1, 20) doubled window
        assert meta["counters"] == {"replica_blocks": 1, "drift_workspace_bytes":
                                    (3 * 2 * 1 + 2 * 3) * 8 * 3 * 20,
                                    "drift_tile_rows": 2}
        assert "drift_seconds" in meta
        assert sorted(meta["timings"]) == ["run", "write_bin", "write_csv"]
        assert all(v >= 0.0 for v in meta["timings"].values())

    def test_byte_identical_reruns(self, tmp_path, config_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(config_file),
                             "--out", str(out)]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_zero_steps_writes_initial_only(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BASE_CONFIG.replace("n_steps = 20", "n_steps = 0"))
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3 * 2  # header + replicas x particles, one step

    def test_seed_override_changes_output(self, tmp_path, config_file):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cli.main(["simulate", "--config", str(config_file), "--out", str(out1)])
        cli.main(["simulate", "--config", str(config_file), "--out", str(out2),
                  "--seed", "99"])
        a = (out1 / "trajectory.csv").read_bytes()
        b = (out2 / "trajectory.csv").read_bytes()
        assert a != b

    def test_blowup_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("""
theta = 1.0
chi = 1e308
epsilon = 1e-12
n_particles = 2
dt = 10.0
n_steps = 3
n_replicas = 1
seed = 1
init = gaussian
init_sigma = 0.001
""")
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert (out / "trajectory.csv").exists()  # partial artifact
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["blowups"]

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("theta = 1.0\nunknown_key = 3\n")
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", ["dt = nan", "theta = nan", "lambda = nan",
                                      "init_sigma = nan", "dt = inf",
                                      "history_cutoff = nan"])
    def test_nonfinite_config_exit_2(self, tmp_path, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BASE_CONFIG.replace("chi = 1.0", "chi = 0") + line + "\n")
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 2
        assert not (tmp_path / "run" / "trajectory.csv").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["simulate", "--config", str(tmp_path / "absent.txt"),
                         "--out", str(tmp_path)]) == 2


class TestEstimate:
    def test_inline_and_file_paths_agree(self, tmp_path, config_file):
        run_out = tmp_path / "run"
        cli.main(["simulate", "--config", str(config_file), "--out",
                  str(run_out), "--format", "bin"])
        est_inline = tmp_path / "inline"
        est_file = tmp_path / "fromfile"
        args = ["--config", str(config_file), "--gamma", "1.62",
                "--alpha", "0.045"]
        assert cli.main(["estimate", *args, "--out", str(est_inline)]) == 0
        assert cli.main(["estimate", *args, "--trajectory",
                         str(run_out / "trajectory.ksw1"),
                         "--out", str(est_file)]) == 0
        a = json.loads((est_inline / "report.json").read_text())
        b = json.loads((est_file / "report.json").read_text())
        assert a["estimates"] == b["estimates"]
        assert (est_inline / "per_replica.csv").read_text() \
            == (est_file / "per_replica.csv").read_text()

    def test_report_notes_timings_strict_json(self, tmp_path, config_file):
        # the pass timings go into report.json, which stays strict JSON;
        # per_replica.csv stays byte-identical across runs
        args = ["estimate", "--config", str(config_file), "--gamma", "1.62",
                "--alpha", "0.045", "--out"]
        assert cli.main([*args, str(tmp_path / "a")]) == 0
        assert cli.main([*args, str(tmp_path / "b")]) == 0

        def reject(constant):
            raise ValueError(f"invalid JSON constant {constant}")

        notes = json.loads((tmp_path / "a" / "report.json").read_text(),
                           parse_constant=reject)["notes"]
        assert set(notes["timings"]) == {"e1", "grids"}
        assert notes["pair_history_terms"] == 3 * 2 * 20 * 21 // 2
        assert ((tmp_path / "a" / "per_replica.csv").read_bytes()
                == (tmp_path / "b" / "per_replica.csv").read_bytes())

    def test_blown_run_report_is_strict_json(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("theta = 1.0\nchi = 1e308\nepsilon = 1e-12\n"
                       "n_particles = 2\ndt = 10.0\nn_steps = 3\n"
                       "n_replicas = 2\nseed = 1\ninit = gaussian\n"
                       "init_sigma = 0.001\n")
        out = tmp_path / "est"
        rc = cli.main(["estimate", "--config", str(cfg), "--gamma", "1.62",
                       "--alpha", "0.045", "--out", str(out)])
        assert rc == 3

        def reject(constant):
            raise ValueError(f"invalid JSON constant {constant}")

        report = json.loads((out / "report.json").read_text(),
                            parse_constant=reject)
        assert report["estimates"]["E1"]["value"] is None

    def test_nonfinite_replica_left_out_exits_3(self, tmp_path, config_file):
        run_out = tmp_path / "run"
        cli.main(["simulate", "--config", str(config_file), "--out",
                  str(run_out), "--format", "bin"])
        path = run_out / "trajectory.ksw1"
        raw = path.read_bytes()
        body = np.frombuffer(raw[24:], dtype="<f8").reshape(3, 21, 2, 2).copy()
        body[1, 9:] = np.nan
        poisoned = tmp_path / "poisoned.ksw1"
        poisoned.write_bytes(raw[:24] + body.tobytes())
        args = ["--config", str(config_file), "--gamma", "1.62",
                "--alpha", "0.045"]
        assert cli.main(["estimate", *args, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["estimate", *args, "--trajectory", str(poisoned),
                         "--out", str(tmp_path / "b")]) == 3
        full = (tmp_path / "a" / "per_replica.csv").read_text().splitlines()
        kept = (tmp_path / "b" / "per_replica.csv").read_text().splitlines()
        assert kept == [full[0], full[1], full[3]]   # header, replicas 0 and 2
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["excluded"] == 1 and report["replicas"] == [0, 2]
        assert report["estimates"]["E1"]["n_replicas"] == 2

    def test_truncated_ksw1_header_exits_2(self, tmp_path, config_file, capsys):
        path = tmp_path / "short.ksw1"
        path.write_bytes(b"KSW1" + bytes(4))
        rc = cli.main(["estimate", "--config", str(config_file), "--gamma",
                       "1.62", "--alpha", "0.045", "--trajectory", str(path),
                       "--out", str(tmp_path / "est")])
        assert rc == 2
        assert "truncated KSW1 header: 8 of 24 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", [math.nan, -0.01])
    def test_ksw1_header_dt_not_finite_positive_exits_2(self, tmp_path,
                                                         config_file, capsys,
                                                         dt):
        run_out = tmp_path / "run"
        cli.main(["simulate", "--config", str(config_file), "--out",
                  str(run_out), "--format", "bin"])
        raw = (run_out / "trajectory.ksw1").read_bytes()
        bad = tmp_path / "bad.ksw1"
        bad.write_bytes(raw[:16] + np.array(dt, "<f8").tobytes() + raw[24:])
        capsys.readouterr()
        rc = cli.main(["estimate", "--config", str(config_file), "--gamma",
                       "1.62", "--alpha", "0.045", "--trajectory", str(bad),
                       "--out", str(tmp_path / "est")])
        assert rc == 2
        assert (f"KSW1 header dt = {dt!r} is not finite and > 0"
                in capsys.readouterr().err)

    def test_csv_trajectory_roundtrip_estimate(self, tmp_path, config_file):
        run_out = tmp_path / "run"
        cli.main(["simulate", "--config", str(config_file), "--out",
                  str(run_out), "--format", "csv"])
        est = tmp_path / "est"
        rc = cli.main(["estimate", "--config", str(config_file),
                       "--trajectory", str(run_out / "trajectory.csv"),
                       "--gamma", "1.6", "--alpha", "0.05",
                       "--out", str(est)])
        assert rc == 0
        report = json.loads((est / "report.json").read_text())
        assert set(report["estimates"]) == {"E1", "E2", "E3", "E4", "S", "S_bar"}

    def test_zero_step_trajectory_same_error_in_both_formats(self, tmp_path,
                                                              capsys):
        # a step-0 CSV reads back with dt = 0; it must fail on the horizon,
        # as the same run's KSW1 file does, not on the dt check
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BASE_CONFIG.replace("n_steps = 20", "n_steps = 0")
                       .replace("n_replicas = 3", "n_replicas = 2"))
        run_out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--out",
                         str(run_out), "--format", "both"]) == 0
        for name in ("trajectory.csv", "trajectory.ksw1"):
            capsys.readouterr()
            rc = cli.main(["estimate", "--config", str(cfg), "--gamma", "1.62",
                           "--alpha", "0.045", "--trajectory",
                           str(run_out / name), "--out", str(tmp_path / name)])
            assert rc == 2
            assert ("horizon index 0 outside the simulated window"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("edit, message", [
        # an empty field once read as NaN, i.e. as a blown replica
        (lambda lines: [*lines[:5], lines[5].rsplit(",", 1)[0] + ",\n",
                        *lines[6:]], "could not convert string ''"),
        (lambda lines: ["replica,particle,step,t,x,z\n", *lines[1:]],
         "header 'replica,particle,step,t,x,z'"),
        (lambda lines: lines[:1], "no trajectory rows after the header"),
        (lambda lines: [*lines[:3], lines[3].replace(",2,", ",1.9,", 1),
                        *lines[4:]], "data row 3: index fields [0.0, 0.0, 1.9]"),
        (lambda lines: [*lines[:4], "0,0,3,99,0,0\n", *lines[5:]],
         "data row 4: t = 99.0 is not step * dt = 3 * 0.01")],
        ids=["empty_field", "changed_header", "header_only", "fractional_step",
             "wrong_t"])
    def test_malformed_csv_trajectory_exits_2(self, tmp_path, config_file,
                                              capsys, edit, message):
        run_out = tmp_path / "run"
        cli.main(["simulate", "--config", str(config_file), "--out",
                  str(run_out), "--format", "csv"])
        lines = (run_out / "trajectory.csv").read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(edit(lines)))
        capsys.readouterr()
        rc = cli.main(["estimate", "--config", str(config_file), "--gamma",
                       "1.62", "--alpha", "0.045", "--trajectory", str(bad),
                       "--out", str(tmp_path / "est")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and message in err


class TestThreshold:
    def test_single_point_table(self, tmp_path):
        out = tmp_path / "thr"
        rc = cli.main(["threshold", "--theta", "1.0", "--p", "3.31",
                       "--out", str(out)])
        assert rc == 0
        lines = (out / "threshold.csv").read_text().strip().splitlines()
        assert lines[0] == "theta,p,chi_star,best_gamma,best_alpha"
        theta, p, chi, g, a = (float(v) for v in lines[1].split(","))
        assert chi >= 1.39

    def test_requires_args(self, tmp_path):
        # rejected before the output directory is made
        out = tmp_path / "X"
        assert cli.main(["threshold", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("theta, p", [
        ("nan", "3.31"), ("inf", "3.31"), ("-inf", "3.31"),
        ("1.0", "nan"), ("1.0", "inf"), ("1.0", "-inf")])
    def test_nonfinite_exits_2(self, tmp_path, theta, p):
        out = tmp_path / "thr"
        assert cli.main(["threshold", f"--theta={theta}", f"--p={p}",
                         "--out", str(out)]) == 2
        assert not (out / "threshold.csv").exists()


class TestVerification:
    def test_verify_inequality_clean(self, tmp_path):
        rc = cli.main(["verify-inequality", "--cases", "2000", "--seed", "7",
                       "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "verify_inequality.json").read_text())
        assert payload["violations"] == 0
        assert payload["pass"]

    def test_verify_kernels_clean(self, tmp_path):
        rc = cli.main(["verify-kernels", "--samples", "4000",
                       "--fd-points", "20", "--out", str(tmp_path)])
        assert rc == 0

    def test_verify_kernels_evaluates_the_samples_asked_for(self, tmp_path,
                                                            capsys):
        # 999 samples over 2 groups: one group takes 500, the other 499
        rc = cli.main(["verify-kernels", "--samples", "999",
                       "--fd-points", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert "over 999 samples" in capsys.readouterr().out

    def test_verify_kernels_failure_exit_1(self, tmp_path):
        rc = cli.main(["verify-kernels", "--samples", "1000",
                       "--fd-points", "10", "--fd-tol", "1e-30",
                       "--out", str(tmp_path)])
        assert rc == 1

    def test_martingale_small(self, tmp_path):
        rc = cli.main(["martingale-test", "--replicas", "300", "--steps", "32",
                       "--batch", "150", "--seed", "4", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "martingale_test.json").read_text())
        assert 2.5 <= payload["variance_ratio"] <= 6.0

    def test_martingale_odd_steps_exit_2(self, tmp_path, capsys):
        # s = 1/2 is not a grid time at dt = 1/33: rejected before any run
        rc = cli.main(["martingale-test", "--replicas", "300", "--steps", "33",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "must be even" in capsys.readouterr().err

    def test_epsilon_study_mechanics(self, tmp_path):
        rc = cli.main(["epsilon-study", "--steps", "32", "--replicas", "2",
                       "--factor", "10.0", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "epsilon_study.csv").read_text().strip().splitlines()
        assert rows[0] == "epsilon,E4"
        assert len(rows) == 4

    def test_epsilon_study_nan_e4_fails(self, tmp_path, capsys, monkeypatch):
        # max([1.0, nan, 1.5]) is 1.5: a NaN E4 in the middle of the list
        # used to drop out of the spread and let the study pass
        real = cli.estimators.paper_moments

        def nan_at_middle(ens, ep):
            rep = real(ens, ep)
            if ens.config.params.epsilon == 0.05:
                rep.estimates["E4"].value = float("nan")
            return rep

        monkeypatch.setattr(cli.estimators, "paper_moments", nan_at_middle)
        rc = cli.main(["epsilon-study", "--steps", "16", "--replicas", "2",
                       "--epsilons", "0.1,0.05,0.025", "--factor", "10.0",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
        payload = json.loads((tmp_path / "epsilon_study.json").read_text())
        assert payload["pass"] is False and payload["spread"] is None


MODE_NAMES = ("simulate", "estimate", "threshold", "verify-inequality",
              "verify-kernels", "martingale-test", "epsilon-study")


def exit_status(argv):
    """cli.main's exit status, also when argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestParser:
    def test_unknown_mode_exits_2(self, capsys):
        assert exit_status(["dance"]) == 2
        assert "invalid choice: 'dance'" in capsys.readouterr().err

    def test_epsilons_not_numbers_exit_2(self, tmp_path, capsys):
        assert cli.main(["epsilon-study", "--epsilons", "0.1,x",
                         "--out", str(tmp_path)]) == 2
        assert "could not convert string to float: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilons", ["0.05", "0.05,0.05", "0.05,5e-2"])
    def test_epsilons_fewer_than_two_distinct_exit_2(self, tmp_path, capsys,
                                                     epsilons):
        # once spread 1.0 and a pass with nothing compared
        assert cli.main(["epsilon-study", "--epsilons", epsilons,
                         "--out", str(tmp_path)]) == 2
        assert "at least two distinct values" in capsys.readouterr().err
        assert not (tmp_path / "epsilon_study.json").exists()

    @pytest.mark.parametrize("epsilons", ["0.05", "0.1,x"])
    def test_mode_usage_error_removes_the_out_it_made(self, tmp_path, capsys,
                                                      epsilons):
        # the mode raises after cli.main made --out (and its parent): both
        # go again, as after an argparse-level error
        out = tmp_path / "new" / "out"
        assert exit_status(["epsilon-study", "--epsilons", epsilons,
                            "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists() and not out.parent.exists()
        # a directory that was there, or holds a file, stays
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "old.txt").write_text("x")
        assert exit_status(["epsilon-study", "--epsilons", epsilons,
                            "--out", str(kept / "out")]) == 2
        assert kept.is_dir() and not (kept / "out").exists()
        assert exit_status(["epsilon-study", "--epsilons", epsilons,
                            "--out", str(kept)]) == 2
        assert (kept / "old.txt").read_text() == "x"

    @pytest.mark.parametrize("argv", [
        ["martingale-test", "--steps", "0"],
        ["epsilon-study", "--steps", "0"],
        ["martingale-test", "--replicas", "1"],
        ["martingale-test", "--batch", "0"],
        ["verify-inequality", "--cases", "0"],
        ["verify-kernels", "--fd-points", "0"],
        ["verify-kernels", "--samples", "0"],
        ["verify-kernels", "--samples", "1"]],
        ids=["martingale_steps", "epsilon_steps", "martingale_replicas",
             "martingale_batch", "inequality_cases", "kernels_fd_points",
             "kernels_samples", "kernels_one_sample"])
    def test_count_that_empties_or_crashes_a_check_exits_2(self, tmp_path,
                                                           capsys, argv):
        # once a ZeroDivisionError (steps), a NaN variance ratio (one
        # replica) or a check that passed over nothing (cases, fd points,
        # an envelope sweep without one sample for each epsilon)
        out = tmp_path / "out"
        assert exit_status([*argv, "--out", str(out)]) == 2
        assert "must be at least" in capsys.readouterr().err
        assert not out.exists()

    def test_epsilon_study_default_seed_is_3(self, tmp_path):
        args = ["epsilon-study", "--steps", "16", "--replicas", "2",
                "--factor", "10.0"]
        assert cli.main([*args, "--out", str(tmp_path / "a")]) == 0
        assert cli.main([*args, "--seed", "3", "--out", str(tmp_path / "b")]) == 0
        assert cli.main([*args, "--seed", "4", "--out", str(tmp_path / "c")]) == 0
        csv = [(tmp_path / d / "epsilon_study.csv").read_bytes() for d in "abc"]
        assert csv[0] == csv[1] != csv[2]

    def test_verify_inequality_default_seed_is_0(self, tmp_path):
        args = ["verify-inequality", "--cases", "200"]
        assert cli.main([*args, "--out", str(tmp_path / "a")]) == 0
        assert cli.main([*args, "--seed", "0", "--out", str(tmp_path / "b")]) == 0
        assert cli.main([*args, "--seed", "1", "--out", str(tmp_path / "c")]) == 0
        payload = [(tmp_path / d / "verify_inequality.json").read_bytes()
                   for d in "abc"]
        assert payload[0] == payload[1] != payload[2]


def run_python(*args):
    """A fresh interpreter, with this checkout's package on its path."""
    src = str(Path(kspp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_entry_point_help_lists_every_mode():
    top = run_python("-m", "kspp.cli", "--help")
    assert top.returncode == 0, top.stderr
    assert all(mode in top.stdout for mode in MODE_NAMES)
    for mode in MODE_NAMES:
        sub = run_python("-m", "kspp.cli", mode, "--help")
        assert sub.returncode == 0, sub.stderr
        assert sub.stdout.startswith(f"usage: kspp {mode} ")


def test_cli_import_leaves_out_scipy():
    # scipy is a test dependency only: importing the CLI, the package and
    # every one of its submodules does not import it
    code = ("import importlib, pkgutil, sys, kspp, kspp.cli\n"
            "names = [m.name for m in pkgutil.iter_modules(kspp.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('kspp.' + name)\n"
            "print(len(names), 'scipy' in sys.modules)")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    count, loaded = out.stdout.split()
    assert int(count) >= 7
    assert loaded == "False"


def test_package_import_leaves_out_statistics_and_hashlib():
    # martingale_residual imports statistics (with fractions and decimal)
    # and the drift memo's fingerprint hashlib when they run, not at
    # `import kspp`
    code = ("import sys, kspp, kspp.cli\n"
            "print(*(m in sys.modules for m in "
            "('statistics', 'fractions', 'decimal', 'hashlib')))")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"] * 4
