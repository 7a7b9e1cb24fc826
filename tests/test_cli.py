import json
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
        assert cli.main(["threshold", "--out", str(tmp_path)]) == 2

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

    def test_epsilon_study_mechanics(self, tmp_path):
        rc = cli.main(["epsilon-study", "--steps", "32", "--replicas", "2",
                       "--factor", "10.0", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "epsilon_study.csv").read_text().strip().splitlines()
        assert rows[0] == "epsilon,E4"
        assert len(rows) == 4


class TestManifest:
    def test_run_experiment_rejects_unknown_mode(self, tmp_path):
        manifest = cli.ExperimentManifest(mode="dance", out_dir=tmp_path)
        with pytest.raises(ValueError):
            cli.run_experiment(manifest)


def test_cli_import_leaves_out_scipy():
    # scipy is only needed by the quadrature oracles, which import it lazily
    src = str(Path(kspp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, kspp.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
