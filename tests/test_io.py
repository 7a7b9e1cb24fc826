import numpy as np
import pytest

from kspp import io, simulator as S
from kspp.kernels import KernelParams, SourceSpec


def small_ensemble():
    cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=0.0, epsilon=0.05),
                      n_particles=3, dt=0.25, n_steps=4, n_replicas=2, seed=5,
                      init=S.InitSpec("gaussian", sigma=1.0))
    return S.run(cfg)


class TestTrajectoryFiles:
    def test_csv_roundtrip(self, tmp_path):
        ens = small_ensemble()
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, ens)
        pos, dt = io.read_trajectory_csv(path)
        np.testing.assert_array_equal(pos, ens.positions)
        assert dt == ens.config.dt

    def test_csv_incomplete_grid_rejected(self, tmp_path):
        ens = small_ensemble()
        ens.positions[1, 2:] = np.nan    # a blown replica's rows stay valid
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, ens)
        pos, _ = io.read_trajectory_csv(path)
        np.testing.assert_array_equal(pos, ens.positions)
        lines = path.read_text().splitlines(keepends=True)
        (tmp_path / "missing.csv").write_text("".join(lines[:5] + lines[6:]))
        with pytest.raises(ValueError, match="1 missing"):
            io.read_trajectory_csv(tmp_path / "missing.csv")
        (tmp_path / "dup.csv").write_text("".join(lines + lines[7:9]))
        with pytest.raises(ValueError, match="2 duplicated"):
            io.read_trajectory_csv(tmp_path / "dup.csv")

    def test_binary_roundtrip(self, tmp_path):
        ens = small_ensemble()
        path = tmp_path / "traj.ksw1"
        io.write_trajectory_bin(path, ens)
        pos, dt = io.read_trajectory_bin(path)
        np.testing.assert_array_equal(pos, ens.positions)
        assert dt == ens.config.dt

    def test_binary_header(self, tmp_path):
        ens = small_ensemble()
        path = tmp_path / "traj.ksw1"
        io.write_trajectory_bin(path, ens)
        raw = path.read_bytes()
        assert raw[:4] == b"KSW1"
        assert int.from_bytes(raw[4:8], "little") == 3   # particles
        assert int.from_bytes(raw[8:12], "little") == 4  # steps
        assert int.from_bytes(raw[12:16], "little") == 2  # replicas

    def test_binary_magic_check(self, tmp_path):
        path = tmp_path / "bogus.ksw1"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            io.read_trajectory_bin(path)

    def test_binary_truncation_check(self, tmp_path):
        ens = small_ensemble()
        path = tmp_path / "traj.ksw1"
        io.write_trajectory_bin(path, ens)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            io.read_trajectory_bin(path)


class TestConfigFormat:
    def test_roundtrip(self):
        cfg = S.SimConfig(
            params=KernelParams(theta=2.5, lam=0.3, chi=0.8, epsilon=0.05, p=3.4),
            source=SourceSpec(components=((1.0, (0.5, -0.5), 2.0),
                                          (0.25, (0.0, 1.0), 0.5))),
            n_particles=5, dt=0.001, n_steps=250, n_replicas=7, seed=42,
            init=S.InitSpec("uniform_disk", center=(1.0, -1.0), radius=3.0),
            history_cutoff=0.5, noise_mode="zero")
        assert io.parse_config(io.format_config(cfg)) == cfg

    def test_comments_and_defaults(self):
        cfg = io.parse_config("""
        # minimal config
        theta = 1.0
        """)
        assert cfg.params.theta == 1.0
        assert cfg.params.chi == 1.0
        assert cfg.n_particles == 2
        assert cfg.source.is_zero
        assert cfg.history_cutoff is None

    def test_source_parsing(self):
        cfg = io.parse_config("theta = 1\nsource = 1,0,0,1; 2,1,-1,0.5\n")
        assert cfg.source.components == ((1.0, (0.0, 0.0), 1.0),
                                         (2.0, (1.0, -1.0), 0.5))

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            io.parse_config("theta = 1\ndt_seconds = 0.1\n")

    def test_missing_required(self):
        with pytest.raises(ValueError, match="theta"):
            io.parse_config("chi = 1.0\n")

    def test_bad_line(self):
        with pytest.raises(ValueError, match="key = value"):
            io.parse_config("theta 1.0\n")

    def test_bad_source_component(self):
        with pytest.raises(ValueError, match="source component"):
            io.parse_config("theta = 1\nsource = 1,2,3\n")
