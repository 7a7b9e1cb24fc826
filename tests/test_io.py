import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("line, column, value, message", [
        (6, 2, "3.7", r"data row 6: index fields \[0.0, 1.0, 3.7\]"),
        (2, 2, "-1", r"data row 2: index fields \[0.0, 0.0, -1.0\]"),
        (3, 0, "nan", r"data row 3: index fields \[nan, 0.0, 2.0\]"),
        (4, 3, "99", r"data row 4: t = 99.0 is not step \* dt = 3 \* 0.25"),
        (1, 3, "nan", r"data row 1: t = nan is not step \* dt = 0 \* 0.25")],
        ids=["fractional_step", "negative_step", "nan_replica", "wrong_t", "nan_t"])
    def test_csv_index_and_time_checked(self, tmp_path, line, column, value,
                                        message):
        ens = small_ensemble()
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, ens)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[line].split(",")
        fields[column] = value
        lines[line] = ",".join(fields)
        (tmp_path / "bad.csv").write_text("".join(lines))
        with pytest.raises(ValueError, match=f"bad.csv: {message}"):
            io.read_trajectory_csv(tmp_path / "bad.csv")

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

    def test_binary_truncated_header_rejected(self, tmp_path):
        ens = small_ensemble()
        path = tmp_path / "traj.ksw1"
        io.write_trajectory_bin(path, ens)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ksw1"
        for size in range(24):
            cut.write_bytes(raw[:size])
            with pytest.raises(ValueError,
                               match=f"truncated KSW1 header: {size} of 24"):
                io.read_trajectory_bin(cut)


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

    @pytest.mark.parametrize("line, field", [
        ("dt = nan", "dt"), ("dt = inf", "dt"), ("theta = nan", "theta"),
        ("lambda = nan", "lam"), ("init_sigma = nan", "sigma"),
        ("init_radius = -inf", "radius"), ("init_center = nan,0", "center"),
        ("history_cutoff = nan", "history_cutoff"),
        ("history_cutoff = inf", "history_cutoff"), ("p = inf", "p"),
        ("source = 1,0,0,nan", "variance")])
    def test_nonfinite_value(self, line, field):
        with pytest.raises(ValueError, match=field):
            io.parse_config(f"theta = 1\nchi = 0\n{line}\n")


_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e999",
                     "-0.0", "0", "1", "2.5", "1_000", " 3 "]))
_VALUE_TEXT = st.one_of(
    _NUMBER_TEXT,
    st.lists(_NUMBER_TEXT, min_size=1, max_size=5).map(",".join),
    st.lists(st.lists(_NUMBER_TEXT, min_size=4, max_size=4).map(",".join),
             min_size=1, max_size=3).map("; ".join),
    st.sampled_from(["point", "gaussian", "uniform_disk", "mirrored_pair",
                     "standard", "zero", "mirrored", "none", ""]),
    st.text(max_size=12))
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(io._CONFIG_KEYS), _VALUE_TEXT).map(
        lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(["", "  ", "# comment", "theta = 2  # trailing comment"]),
    st.text(max_size=20))


def _float_fields(cfg):
    p, init = cfg.params, cfg.init
    values = [p.theta, p.lam, p.chi, p.epsilon, p.p, cfg.dt, init.sigma,
              init.radius, *init.center]
    if cfg.history_cutoff is not None:
        values.append(cfg.history_cutoff)
    for w, center, var in cfg.source.components:
        values += [w, *center, var]
    return values


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(theta=st.booleans(), lines=st.lists(_CONFIG_LINE, max_size=6))
    def test_parse_config_gives_finite_config_or_value_error(self, theta, lines):
        # a leading valid theta lets most texts with few bad lines parse
        try:
            cfg = io.parse_config("\n".join(["theta = 1"] * theta + lines))
        except ValueError:
            return
        assert isinstance(cfg, S.SimConfig)
        assert all(math.isfinite(v) for v in _float_fields(cfg))
