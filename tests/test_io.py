import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kspp import io, simulator as S
from kspp.kernels import KernelParams, SourceSpec


def small_ensemble():
    cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=0.0, epsilon=0.05),
                      n_particles=3, dt=0.25, n_steps=4, n_replicas=2, seed=5,
                      init=S.InitSpec("gaussian", sigma=1.0))
    return S.run(cfg)


def reference_write_trajectory_csv(path, ensemble):
    """One f-string per row: the writer's bytes, spelled out."""
    pos = ensemble.positions
    dt = ensemble.config.dt
    with open(path, "w") as fh:
        fh.write(io.CSV_HEADER + "\n")
        for r in range(pos.shape[0]):
            for i in range(pos.shape[2]):
                for m in range(pos.shape[1]):
                    x, y = pos[r, m, i]
                    fh.write(f"{r},{i},{m},{m * dt:.17g},{x:.17g},{y:.17g}\n")


@st.composite
def trajectory_ensembles(draw):
    """Gaussian paths with a blown replica's NaN rows, -0.0, +-inf and
    extreme magnitudes dropped in; R 1-4, N 2-5, 0-12 steps."""
    r_n, n, n_steps = (draw(st.integers(1, 4)), draw(st.integers(2, 5)),
                       draw(st.integers(0, 12)))
    cfg = S.SimConfig(params=KernelParams(theta=1.0), n_particles=n,
                      dt=draw(st.sampled_from([0.1, 1 / 3, 0.01, 10.0])),
                      n_steps=n_steps, n_replicas=r_n, seed=0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pos = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e5])),
                     size=(r_n, n_steps + 1, n, 2))
    if draw(st.booleans()):
        pos[draw(st.integers(0, r_n - 1)), draw(st.integers(0, n_steps)):] = np.nan
    for k, value in draw(st.lists(st.tuples(
            st.integers(0, pos.size - 1),
            st.sampled_from([-0.0, 0.0, math.inf, -math.inf, 5e-324, -1e308])),
            max_size=6)):
        pos.flat[k] = value
    return S.TrajectoryEnsemble(positions=pos, config=cfg, rng_provenance={})


class TestTrajectoryFiles:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ens=trajectory_ensembles())
    def test_csv_matches_row_writer_and_roundtrips(self, tmp_path, ens):
        io.write_trajectory_csv(tmp_path / "blocks.csv", ens)
        reference_write_trajectory_csv(tmp_path / "rows.csv", ens)
        assert ((tmp_path / "blocks.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())
        pos, dt = io.read_trajectory_csv(tmp_path / "blocks.csv")
        # bit for bit, -0.0 included; NaN has one spelling, "nan"
        nan = np.isnan(ens.positions)
        np.testing.assert_array_equal(np.isnan(pos), nan)
        np.testing.assert_array_equal(pos[~nan].view(np.uint64),
                                      ens.positions[~nan].view(np.uint64))
        assert dt == (ens.config.dt if ens.n_steps else 0.0)

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

    @pytest.mark.parametrize("far, size", [
        ("1000000,0,0", 1000001), ("10000000,10000000,10000000", 10000001 ** 3),
        ("1e19,0,0", 10 ** 19 + 1)],
        ids=["replica_1e6", "grid_past_int64", "index_past_int64"])
    def test_csv_too_few_rows_rejected_before_sizing_the_grid(self, tmp_path,
                                                              far, size):
        # two rows spanning a grid of `size` rows: the count check comes
        # before anything is sized by the largest indices (a 9 MB peak at
        # 10^6 replicas when the grid was counted first)
        path = tmp_path / "sparse.csv"
        path.write_text(f"{io.CSV_HEADER}\n0,0,0,0,1,2\n{far},0,3,4\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="incomplete trajectory grid: "
                               f"{size - 2} missing and 0 duplicated rows of "
                               f"the {size} "):
                io.read_trajectory_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

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

    def test_csv_negated_times_rejected(self, tmp_path):
        # a 3-step file with every t negated read back dt = -0.01; the
        # inferred dt is held to the KSW1 header's rule
        cfg = S.SimConfig(params=KernelParams(theta=1.0, chi=0.0,
                                              epsilon=0.05),
                          n_particles=2, dt=0.01, n_steps=3, n_replicas=2, seed=5,
                          init=S.InitSpec("gaussian", sigma=1.0))
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, S.run(cfg))
        lines = path.read_text().splitlines(keepends=True)
        for k in range(1, len(lines)):
            fields = lines[k].split(",")
            fields[3] = repr(-float(fields[3]))
            lines[k] = ",".join(fields)
        bad = tmp_path / "negated.csv"
        bad.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(
                "negated.csv: data row 2: t = -0.01 at step 1 gives "
                "dt = -0.01, not finite and > 0")):
            io.read_trajectory_csv(bad)
        # a file of step-0 rows alone still reads dt = 0, -0.0 included
        step0 = tmp_path / "step0.csv"
        step0.write_text(f"{io.CSV_HEADER}\n0,0,0,-0.0,1,2\n0,1,0,0,3,4\n")
        pos, dt = io.read_trajectory_csv(step0)
        assert dt == 0.0 and pos.shape == (1, 1, 2, 2)

    @pytest.mark.parametrize("dt", [math.nan, 0.0, -0.01, math.inf])
    def test_binary_header_dt_must_be_finite_and_positive(self, tmp_path, dt):
        # the writer always writes a SimConfig dt, which is > 0; the dt
        # check against a config is False for NaN, so the reader rejects it
        path = tmp_path / "traj.ksw1"
        io.write_trajectory_bin(path, small_ensemble())
        raw = path.read_bytes()
        path.write_bytes(raw[:16] + np.array(dt, "<f8").tobytes() + raw[24:])
        with pytest.raises(ValueError, match=re.escape(
                f"KSW1 header dt = {dt!r} is not finite and > 0")):
            io.read_trajectory_bin(path)


def pair_shape_ensemble():
    """pair_ensemble's shape: 300 replicas of 2 particles over 100 steps,
    60 600 CSV rows."""
    cfg = S.SimConfig(params=KernelParams(theta=1.0), n_particles=2,
                      dt=0.01, n_steps=100, n_replicas=300, seed=0)
    pos = np.random.default_rng(0).normal(size=(300, 101, 2, 2))
    return S.TrajectoryEnsemble(positions=pos, config=cfg, rng_provenance={})


def traced_peak(fn, *args):
    """fn(*args) and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReaderMemory:
    def test_csv_read_holds_table_result_and_24_bytes_a_row(self, tmp_path):
        # the parsed table is 48 B a row and the result 16; the checks get
        # 24 B a row more (5.33 MB in all here, where checks on copies of
        # the index columns peaked at 7.88 MB)
        ens = pair_shape_ensemble()
        path = tmp_path / "pair.csv"
        io.write_trajectory_csv(path, ens)
        (pos, dt), peak = traced_peak(io.read_trajectory_csv, path)
        rows = 300 * 2 * 101
        assert np.array_equal(pos, ens.positions) and dt == 0.01
        assert peak <= 48 * rows + pos.nbytes + 24 * rows

    def test_ksw1_read_holds_one_copy(self, tmp_path):
        ens = pair_shape_ensemble()
        path = tmp_path / "pair.ksw1"
        io.write_trajectory_bin(path, ens)
        (pos, dt), peak = traced_peak(io.read_trajectory_bin, path)
        assert np.array_equal(pos, ens.positions) and dt == 0.01
        assert pos.dtype == np.float64 and pos.flags.c_contiguous
        assert peak <= pos.nbytes + 64 * 1024

    @pytest.mark.parametrize("cut", [-1, -7, -8, 1, 8, -480],
                             ids=["minus_1", "minus_7", "minus_8", "plus_1",
                                  "plus_8", "header_only"])
    def test_ksw1_payload_length_must_match(self, tmp_path, cut):
        path = tmp_path / "traj.ksw1"
        io.write_trajectory_bin(path, small_ensemble())
        raw = path.read_bytes()
        size = len(raw) - 24
        assert size == 16 * 2 * 5 * 3   # 2 replicas, 5 rows, 3 particles
        path.write_bytes(raw[:len(raw) + cut] if cut < 0 else raw + b"\0" * cut)
        with pytest.raises(ValueError, match=re.escape(
                f"traj.ksw1: payload has {size + cut} bytes, expected {size} "
                "(60 doubles)")):
            io.read_trajectory_bin(path)

    def test_ksw1_huge_header_rejected_before_allocating(self, tmp_path):
        # a header that claims 2^32 - 1 replicas of 2^32 - 1 particles
        path = tmp_path / "huge.ksw1"
        path.write_bytes(io._HEADER.pack(io.MAGIC, 2 ** 32 - 1, 0, 2 ** 32 - 1,
                                         0.1) + b"\0" * 16)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="payload has 16 bytes"):
                io.read_trajectory_bin(path)
            assert tracemalloc.get_traced_memory()[1] < 64 * 1024
        finally:
            tracemalloc.stop()


def shuffled_rows(tmp_path, ens, seed=3):
    """`ens` written as a CSV and its data rows shuffled: (path, lines),
    lines[0] the header and lines[k] data row k."""
    path = tmp_path / "traj.csv"
    io.write_trajectory_csv(path, ens)
    lines = path.read_text().splitlines(keepends=True)
    body = lines[1:]
    np.random.default_rng(seed).shuffle(body)
    lines = lines[:1] + body
    path.write_text("".join(lines))
    return path, lines


def edit(path, lines, row, column, value):
    """Write `lines` to `path` with field `column` of data row `row` set
    to `value`."""
    lines = list(lines)
    fields = lines[row].rstrip("\n").split(",")
    fields[column] = value
    lines[row] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


class TestShuffledCsv:
    """Rows in any order: the reader scatters each row to its place through
    the flat (replica, step, particle) index, and every error names the data
    row of the file."""

    def test_roundtrip(self, tmp_path):
        ens = small_ensemble()
        ens.positions[1, 3:] = np.nan
        ens.positions[0, 2, 1, 0] = -0.0
        path, lines = shuffled_rows(tmp_path, ens)
        index = [tuple(map(int, line.split(",")[:3])) for line in lines[1:]]
        assert index != sorted(index)    # not in writer order
        pos, dt = io.read_trajectory_csv(path)
        assert dt == 0.25
        np.testing.assert_array_equal(np.isnan(pos), np.isnan(ens.positions))
        fin = ~np.isnan(pos)
        np.testing.assert_array_equal(pos[fin].view(np.uint64),
                                      ens.positions[fin].view(np.uint64))

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ens=trajectory_ensembles(), seed=st.integers(0, 2 ** 32 - 1))
    def test_any_order_reads_as_writer_order(self, tmp_path, ens, seed):
        io.write_trajectory_csv(tmp_path / "ordered.csv", ens)
        want, _ = io.read_trajectory_csv(tmp_path / "ordered.csv")
        path, lines = shuffled_rows(tmp_path, ens, seed)
        pos, dt = io.read_trajectory_csv(path)
        assert pos.tobytes() == want.tobytes()
        # dt is t / step of the file's first row past step 0, which in
        # another order may be another row, and another last bit
        past_0 = [line.split(",")[2:4] for line in lines[1:]
                  if line.split(",")[2] != "0"]
        assert dt == (float(past_0[0][1]) / int(past_0[0][0]) if past_0 else 0.0)

    @pytest.mark.parametrize("column, value, fields", [
        (2, "2.5", "{r}, {i}, 2.5"), (0, "-1", "-1.0, {i}, {m}"),
        (1, "inf", "{r}, inf, {m}"), (2, "nan", "{r}, {i}, nan")])
    def test_index_error_names_the_row(self, tmp_path, column, value, fields):
        path, lines = shuffled_rows(tmp_path, small_ensemble())
        # two bad rows: the first in the file is named
        edit(path, lines, 17, column, value)
        lines = path.read_text().splitlines(keepends=True)
        edit(path, lines, 23, column, value)
        r, i, m = (f"{float(v)!r}" for v in lines[17].split(",")[:3])
        want = "[" + fields.format(r=r, i=i, m=m) + "]"
        with pytest.raises(ValueError, match=re.escape(
                f"traj.csv: data row 17: index fields {want} are not all "
                "non-negative integers")):
            io.read_trajectory_csv(path)

    def test_gap_and_duplicate_counts(self, tmp_path):
        path, lines = shuffled_rows(tmp_path, small_ensemble())
        # 30 rows: drop data rows 4 and 9, repeat 12 three times
        body = [line for k, line in enumerate(lines[1:], 1) if k not in (4, 9)]
        path.write_text("".join(lines[:1] + body + [lines[12]] * 3))
        with pytest.raises(ValueError, match=re.escape(
                "incomplete trajectory grid: 2 missing and 3 duplicated rows "
                "of the 30 (replica, particle, step) rows")):
            io.read_trajectory_csv(path)
        # as many rows as the grid, one of them twice
        path.write_text("".join(lines[:1] + body + [lines[12]] * 2))
        with pytest.raises(ValueError, match="2 missing and 2 duplicated"):
            io.read_trajectory_csv(path)

    def test_time_error_names_the_row(self, tmp_path):
        path, lines = shuffled_rows(tmp_path, small_ensemble())
        k = next(k for k in range(20, 31) if lines[k].split(",")[2] != "0")
        step = int(lines[k].split(",")[2])
        edit(path, lines, k, 3, "1e-3")
        with pytest.raises(ValueError, match=re.escape(
                f"traj.csv: data row {k}: t = 0.001 is not step * dt = "
                f"{step} * 0.25")):
            io.read_trajectory_csv(path)

    def test_dt_comes_from_the_first_row_past_step_0(self, tmp_path):
        path, lines = shuffled_rows(tmp_path, small_ensemble())
        k = next(k for k in range(1, 31) if lines[k].split(",")[2] != "0")
        step = int(lines[k].split(",")[2])
        edit(path, lines, k, 3, "-1")
        with pytest.raises(ValueError, match=re.escape(
                f"traj.csv: data row {k}: t = -1.0 at step {step} gives "
                f"dt = {-1 / step!r}, not finite and > 0")):
            io.read_trajectory_csv(path)
        # a wrong t there gives another dt: the next row past step 0 is named
        edit(path, lines, k, 3, repr(2 * 0.25 * step))
        j = next(j for j in range(k + 1, 31) if lines[j].split(",")[2] != "0")
        step_j = int(lines[j].split(",")[2])
        with pytest.raises(ValueError, match=re.escape(
                f"traj.csv: data row {j}: t = {0.25 * step_j!r} is not "
                f"step * dt = {step_j} * 0.5")):
            io.read_trajectory_csv(path)


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
        # the bytes of config_resolved.txt and of run_meta.json's "config"
        assert io.format_config(cfg) == (
            "theta = 2.5\nlambda = 0.29999999999999999\nchi = 0.80000000000000004\n"
            "epsilon = 0.050000000000000003\np = 3.3999999999999999\n"
            "n_particles = 5\ndt = 0.001\nn_steps = 250\nn_replicas = 7\n"
            "seed = 42\ninit = uniform_disk\ninit_center = 1,-1\n"
            "init_sigma = 1\ninit_radius = 3\nhistory_cutoff = 0.5\n"
            "noise_mode = zero\nsource = 1,0.5,-0.5,2; 0.25,0,1,0.5\n")

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
        # every key left out takes its dataclass default
        assert io.parse_config("theta = 1.0") == S.SimConfig(
            params=KernelParams(theta=1.0))

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

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ValueError, match="line 3.*'dt'"):
            io.parse_config("theta = 1\nchi = 0\ndt = abc")

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
