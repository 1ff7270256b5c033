"""End-to-end tests of the command-line harness and its CSV contracts."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beamfocus
from beamfocus import beamforming, channel, cli, spectral, validation
from beamfocus.linalg import ConvergenceError
from beamfocus.scenario import Scenario, load_config, parse_config

SMALL_YAML = """\
frequency_ghz: 28.0
distance_m: 50.0
tx: {n_v: 4, n_h: 4}
rx: {n_v: 4, n_h: 4}
ns: 4
ns_split: [2, 2]
n_rf_tx: 4
n_rf_rx: 4
snr_db: [-5, 5]
schemes: [digital-uniform, omp-hybrid]
rotation_deg: [0, 15]
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SMALL_YAML)
    return path


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


ROOT = Path(__file__).resolve().parents[1]
DESK = ROOT / "configs" / "desk_scale.yaml"
SMOKE = ROOT / "configs" / "small_smoke.yaml"

# the benchmark's fine-grid link (4 x 4 arrays per side, 2 x 2 streams) with
# spare RF chains, at 0 deg and the 36 angles that fine-grid draws from seed 1
ROTATION_SWEEP_CONFIG = {
    "frequency_ghz": 28.0,
    "distance_m": 50.0,
    "tx": {"n_v": 4, "n_h": 4},
    "rx": {"n_v": 4, "n_h": 4},
    "ns": 4,
    "ns_split": [2, 2],
    "n_rf_tx": 8,
    "n_rf_rx": 6,
    "snr_db": [-10, 0, 20],
    "schemes": ["digital-uniform", "digital-wf", "asymptotic-hybrid", "omp-hybrid", "phase-extract"],
    "spacing_mode": "optimal",
    "rotation_deg": [
        0.0, 0.276, 1.206, 2.925, 3.335, 3.715, 3.806, 4.009, 8.271, 12.302, 13.399, 15.455,
        17.611, 27.519, 28.39, 28.676, 29.057, 29.984, 30.26, 30.55, 33.432, 34.908, 41.606,
        45.311, 49.756, 49.965, 51.093, 55.327, 56.723, 57.394, 58.377, 58.915, 61.898, 63.944,
        64.937, 64.987, 69.157,
    ],
    "layout": "parallelogram",
}


def assert_matches_golden(rows, name, count):
    """Sweep rows against a committed CSV under tests/data, rates to 1e-9 relative."""
    _, golden = read_rows(ROOT / "tests" / "data" / name)
    assert len(rows) == len(golden) == count
    for row, gold in zip(rows, golden):
        assert (row[0], row[1], row[2]) == (gold[0], float(gold[1]), float(gold[2]))
        for got, want in zip(row[3:], gold[3:]):
            assert abs(got - float(want)) <= 1e-9 * abs(float(want)), gold


def edited_config(path, *edits):
    """The text of the config at ``path`` with each ``(field, value)`` line replaced, checked to apply."""
    text = path.read_text()
    for key, value in edits:
        lines = [line for line in text.splitlines() if line.startswith(f"{key}: ")]
        assert len(lines) == 1, key
        text = text.replace(lines[0], f"{key}: {value}")
    return text


# the panel-shaped smoke copy that CI runs: a 64 x 64 receiver with 8 RF
# chains per side, at 0 degrees
PANEL_SHAPED = edited_config(
    SMOKE, ("rx", "{n_v: 64, n_h: 64}"), ("n_rf_tx", "8"), ("n_rf_rx", "8"), ("rotation_deg", "[0]"),
)


def flat_rows(rotations, groups):
    """The rows of ``run_rate_sweep``'s groups, one (scheme, snr, rotation, rate, gap, ...) tuple each."""
    return [
        (scheme, snr, rot, rate, gap, *timing)
        for scheme, snr, rates, gaps, *timing in groups
        for rot, rate, gap in zip(rotations, rates, gaps, strict=True)
    ]


def sweep_rows(config):
    """The rows of a rate sweep of ``config``, in file order."""
    return flat_rows(*cli.run_rate_sweep(config)[1:])


def assert_batch_invariant(config):
    """A sweep's rows are bitwise those of its one-angle sweeps, taken in key order."""
    rows = sweep_rows(config)
    alone = [
        row for rot in config.rotation_deg
        for row in sweep_rows(dataclasses.replace(config, rotation_deg=(rot,)))
    ]
    assert len(rows) == len(config.schemes) * len(config.snr_db) * len(config.rotation_deg)
    assert rows == sorted(alone, key=lambda row: row[:3])


def csv_bytes_at_blas_threads(command, config, tmp_path):
    """The CSV bytes of one CLI run, in a subprocess, at each of 1, 2 and nproc BLAS threads.

    The thresholds above which LAPACK threads a call belong to the machine:
    a box with more cores may thread smaller calls, hence the nproc count.
    """
    files = []
    for t in sorted({"1", "2", str(len(os.sched_getaffinity(0)))}):
        out = tmp_path / f"{command}-{t}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=t,
                   PYTHONPATH=str(Path(beamfocus.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-m", "beamfocus.cli", command, "--config",
                        str(config), "--out", str(out)], env=env, check=True)
        files.append(out.read_bytes())
    return files


def _fmt(value) -> str:
    """One CSV cell as the writer once formatted each value: the oracle of the row formats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# floats of every kind: hypothesis's own draws plus the values a format is likeliest to miss
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e-300]),
)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)))  # any text UTF-8 can encode
# grid-axis values: repeats, and -0.0 beside 0.0 and NaNs, drawn often
KEYS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, 1.0]), FLOATS)


@st.composite
def rate_sweeps(draw, timing):
    """``(rotations, groups)`` shaped as run_rate_sweep's: every group has a rate per rotation."""
    rotations = tuple(draw(st.lists(KEYS, max_size=6)))
    values = st.lists(FLOATS, min_size=len(rotations), max_size=len(rotations))
    groups = []
    for _ in range(draw(st.integers(0, 6))):
        extra = (draw(FLOATS),) if timing else ()
        groups.append((draw(TEXT), draw(KEYS), draw(values), draw(values), *extra))
    return rotations, groups


# per command: its rows as text, the rows a draw gives, and those rows as cell tuples
ROW_SHAPES = {
    "rate-sweep": (
        lambda sweep: cli._rate_lines(*sweep), rate_sweeps(timing=False), lambda sweep: flat_rows(*sweep),
    ),
    "rate-sweep --timing": (
        lambda sweep: cli._rate_lines(*sweep), rate_sweeps(timing=True), lambda sweep: flat_rows(*sweep),
    ),
    "spectrum": (
        functools.partial(map, cli._spectrum_line),
        st.lists(st.one_of(
            st.tuples(st.just("eigenvalue"), TEXT, FLOATS, FLOATS),
            st.tuples(st.just("summary"), TEXT, FLOATS, st.just("")),
        ), max_size=20),
        list,
    ),
    "aperture-sweep": (
        functools.partial(map, cli._aperture_line),
        st.lists(st.tuples(FLOATS, FLOATS, FLOATS, FLOATS, st.booleans(), FLOATS), max_size=20),
        list,
    ),
}


def written_bytes(header, lines) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        cli._write_csv(path, header, lines)
        with open(path, "rb") as fh:
            return fh.read()


def value_by_value(header, rows) -> bytes:
    """The oracle: each cell formatted alone by _fmt."""
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


class TestCsvWriter:
    @pytest.mark.parametrize("shape", ROW_SHAPES)
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    @example(data=None)  # no rows: the header alone
    def test_bytes_match_value_by_value_format(self, shape, data):
        lines, draw_rows, cells = ROW_SHAPES[shape]
        no_rows = ((), []) if shape.startswith("rate-sweep") else []
        rows = no_rows if data is None else data.draw(draw_rows)
        header = ["a", "b"]
        assert written_bytes(header, lines(rows)) == value_by_value(header, cells(rows))

    @pytest.mark.parametrize("timing", [(), (2.5,)], ids=["untimed", "timing"])
    def test_rate_groups_keep_each_key_apart(self, timing):
        # -0.0 beside 0.0 and NaNs among the rotations and the snr keys, a '%'
        # in a key, and an empty sweep: each row as the value-by-value format
        # writes it
        sweep = (0.0, -0.0, math.nan, 1.0, 1.0)
        groups = [
            ("a%s", -0.0, [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, -0.0, math.nan, math.inf, 1.0], *timing),
            ("a%s", 0.0, [6.0, 7.0, 8.0, 9.0, 10.0], [0.1, 0.2, 0.3, 0.4, 0.5], *timing),
            ("b", math.nan, [1.5, 2.5, 3.5, 4.5, 5.5], [0.25, 0.75, 1.0, 1.0, 1.0], *timing),
        ]
        header = ["scheme", "snr_db", "rotation_deg", "rate_bps_hz", "digital_gap_ratio"]
        got = written_bytes(header, cli._rate_lines(sweep, groups))
        assert got == value_by_value(header, flat_rows(sweep, groups))
        assert len(got.splitlines()) == 1 + 3 * 5
        assert b"\na%s,-0,0," in got and b"\na%s,0,-0," in got and b"\nb,nan,nan," in got
        empty = [("c", 1.0, [], [], *timing)]
        assert written_bytes(header, cli._rate_lines((), empty)) == value_by_value(header, [])

    def test_rate_groups_reject_a_rate_per_missing_rotation(self):
        lines = cli._rate_lines((0.0, 1.0), [("a", 0.0, [1.0], [1.0])])
        with pytest.raises(ValueError):
            next(lines)


def fail_first_factorization(monkeypatch, command, exc):
    """Make ``command``'s first rate raise ``exc``.

    A rate sweep fails at Scenario.rate, and an aperture sweep at the
    values-only SVD of each scale's channel.
    """

    def fail(*args, **kwargs):
        raise exc

    if command == "rate-sweep":
        monkeypatch.setattr(Scenario, "rate", fail)
    else:
        monkeypatch.setattr(cli, "singular_values", fail)


class TestRateSweep:
    def test_rows_and_ordering(self, small_config, tmp_path):
        out = tmp_path / "rates.csv"
        assert cli.main(["rate-sweep", "--config", str(small_config), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["scheme", "snr_db", "rotation_deg", "rate_bps_hz", "digital_gap_ratio"]
        assert len(rows) == 2 * 2 * 2
        keys = [(r[0], float(r[1]), float(r[2])) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            if r[0] == "digital-uniform":
                assert abs(float(r[4]) - 1.0) <= 1e-12
            else:
                assert float(r[4]) <= 1.0 + 1e-9

    def test_byte_identical_reruns(self, small_config, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["rate-sweep", "--config", str(small_config), "--out", str(out1)]) == 0
        assert cli.main(["rate-sweep", "--config", str(small_config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_output(self, small_config, tmp_path):
        out1 = tmp_path / "seq.csv"
        out2 = tmp_path / "par.csv"
        assert cli.main(["rate-sweep", "--config", str(small_config), "--out", str(out1)]) == 0
        assert cli.main(
            ["rate-sweep", "--config", str(small_config), "--out", str(out2), "--threads", "4"]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_blas_threads_do_not_change_desk_rates(self, tmp_path):
        # the desk SVD has exactly degenerate singular values, so this also
        # checks that phase-extract does not depend on the basis LAPACK picks;
        # the subspace SVD factors nothing larger than 256 x 35, below the
        # sizes at which LAPACK threads, so the whole CSV is byte-identical
        files = csv_bytes_at_blas_threads("rate-sweep", DESK, tmp_path)
        assert len(files[0].splitlines()) == 1 + 35
        assert all(f == files[0] for f in files[1:])

    def test_blas_threads_do_not_change_smoke_rates(self, tmp_path):
        # 16 x 16 channels keep the dense SVD, too small for LAPACK to thread
        files = csv_bytes_at_blas_threads("rate-sweep", SMOKE, tmp_path)
        assert len(files[0].splitlines()) == 1 + 30
        assert all(f == files[0] for f in files[1:])

    def test_desk_rates_match_golden_csv(self):
        # every scheme, hybrids included, against the committed desk sweep:
        # a change in the picked atoms or the SVD basis shows here
        rows = sweep_rows(load_config(str(DESK)))
        assert_matches_golden(rows, "desk_rate_sweep.csv", 35)

    def test_panel_rates_match_golden_csv(self):
        # a 64 x 64 receiver: the streamed gain rankings, phase extraction's
        # pads and the dense digital SVD of a 4096 x 16 channel
        rows = sweep_rows(parse_config(yaml.safe_load(PANEL_SHAPED)))
        assert_matches_golden(rows, "panel_rate_sweep.csv", 15)

    @pytest.mark.parametrize("text", [DESK.read_text(), PANEL_SHAPED], ids=["desk", "panel-shaped"])
    def test_one_angle_sweep_is_the_scalar_scenario(self, text):
        # the CLI rates one angle as a batch of one; spectrum, aperture-sweep
        # and validate build the scenario of that angle alone, and its rates
        # must be the sweep's, bitwise
        config = parse_config(yaml.safe_load(text))
        (rotation,) = config.rotation_deg
        scenario = Scenario(config, rotation)
        snrs = np.array([10 ** (s / 10.0) for s in config.snr_db])
        got = {(scheme, snr): rate for scheme, snr, _, rate, _ in sweep_rows(config)}
        for scheme in config.schemes:
            want = scenario.rate(scheme, snrs).tolist()
            assert [got[scheme, snr] for snr in config.snr_db] == want, scheme

    def test_spare_rf_rates_match_golden_csv(self):
        # n_rf above ns on both sides, unequal: the asymptotic SVD baseband,
        # the phase-extract pads and OMP's spare atoms, which the desk golden
        # (n_rf = ns) never reaches
        text = SMOKE.read_text().replace("n_rf_tx: 4", "n_rf_tx: 8").replace("n_rf_rx: 4", "n_rf_rx: 6")
        config = parse_config(yaml.safe_load(text))
        assert (config.n_rf_tx, config.n_rf_rx, config.rotation_deg) == (8, 6, (0.0, 20.0))
        rows = sweep_rows(config)
        assert_matches_golden(rows, "spare_rf_rate_sweep.csv", 30)

    def test_many_angle_sweep_matches_golden_bytes(self, tmp_path):
        # 0 deg and 36 seeded angles on 4 x 4 arrays with spare RF chains on
        # both sides, unequal: every row of a many-angle sweep, byte for byte
        path, out = tmp_path / "rotation.yaml", tmp_path / "rotation.csv"
        path.write_text(yaml.safe_dump(ROTATION_SWEEP_CONFIG, sort_keys=False))
        assert cli.main(["rotation-sweep", "--config", str(path), "--out", str(out)]) == 0
        golden = ROOT / "tests" / "data" / "rotation_sweep.csv"
        assert len(golden.read_bytes().splitlines()) == 1 + 555
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("overrides", [{}, {"n_rf_tx": 8, "n_rf_rx": 6}], ids=["smoke", "spare-rf"])
    def test_batch_rows_are_the_one_angle_rows(self, overrides):
        data = yaml.safe_load(SMOKE.read_text())
        assert_batch_invariant(parse_config({**data, **overrides}))

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        angles=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 80.0)), min_size=1, max_size=8, unique=True),
        n_rf=st.tuples(st.integers(5, 16), st.integers(5, 16)),
    )
    def test_batching_never_changes_a_row(self, angles, n_rf):
        data = yaml.safe_load(SMOKE.read_text())
        data.update(rotation_deg=angles, n_rf_tx=n_rf[0], n_rf_rx=n_rf[1])
        assert_batch_invariant(parse_config(data))

    @pytest.mark.parametrize("arrays", ["16", "15"])
    def test_rank_deficient_omp_combiner_gets_its_rate(self, tmp_path, arrays):
        # at 0 deg with n_rf = ns = 4 two OMP atom energies tie at the cut, so
        # the combiner has rank 3; it is scored on its range, not exit 3
        text = DESK.read_text().replace("{n_v: 16, n_h: 16}", f"{{n_v: {arrays}, n_h: {arrays}}}")
        for old, new in [("ns: 16", "ns: 4"), ("ns_split: [4, 4]", "ns_split: [2, 2]"),
                         ("n_rf_tx: 16", "n_rf_tx: 4"), ("n_rf_rx: 16", "n_rf_rx: 4")]:
            text = text.replace(old, new)
        path, out = tmp_path / "rank.yaml", tmp_path / "rank.csv"
        path.write_text(text)
        assert cli.main(["rate-sweep", "--config", str(path), "--out", str(out)]) == 0
        rates = {(r[0], float(r[1])): float(r[3]) for r in read_rows(out)[1]}
        snrs = {snr for _, snr in rates}
        assert len(snrs) == 7
        for snr in snrs:
            assert 0.0 < rates["omp-hybrid", snr] <= rates["digital-wf", snr]

    def test_rows_come_in_key_order_whatever_the_config_order(self, tmp_path):
        # the rows are read off the curves in (scheme, snr, rotation) order, not sorted
        text = SMOKE.read_text()
        reversed_text = text.replace(
            "schemes: [digital-uniform, digital-wf, asymptotic-hybrid, omp-hybrid, phase-extract]",
            "schemes: [phase-extract, omp-hybrid, asymptotic-hybrid, digital-wf, digital-uniform]",
        ).replace("snr_db: [-10, 0, 10]", "snr_db: [10, 0, -10]").replace(
            "rotation_deg: [0, 20]", "rotation_deg: [20, 0]"
        )
        config = parse_config(yaml.safe_load(reversed_text))
        assert (config.snr_db, config.rotation_deg) == ((10.0, 0.0, -10.0), (20.0, 0.0))
        assert config.schemes[0] == "phase-extract"
        rows = sweep_rows(config)
        assert len(rows) == 30
        assert rows == sorted(rows, key=lambda r: r[:3])
        path = tmp_path / "reversed.yaml"
        path.write_text(reversed_text)
        for threads in ("1", "2"):
            out, want = tmp_path / f"reversed-{threads}.csv", tmp_path / f"smoke-{threads}.csv"
            for config_path, csv in ((path, out), (SMOKE, want)):
                argv = ["rate-sweep", "--config", str(config_path), "--out", str(csv), "--threads", threads]
                assert cli.main(argv) == 0
            assert out.read_bytes() == want.read_bytes()
        # digital-uniform's one curve is both its rows and the gap reference, and it is timed
        timed = tmp_path / "timed.csv"
        assert cli.main(["rate-sweep", "--config", str(path), "--out", str(timed), "--timing"]) == 0
        header, timed_rows = read_rows(timed)
        assert header[-1] == "wall_time_ms"
        uniform = [r for r in timed_rows if r[0] == "digital-uniform"]
        assert len(uniform) == 6 and all(float(r[-1]) > 0.0 for r in uniform)
        assert [r[:5] for r in timed_rows] == read_rows(tmp_path / "smoke-1.csv")[1]

    def test_timing_column_opt_in(self, small_config, tmp_path):
        out = tmp_path / "timed.csv"
        assert cli.main(
            ["rate-sweep", "--config", str(small_config), "--out", str(out), "--timing"]
        ) == 0
        header, rows = read_rows(out)
        assert header[-1] == "wall_time_ms"
        assert all(float(r[-1]) >= 0.0 for r in rows)
        # each scheme is one batch over the rotations and SNRs, whose time its rows share
        for scheme in ("digital-uniform", "omp-hybrid"):
            assert len({r[-1] for r in rows if r[0] == scheme}) == 1

    def test_rotation_sweep_alias(self, small_config, tmp_path):
        out = tmp_path / "rot.csv"
        assert cli.main(["rotation-sweep", "--config", str(small_config), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert sorted({float(r[2]) for r in rows}) == [0.0, 15.0]

    def test_numeric_failure_exit_code(self, small_config, tmp_path, monkeypatch):
        from beamfocus.scenario import Scenario

        def boom(self, scheme, snr):
            raise FloatingPointError("synthetic numeric blowup")

        monkeypatch.setattr(Scenario, "rate", boom)
        code = cli.main(
            ["rate-sweep", "--config", str(small_config), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3

    def test_numeric_failure_names_the_failing_angle(self, small_config, tmp_path, monkeypatch, capsys):
        # the sweep rates all angles in one call; its error path rates them one
        # at a time to name the angle that fails
        from beamfocus.scenario import Scenario

        rate = Scenario.rate

        def fails_at_15(self, scheme, snr):
            if scheme == "omp-hybrid" and 15.0 in np.atleast_1d(self.rotation_deg):
                raise FloatingPointError("synthetic failure at 15 deg")
            return rate(self, scheme, snr)

        monkeypatch.setattr(Scenario, "rate", fails_at_15)
        path = tmp_path / "three.yaml"
        path.write_text(SMALL_YAML.replace("rotation_deg: [0, 15]", "rotation_deg: [0, 15, 30]"))
        code = cli.main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "scheme=omp-hybrid snr_db=-5.0,5.0 rotation_deg=15.0: synthetic failure" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["rate-sweep", "aperture-sweep"])
    def test_convergence_error_exit_code(self, small_config, tmp_path, monkeypatch, capsys, command):
        # a rate-sweep curve spans the SNR grid; aperture-sweep rates the first
        # SNR only, at each scale in turn, and names the scale
        point = "snr_db=-5.0,5.0 rotation_deg=0.0:" if command == "rate-sweep" else (
            "snr_db=-5.0 rotation_deg=0.0 spacing_scale=0.25:"
        )
        for error in (ConvergenceError, np.linalg.LinAlgError):
            with monkeypatch.context() as patch:
                fail_first_factorization(patch, command, error("synthetic LAPACK failure"))
                code = cli.main([command, "--config", str(small_config), "--out", str(tmp_path / "x.csv")])
            assert code == 3
            assert f"scheme=digital-uniform {point} synthetic LAPACK failure" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["rate-sweep", "aperture-sweep"])
    def test_programming_error_propagates(self, small_config, tmp_path, monkeypatch, command):
        fail_first_factorization(monkeypatch, command, TypeError("synthetic bug"))
        with pytest.raises(TypeError, match="synthetic bug"):
            cli.main([command, "--config", str(small_config), "--out", str(tmp_path / "x.csv")])


class TestConfigErrors:
    def test_bad_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_YAML.replace("ns_split: [2, 2]", "ns_split: [3, 1]"))
        code = cli.main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ns_split" in err

    def test_degenerate_rotation_exit_two(self, tmp_path, capsys):
        path = tmp_path / "rot90.yaml"
        path.write_text(SMALL_YAML.replace("rotation_deg: [0, 15]", "rotation_deg: [0, 90]"))
        code = cli.main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "rotation_deg" in err and "90 deg" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("line, bad", [
        ("frequency_ghz: 28.0", "frequency_ghz: .nan"),
        ("distance_m: 50.0", "distance_m: .inf"),
        ("snr_db: [-5, 5]", "snr_db: [.nan, 0]"),
        ("rotation_deg: [0, 15]", "rotation_deg: [.nan]"),
        # integers too large for a float
        pytest.param("frequency_ghz: 28.0", "frequency_ghz: 1" + "0" * 400, id="frequency_ghz-huge-int"),
        pytest.param("snr_db: [-5, 5]", "snr_db: [0, 1" + "0" * 400 + "]", id="snr_db-huge-int"),
    ])
    def test_non_finite_number_exit_two(self, tmp_path, capsys, line, bad):
        path = tmp_path / "nonfinite.yaml"
        path.write_text(SMALL_YAML.replace(line, bad))
        code = cli.main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"config field {line.split(':')[0]}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("line, bad", [
        ("frequency_ghz: 28.0", "frequency_ghz: true"),
        ("distance_m: 50.0", "distance_m: false"),
    ])
    def test_boolean_number_exit_two(self, tmp_path, capsys, line, bad):
        path = tmp_path / "boolean.yaml"
        path.write_text(SMALL_YAML.replace(line, bad))
        code = cli.main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config field {line.split(':')[0]}" in err and "bool" in err
        assert not (tmp_path / "x.csv").exists()

    def test_rf_count_above_own_antennas_exit_two(self, tmp_path, capsys):
        # 100 chains on 16 TX antennas once passed parsing and failed as a numeric error
        path = tmp_path / "rf.yaml"
        text = (DESK.parent / "small_smoke.yaml").read_text()
        path.write_text(text.replace("n_rf_tx: 4", "n_rf_tx: 100"))
        code = cli.main(["rate-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "config field n_rf_tx (line 8)" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_output_exit_two(self, small_config, capsys):
        # --out is the one source of the output path; argparse rejects its absence
        with pytest.raises(SystemExit) as exc:
            cli.main(["rate-sweep", "--config", str(small_config)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content", [
        pytest.param("missing.yaml", None, id="missing"),
        pytest.param("", None, id="directory"),
        pytest.param("latin1.yaml", "distance_m: 50.0 # \xb5m\n".encode("latin-1"), id="not-utf8"),
    ])
    def test_unreadable_config_exit_two(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "x.csv"
        assert cli.main(["rate-sweep", "--config", str(path), "--out", str(out)]) == 2
        assert "config field <document>: cannot read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["missing/x.csv", ""], ids=["missing-directory", "directory"])
    def test_output_not_a_file_path_exit_two(self, small_config, tmp_path, capsys, name):
        # caught before the sweep runs, so nothing is written
        out = tmp_path / name
        assert cli.main(["rate-sweep", "--config", str(small_config), "--out", str(out)]) == 2
        assert "config field out: not a file in an existing directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.yaml"]


class TestSpectrum:
    def test_rows_match_eigh_oracle(self, small_config, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert cli.main(["spectrum", "--config", str(small_config), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["row_type", "key", "raw_value", "normalized_value"]
        eig_rows = [r for r in rows if r[0] == "eigenvalue"]
        summary = {r[1]: float(r[2]) for r in rows if r[0] == "summary"}
        assert len(eig_rows) == 16
        values = np.array([float(r[2]) for r in eig_rows])
        assert np.all(np.diff(values) <= 1e-9)

        config = parse_config(__import__("yaml").safe_load(SMALL_YAML))
        from beamfocus.scenario import Scenario
        from beamfocus.geometry import Side

        scenario = Scenario(config, 0.0)
        h_tilde = channel.fresnel_factors(scenario.tx_layout, scenario.rx_layout, scenario.params).h_tilde
        g = channel.gram(h_tilde, Side.TX)
        oracle = np.linalg.eigvalsh(g)[::-1]
        assert np.abs(values - oracle).max() <= 1e-8 * oracle[0]
        omega = oracle / summary["normalizer"]
        assert summary["count_near_one"] == int((omega >= 0.9).sum())
        assert summary["count_near_zero"] == int((omega <= 0.1).sum())
        assert summary["predicted_rank"] == 4
        assert summary["transition_count"] <= summary["transition_bound_v"] * 2

    def test_blas_threads_do_not_change_desk_spectrum(self, tmp_path):
        # LAPACK's eigensolver runs threaded blocked kernels above about
        # 128 x 128, which round differently at each thread count; the
        # Kronecker spectrum solves only per-axis Grams, 16 x 16 on desk, so
        # the whole CSV is byte-identical
        files = csv_bytes_at_blas_threads("spectrum", DESK, tmp_path)
        assert len(files[0].splitlines()) == 1 + 256 + 10
        assert all(f == files[0] for f in files[1:])

    def test_half_wavelength_spacing_is_rank_deficient(self, tmp_path):
        path = tmp_path / "half.yaml"
        path.write_text(SMALL_YAML + "spacing_mode: half-wavelength\n")
        out = tmp_path / "half.csv"
        assert cli.main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        summary = {r[1]: float(r[2]) for r in rows if r[0] == "summary"}
        assert summary["count_near_one"] < 4

    def test_smallest_legal_scenario(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(
            "frequency_ghz: 28.0\ndistance_m: 50.0\n"
            "tx: {n_v: 2, n_h: 2}\nrx: {n_v: 2, n_h: 2}\n"
            "ns: 4\nns_split: [2, 2]\nn_rf_tx: 4\nn_rf_rx: 4\n"
            "snr_db: [0]\nschemes: [digital-uniform]\n"
        )
        out = tmp_path / "spec.csv"
        assert cli.main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len([r for r in rows if r[0] == "eigenvalue"]) == 4


# the aperture goldens: the desk link over both sigma paths (the subspace
# iteration at scale 1, values-only dense SVDs at the other scales), the
# half-wavelength desk link of rank 13 below its 16 streams, and the
# panel-shaped smoke copy
APERTURE_GOLDENS = {
    "desk_aperture_sweep.csv": DESK.read_text(),
    "half_wavelength_aperture_sweep.csv": edited_config(DESK, ("spacing_mode", "half-wavelength")),
    "panel_aperture_sweep.csv": PANEL_SHAPED,
}


class TestApertureSweep:
    @pytest.mark.parametrize("name", APERTURE_GOLDENS)
    def test_matches_golden_bytes(self, name, tmp_path):
        path, out = tmp_path / "aperture.yaml", tmp_path / "aperture.csv"
        path.write_text(APERTURE_GOLDENS[name])
        assert cli.main(["aperture-sweep", "--config", str(path), "--out", str(out)]) == 0
        golden = ROOT / "tests" / "data" / name
        assert len(golden.read_bytes().splitlines()) == 1 + 5
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("name", ["panel_aperture_sweep.csv", "desk_aperture_sweep.csv"])
    def test_builds_no_beam(self, name, monkeypatch):
        # every scale, desk's 256 x 256 channel at scale 1 too, builds no
        # digital beam and forms no singular vector
        config = parse_config(yaml.safe_load(APERTURE_GOLDENS[name]))
        vector_svds, svd = [], np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            if kwargs.get("compute_uv", True):
                vector_svds.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def no_beams(*args, **kwargs):
            raise AssertionError("digital_svd in an aperture sweep")

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(beamforming, "digital_svd", no_beams)
        _, rows = cli.run_aperture_sweep(config, (0.25, 0.5, 0.75, 1.0, 1.5))
        assert len(rows) == 5
        assert vector_svds == []

    def test_knee_and_feasibility(self, small_config, tmp_path):
        out = tmp_path / "aperture.csv"
        assert cli.main([
            "aperture-sweep", "--config", str(small_config), "--out", str(out),
            "--scales", "0.5,1.0,1.5",
        ]) == 0
        header, rows = read_rows(out)
        assert header == ["scale", "l_t_m", "l_r_m", "nominal_product_m2", "feasible", "rate_bps_hz"]
        by_scale = {float(r[0]): r for r in rows}
        assert by_scale[0.5][4] == "false"
        assert by_scale[1.0][4] == "true"
        assert by_scale[1.5][4] == "true"
        assert float(by_scale[0.5][5]) < float(by_scale[1.0][5])

    def test_single_scale(self, small_config, tmp_path):
        out = tmp_path / "single.csv"
        assert cli.main([
            "aperture-sweep", "--config", str(small_config), "--out", str(out), "--scales", "1.0",
        ]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 1

    @pytest.mark.parametrize("scales", ["0.5,abc", ",", "", "nan", "inf", "0,1", "-1", "1,1", "1,1.0"])
    def test_bad_scales_exit_two(self, small_config, tmp_path, capsys, scales):
        out = tmp_path / "bad.csv"
        code = cli.main([
            "aperture-sweep", "--config", str(small_config), "--out", str(out), "--scales", scales,
        ])
        assert code == 2
        assert "config field scales" in capsys.readouterr().err
        assert not out.exists()


def _taper(a):
    """Scale a's columns by 1 to 1.001: no longer unitary, orthonormal or Toeplitz-Gram."""
    return a * np.linspace(1.0, 1.001, a.shape[1])


def _poison(a):
    """a with its last entry NaN."""
    return np.append(a.ravel()[:-1], np.nan).reshape(a.shape)


def _field(name, change):
    """A corruption that passes a dataclass result's field ``name`` through ``change``."""
    return lambda result, *_: dataclasses.replace(result, **{name: change(getattr(result, name))})


# one corruption per check, keyed by the name it reports, in run_all order: the case to pass
# ({}: default), then the library function to break and how its result changes (given its arguments)
CORRUPTIONS = {
    "channel-normalization": ({}, channel, "exact_channel", lambda h, *_: 1.001 * h),
    "fresnel-recomposition": ({}, channel, "fresnel_factors", _field("d_t", np.negative)),
    # a core that grows with distance, so its gap to the exact spectrum does too
    "fresnel-gap-monotone": (
        {}, channel, "fresnel_factors",
        lambda cs, tx, rx, params: dataclasses.replace(cs, h_tilde=cs.h_tilde * params.distance),
    ),
    "kron-factorization": ({}, channel, "kron_factor_channel", lambda f, *_: (2.0 * f[0], f[1])),
    "gram-kron-identity": ({}, channel, "kron_factor_channel", lambda f, *_: (2.0 * f[0], f[1])),
    "doubly-block-toeplitz": ({}, channel, "fresnel_factors", _field("h_tilde", _taper)),
    "prolate-scaling": ({}, channel, "prolate_matrix", lambda b, *_: 1.001 * b),
    "dft-unitarity": ({}, validation, "dft_matrix", lambda f, *_: 1.001 * f),
    # a twist off the unit circle
    "dictionary-unitarity": ({}, beamforming, "quadratic_phase", lambda d, *_: 1.001 * d),
    # KKT-consistent but for the sign: the level sits below the dry channel's floor
    "water-filling-kkt": (
        {"spectra": [(np.array([4.0, 0.01]), 2.0, 1.0)]},
        spectral, "water_filling", lambda *_: spectral.PowerAllocation(np.array([2.5, -0.5]), 2.75),
    ),
    "rate-eigsum-identity": ({}, spectral, "rate", lambda r, *_: r + 1e-6),
    "combiner-scale-invariance": ({"unitary": 2.0 * np.eye(4)},),
    "hybrid-dominance": (
        {"scenario": types.SimpleNamespace(rate=lambda scheme, snr: 2.0 if scheme == "omp-hybrid" else 1.0)},
    ),
    "eigen-reconstruction": ({}, validation, "eig_hermitian", _field("vectors", _taper)),
    "subspace-svd": ({}, validation, "subspace_svd", _field("singular_values", lambda s: 1.001 * s)),
}

# one NaN in what each check that takes a worst case judges
NAN_CORRUPTIONS = {
    "channel-normalization": ({}, channel, "exact_channel", lambda h, *_: _poison(h)),
    "doubly-block-toeplitz": ({}, channel, "fresnel_factors", _field("h_tilde", _poison)),
    "dft-unitarity": ({}, validation, "dft_matrix", lambda f, *_: _poison(f)),
    # in the RX dictionary only, after a TX one that passes
    "dictionary-unitarity": (
        {}, beamforming, "dictionary_rx",
        lambda dic, *_: types.SimpleNamespace(dense=lambda: _poison(dic.dense())),
    ),
    # on the dry channel, where a NaN read as zero power would meet the KKT conditions
    "water-filling-kkt": (
        {"spectra": [(np.array([4.0, 0.01]), 2.0, 1.0)]}, spectral, "water_filling", _field("powers", _poison)
    ),
    "rate-eigsum-identity": ({}, spectral, "rate", lambda *_: np.nan),
    # in the largest value: the Ritz triplets past column ns are not judged
    "subspace-svd": (
        {}, validation, "subspace_svd", _field("singular_values", lambda s: np.append(np.nan, s[1:]))
    ),
}


def _check(name):
    return getattr(validation, "check_" + name.replace("-", "_"))


class TestValidate:
    def test_fresh_build_passes(self, capsys):
        assert cli.main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [["PASS", name] for name in CORRUPTIONS]
        assert lines[-1].startswith("15/15 invariants passed")

    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_exit_two(self, capsys, seed):
        # exit 1 is a failed invariant, so argparse must reject the seed first
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--seed", seed])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_run_all_runs_every_check_once(self, monkeypatch):
        defined = [name for name in vars(validation) if name.startswith("check_")]
        expected = [_check(name).__name__ for name in CORRUPTIONS]
        called = []
        for name in defined:
            monkeypatch.setattr(validation, name, lambda name=name, **_: called.append(name))
        validation.run_all()
        assert called == defined == expected

    @pytest.mark.parametrize("table, name", [
        pytest.param(table, name, id=name + tag)
        for table, tag in ((CORRUPTIONS, ""), (NAN_CORRUPTIONS, "-nan")) for name in table
    ])
    def test_corrupted_input_fails(self, table, name, monkeypatch):
        case, *patch = table[name]
        if patch:
            owner, attr, change = patch
            original = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *args: change(original(*args), *args))
        result = _check(name)(**case)
        assert result.name == name
        assert result.passed is False

    def test_failure_exit_code_via_injected_result(self, monkeypatch, capsys):
        fake = [validation.CheckResult(name="synthetic", passed=False, detail="forced")]
        monkeypatch.setattr(validation, "run_all", lambda seed=0: fake)
        assert cli.run_validate() == 1
        assert "FAIL" in capsys.readouterr().out
