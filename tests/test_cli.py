"""End-to-end tests of the command-line harness and its CSV contracts."""

import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import yaml

import beamfocus
from beamfocus import beamforming, channel, cli, spectral, validation
from beamfocus.scenario import load_config, parse_config

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


def assert_matches_golden(rows, name, count):
    """Sweep rows against a committed CSV under tests/data, rates to 1e-9 relative."""
    _, golden = read_rows(ROOT / "tests" / "data" / name)
    assert len(rows) == len(golden) == count
    for row, gold in zip(rows, golden):
        assert (row[0], row[1], row[2]) == (gold[0], float(gold[1]), float(gold[2]))
        for got, want in zip(row[3:], gold[3:]):
            assert abs(got - float(want)) <= 1e-9 * abs(float(want)), gold


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
        _, rows = cli.run_rate_sweep(load_config(str(DESK)))
        assert_matches_golden(rows, "desk_rate_sweep.csv", 35)

    def test_spare_rf_rates_match_golden_csv(self):
        # n_rf above ns on both sides, unequal: the asymptotic SVD baseband,
        # the phase-extract pads and OMP's spare atoms, which the desk golden
        # (n_rf = ns) never reaches
        text = SMOKE.read_text().replace("n_rf_tx: 4", "n_rf_tx: 8").replace("n_rf_rx: 4", "n_rf_rx: 6")
        config = parse_config(yaml.safe_load(text))
        assert (config.n_rf_tx, config.n_rf_rx, config.rotation_deg) == (8, 6, (0.0, 20.0))
        _, rows = cli.run_rate_sweep(config)
        assert_matches_golden(rows, "spare_rf_rate_sweep.csv", 30)

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

    def test_timing_column_opt_in(self, small_config, tmp_path):
        out = tmp_path / "timed.csv"
        assert cli.main(
            ["rate-sweep", "--config", str(small_config), "--out", str(out), "--timing"]
        ) == 0
        header, rows = read_rows(out)
        assert header[-1] == "wall_time_ms"
        assert all(float(r[-1]) >= 0.0 for r in rows)

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

    @pytest.mark.parametrize("command", ["rate-sweep", "aperture-sweep"])
    def test_convergence_error_exit_code(self, small_config, tmp_path, monkeypatch, capsys, command):
        from beamfocus.linalg import ConvergenceError
        from beamfocus.scenario import Scenario

        def fail(self, scheme, snr):
            raise ConvergenceError("synthetic LAPACK failure")

        monkeypatch.setattr(Scenario, "rate", fail)
        code = cli.main([command, "--config", str(small_config), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        # a rate-sweep curve spans the SNR grid; aperture-sweep rates the first SNR only
        points = "-5.0,5.0" if command == "rate-sweep" else "-5.0"
        assert f"scheme=digital-uniform snr_db={points} rotation_deg=0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rate-sweep", "aperture-sweep"])
    def test_programming_error_propagates(self, small_config, tmp_path, monkeypatch, command):
        from beamfocus.scenario import Scenario

        def bug(self, scheme, snr):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(Scenario, "rate", bug)
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


class TestApertureSweep:
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

    @pytest.mark.parametrize("scales", ["0.5,abc", ",", "", "nan", "inf", "0,1", "-1"])
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
