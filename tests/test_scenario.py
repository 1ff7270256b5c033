"""Tests for config parsing/validation and scenario assembly."""

import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beamfocus import beamforming, channel, cli, linalg, scenario as scenario_module, spectral
from beamfocus.geometry import (
    ArraySpec,
    LayoutKind,
    OddStreamCountError,
    Side,
    StreamExceedsArrayError,
    build_layout,
    check_axis_streams,
)
from beamfocus.linalg import eig_hermitian
from beamfocus.scenario import (
    ARRAY_KEYS,
    CONFIG_KEYS,
    SCHEMES,
    ConfigError,
    Scenario,
    _centred_tx_gram,
    axis_spacings,
    load_config,
    parse_config,
    spectrum_data,
)

from test_linalg import random_unitary

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

BASE = {
    "frequency_ghz": 28.0,
    "distance_m": 50.0,
    "tx": {"n_v": 4, "n_h": 4},
    "rx": {"n_v": 4, "n_h": 4},
    "ns": 4,
    "ns_split": [2, 2],
    "n_rf_tx": 4,
    "n_rf_rx": 4,
    "snr_db": [0.0],
    "schemes": ["digital-uniform"],
}


def cfg(**overrides):
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BASE.items()}
    data.update(overrides)
    return data


def complex_gram_spectrum(scenario):
    """Eigenvalues of the plain complex transmit Gram of the Fresnel core, largest first."""
    h_tilde = channel.fresnel_factors(scenario.tx_layout, scenario.rx_layout, scenario.params).h_tilde
    return np.linalg.eigvalsh(channel.gram(h_tilde, Side.TX))[::-1]


def spectrum_tolerance(values, tx_count):
    """4 M eps lambda_0: what two backward-stable eigensolves of the same Gram may differ by."""
    return 4 * tx_count * np.finfo(float).eps * values[0]


WAVELENGTH = 299_792_458.0 / 28e9
counts = st.integers(1, 12)
spacings = st.floats(0.5, 20.0)
angles = st.floats(-1.2, 1.2)


class TestParseConfig:
    def test_minimal_valid(self):
        config = parse_config(cfg())
        assert config.ns_split == (2, 2)
        assert config.rotation_deg == (0.0,)
        assert abs(config.wavelength - 0.0107068735) <= 1e-10

    def test_balanced_split_inferred(self):
        data = cfg(ns=16, tx={"n_v": 16, "n_h": 16}, rx={"n_v": 16, "n_h": 16},
                   n_rf_tx=16, n_rf_rx=16)
        data.pop("ns_split")
        assert parse_config(data).ns_split == (4, 4)

    def test_missing_field_named(self):
        data = cfg()
        data.pop("distance_m")
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.path == ("distance_m",)

    def test_nested_field_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(tx={"n_v": 4}))
        assert err.value.path == ("tx", "n_h")

    def test_odd_split_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(ns=3, ns_split=[3, 1]))
        assert err.value.path == ("ns_split",)

    def test_degenerate_rotation_rejected(self):
        # the parallelogram plane contains the link axis at +-90 degrees
        for rot in (90, -90.0, 89.99):
            with pytest.raises(ConfigError) as err:
                parse_config(cfg(rotation_deg=[0, rot]))
            assert err.value.path == ("rotation_deg",)
        assert parse_config(cfg(rotation_deg=[89.0])).rotation_deg == (89.0,)
        # a rigidly rotated flat grid has no such singularity
        config = parse_config(cfg(rotation_deg=[90], layout="rotated-upa"))
        assert Scenario(config, 90.0).h.shape == (16, 16)

    def test_rf_chain_ordering_enforced(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(n_rf_tx=2))
        assert err.value.path == ("n_rf_tx",)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(schemes=["digital-uniform", "zero-forcing"]))
        assert err.value.path == ("schemes",)

    @pytest.mark.parametrize("field", ["layout", "spacing_mode"])
    def test_list_for_a_name_rejected(self, field):
        # a list is unhashable; the layout lookup once raised TypeError on it
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(**{field: ["parallelogram"]}))
        assert err.value.path == (field,)

    def test_per_axis_stream_overflow(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(ns=36, ns_split=[6, 6], n_rf_tx=36, n_rf_rx=36,
                             tx={"n_v": 4, "n_h": 16}, rx={"n_v": 4, "n_h": 16}))
        assert err.value.path == ("ns_split",)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        counts=st.lists(st.integers(1, 12), min_size=4, max_size=4),
        split=st.tuples(st.integers(-6, 16), st.integers(-6, 16)).filter(lambda p: p[0] * p[1] > 0),
    )
    def test_ns_split_rejected_exactly_when_an_axis_is(self, counts, split):
        tx_v, tx_h, rx_v, rx_h = counts
        try:
            check_axis_streams(split[0], rx_v, tx_v)
            check_axis_streams(split[1], rx_h, tx_h)
            legal = True
        except (OddStreamCountError, StreamExceedsArrayError):
            legal = False
        # n_rf = ns exceeds an antenna count on some illegal splits; the split is reported first
        ns = split[0] * split[1]
        data = cfg(ns=ns, ns_split=list(split), n_rf_tx=ns, n_rf_rx=ns,
                   tx={"n_v": tx_v, "n_h": tx_h}, rx={"n_v": rx_v, "n_h": rx_h})
        if legal:
            assert parse_config(data).ns_split == split
        else:
            with pytest.raises(ConfigError) as err:
                parse_config(data)
            assert err.value.path == ("ns_split",)

    def test_empty_rotation_defaults_to_zero(self):
        assert parse_config(cfg(rotation_deg=[])).rotation_deg == (0.0,)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="int-too-large-for-a-float"),
    ])
    @pytest.mark.parametrize("field", [
        "frequency_ghz", "distance_m", "snr_db", "rotation_deg", "tx.d_v", "rx.d_h", "cluster_eps",
    ])
    def test_non_finite_number_rejected(self, field, value):
        spacings = {"d_v": 0.01, "d_h": 0.01}
        data = cfg(spacing_mode="explicit", tx={"n_v": 4, "n_h": 4, **spacings},
                   rx={"n_v": 4, "n_h": 4, **spacings})
        if field in ("snr_db", "rotation_deg"):
            data[field] = [0.0, value]
        elif "." in field:
            side, key = field.split(".")
            data[side][key] = value
        else:
            data[field] = value
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.path == tuple(field.split("."))

    @pytest.mark.parametrize("field", ["frequency_ghz", "distance_m", "tx.d_v", "rx.d_h"])
    def test_boolean_for_float_rejected(self, field):
        # bool is an int subclass; `true` must not pass as 1.0
        spacings = {"d_v": 0.01, "d_h": 0.01}
        data = cfg(spacing_mode="explicit", tx={"n_v": 4, "n_h": 4, **spacings},
                   rx={"n_v": 4, "n_h": 4, **spacings})
        if "." in field:
            side, key = field.split(".")
            data[side][key] = True
        else:
            data[field] = True
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.path == tuple(field.split("."))
        assert "bool" in str(err.value)

    def test_explicit_mode_needs_spacings(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(spacing_mode="explicit"))
        assert err.value.path in (("tx", "d_v"), ("tx", "d_h"))

    @pytest.mark.parametrize("field, values", [
        ("schemes", ["digital-uniform", "digital-wf", "digital-uniform"]),
        ("snr_db", [0, -5, 0.0]),
        ("rotation_deg", [10, 10]),
    ])
    def test_repeated_grid_value_rejected(self, tmp_path, field, values):
        # a repeated value once wrote identical rows for one grid point
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(**{field: values}))
        assert err.value.path == (field,)
        texts = dict(VALID_TEXTS, **{field: [str(v) for v in values]})
        text, key_lines = emit_yaml(texts, "block", list(texts), True)
        err = load_error(tmp_path, text)
        assert (err.path, err.line) == ((field,), key_lines[(field,)])


ROUND_TRIP_YAML = (
    "frequency_ghz: 28.0\ndistance_m: 50.0\n"
    "tx: {n_v: 4, n_h: 4}\nrx: {n_v: 4, n_h: 4}\n"
    "ns: 4\nns_split: [2, 2]\nn_rf_tx: 4\nn_rf_rx: 4\n"
    "snr_db: [0]\nschemes: [digital-uniform]\n"
)


class TestLoadConfig:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text(ROUND_TRIP_YAML)
        assert load_config(str(path)).ns == 4

    @pytest.mark.parametrize("name", [
        *sorted(p.name for p in CONFIG_DIR.glob("*.yaml")), "round-trip",
    ])
    def test_libyaml_and_python_loaders_agree(self, name):
        # load_config takes libyaml's loader when present; it must build the
        # same objects as the pure-Python one
        text = ROUND_TRIP_YAML if name == "round-trip" else (CONFIG_DIR / name).read_text()
        fast = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)
        assert fast

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "frequency_ghz: 28.0\ndistance_m: 50.0\n"
            "tx: {n_v: 4, n_h: 4}\nrx: {n_v: 4, n_h: 4}\n"
            "ns: 4\nns_split: [3, 1]\nn_rf_tx: 4\nn_rf_rx: 4\n"
            "snr_db: [0]\nschemes: [digital-uniform]\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.path == ("ns_split",)
        assert err.value.line == 6
        assert "line 6" in str(err.value)

    def test_invalid_yaml_reports_document_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("frequency_ghz: [unclosed\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.path == ("<document>",)


# a valid explicit-spacing config as YAML scalar texts, so that every kind of
# checked field is present: top-level numbers, nested array fields, list entries
SPACED = {"n_v": "4", "n_h": "4", "d_v": "0.01", "d_h": "0.01"}
VALID_TEXTS = {
    "frequency_ghz": "28.0",
    "distance_m": "50.0",
    "spacing_mode": "explicit",
    "tx": dict(SPACED),
    "rx": dict(SPACED),
    "ns": "4",
    "ns_split": ["2", "2"],
    "n_rf_tx": "4",
    "n_rf_rx": "4",
    "snr_db": ["-5", "5"],
    "schemes": ["digital-uniform"],
    "rotation_deg": ["0", "15"],
    "cluster_eps": "0.1",
    "layout": "parallelogram",
}
# (key path, list index or None) of every number the config holds
NUMERIC_FIELDS = (
    *(((field,), None) for field in
      ("frequency_ghz", "distance_m", "ns", "n_rf_tx", "n_rf_rx", "cluster_eps")),
    *(((side, key), None) for side in ("tx", "rx") for key in SPACED),
    *(((field,), i) for field in ("ns_split", "snr_db", "rotation_deg") for i in (0, 1)),
)
HUGE_INT = "1" + "0" * 400
BAD_TEXTS = ("0", "-1", "true", "false", ".nan", "abc", HUGE_INT)


def emit_yaml(texts, style, order, padded):
    """YAML text of ``texts`` and the 1-based line of every key, counted while writing.

    The lines are keyed by the path of key texts: ``("tx",)``, ``("tx", "n_v")``.

    ``block`` nests everything in block style, ``flow`` writes nested mappings
    and lists in flow style (as the shipped configs do), ``flow-document`` puts
    the whole document in one flow mapping, one top-level key per line.
    """
    lines, key_lines = [], {}
    offset = 1 if style == "flow-document" else 0
    for key in order:
        value = texts[key]
        key_lines[(key,)] = len(lines) + 1 + offset
        if isinstance(value, dict):
            if style == "block":
                lines.append(f"{key}:")
                for sub, text in value.items():
                    key_lines[(key, sub)] = len(lines) + 1
                    lines.append(f"  {sub}: {text}")
            else:
                key_lines.update({(key, sub): key_lines[(key,)] for sub in value})
                lines.append(f"{key}: {{" + ", ".join(f"{s}: {t}" for s, t in value.items()) + "}")
        elif isinstance(value, list):
            if style == "block":
                lines.append(f"{key}:")
                lines.extend(f"  - {text}" for text in value)
            else:
                lines.append(f"{key}: [{', '.join(value)}]")
        else:
            lines.append(f"{key}: {value}")
        if padded and style != "flow-document":
            lines.append("# a comment line")
    if style == "flow-document":
        return "{\n" + ",\n".join(lines) + "\n}\n", key_lines
    return "\n".join(lines) + "\n", key_lines


# load_config takes libyaml's loader when yaml has it, else the pure-Python SafeLoader
LOADERS = ("libyaml", "python")


def load_text(tmp_path, text, loader="libyaml"):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as patch:
        if loader == "python":
            patch.delattr(yaml, "CSafeLoader", raising=False)
        return load_config(str(path))


def load_error(tmp_path, text):
    """The ConfigError of ``text``: the same field, line and message under either loader."""
    errors = []
    for loader in LOADERS:
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, text, loader)
        errors.append((err.value.path, err.value.line, str(err.value)))
    assert errors[0] == errors[1]
    return err.value


class TestConfigErrorLines:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        style=st.sampled_from(["block", "flow", "flow-document"]),
        order=st.permutations(list(VALID_TEXTS)),
        padded=st.booleans(),
        target=st.sampled_from(NUMERIC_FIELDS),
        bad=st.sampled_from(BAD_TEXTS),
    )
    def test_corrupted_field_named_at_its_key_line(self, tmp_path_factory, style, order, padded,
                                                   target, bad):
        texts = {k: (dict(v) if isinstance(v, dict) else list(v) if isinstance(v, list) else v)
                 for k, v in VALID_TEXTS.items()}
        path, index = target
        if index is not None:
            if path[0] in ("snr_db", "rotation_deg") and bad in ("0", "-1"):
                bad = ".nan"  # zero and negative entries are valid there
            texts[path[0]][index] = bad
        elif len(path) == 2:
            texts[path[0]][path[1]] = bad
        else:
            texts[path[0]] = bad
        valid_text, _ = emit_yaml(VALID_TEXTS, style, order, padded)
        text, key_lines = emit_yaml(texts, style, order, padded)
        tmp_path = tmp_path_factory.mktemp("config")
        assert load_text(tmp_path, valid_text).ns == 4
        err = load_error(tmp_path, text)
        assert err.path == path
        assert err.line == key_lines[path]
        assert str(err).startswith(f"config field {'.'.join(path)} (line {key_lines[path]}): ")

    def test_nested_block_key_gets_its_own_line(self, tmp_path):
        # matching the bare key text once gave line 4, the first "n_v:" (tx's)
        text = ROUND_TRIP_YAML.replace(
            "tx: {n_v: 4, n_h: 4}\nrx: {n_v: 4, n_h: 4}\n",
            "tx:\n  n_v: 4\n  n_h: 4\nrx:\n  n_v: 0\n  n_h: 4\n",
        )
        err = load_error(tmp_path, text)
        assert (err.path, err.line) == (("rx", "n_v"), 7)

    @pytest.mark.parametrize("key", ['"tx.n_v"', "on", "3", ".nan"])
    def test_key_appended_to_smoke_config_named_at_its_line(self, tmp_path, key):
        # NaN equals nothing, so only matching by identity first finds .nan's node
        text = (CONFIG_DIR / "small_smoke.yaml").read_text() + f"{key}: 1\n"
        err = load_error(tmp_path, text)
        assert err.line == 15 and f"(line 15): not a config field" in str(err)

    def test_flow_style_key_gets_a_line(self, tmp_path):
        text = (CONFIG_DIR / "small_smoke.yaml").read_text()
        err = load_error(tmp_path, text.replace("tx: {n_v: 4, n_h: 4}", "tx: {n_v: 4, n_h: 0}"))
        assert (err.path, err.line) == (("tx", "n_h"), 4)

    @pytest.mark.parametrize("field", ["tx.d_h", "rx.n_h"])
    def test_second_array_field_named(self, tmp_path, field):
        side, key = field.split(".")
        texts = dict(VALID_TEXTS, **{side: dict(SPACED, **{key: "-1"})})
        err = load_error(tmp_path, emit_yaml(texts, "flow", list(texts), False)[0])
        assert err.path == (side, key)

    @pytest.mark.parametrize("field, value", [("n_rf_rx", 2), ("n_rf_tx", 17), ("n_rf_rx", 17)])
    def test_each_rf_count_bounded_on_its_own_side(self, field, value):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(**{field: value}))
        assert err.value.path == (field,)

    def test_rf_count_above_own_antennas_rejected(self):
        # the other side's larger array once let n_rf_tx through to the hybrids
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(n_rf_tx=20, rx={"n_v": 8, "n_h": 8}))
        assert err.value.path == ("n_rf_tx",)
        assert parse_config(cfg(n_rf_rx=20, rx={"n_v": 8, "n_h": 8})).n_rf_rx == 20

    def test_missing_key_points_at_its_parent(self, tmp_path):
        err = load_error(tmp_path, ROUND_TRIP_YAML.replace("tx: {n_v: 4, n_h: 4}", "tx: {n_v: 4}"))
        assert (err.path, err.line) == (("tx", "n_h"), 3)
        err = load_error(tmp_path, ROUND_TRIP_YAML.replace("distance_m: 50.0\n", ""))
        assert (err.path, err.line) == (("distance_m",), None)
        assert "(line" not in str(err)

    def test_repeated_key_takes_the_last(self, tmp_path):
        # the constructor keeps the last value, so the error is about that one
        err = load_error(tmp_path, ROUND_TRIP_YAML + "ns: 0\n")
        assert (err.path, err.line) == (("ns",), 11)

    def test_inferred_split_error_has_no_line(self, tmp_path):
        err = load_error(tmp_path, ROUND_TRIP_YAML.replace("ns_split: [2, 2]\n", "")
                         .replace("ns: 4", "ns: 2").replace("n_rf_tx: 4", "n_rf_tx: 2")
                         .replace("n_rf_rx: 4", "n_rf_rx: 2"))
        assert (err.path, err.line) == (("ns_split",), None)
        assert "ns=2" in str(err)

    def test_merge_key_walked_as_constructed(self, tmp_path):
        # the walk flattens "<<" as the constructor does; constructing it as a key raises
        text = ROUND_TRIP_YAML.replace("tx: {n_v: 4, n_h: 4}\nrx: {n_v: 4, n_h: 4}\n",
                                       "tx: &side {n_v: 4, n_h: 4}\nrx:\n  <<: *side\n  n_h: 0\n")
        err = load_error(tmp_path, text)
        assert (err.path, err.line) == (("rx", "n_h"), 6)
        # a merged-in field is named at its line inside the anchor
        text = "rx: &side {n_v: 4, n_h: 0}\n" + ROUND_TRIP_YAML.replace(
            "tx: {n_v: 4, n_h: 4}\nrx: {n_v: 4, n_h: 4}\n", "tx: {<<: *side}\n")
        err = load_error(tmp_path, text)
        assert (err.path, err.line) == (("tx", "n_h"), 1)

    @pytest.mark.parametrize("loader", LOADERS)
    def test_valid_config_builds_its_node_tree_once(self, tmp_path, monkeypatch, loader):
        # load_config runs in every benchmark workload's setup: only the error
        # path builds a second node tree, to find the failing key's line
        if loader == "python":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        cls = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        build, builds = cls.get_single_node, []

        def counted(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(cls, "get_single_node", counted)
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            builds.clear()
            assert load_config(str(path)).ns >= 1
            assert len(builds) == 1, path
        builds.clear()
        path = tmp_path / "bad.yaml"
        path.write_text(ROUND_TRIP_YAML + "ns: 0\n")
        with pytest.raises(ConfigError, match=r"\(line 11\)"):
            load_config(str(path))
        assert len(builds) == 2


def key_texts(exclude):
    """YAML texts of keys whose constructed key is not in ``exclude``.

    Plain names, and keys that YAML does not read as a plain string: quoted
    and plain dotted names, YAML 1.1 booleans and nulls, NaN and the
    infinities, and integers.
    """
    names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,15}", fullmatch=True)
    dotted = st.builds("{0}{1}.{2}{0}".format, st.sampled_from(['"', "'", ""]),
                       st.sampled_from(["tx", "rx"]), st.sampled_from(ARRAY_KEYS))
    resolved = st.sampled_from(["on", "off", "yes", "no", "True", "null", "Null", "~",
                                ".nan", ".NaN", ".inf", "-.inf"])
    integers = st.integers(-20, 20).map(str)
    texts = st.one_of(names, dotted, resolved, integers)
    return texts.filter(lambda text: yaml.safe_load(text) not in exclude)


class TestConfigKeys:
    def test_valid_texts_hold_every_field(self):
        assert set(VALID_TEXTS) == set(CONFIG_KEYS)
        assert set(SPACED) == set(ARRAY_KEYS)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        style=st.sampled_from(["block", "flow", "flow-document"]),
        order=st.permutations(list(VALID_TEXTS)),
        padded=st.booleans(),
        parent=st.sampled_from([None, "tx", "rx"]),
        data=st.data(),
    )
    def test_unread_key_named_at_its_line(self, tmp_path_factory, style, order, padded, parent,
                                          data):
        texts = {k: (dict(v) if isinstance(v, dict) else v) for k, v in VALID_TEXTS.items()}
        name = data.draw(key_texts(CONFIG_KEYS if parent is None else ARRAY_KEYS), label="name")
        value = data.draw(st.sampled_from(["1", "0.3", "[20]", "abc"]), label="value")
        # the error names the key as YAML constructs it: on is True, "tx.n_v" one key
        key = yaml.safe_load(name)
        if parent is None:
            order = list(order)
            order.insert(data.draw(st.integers(0, len(order)), label="position"), name)
            texts[name], path, text_path = value, (key,), (name,)
        else:
            items = list(texts[parent].items())
            items.insert(data.draw(st.integers(0, len(items)), label="position"), (name, value))
            texts[parent], path, text_path = dict(items), (parent, key), (parent, name)
        tmp_path = tmp_path_factory.mktemp("config")
        # every field parses; the one key that is not a field fails at its line
        valid_text, _ = emit_yaml(VALID_TEXTS, style, [k for k in order if k != name], padded)
        assert load_text(tmp_path, valid_text).layout is LayoutKind.PARALLELOGRAM_OPTIMAL
        text, key_lines = emit_yaml(texts, style, order, padded)
        err = load_error(tmp_path, text)
        line = key_lines[text_path]
        assert (err.path, err.line) == (path, line)
        assert str(err).startswith(f"config field {'.'.join(map(str, path))} (line {line}): ")

    @pytest.mark.parametrize("mode", [None, "optimal", "half-wavelength"])
    @pytest.mark.parametrize("field", ["tx.d_v", "rx.d_h"])
    def test_spacing_read_only_when_explicit(self, tmp_path, mode, field):
        side, key = field.split(".")
        spaced = {"n_v": 4, "n_h": 4, "d_v": 0.01, "d_h": 0.02}
        explicit = parse_config(cfg(spacing_mode="explicit", tx=spaced, rx=spaced))
        assert getattr(getattr(explicit, side), key) == spaced[key]
        # in the shipped configs' flow style; no spacing_mode line is the default, optimal
        text = ROUND_TRIP_YAML.replace(f"{side}: {{n_v: 4, n_h: 4}}",
                                       f"{side}: {{n_v: 4, n_h: 4, {key}: 0.5}}")
        if mode is not None:
            text += f"spacing_mode: {mode}\n"
        err = load_error(tmp_path, text)
        assert (err.path, err.line) == ((side, key), 3 if side == "tx" else 4)
        assert "spacing_mode: explicit" in str(err)


class TestScenario:
    def test_spacing_modes(self):
        config = parse_config(cfg())
        (d_tv, d_th), (d_rv, d_rh) = axis_spacings(config)
        lam = config.wavelength
        assert abs(d_tv * d_rv - 2 * lam * 50.0 / 16) <= 1e-15
        half = parse_config(cfg(spacing_mode="half-wavelength"))
        (d_tv, _), _ = axis_spacings(half)
        assert abs(d_tv - lam / 2) <= 1e-15

    def test_scheme_rates_ordered(self):
        config = parse_config(cfg(schemes=[
            "digital-uniform", "digital-wf", "asymptotic-hybrid", "omp-hybrid", "phase-extract",
        ]))
        scenario = Scenario(config, 0.0)
        digital = scenario.rate("digital-uniform", 1.0)
        assert scenario.rate("digital-wf", 1.0) >= digital - 1e-9
        for scheme in ("asymptotic-hybrid", "omp-hybrid", "phase-extract"):
            assert scenario.rate(scheme, 1.0) <= digital + 1e-9

    def test_hybrid_analog_widths_follow_each_side_rf_count(self):
        config = parse_config(cfg(n_rf_tx=4, n_rf_rx=6))
        scenario = Scenario(config, 0.0)
        for scheme in ("asymptotic-hybrid", "omp-hybrid", "phase-extract"):
            tx, rx = scenario.hybrid(scheme)
            assert tx.analog.shape == (16, 4)
            assert rx.analog.shape == (16, 6)
            assert 0.0 < scenario.rate(scheme, 1.0) <= scenario.rate("digital-uniform", 1.0) + 1e-9

    def test_asymptotic_hybrid_uses_spare_rf_chains(self):
        # 8 chains for 4 streams: the SVD baseband over the 8 best atoms beats
        # the 4 best atoms with an identity baseband, and stays below digital
        narrow = Scenario(parse_config(cfg()), 0.0)
        wide = Scenario(parse_config(cfg(n_rf_tx=8, n_rf_rx=8)), 0.0)
        for snr in (0.1, 1.0, 10.0):
            assert wide.rate("asymptotic-hybrid", snr) >= narrow.rate("asymptotic-hybrid", snr) + 0.5
            assert wide.rate("asymptotic-hybrid", snr) <= wide.rate("digital-wf", snr)

    def test_sweep_builds_each_stage_once_per_scenario(self, monkeypatch):
        # 31 SNRs at each of two rotations, one scenario for the sweep: the
        # channels, the digital SVD and every hybrid builder are built once,
        # on the stack of both angles (OMP once per side)
        calls = {}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        counting(channel, "exact_channels")
        for name in ("digital_svd", "asymptotic_hybrid", "omp_hybrid", "phase_extraction_hybrid"):
            counting(beamforming, name)
        config = parse_config(cfg(
            n_rf_tx=8, n_rf_rx=6, snr_db=list(range(-10, 21)), rotation_deg=[0, 20], schemes=SCHEMES,
        ))
        _, groups = cli.run_rate_sweep(config)
        assert sum(len(rates) for _, _, _, rates, *_ in groups) == 5 * 31 * 2
        assert calls == {
            "exact_channels": 1, "digital_svd": 1, "asymptotic_hybrid": 1,
            "omp_hybrid": 2, "phase_extraction_hybrid": 1,
        }

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        count=st.integers(1, 8), rows=st.integers(1, 300), cols=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trace_scaling_norm_is_np_linalg_norm_of_each(self, count, rows, cols, seed):
        # beams scales a stack of precoders by each one's Frobenius norm; a sum
        # of squares along an axis rounds differently from np.linalg.norm
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((count, rows, cols)) + 1j * rng.standard_normal((count, rows, cols))
        got = scenario_module._frobenius(x)
        assert got.shape == (count, 1, 1)
        assert all(got[i, 0, 0] == np.linalg.norm(x[i]) for i in range(count))
        assert scenario_module._frobenius(x[0])[0, 0] == np.linalg.norm(x[0])

    def test_water_fill_beats_uniform_at_low_snr(self):
        config = parse_config(cfg())
        scenario = Scenario(config, 0.0)
        snr = 10 ** (-15 / 10)
        assert scenario.rate("digital-wf", snr) >= scenario.rate("digital-uniform", snr)

    def test_rotation_changes_exact_channel_only(self):
        config = parse_config(cfg(rotation_deg=[0, 25]))
        s0 = Scenario(config, 0.0)
        s25 = Scenario(config, 25.0)
        assert np.abs(s0.tx_layout.coords[:2] - s25.tx_layout.coords[:2]).max() <= 1e-15
        assert np.abs(s0.tx_layout.coords[2] - s25.tx_layout.coords[2]).max() > 0

    def test_immutable_config(self):
        config = parse_config(cfg())
        with pytest.raises(AttributeError):
            config.ns = 8

    def test_hybrid_rates_never_form_a_dense_dictionary(self):
        # 64 x 64 receiver: one dense 4096 x 4096 dictionary would be 256 MiB
        config = parse_config(cfg(rx={"n_v": 64, "n_h": 64}, n_rf_tx=8, n_rf_rx=8))
        scenario = Scenario(config, 0.0)
        tracemalloc.start()
        try:
            for scheme in ("asymptotic-hybrid", "omp-hybrid", "phase-extract"):
                assert scenario.rate(scheme, 1.0) > 0.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("link", ["desk", "64 x 64 receiver"])
    def test_each_stage_holds_little_beside_the_channel(self, link):
        # Beside what it is handed (the channel, the dictionaries, the digital
        # beams), a stage may hold three gain blocks (a conjugated block and
        # the adjoint's two stages) and two arrays of (N + M) x w entries, w
        # the stage's width: the RF chains, or the digital block's k. Peaks:
        #   desk: digital 1.06 MiB of a 1.30 bound; asymptotic 0.75, OMP 0.33,
        #     phase-extract 0.32 of 1.00;
        #   64 x 64 receiver: asymptotic 1.19, OMP 1.47, phase-extract 1.16 of 1.75.
        # Whole N x M products break it: they took the asymptotic stage to 4.0
        # MiB on both links, phase-extract to 3.1 on the receiver and the desk
        # digital stage to 2.06, where the subspace SVD held a copy of h^H. So
        # do N x w temporaries beside a built DFT block: with dft_matrix's
        # one-expression build and all candidate columns kept, phase-extract
        # took 2.15 on the receiver.
        if link == "desk":
            config = load_config(str(CONFIG_DIR / "desk_scale.yaml"))
        else:
            config = parse_config(cfg(rx={"n_v": 64, "n_h": 64}, n_rf_tx=8, n_rf_rx=8))
        scenario = Scenario(config, 0.0)
        n, m = scenario.h.shape
        scenario.tx_dictionary, scenario.rx_dictionary  # built before any stage is measured
        start = fresnel_start_of(scenario)
        if link == "desk":
            stages = [("digital", lambda: scenario.digital, start.shape[1])]
        else:
            assert start is None  # a dense digital SVD, held before the hybrids are built
            scenario.digital
            stages = []
        rf_width = max(config.n_rf_tx, config.n_rf_rx)
        stages += [
            (scheme, functools.partial(scenario.beams, scheme), rf_width)
            for scheme in ("asymptotic-hybrid", "omp-hybrid", "phase-extract")
        ]
        for name, build, width in stages:
            tracemalloc.start()
            try:
                build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            bound = 16 * (3 * beamforming.GAIN_BLOCK_ENTRIES + 2 * (n + m) * width)
            assert peak < bound, f"{name}: {peak / 2**20:.2f} MiB against {bound / 2**20:.2f}"

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        rotation=st.floats(0.0, 60.0),
        n_rf_tx=st.integers(4, 16),
        n_rf_rx=st.integers(4, 16),
        snr_db=st.floats(-20.0, 30.0),
    )
    def test_every_rated_precoder_has_trace_ns(self, rotation, n_rf_tx, n_rf_rx, snr_db):
        # the one transmit power rule: each hybrid curve reaches the rate formula once, with a
        # trace-ns precoder, and the digital-wf curve reaches water_filling once, whose
        # streams share a unit total at each SNR
        scenario = Scenario(parse_config(cfg(n_rf_tx=n_rf_tx, n_rf_rx=n_rf_rx)), rotation)
        snrs = 10 ** (np.array([snr_db, snr_db + 10.0, snr_db + 20.0]) / 10)
        seen, totals = [], []
        rate, water_filling = spectral.rate, spectral.water_filling

        def recording_rate(h, f, w, snr, ns):
            seen.append(np.linalg.norm(f) ** 2)
            return rate(h, f, w, snr, ns)

        def recording_water_filling(eigs, p_total, gain_over_noise):
            alloc = water_filling(eigs, p_total, gain_over_noise)
            totals.append(alloc.powers.sum(axis=-1))
            return alloc

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "rate", recording_rate)
            patch.setattr(spectral, "water_filling", recording_water_filling)
            for scheme in SCHEMES:
                assert scenario.rate(scheme, snrs).shape == snrs.shape
        assert len(seen) == len(SCHEMES) - 2  # the hybrids; digital rates come from sigma
        assert np.abs(np.array(seen) - 4.0).max() <= 1e-12
        assert len(totals) == 1 and totals[0].shape == snrs.shape
        assert np.abs(totals[0] - 1.0).max() <= 1e-12


def fresnel_start_of(scenario):
    return beamforming.fresnel_start(
        scenario.tx_spec, scenario.rx_spec, lambda: scenario.tx_dictionary, scenario.params,
        scenario.config.ns,
    )


def hand_built_start(scenario, k):
    """fresnel_start's first k columns built by hand, without TwistedDft, and their s_v s_h.

    Column q is conj(d_t) times the conjugated Kronecker product of the axes'
    right singular vectors i and j, with q = i * r_h + j in _gain_order.
    """
    (_, s_v, v_v), (_, s_h, v_h) = (
        np.linalg.svd(factor, full_matrices=False)
        for factor in channel.kron_factor_channel(scenario.tx_spec, scenario.rx_spec, scenario.params)
    )
    s = np.outer(s_v, s_h).ravel()
    order = beamforming._gain_order(s)[:k]
    i, j = np.divmod(order, s_h.size)
    cols = (v_v[i].conj()[:, :, None] * v_h[j].conj()[:, None, :]).reshape(k, -1)
    return np.conj(channel.quadratic_phase(scenario.tx_layout, scenario.params))[:, None] * cols.T, s[order]


def dense_twin(config, rotation, scale=1.0):
    """A scenario whose digital beams come from the dense SVD, as at the parent commit."""
    twin = Scenario(config, rotation, scale)
    twin.__dict__["digital"] = beamforming.digital_svd(twin.h, config.ns)
    return twin


def smallest_phase_read(beams):
    """The smallest entry above phase extraction's floor, relative to its column's largest."""
    entries = np.abs(beams) / np.abs(beams).max(axis=0)
    return entries[entries >= beamforming.PHASE_FLOOR_RTOL].min()


def relative_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


EPS = np.finfo(float).eps
split_pairs = st.sampled_from([(2, 2), (2, 4), (4, 2), (4, 4)])
desk_sides = st.fixed_dictionaries({"n_v": st.integers(8, 16), "n_h": st.integers(8, 16)})
desk_links = {
    "tx": desk_sides, "rx": desk_sides, "split": split_pairs,
    "distance": st.floats(20.0, 100.0), "scale": st.floats(0.8, 1.2), "rotation": st.floats(0.0, 60.0),
}


@st.composite
def small_links(draw):
    """Config overrides of a small link: 2..6 antennas per axis, an even split per axis."""
    sides = [{"n_v": draw(st.integers(2, 6)), "n_h": draw(st.integers(2, 6))} for _ in range(2)]
    split = [2 * draw(st.integers(1, min(s["n_" + axis] for s in sides) // 2)) for axis in ("v", "h")]
    return {
        "tx": sides[0], "rx": sides[1], "ns": split[0] * split[1], "ns_split": split,
        "n_rf_tx": split[0] * split[1], "n_rf_rx": split[0] * split[1],
        "distance_m": draw(st.floats(10.0, 100.0)),
        "spacing_mode": draw(st.sampled_from(["optimal", "half-wavelength"])),
        "layout": draw(st.sampled_from([kind.value for kind in LayoutKind])),
    }


class TestDigitalRateProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(small_links(), st.floats(0.0, 60.0), st.integers(0, 2**32 - 1))
    def test_rates_invariant_to_unitary_bases(self, overrides, rotation, seed):
        # U h V^H has the singular values of h, which are all the digital rates
        # read, so the curves agree to the rate bound of the subspace path's
        # test: 1e-12 of the curve's largest rate
        config = parse_config(cfg(**overrides))
        plain, mixed = Scenario(config, rotation), Scenario(config, rotation)
        rng = np.random.default_rng(seed)
        n, m = plain.h.shape
        mixed.h = random_unitary(rng, n) @ plain.h @ random_unitary(rng, m).conj().T
        snrs = 10 ** (np.arange(-30.0, 31.0, 10.0) / 10)
        for scheme in ("digital-uniform", "digital-wf"):
            assert relative_gap(mixed.rate(scheme, snrs), plain.rate(scheme, snrs)) <= 1e-12, scheme


def sigma_rate_rtol(ns: int, z: float, shape: tuple) -> float:
    """Relative bound on digital-uniform's rate from two backward-stable SVDs of one channel.

    With x = snr / ns, the rate is sum_i log2(1 + x g_i) over g_i = sigma_i^2,
    and z = sqrt(x) sigma_0. Each LAPACK SVD's values are, by Weyl, within its
    backward error of the exact ones, taken as max(N, M) eps sigma_0, so the
    two sets differ by delta = r sigma_0 with r = 2 max(N, M) eps. The zero
    cut at rho = SVD_RANK_RTOL may fall on either side of a value within
    delta of rho sigma_0, which then moves by up to (rho + r) sigma_0.
    log(1 + s^2) has slope at most 1 in s and log(1 + a) slope at most 1 in
    a, so an uncut stream's term moves by at most min(z^2 (2 r + r^2), z r)
    in natural log, and a cut one's by z^2 (rho + r)^2. Each side also rounds
    1 + x g_i and x g_i (eps per stream) and sums ns logs (ns eps relative).
    The rate is at least its top stream's term, log(1 + z^2) / log(2).
    """
    r = 2 * max(shape) * EPS
    moved = max(min(z * z * (2 * r + r * r), z * r), z * z * (linalg.SVD_RANK_RTOL + r) ** 2)
    return ns * (moved + 2 * EPS) / math.log1p(z * z) + 2 * ns * EPS


class TestApertureRate:
    @settings(max_examples=60, deadline=None, database=None)
    @given(small_links(), st.floats(0.0, 60.0), st.floats(0.25, 2.0), st.floats(-20.0, 30.0))
    # rank 6 below ns = 36: half-wavelength 6 x 6 arrays over 100 m, tilted rotated UPAs
    @example(
        {"tx": {"n_v": 6, "n_h": 6}, "rx": {"n_v": 6, "n_h": 6}, "ns": 36, "ns_split": [6, 6],
         "n_rf_tx": 36, "n_rf_rx": 36, "distance_m": 100.0, "spacing_mode": "half-wavelength",
         "layout": "rotated-upa"},
        20.0, 1.0, 10.0,
    )
    def test_sigma_only_rate_is_the_digital_rate(self, overrides, rotation, scale, snr_db):
        # the sweep rates from its values-only sigma; a scenario rates from the
        # digital beams' sigma, the SVD with vectors
        config = parse_config(cfg(**overrides, snr_db=[snr_db], rotation_deg=[rotation]))
        (row,) = cli.run_aperture_sweep(config, (scale,))[1]
        scenario = Scenario(config, rotation, scale)
        snr = 10 ** (snr_db / 10.0)
        want = scenario.rate("digital-uniform", snr)
        sigma = scenario.digital.singular_values
        bound = sigma_rate_rtol(config.ns, math.sqrt(snr / config.ns) * sigma[0], scenario.h.shape)
        assert abs(row[-1] - want) <= bound * want

    def test_rank_deficient_example_is_rank_deficient(self):
        config = parse_config(cfg(
            tx={"n_v": 6, "n_h": 6}, rx={"n_v": 6, "n_h": 6}, ns=36, ns_split=[6, 6], n_rf_tx=36,
            n_rf_rx=36, distance_m=100.0, spacing_mode="half-wavelength", layout="rotated-upa",
        ))
        sigma = linalg.singular_values(Scenario(config, 20.0).h)
        assert np.count_nonzero(sigma) == 6


class TestDigitalPath:
    @settings(max_examples=30, deadline=None, database=None)
    @given(**desk_links)
    def test_start_block_is_the_fresnel_models_right_vectors(self, tx, rx, split, distance, scale, rotation):
        ns = split[0] * split[1]
        config = parse_config(cfg(
            tx=tx, rx=rx, ns=ns, ns_split=list(split), n_rf_tx=ns, n_rf_rx=ns, distance_m=distance,
        ))
        scenario = Scenario(config, rotation, scale)
        start = fresnel_start_of(scenario)
        assume(start is not None)
        want, s = hand_built_start(scenario, start.shape[1])
        assert np.array_equal(start, want)
        assert np.linalg.norm(start.conj().T @ start - np.eye(s.size)) <= 1e-13
        h_f = channel.fresnel_factors(scenario.tx_layout, scenario.rx_layout, scenario.params).recompose()
        assert np.abs(np.linalg.norm(h_f @ start, axis=0) - s).max() <= 1e-13 * s[0]

    @settings(max_examples=30, deadline=None, database=None)
    @given(spare=st.tuples(st.integers(0, 4), st.integers(0, 4)), **desk_links)
    def test_subspace_path_matches_the_dense_svd(self, tx, rx, split, spare, distance, scale, rotation):
        ns = split[0] * split[1]
        config = parse_config(cfg(
            tx=tx, rx=rx, ns=ns, ns_split=list(split), n_rf_tx=ns + spare[0], n_rf_rx=ns + spare[1],
            distance_m=distance, schemes=list(SCHEMES),
        ))
        fast = Scenario(config, rotation, scale)
        assume(fresnel_start_of(fast) is not None)
        dense = dense_twin(config, rotation, scale)
        sigma = linalg.svd(dense.h, ns).singular_values
        got = fast.digital.singular_values
        assert np.abs(got - sigma[:ns]).max() <= 1e-13 * sigma[0]
        snrs = 10 ** (np.array([-10.0, 0.0, 10.0, 20.0]) / 10)
        for scheme in ("digital-uniform", "digital-wf"):
            assert relative_gap(fast.rate(scheme, snrs), dense.rate(scheme, snrs)) <= 1e-12
        # asymptotic-hybrid reads no digital beam
        assert np.array_equal(fast.rate("asymptotic-hybrid", snrs), dense.rate("asymptotic-hybrid", snrs))
        # OMP and phase extraction read the vectors, which any backward-stable SVD
        # fixes only to about eps sigma_0 over the gap to the neighbouring values:
        # OMP reads the span of the first ns, phase extraction the phase of each
        # entry above its floor, which moves by the vector's error over the
        # entry. The rate's whitening multiplies that by cond(F) cond(W)^2, up
        # to 1e5 on OMP's combiners with spare RF chains. Dense LAPACK moves
        # them as much between one and two BLAS threads: 3.7e-8 for phase
        # extraction on desk at 0.164 deg, where a pair splits by 1.6e-9 sigma_0
        steps = -np.diff(sigma[: ns + 1]) / sigma[0]
        read = min(smallest_phase_read(beams) for beams in (dense.digital.precoder, dense.digital.combiner))
        conditioning = {
            "omp-hybrid": 1.0 / steps[-1],
            "phase-extract": 1.0 / (steps[steps > linalg.SVD_RANK_RTOL].min() * read),
        }
        for scheme, amplification in conditioning.items():
            f, w = dense.beams(scheme)
            kappa = np.linalg.cond(f) * np.linalg.cond(w) ** 2 * amplification
            bound = 1e-12 + 1e2 * EPS * kappa
            assert relative_gap(fast.rate(scheme, snrs), dense.rate(scheme, snrs)) <= bound, scheme

    def test_a_desk_sweep_is_each_angle_alone(self):
        # each angle of a stack takes its own subspace iteration from its own
        # start block, and every scheme's rows are the angle's own, bitwise
        config = load_config(str(CONFIG_DIR / "desk_scale.yaml"))
        sweep = Scenario(config, (0.0, 10.0))
        snrs = 10 ** (np.array(config.snr_db) / 10)
        for i, rotation in enumerate(sweep.rotation_deg):
            alone = Scenario(config, rotation)
            assert fresnel_start_of(alone) is not None
            for field in ("precoder", "combiner", "singular_values"):
                assert np.array_equal(getattr(sweep.digital, field)[i], getattr(alone.digital, field))
            for scheme in SCHEMES:
                assert np.array_equal(sweep.rate(scheme, snrs)[i], alone.rate(scheme, snrs)), scheme

    def test_only_the_subspace_path_builds_the_tx_dictionary(self):
        # fresnel_start calls for the dictionary past its gates only, so a
        # digital rate on 16-antenna arrays builds none; desk's start block needs it
        smoke = Scenario(load_config(str(CONFIG_DIR / "small_smoke.yaml")), 0.0)
        smoke.rate("digital-uniform", 1.0)
        assert "digital" in smoke.__dict__ and "tx_dictionary" not in smoke.__dict__
        desk = Scenario(load_config(str(CONFIG_DIR / "desk_scale.yaml")), 0.0)
        desk.rate("digital-uniform", 1.0)
        assert "tx_dictionary" in desk.__dict__

    def test_desk_takes_the_subspace_path(self, monkeypatch):
        config = load_config(str(CONFIG_DIR / "desk_scale.yaml"))
        scenario = Scenario(config, 0.0)
        assert fresnel_start_of(scenario).shape == (256, 35)

        def dense(*args):
            raise AssertionError("the desk channel reached the dense SVD")

        monkeypatch.setattr(beamforming, "svd", dense)
        assert scenario.digital.precoder.shape == (256, 16)

    @pytest.mark.parametrize("path, overrides, rotation, scale, vectors", [
        # rank 13 < ns = 16: the digital beams read zero singular values
        ("desk_scale.yaml", {"spacing_mode": "half-wavelength"}, 0.0, 1.0, True),
        # sigma_35 / sigma_15 is 0.999: no gap below sigma_ns. Precoder column 10
        # has two entries 1.2e-10 below its largest, where the parent's phase
        # pick (ties at SVD_RANK_RTOL) flips between one and two BLAS threads and
        # moves phase-extract by 1.8e-6; PHASE_TIE_RTOL ties them. So only what
        # the aperture sweep reads, the singular values, is the parent's here
        ("desk_scale.yaml", {}, 0.0, 1.5, False),
        # a tilted rotated UPA has no Kronecker core
        ("desk_scale.yaml", {"layout": "rotated-upa"}, 20.0, 1.0, True),
        # 16 x 16 channels: LAPACK costs no more, and phase-extract reads the phases
        ("small_smoke.yaml", {}, 20.0, 1.0, True),
    ], ids=["half-wavelength", "aperture-1.5", "tilted-rotated-upa", "4x4"])
    def test_dense_path_keeps_the_parent_outputs(
        self, monkeypatch, path, overrides, rotation, scale, vectors
    ):
        data = yaml.safe_load((CONFIG_DIR / path).read_text())
        config = parse_config({**data, **overrides, "rotation_deg": [rotation]})
        scenario = Scenario(config, rotation, scale)
        assert fresnel_start_of(scenario) is None
        got = scenario.digital
        # the parent commit: the dense SVD with ties of the phase pick at SVD_RANK_RTOL
        monkeypatch.setattr(linalg, "PHASE_TIE_RTOL", linalg.SVD_RANK_RTOL)
        parent = dense_twin(config, rotation, scale)
        fields = ("precoder", "combiner", "singular_values") if vectors else ("singular_values",)
        for field in fields:
            assert np.array_equal(getattr(got, field), getattr(parent.digital, field)), field
        snrs = 10 ** (np.array(config.snr_db) / 10)
        schemes = SCHEMES if vectors else ("asymptotic-hybrid", "digital-uniform", "digital-wf")
        for scheme in schemes:
            assert np.array_equal(scenario.rate(scheme, snrs), parent.rate(scheme, snrs)), scheme

    def test_a_gap_the_channel_lacks_falls_back_to_the_dense_svd(self, monkeypatch):
        # a start that never converges stands in for a Fresnel spectrum that
        # mispredicts the channel's
        config = load_config(str(CONFIG_DIR / "desk_scale.yaml"))
        h = Scenario(config, 0.0).h

        def stalled(a, rank, start):
            raise linalg.ConvergenceError("did not converge")

        monkeypatch.setattr(beamforming, "subspace_svd", stalled)
        got = beamforming.digital_svd(h, 16, np.eye(256)[:, :35])
        want = beamforming.digital_svd(h, 16)
        assert np.array_equal(got.precoder, want.precoder)


class TestSpectrumData:
    def test_reads_the_core_without_the_exact_channel(self, monkeypatch):
        config = parse_config(cfg())
        expected = complex_gram_spectrum(Scenario(config, 0.0))

        def unused(*args):
            raise AssertionError("spectrum_data built the exact channel")

        for name in ("exact_channel", "exact_channels"):
            monkeypatch.setattr(channel, name, unused)
        values, _, _ = spectrum_data(config)
        # the real centred Gram rounds differently from the complex one
        assert np.abs(values - expected).max() <= spectrum_tolerance(expected, 16)

    @staticmethod
    def recorded_eigensolves(monkeypatch, config):
        """(shape, dtype) of each matrix spectrum_data hands to eig_hermitian."""
        seen = []

        def recording_eig(a):
            seen.append((np.shape(a), np.asarray(a).dtype))
            return eig_hermitian(a)

        monkeypatch.setattr(scenario_module, "eig_hermitian", recording_eig)
        spectrum_data(config)
        return seen

    def test_two_per_axis_eigensolves_on_the_kronecker_path(self, monkeypatch):
        # a silent return to the dense Gram would pass every value check
        arrays = {"n_v": 4, "n_h": 6}
        config = parse_config(cfg(tx=arrays, rx=arrays, rotation_deg=[20.0]))
        seen = self.recorded_eigensolves(monkeypatch, config)
        assert [shape for shape, _ in seen] == [(4, 4), (6, 6)]

    def test_one_real_eigensolve(self, monkeypatch):
        # no Kronecker core: the real part of the centred M x M Gram, not the complex Gram
        config = parse_config(cfg(layout="rotated-upa", rotation_deg=[20.0]))
        assert self.recorded_eigensolves(monkeypatch, config) == [((16, 16), np.float64)]

    def test_guard_rejects_a_gram_that_is_not_real(self, monkeypatch):
        # the Gram without the centring has an O(1) imaginary part, as a
        # broken symmetry assumption would leave; that is a bug, so it is
        # not a ValueError (exit 3)
        def uncentred(tx, rx, params):
            return channel.gram(channel.fresnel_factors(tx, rx, params).h_tilde, Side.TX)

        monkeypatch.setattr(scenario_module, "_centred_tx_gram", uncentred)
        with pytest.raises(RuntimeError, match="not real"):
            spectrum_data(parse_config(cfg(layout="rotated-upa", rotation_deg=[20.0])))

    # a tilted array's sheared z can reach the link distance (12 x 12 at 20
    # lambda, 1.2 rad, 10 m: 23 m), which warns about the Fresnel model; the
    # Gram and the spectrum do not depend on z
    @pytest.mark.filterwarnings("ignore:aperture .* is not small against distance:RuntimeWarning")
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        tx=st.tuples(counts, counts, spacings, spacings, angles, angles),
        rx=st.tuples(counts, counts, spacings, spacings, angles, angles),
        kind=st.sampled_from(list(LayoutKind)),
        distance=st.floats(10.0, 100.0),
    )
    def test_centred_gram_is_real_with_the_same_spectrum(self, tx, rx, kind, distance):
        def layout(draw, side):
            n_v, n_h, d_v, d_h, theta, phi = draw
            spec = ArraySpec(n_v=n_v, n_h=n_h, d_v=d_v * WAVELENGTH, d_h=d_h * WAVELENGTH,
                             theta=theta, phi=phi, layout_kind=kind)
            return build_layout(spec, side, distance)

        tx_layout, rx_layout = layout(tx, Side.TX), layout(rx, Side.RX)
        params = channel.ChannelParams(wavelength=WAVELENGTH, distance=distance)
        g = _centred_tx_gram(tx_layout, rx_layout, params)
        assert np.abs(g.imag).max() <= 1e-12 * np.abs(g.real).max()
        h_tilde = channel.fresnel_factors(tx_layout, rx_layout, params).h_tilde
        oracle = np.linalg.eigvalsh(channel.gram(h_tilde, Side.TX))[::-1]
        values = eig_hermitian(g.real).values
        assert np.abs(values - oracle).max() <= spectrum_tolerance(oracle, tx_layout.count)

    @pytest.mark.filterwarnings("ignore:aperture .* is not small against distance:RuntimeWarning")
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        tx=st.tuples(st.integers(2, 12), st.integers(2, 12), spacings, spacings),
        rx=st.tuples(st.integers(2, 12), st.integers(2, 12), spacings, spacings),
        layout=st.sampled_from([kind.value for kind in LayoutKind]),
        distance=st.floats(10.0, 100.0),
        rotation=angles,
    )
    def test_spectrum_matches_the_complex_gram_oracle(self, tx, rx, layout, distance, rotation):
        # a config needs two elements per axis for its 2 x 2 streams; the
        # property above covers single-element axes and theta != phi
        def side(draw):
            n_v, n_h, d_v, d_h = draw
            return {"n_v": n_v, "n_h": n_h, "d_v": d_v * WAVELENGTH, "d_h": d_h * WAVELENGTH}

        config = parse_config(cfg(
            distance_m=distance, spacing_mode="explicit", layout=layout,
            tx=side(tx), rx=side(rx), rotation_deg=[float(np.degrees(rotation))],
        ))
        values, _, summary = spectrum_data(config)
        scenario = Scenario(config, config.rotation_deg[0])
        oracle = complex_gram_spectrum(scenario)
        assert np.abs(values - oracle).max() <= spectrum_tolerance(oracle, scenario.tx_layout.count)
        omega = oracle / summary["normalizer"]
        assert summary["count_near_one"] == int((omega >= 1.0 - config.cluster_eps).sum())
        assert summary["count_near_zero"] == int((omega <= config.cluster_eps).sum())

    # a tilted parallelogram's sheared z can reach the link distance; that
    # warns about the Fresnel model, and the spectrum does not depend on z
    @pytest.mark.filterwarnings("ignore:aperture .* is not small against distance:RuntimeWarning")
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        tx=st.tuples(st.integers(2, 12), st.integers(2, 12), spacings, spacings),
        rx=st.tuples(st.integers(2, 12), st.integers(2, 12), spacings, spacings),
        distance=st.floats(10.0, 100.0),
        rotations=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4, unique=True),
    )
    def test_parallelogram_spectrum_is_a_rotation_free_prolate_product(
        self, tx, rx, distance, rotations
    ):
        def side(draw):
            n_v, n_h, d_v, d_h = draw
            return {"n_v": n_v, "n_h": n_h, "d_v": d_v * WAVELENGTH, "d_h": d_h * WAVELENGTH}

        def values_at(rotation):
            config = parse_config(cfg(
                distance_m=distance, spacing_mode="explicit", tx=side(tx), rx=side(rx),
                rotation_deg=[rotation],
            ))
            return spectrum_data(config)[0]

        values = values_at(0.0)
        assert values.min() >= 0.0 and np.all(np.diff(values) <= 0.0)
        # the trace of the Gram is the channel's squared Frobenius norm N * M
        total = tx[0] * tx[1] * rx[0] * rx[1]
        assert abs(values.sum() - total) <= 1e-12 * total
        # the paper's rotation claim: a parallelogram keeps the spectrum, bit for bit
        for rotation in rotations:
            assert values_at(rotation).tobytes() == values.tobytes()

    def test_large_aperture_still_warns(self):
        config = parse_config(cfg(
            distance_m=2.0,
            spacing_mode="explicit",
            tx={"n_v": 4, "n_h": 4, "d_v": 1.0, "d_h": 1.0},
            rx={"n_v": 4, "n_h": 4, "d_v": 1.0, "d_h": 1.0},
        ))
        with pytest.warns(RuntimeWarning, match="not small against distance"):
            spectrum_data(config)
