"""The JSON encoder of the output tree against ``json.dumps`` and the
in-memory plot files against their read-back derivation."""
import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncerg import experiments
from ncerg.experiments import ExperimentConfig, emit_plot_data, run
from oracles import plot_files_from_disk

# the benchmark workloads' configs, at seed 1
FULL_CONFIGS = {
    "default": {},
    "large-unitary": {"blocks": [8, 16], "n_random": 2, "weighted_cases": 8, "T_n": 24},
    "lindblad": {
        "blocks": [3, 6],
        "semigroup": {"variant": "generator_exp"},
        "n_random": 4,
        "weighted_cases": 16,
    },
}


def stdlib(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """name -> (report, [(path, payload)] of every JSON file) of a full run
    with its plot files."""
    runs = {}
    write = experiments._write_json
    for name, cfg in FULL_CONFIGS.items():
        payloads = []

        def record(path, payload, payloads=payloads):
            payloads.append((path, payload))
            write(path, payload)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_write_json", record)
            out = tmp_path_factory.mktemp(name) / "out"
            report = run(ExperimentConfig.from_dict({**cfg, "seed": 1}), "full", out)
            emit_plot_data(report)
        runs[name] = (report, payloads)
    return runs


@pytest.mark.parametrize("name", sorted(FULL_CONFIGS))
def test_encoder_matches_json_on_full_run_payloads(full_runs, name):
    report, payloads = full_runs[name]
    # every certificate, report.json, certificates_summary.json and SCHEMA.json
    assert len(payloads) == len(report.certificates) + 3
    for path, payload in payloads:
        want = stdlib(payload)
        assert experiments._encode(payload, 0) == want, path
        assert path.read_bytes() == (want + "\n").encode("utf-8"), path


@pytest.mark.parametrize("name", sorted(FULL_CONFIGS))
def test_plots_match_read_back_derivation(full_runs, name):
    report, _ = full_runs[name]
    assert report.tables and report.certificates
    for fname, want in plot_files_from_disk(report).items():
        assert (report.outdir / "plots" / fname).read_bytes() == want, fname


class _Float(float):
    def __repr__(self):
        return "not a float repr"


class _Level(enum.IntEnum):
    HIGH = 3


EDGE_VALUES = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    5e-324,
    1.7976931348623157e308,
    10**40,
    -(10**40),
    "",
    [1.0, math.nan, 2.0],
    [math.inf, 0.5],
    [-math.inf],
    [-0.0, 5e-324, -1.7976931348623157e308, 1e-05, 1e16],
    [1.0, True, 2.0],
    [None, 1.0],
    [1.0, 2],
    [True, False, None],
    [],
    {},
    [[]],
    [{}],
    [[], {}, [[1.0, 2.0], [3.0, [4.0, {}]]]],
    (1.0, 2.0),
    ((1.0, 2.0), (3, "a"), ()),
    {"b": (1.0,), "a": {"d": [], "c": {}}},
    {2: 0.5, -1.5: "x", True: None, math.inf: [1.0]},
    {None: 1},
    {"ü": "naïve €", "ctl": "\x00\x1f\x7f\t\n\r\"\\/", "astral": "\U0001f600", "sep": " "},
    np.float64(0.1),
    [np.float64(0.1), np.float64(np.nan), 0.2],
    {"x": np.float64(-0.0), "y": [np.float64(np.inf)]},
    _Float(0.25),
    [_Float(0.25), 0.5],
    {_Float(1.5): _Level.HIGH, 2: [_Level.HIGH]},
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=range(len(EDGE_VALUES)))
def test_encoder_matches_json_on_edge_values(value):
    assert experiments._encode(value, 0) == stdlib(value)
    assert experiments._encode({"k": [value]}, 0) == stdlib({"k": [value]})


@pytest.mark.parametrize(
    "value",
    [
        np.int64(3),
        {1, 2},
        [1.0, np.int64(3)],
        {"a": {1}},
        np.float32(1.0),
        np.bool_(True),
        {(1, 2): 3},
        {1: 0, "a": 1},
    ],
    ids=range(8),
)
def test_encoder_raises_type_error_where_json_does(value):
    with pytest.raises(TypeError) as want:
        stdlib(value)
    with pytest.raises(TypeError) as got:
        experiments._encode(value, 0)
    assert str(got.value) == str(want.value)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.floats(), max_size=6)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_json_values)
def test_encoder_matches_json_on_random_trees(value):
    assert experiments._encode(value, 0) == stdlib(value)
