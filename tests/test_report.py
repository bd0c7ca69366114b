"""Report serialization: hashing, JSON text, CSV precision, atomic
writes."""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpedsphere import (build_report, checks_csv, config_hash,
                          report_json, write_text_atomic)
from warpedsphere.report import _jsonable
from warpedsphere.verification import CheckResult


def _checks():
    return [
        CheckResult(label="b_check", lhs=1.0, rhs=2.0, margin=1.0,
                    tolerance=1e-6, verdict="pass"),
        CheckResult(label="a_check", lhs=1.0 / 3.0, rhs=0.5,
                    margin=0.5 - 1.0 / 3.0, tolerance=1e-6,
                    verdict="pass"),
    ]


class TestConfigHash:
    def test_stable_under_key_order(self):
        a = {"grid": {"n": "501"}, "metric": {"family": "round"}}
        b = {"metric": {"family": "round"}, "grid": {"n": "501"}}
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_values(self):
        a = {"grid": {"n": "501"}}
        b = {"grid": {"n": "1001"}}
        assert config_hash(a) != config_hash(b)


class TestBuildReport:
    def test_checks_sorted_and_run_id_deterministic(self):
        doc1 = build_report(_checks(), {"metric": {"family": "round"}},
                            seed=7)
        doc2 = build_report(_checks(), {"metric": {"family": "round"}},
                            seed=7)
        labels = [c["label"] for c in doc1["checks"]]
        assert labels == sorted(labels)
        assert doc1["run_id"] == doc2["run_id"]

    def test_seed_changes_run_id(self):
        doc1 = build_report(_checks(), {}, seed=1)
        doc2 = build_report(_checks(), {}, seed=2)
        assert doc1["run_id"] != doc2["run_id"]

    def test_json_round_trip(self):
        doc = build_report(_checks(), {"grid": {"n": "501"}}, seed=None)
        text = report_json(doc)
        parsed = json.loads(text)
        assert parsed["checks"][0]["label"] == "a_check"
        assert text.endswith("\n")

    def test_numpy_values_serializable(self):
        doc = build_report([], {}, seed=None,
                           extras={"x": np.float64(1.5),
                                   "y": np.arange(3),
                                   "z": np.bool_(True)})
        parsed = json.loads(report_json(doc))
        assert parsed["x"] == 1.5
        assert parsed["z"] is True


@dataclasses.dataclass(frozen=True)
class _Sample:
    label: str
    value: float
    count: int
    flags: tuple
    inputs: dict


#: (input, JSON text of `_jsonable(input)`); numpy scalars convert by
#: `.item()`, so a numpy NaN stays a float NaN, while a non-finite
#: Python float, in an ndarray too, becomes its repr string
JSONABLE_CASES = [
    (_Sample("a", 0.5, 3, (True, None), {"m": np.float64(2.0), 7: "x"}),
     '{"label": "a", "value": 0.5, "count": 3, "flags": [true, null], '
     '"inputs": {"m": 2.0, "7": "x"}}'),
    (np.float64(1.5), "1.5"), (np.float32(0.25), "0.25"),
    (np.int64(-4), "-4"), (np.bool_(True), "true"),
    (np.float64("nan"), "NaN"), (np.float64("-inf"), "-Infinity"),
    (np.array([1.0, np.nan, np.inf]), '[1.0, "nan", "inf"]'),
    (np.arange(3), "[0, 1, 2]"),
    (float("nan"), '"nan"'), (float("-inf"), '"-inf"'), (1e308, "1e+308"),
    (((1, 2.0), (np.float64(3.0), [None, "s", (float("inf"),)])),
     '[[1, 2.0], [3.0, [null, "s", ["inf"]]]]'),
    ({"a": [np.int64(1)], "b": {"c": False}},
     '{"a": [1], "b": {"c": false}}'),
]


def _builtin_leaves(obj) -> bool:
    """True when every leaf of obj is exactly a JSON built-in type."""
    if type(obj) is dict:
        return all(type(k) is str and _builtin_leaves(v)
                   for k, v in obj.items())
    if type(obj) is list:
        return all(_builtin_leaves(v) for v in obj)
    return obj is None or type(obj) in (str, int, float, bool)


class TestJsonable:
    @pytest.mark.parametrize("obj, text", JSONABLE_CASES)
    def test_output_pinned(self, obj, text):
        got = _jsonable(obj)
        assert json.dumps(got) == text
        assert _builtin_leaves(got)


class _Int(int):
    def __repr__(self):
        return "not the int"


class _Float(float):
    def __repr__(self):
        return "not the float"


class _Str(str):
    def __str__(self):
        return "not the str"


#: characters json escapes or that need care: quotes, backslash, control
#: characters, DEL, non-ASCII, line separators, astral code points
_AWKWARD = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f",
                            "\x7f", "/", "\u00e9", "\u2028", "\u2603",
                            "\U0001f600", "a"])
_TEXT = st.one_of(st.text(max_size=8), st.text(_AWKWARD, max_size=8))
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16,
                     1e-7, float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True))
_LEAVES = st.one_of(
    _TEXT, _FLOATS, st.integers(), st.booleans(), st.none(),
    _FLOATS.map(np.float64), _FLOATS.map(_Float), _TEXT.map(np.str_),
    _TEXT.map(_Str), st.integers().map(_Int))
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5)),
    max_leaves=40)


def _nested(depth, leaf):
    """A list / dict chain `depth` levels deep around `leaf`."""
    for i in range(depth):
        leaf = [leaf] if i % 2 else {f"k{i}": leaf, "": []}
    return leaf


def _json_text(tree) -> str:
    return json.dumps(tree, sort_keys=True, indent=2) + "\n"


class TestReportJson:
    """`report_json` writes the bytes of json.dumps(sort_keys=True,
    indent=2) plus a newline."""

    @given(_TREES)
    @settings(max_examples=200, deadline=None)
    def test_random_trees(self, tree):
        assert report_json(tree) == _json_text(tree)

    @pytest.mark.parametrize("tree", [
        {}, [], (), "", {"": {}}, [[], {}, ()], _nested(60, 1.5),
        _nested(61, {}), {"b": 1, "a": 2, "\u00e9": 3, "A": 4, "\x00": 5}])
    def test_empty_and_deep(self, tree):
        assert report_json(tree) == _json_text(tree)

    def test_stored_reference_reports(self):
        """The timestamp-free reports of the benchmark's stored reference
        inputs, every workload and shipped seed."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sys.path.insert(0, os.path.join(root, "perfbench"))
        try:
            import outputs
        finally:
            sys.path.pop(0)
        count = 0
        for workload in ("verify", "sequence", "pointpick"):
            for seed in outputs.SHIPPED_SEEDS:
                for record in outputs.load_references(workload, seed):
                    report = record["digest"]["report"]
                    assert report_json(report) == _json_text(report)
                    count += 1
        assert count > 0

    def test_built_report(self):
        doc = build_report(_checks(), {"grid": {"n": "501"}}, seed=3,
                           extras={"x": np.float64(np.nan),
                                   "y": np.arange(3)},
                           timestamp="t")
        assert report_json(doc) == _json_text(doc)

    def test_refuses_what_json_refuses(self):
        for tree in ({"a": object()}, [np.int64(1)]):
            with pytest.raises(TypeError):
                json.dumps(tree)
            with pytest.raises(TypeError):
                report_json(tree)

    def test_refuses_keys_that_are_not_strings(self):
        # `_jsonable` makes every key a string; json would convert these
        for key in (1, 1.5, None, True):
            with pytest.raises(TypeError):
                report_json({key: 0})


class TestChecksCsv:
    def test_header_and_precision(self):
        text = checks_csv(_checks())
        lines = text.strip().split("\n")
        assert lines[0] == "label,lhs,rhs,margin,tolerance,verdict"
        # 17 significant digits round-trip doubles exactly
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert row["label"] == "b_check"
        value = lines[1].split(",")[1]
        assert float(value) == 1.0 / 3.0


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        write_text_atomic(str(path), "first\n")
        write_text_atomic(str(path), "second\n")
        assert path.read_text() == "second\n"
        # no stray temp files left behind
        assert os.listdir(tmp_path) == ["out.json"]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(OSError):
            write_text_atomic(str(tmp_path / "nope" / "out.json"), "x")
