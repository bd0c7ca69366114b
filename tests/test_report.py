"""Report serialization: hashing, JSON text, CSV precision, atomic
writes."""

import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpedsphere import (build_report, checks_csv, config_hash,
                          report_json, sequence_csv, write_text_atomic)
from warpedsphere.verification import (CheckResult, ConvergenceReport,
                                       SequenceEntry, SequenceSpec)


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

    def test_digests_are_hashlib_sha256(self):
        """The built-in SHA-256 the report uses gives `hashlib`'s digests."""
        config = {"grid": {"n": "501"}, "metric": {"family": "bump",
                                                  "eta": 0.5}}
        canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
        chash = hashlib.sha256(canon.encode()).hexdigest()
        assert config_hash(config) == chash
        assert build_report(config, 3)["run_id"] == \
            hashlib.sha256(f"{chash}:3".encode()).hexdigest()[:16]


class TestBuildReport:
    def test_checks_sorted_and_run_id_deterministic(self):
        doc1 = build_report({"metric": {"family": "round"}}, 7, _checks())
        doc2 = build_report({"metric": {"family": "round"}}, 7, _checks())
        labels = [c.label for c in doc1["checks"]]
        assert labels == sorted(labels)
        assert doc1["run_id"] == doc2["run_id"]

    def test_seed_changes_run_id(self):
        doc1 = build_report({}, 1, _checks())
        doc2 = build_report({}, 2, _checks())
        assert doc1["run_id"] != doc2["run_id"]

    def test_json_round_trip(self):
        doc = build_report({"grid": {"n": "501"}}, None, _checks())
        text = report_json(doc)
        parsed = json.loads(text)
        assert parsed["checks"][0]["label"] == "a_check"
        assert text.endswith("\n")

    def test_numpy_values_serializable(self):
        doc = build_report({}, None, x=np.float64(1.5), y=np.arange(3),
                           z=np.bool_(True))
        parsed = json.loads(report_json(doc))
        assert parsed["x"] == 1.5
        assert parsed["z"] is True


def _jsonable(obj):
    """The plain tree `report_json` writes in one pass: dataclasses and
    numpy values converted to JSON types, recursively.

    Python floats, strings, ints, bools and None are dispatched on their
    exact type first, so numpy scalars (numpy's float64 is a float) still
    convert through `.item()`: a numpy NaN stays a float NaN, while a
    non-finite Python float becomes its repr string."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else repr(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


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
_INT64 = st.integers(-2**63, 2**63 - 1)
_LEAVES = st.one_of(
    _TEXT, _FLOATS, st.integers(), st.booleans(), st.none(),
    _FLOATS.map(np.float64), _FLOATS.map(_Float), _TEXT.map(np.str_),
    _TEXT.map(_Str), st.integers().map(_Int),
    st.floats(width=32).map(np.float32), _INT64.map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(_FLOATS, max_size=4).map(np.array),
    st.lists(_INT64, max_size=4).map(lambda v: np.array(v, np.int64)))


@dataclasses.dataclass(frozen=True)
class _Pair:
    first: object
    second: object


@dataclasses.dataclass(frozen=True)
class _Backwards:
    """Fields declared out of name order."""
    zeta: object
    alpha: object
    mid: object


@dataclasses.dataclass(frozen=True)
class _Extended(_Backwards):
    """A subclass that adds a field, sorted between its base's."""
    beta: object


@dataclasses.dataclass(frozen=True)
class _Other:
    """Shares the field name `alpha` with `_Backwards`."""
    omega: object
    alpha: object


_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
        st.builds(_Pair, children, children),
        st.builds(_Backwards, children, children, children),
        st.builds(_Extended, children, children, children, children),
        st.builds(_Other, children, children)),
    max_leaves=40)


def _nested(depth, leaf):
    """A list / dict chain `depth` levels deep around `leaf`."""
    for i in range(depth):
        leaf = [leaf] if i % 2 else {f"k{i}": leaf, "": []}
    return leaf


def _json_text(tree) -> str:
    return json.dumps(_jsonable(tree), sort_keys=True, indent=2) + "\n"


class TestReportJson:
    """`report_json` writes, in one pass, the bytes json.dumps(sort_keys=
    True, indent=2) writes for the plain tree `_jsonable` makes, plus a
    newline."""

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
        """Records of every type, a subclass first and then its base, are
        written with their own sorted keys."""
        doc = build_report({"grid": {"n": "501"}}, 3, _checks(),
                           timestamp="t", x=np.float64(np.nan),
                           y=np.arange(3),
                           records=[_Extended(1, "a", None, 2.5),
                                    _Backwards(0.5, [], {"k": True}),
                                    _Other(np.int64(3), "b"),
                                    _Pair(_Other(1, 2), _Backwards(3, 4, 5))])
        assert report_json(doc) == _json_text(doc)

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError):
            json.dumps({"a": object()})
        with pytest.raises(TypeError):
            report_json({"a": object()})
        # json refuses a numpy integer; the writer takes its `.item()`
        assert report_json([np.int64(1)]) == "[\n  1\n]\n"

    def test_refuses_keys_that_are_not_strings(self):
        # json would convert these
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


class TestSequenceCsv:
    def test_error_text_stays_in_its_cell(self):
        spec = SequenceSpec(family="bump", schedule=({"eta": 1.0},) * 2)
        report = ConvergenceReport(
            spec=spec, m_decreasing=True, gap_decreasing_after_first=True,
            fitted_k=np.nan, hypotheses_ok=False,
            entries=(SequenceEntry(index=1, params={"eta": 1.0},
                                   error="DomainError: a, b\nc"),
                     SequenceEntry(index=2, params={"eta": 1.0}, valid=True,
                                   m=0.25, volume=19.75, volume_gap=0.0,
                                   diameter_lower=3.0, diameter_upper=3.5,
                                   admitted=True)))
        assert sequence_csv(report).split("\n") == [
            "index,valid,m,volume,volume_gap,diameter_lower,"
            "diameter_upper,admitted,error",
            "1,false,nan,nan,nan,nan,nan,false,DomainError: a; b c",
            "2,true,0.25,19.75,0,3,3.5,true,", ""]


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
