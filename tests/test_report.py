"""Report serialization: hashing, CSV precision, atomic writes."""

import dataclasses
import json
import os

import numpy as np
import pytest

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
