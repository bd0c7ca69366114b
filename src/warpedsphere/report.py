"""Machine-readable run reports.

One JSON document per run with schema
{run_id, config_hash, seed, timestamp, checks: [...], sequence?: {...}},
plus CSV flattenings of the check table and the convergence table.
Identical configuration and seed yield byte-identical reports except for
the timestamp field; file writes go through a temp file and rename.

`report_json` writes the document directly: its bytes equal those of
`json.dumps(doc, sort_keys=True, indent=2)`, whose `indent` would send
Python's json through its pure-Python encoder.

`sha256` is the interpreter's built-in one (`_sha2` on Python 3.12+,
`_sha256` before), as in CPython's own `random` module: `hashlib` loads
OpenSSL's libcrypto, megabytes of memory for digests of under 1 KB.  The
digests are the same; `hashlib` is the fallback where neither exists.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Optional

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .verification import CheckResult, ConvergenceReport

#: significant digits used for every float written to CSV
CSV_DIGITS = 17

CSV_CHECK_COLUMNS = ("label", "lhs", "rhs", "margin", "tolerance", "verdict")

CSV_SEQUENCE_COLUMNS = ("index", "valid", "m", "volume", "volume_gap",
                        "diameter_lower", "diameter_upper", "admitted",
                        "error")


def _jsonable(obj):
    """Recursively convert dataclasses / numpy scalars to JSON types.

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


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of the configuration."""
    canon = json.dumps(_jsonable(config), sort_keys=True,
                       separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()


def build_report(checks: Iterable[CheckResult], config: dict,
                 seed: Optional[int] = None,
                 sequence: Optional[ConvergenceReport] = None,
                 extras: Optional[dict] = None,
                 timestamp: Optional[str] = None) -> dict:
    """Assemble the report document; checks are sorted by label."""
    chash = config_hash(config)
    run_id = sha256(
        f"{chash}:{seed}".encode()).hexdigest()[:16]
    doc = {
        "run_id": run_id,
        "config_hash": chash,
        "seed": seed,
        "timestamp": timestamp or datetime.now(timezone.utc).isoformat(),
        "config": _jsonable(config),
        "checks": [_jsonable(c) for c in
                   sorted(checks, key=lambda c: c.label)],
    }
    if sequence is not None:
        doc["sequence"] = _jsonable(sequence)
    if extras:
        doc.update(_jsonable(extras))
    return doc


_CONTAINERS = (dict, list, tuple)


def _scalar(obj) -> str:
    """A str, float, None, bool or int as `json` writes it, subclasses
    included: floats by float.__repr__, non-finite ones as NaN, Infinity
    and -Infinity."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


def _write(obj, pad: str, out: list) -> None:
    """Append the text of obj, indented by `pad`, to out, as json's
    encoder writes it with sort_keys=True and indent=2.  Dict keys must
    be strings, as `_jsonable` makes them."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        head = "{\n" + inner
        for key, value in sorted(obj.items()):
            # finite floats and strings, most of a report, skip the call
            kind = type(value)
            if kind is float and value - value == 0.0:
                out.append(f"{head}{_quote(key)}: {value!r}")
            elif kind is str:
                out.append(f"{head}{_quote(key)}: {_quote(value)}")
            elif isinstance(value, _CONTAINERS):
                out.append(f"{head}{_quote(key)}: ")
                _write(value, inner, out)
            else:
                out.append(f"{head}{_quote(key)}: {_scalar(value)}")
            head = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        head = "[\n" + inner
        for value in obj:
            if isinstance(value, _CONTAINERS):
                out.append(head)
                _write(value, inner, out)
            else:
                out.append(head + _scalar(value))
            head = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        out.append(_scalar(obj))


def report_json(doc: dict) -> str:
    """The document as `json.dumps(doc, sort_keys=True, indent=2)` writes
    it, plus a newline; its dict keys must be strings."""
    out: list = []
    _write(doc, "", out)
    out.append("\n")
    return "".join(out)


def _csv_num(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), f".{CSV_DIGITS}g")
    return str(x)


def checks_csv(checks: Iterable[CheckResult]) -> str:
    """Flatten checks to CSV with columns CSV_CHECK_COLUMNS."""
    lines = [",".join(CSV_CHECK_COLUMNS)]
    for c in sorted(checks, key=lambda c: c.label):
        lines.append(",".join([c.label, _csv_num(c.lhs), _csv_num(c.rhs),
                               _csv_num(c.margin), _csv_num(c.tolerance),
                               c.verdict]))
    return "\n".join(lines) + "\n"


def sequence_csv(report: ConvergenceReport) -> str:
    """Flatten a convergence experiment to a plot-ready CSV table."""
    lines = [",".join(CSV_SEQUENCE_COLUMNS)]
    for e in report.entries:
        lines.append(",".join([
            str(e.index), _csv_num(e.valid), _csv_num(e.m),
            _csv_num(e.volume), _csv_num(e.volume_gap),
            _csv_num(e.diameter_lower), _csv_num(e.diameter_upper),
            _csv_num(e.admitted),
            e.error.replace(",", ";").replace("\n", " "),
        ]))
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial report."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
