"""Machine-readable run reports.

One JSON document per run with schema
{run_id, config_hash, seed, timestamp, config, checks: [...]} plus the
command's blocks, the library's own records as they are (summary,
membership, ledger, sequence, pointpick), and CSV flattenings: the
check table, the convergence table and key,value tables.
Identical configuration and seed yield byte-identical reports except for
the timestamp field; file writes go through a temp file and rename.

`report_json` writes the scenario's own objects as
`json.dumps(tree, sort_keys=True, indent=2)` writes their plain tree
(json's `indent` would send it through the pure-Python encoder).  In that
tree a dataclass is the dict of its fields, an ndarray its list, and a
numpy scalar its `.item()`.  So a numpy NaN is written `NaN`, as json
writes a float NaN, while a non-finite *Python* float is written as its
quoted repr (`"nan"`, `"inf"`).  Dict keys must be strings.  One pass of
`_write` writes containers, records and leaves alike; each dataclass
type's sorted, quoted keys are planned once, on its first record.

`sha256` is the interpreter's built-in one (`_sha2` on Python 3.12+,
`_sha256` before), as in CPython's own `random` module: `hashlib` loads
OpenSSL's libcrypto, megabytes of memory for digests of under 1 KB.  The
digests are the same; `hashlib` is the fallback where neither exists.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import tempfile
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
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


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of the configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()


def build_report(config: dict, seed: Optional[int],
                 checks: Iterable[CheckResult] = (),
                 timestamp: Optional[str] = None, **blocks) -> dict:
    """Assemble the report document from the objects as they are: the
    checks, sorted by label, and each keyword block under its name."""
    chash = config_hash(config)
    run_id = sha256(f"{chash}:{seed}".encode()).hexdigest()[:16]
    return {
        "run_id": run_id,
        "config_hash": chash,
        "seed": seed,
        "timestamp": timestamp or datetime.now(timezone.utc).isoformat(),
        "config": config,
        "checks": sorted(checks, key=lambda c: c.label),
        **blocks,
    }


@functools.cache
def _key_plan(kind: type) -> tuple:
    """The (quoted key + ": ", field name) pairs of the dataclass type
    `kind`, sorted by name: planned once per exact type."""
    return tuple((_quote(name) + ": ", name) for name in
                 sorted(f.name for f in dataclasses.fields(kind)))


def _write(obj, pad: str, out: list) -> None:
    """Append the text of obj, indented by `pad`, to out, by the rules in
    the module docstring; past them, a leaf as `json` writes a str,
    float, None, bool or int, subclasses included."""
    if isinstance(obj, dict):
        items = [(_quote(k) + ": ", v) for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [("", v) for v in
                 (obj.tolist() if isinstance(obj, np.ndarray) else obj)]
        brackets = "[]"
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = [(key, getattr(obj, name))
                 for key, name in _key_plan(type(obj))]
        brackets = "{}"
    else:
        if isinstance(obj, (np.floating, np.integer, np.bool_)):
            obj = obj.item()
        elif type(obj) is float and obj - obj != 0.0:
            obj = repr(obj)        # a non-finite Python float: "nan", "inf"
        if isinstance(obj, str):
            text = _quote(obj)
        elif isinstance(obj, float):
            # a numpy or subclass non-finite float: NaN, Infinity
            text = "NaN" if obj != obj else \
                float.__repr__(obj).replace("inf", "Infinity")
        elif obj is None or isinstance(obj, bool):
            text = "null" if obj is None else "true" if obj else "false"
        elif isinstance(obj, int):
            text = int.__repr__(obj)
        else:
            raise TypeError(f"Object of type {type(obj).__name__} "
                            f"is not JSON serializable")
        out.append(text)
        return
    if not items:
        out.append(brackets)
        return
    inner = pad + "  "
    head = brackets[0] + "\n" + inner
    for key, value in items:
        # finite Python floats and strings, most of a report, skip the call
        kind = type(value)
        if kind is float and value - value == 0.0:
            out.append(f"{head}{key}{value!r}")
        elif kind is str:
            out.append(f"{head}{key}{_quote(value)}")
        else:
            out.append(head + key)
            _write(value, inner, out)
        head = ",\n" + inner
    out.append("\n" + pad + brackets[1])


def report_json(doc: dict) -> str:
    """The document's text by the rules in the module docstring, plus a
    newline."""
    out: list = []
    _write(doc, "", out)
    out.append("\n")
    return "".join(out)


def _csv_cell(x) -> str:
    """Text with its commas and newlines replaced, a bool in lower case,
    a number with CSV_DIGITS significant digits."""
    if isinstance(x, str):
        return x.replace(",", ";").replace("\n", " ")
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), f".{CSV_DIGITS}g")
    return str(x)


def _csv_table(columns: tuple, rows) -> str:
    """One CSV line per row of cells, under a header of `columns`."""
    lines = [",".join(columns)]
    lines += [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def key_value_csv(pairs) -> str:
    """A CSV table of the (key, value) pairs with columns key, value."""
    return _csv_table(("key", "value"), pairs)


def checks_csv(checks: Iterable[CheckResult]) -> str:
    """Flatten checks, sorted by label, to CSV with columns
    CSV_CHECK_COLUMNS."""
    return _csv_table(CSV_CHECK_COLUMNS, map(
        attrgetter(*CSV_CHECK_COLUMNS), sorted(checks, key=lambda c: c.label)))


def sequence_csv(report: ConvergenceReport) -> str:
    """Flatten a convergence experiment to a plot-ready CSV table with
    columns CSV_SEQUENCE_COLUMNS."""
    return _csv_table(CSV_SEQUENCE_COLUMNS,
                      map(attrgetter(*CSV_SEQUENCE_COLUMNS), report.entries))


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial report.  An OSError names `path`, never the temp file, whose
    name is random; the temp file is removed on any failure."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
