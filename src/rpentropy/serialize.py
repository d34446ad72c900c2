"""JSON/CSV plumbing: canonical report serialization, content-hash fixture
files, and complex-matrix encoding."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from datetime import datetime, timezone

import numpy as np


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def encode_complex(mat: np.ndarray) -> dict:
    mat = np.asarray(mat)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def decode_complex(data: dict) -> np.ndarray:
    return np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_json_default)


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()[:16]


def save_report(path: str, report: dict, meta: dict | None = None) -> str:
    """Write {meta, report}; the report part is byte-stable for a fixed config.

    Timestamps and other run-specific context live only under meta, so two
    runs with the same configuration and seed produce identical report
    sections.  The payload is encoded before the file opens, so a value the
    encoder refuses (such as inf) raises and leaves no partial report.
    """
    payload = {
        "meta": dict(meta or {}, timestamp=datetime.now(timezone.utc).isoformat()),
        "report": report,
    }
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                      default=_json_default)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def write_fixture(out_dir: str, payload: dict) -> str:
    """Store a payload under a content-hash filename; bit-stable given a seed."""
    digest = content_hash(payload)
    fix_dir = os.path.join(out_dir, "fixtures")
    os.makedirs(fix_dir, exist_ok=True)
    path = os.path.join(fix_dir, f"{digest}.json")
    with open(path, "w") as handle:
        handle.write(canonical_dumps(payload))
        handle.write("\n")
    return path


def write_csv(path: str, header: list[str], rows) -> str:
    """Write a table of plain names and numeric rows as csv.writer did:
    comma-separated, a CRLF after every line, each field as its str.  A
    Python float's str is its repr, and a numpy scalar's is a plain number.
    The text is joined in one pass and written at once."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write("\r\n".join(lines) + "\r\n")
    return path


def read_xy_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Two-column numeric CSV (with optional header) -> (x, y) arrays.

    A row whose first two cells are not numbers is skipped as a header.  A
    nan or inf cell, or a file without numeric rows, raises ValueError that
    names the file (and the row).
    """
    xs, ys = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or len(row) < 2:
                continue
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                continue  # header line
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}: row {reader.line_num}: non-finite value in "
                                 f"{row[:2]}")
            xs.append(x)
            ys.append(y)
    if not xs:
        raise ValueError(f"no numeric (x, y) rows found in {path}")
    return np.asarray(xs), np.asarray(ys)
