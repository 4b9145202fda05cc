"""How qsslab stores its JSON artifacts: nonce sets, attack plans, simulation
and certification reports, and merged report tables.

Every file is UTF-8 JSON.  ``write_json`` emits indent 2, sorted keys and
a trailing newline, so identical payloads give identical bytes; round
transcripts are JSON lines, one compact sorted-key object per round.  A
file that is not UTF-8 or not JSON is rejected with its path, line and
column.

Every complex array is written as nested ``[re, im]`` pairs of finite
numbers: a vector of n amplitudes is n pairs, a 2x2 matrix is 2 rows of 2
pairs.  On reading, the nesting must match the expected shape exactly;
``NaN``, ``Infinity``, booleans, strings and out-of-range numbers are
rejected.  Decoding reproduces the written arrays bit for bit.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import ValidationError


def read_json(path):
    """Parse a UTF-8 JSON file; any decoding failure names path, line and column."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        column = exc.start - raw.rfind(b"\n", 0, exc.start)
        raise ValidationError(
            f"{path}: not UTF-8 text at line {line}, column {column}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None


def load_json(path, decode):
    """``decode`` the JSON value of the file at ``path``.

    A ``ValidationError`` from ``decode`` comes back as ``<path>: <message>``.
    """
    raw = read_json(path)
    try:
        return decode(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_json(path, payload) -> None:
    """Write ``payload`` with indent 2, sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_line(payload) -> str:
    """One JSON-lines record: compact, sorted keys, newline-terminated."""
    return json.dumps(payload, sort_keys=True) + "\n"


def complex_to_json(arr) -> list:
    """Nested ``[re, im]`` pairs for a complex array of any shape."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pairs(node, shape: tuple, what: str):
    """Yield the ``[re, im]`` leaves of ``node``, checking its nesting."""
    if not shape:
        if not (isinstance(node, list) and len(node) == 2 and all(map(_is_number, node))):
            raise ValidationError(f"{what}: expected [re, im] pairs of numbers")
        yield node
        return
    if not isinstance(node, list) or len(node) != shape[0]:
        got = f"{len(node)} entries" if isinstance(node, list) else type(node).__name__
        raise ValidationError(
            f"{what}: expected {' x '.join(map(str, shape))} [re, im] pairs, got {got}")
    for item in node:
        yield from _pairs(item, shape[1:], what)


def complex_from_json(raw, shape, what: str) -> np.ndarray:
    """Decode nested ``[re, im]`` pairs of finite numbers in exactly ``shape``.

    Anything else raises ``ValidationError`` naming ``what``.
    """
    shape = tuple(shape)
    try:
        flat = np.array(list(_pairs(raw, shape, what)), dtype=float).reshape(-1, 2)
    except OverflowError:
        raise ValidationError(f"{what}: number out of range") from None
    if not np.all(np.isfinite(flat)):
        raise ValidationError(f"{what}: entries must be finite numbers")
    return flat.view(complex).reshape(shape)
