"""Interchange formats shared by the command-line tools.

Canonical format is JSON: a matrix is {"n": <half-order>, "rows": [...]}
with 2n rows of 2n floats, a vector is a plain array, frames add a "k"
field.  A whitespace text form (one row per line) is accepted on input
as a convenience.  Floats are emitted with 17 significant digits so
parse(emit(x)) restores x bit for bit, and emission is byte
deterministic for fixed inputs.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import DomainError

__all__ = [
    "fmt_float",
    "dumps",
    "matrix_obj",
    "frame_obj",
    "parse_matrix",
    "parse_frame",
    "parse_vector",
    "render_text",
    "read_input",
    "write_output",
]


def fmt_float(x) -> str:
    """17 significant digits (%.17g), which round-trips IEEE doubles.

    Not the shortest round-tripping decimal: 0.1 is 0.10000000000000001.
    """
    return "%.17g" % float(x)


def _emit(obj) -> str:
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON: top-level dict keys one per line, floats %.17g."""
    if isinstance(obj, dict):
        body = ",\n".join(f"  {json.dumps(str(k))}: {_emit(v)}"
                          for k, v in obj.items())
        return "{\n" + body + "\n}"
    return _emit(obj)


def matrix_obj(A) -> dict:
    A = np.asarray(A, dtype=float)
    return {"n": A.shape[0] // 2, "rows": A.tolist()}


def frame_obj(X) -> dict:
    X = np.asarray(X, dtype=float)
    return {"n": X.shape[0] // 2, "k": X.shape[1] // 2, "rows": X.tolist()}


def _rows_from_text(text: str) -> list[list[float]]:
    rows = []
    for line in text.splitlines():
        line = line.replace(",", " ").strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise DomainError(f"unparseable text row: {line!r}") from exc
    return rows


def _rows_from_any(text: str, what: str) -> list[list[float]]:
    text = text.strip()
    if not text:
        raise DomainError(f"empty {what} input")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return _rows_from_text(text)
    if isinstance(obj, dict):
        if "rows" not in obj:
            raise DomainError(f"{what} JSON object needs a \"rows\" field")
        rows = obj["rows"]
        if "n" in obj and isinstance(rows, list) and len(rows) != 2 * obj["n"]:
            raise DomainError(
                f"{what} declares n={obj['n']} but has {len(rows)} rows")
    elif isinstance(obj, list):
        rows = obj
    else:
        raise DomainError(f"{what} JSON must be an object or an array")
    if not (isinstance(rows, list) and rows
            and all(isinstance(r, list) for r in rows)):
        raise DomainError(f"{what} rows must be a non-empty list of lists")
    return rows


def _to_array(rows: list[list[float]], what: str) -> np.ndarray:
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DomainError(f"{what} rows have inconsistent lengths {sorted(widths)}")
    try:
        M = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} entries must be numbers") from exc
    if not np.all(np.isfinite(M)):
        raise DomainError(f"{what} has non-finite entries")
    return M


def parse_matrix(text: str) -> np.ndarray:
    """Square matrix of even order from JSON or whitespace text."""
    M = _to_array(_rows_from_any(text, "matrix"), "matrix")
    if M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise DomainError(f"matrix must be square of even order, got {M.shape}")
    return M


def parse_frame(text: str) -> np.ndarray:
    """2n-by-2k frame matrix from JSON or whitespace text."""
    X = _to_array(_rows_from_any(text, "frame"), "frame")
    if X.shape[0] % 2 or X.shape[1] % 2 or X.shape[1] > X.shape[0]:
        raise DomainError(f"frame must be 2n-by-2k with k <= n, got {X.shape}")
    return X


def parse_vector(text: str) -> np.ndarray:
    """1-d vector from a JSON array or whitespace-separated text."""
    text = text.strip()
    if not text:
        raise DomainError("empty vector input")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        try:
            obj = [float(tok) for tok in text.split()]
        except ValueError as exc:
            raise DomainError(f"unparseable vector text: {text!r}") from exc
    if not isinstance(obj, list) or not obj:
        raise DomainError("vector JSON must be a non-empty array")
    try:
        v = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError("vector entries must be numbers") from exc
    if v.ndim != 1 or not np.all(np.isfinite(v)):
        raise DomainError("vector must be 1-d with finite entries")
    return v


def _text_value(v) -> str:
    if isinstance(v, str):
        return v
    if not isinstance(v, (np.ndarray, list, tuple)):
        return _emit(v)  # scalars are spelled as in JSON
    a = np.asarray(v)
    if a.ndim == 1:
        return " ".join(fmt_float(x) for x in a)
    if a.ndim == 2:
        return "\n".join("  ".join(fmt_float(x) for x in row) for row in a)
    raise TypeError(f"cannot render {type(v).__name__} as text")


def render_text(obj) -> str:
    """Whitespace rendering: matrices as rows, reports as key/value lines."""
    if isinstance(obj, dict):
        if set(obj) >= {"rows"} and isinstance(obj.get("rows"), list):
            return _text_value(np.asarray(obj["rows"], dtype=float))
        lines = []
        for k, v in obj.items():
            if isinstance(v, dict) and "rows" in v:
                v = np.asarray(v["rows"], dtype=float)
            rendered = _text_value(v)
            if "\n" in rendered:
                rendered = "".join("\n  " + ln for ln in rendered.splitlines())
            else:
                rendered = " " + rendered
            lines.append(f"{k}:{rendered}")
        return "\n".join(lines)
    return _text_value(obj)


def read_input(path: str | None) -> str:
    """File contents, or stdin when path is None or '-'."""
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


def write_output(text: str, path: str | None) -> None:
    """Write to file, or stdout when path is None or '-'."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
