"""Interchange formats shared by the command-line tools.

Canonical format is JSON: a matrix is {"n": <half-order>, "rows": [...]}
with 2n rows of 2n floats, a vector is a plain array, frames add a "k"
field.  Every input is read by one grammar (``_read``): a JSON array, a
JSON object whose "rows" is a non-empty list of lists, or whitespace
text with one row per line (commas count as blanks, and a single line
is a 1-d array).  A vector's text may break its numbers over lines.
What a matrix, a frame or a vector is (real numbers, shape, finite
entries) is the library's own check, the one its functions apply.
Floats are emitted with 17 significant digits so parse(emit(x))
restores x bit for bit, and emission is byte deterministic for fixed
inputs.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import DomainError
from .symplectic import _as_frame, _as_square_even, _as_vector

__all__ = [
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


def _fmt_float(x) -> str:
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
        return _fmt_float(obj)
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


def _read(text: str, what: str) -> list:
    """The nested lists that ``text`` spells in the module's grammar.

    An object's "rows" must number 2n when it declares "n", and its first
    row must hold 2k entries when it declares "k".  The format
    is all that is decided here: numbers, shape and finiteness are the
    library's rule for the caller's kind.
    """
    text = text.strip()
    if not text:
        raise DomainError(f"empty {what} input")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        try:
            obj = [[float(tok) for tok in line.split()]
                   for line in text.replace(",", " ").splitlines() if line.strip()]
        except ValueError as exc:
            raise DomainError(f"unparseable {what} text: {exc}") from exc
        obj = obj[0] if len(obj) == 1 else obj
    except (ValueError, RecursionError) as exc:
        # Valid JSON that the decoder refuses: nesting past the recursion
        # limit, or an integer past the digit limit of int().
        raise DomainError(f"unparseable {what} JSON: {exc}") from exc
    if isinstance(obj, dict):
        rows = obj.get("rows")
        if not (isinstance(rows, list) and rows
                and all(isinstance(r, list) for r in rows)):
            raise DomainError(f"{what} JSON object needs a \"rows\" field "
                              "holding a non-empty list of lists")
        # Compared as n != rows / 2, which cannot raise for any JSON value.
        if "n" in obj and obj["n"] != len(rows) / 2:
            raise DomainError(
                f"{what} declares n={obj['n']} but has {len(rows)} rows")
        if "k" in obj and obj["k"] != len(rows[0]) / 2:
            raise DomainError(
                f"{what} declares k={obj['k']} but has {len(rows[0])} columns")
        obj = rows
    elif not isinstance(obj, list):
        raise DomainError(f"{what} JSON must be an object or an array")
    return obj


def parse_matrix(text: str) -> np.ndarray:
    """Square matrix of even order with finite entries, JSON or text."""
    return _as_square_even(_read(text, "matrix"), "matrix")[0]


def parse_frame(text: str) -> np.ndarray:
    """Finite 2n-by-2k frame matrix with k <= n, JSON or text."""
    return _as_frame(_read(text, "frame"))


def parse_vector(text: str) -> np.ndarray:
    """Non-empty finite 1-d vector: a JSON array, or numbers in any layout."""
    return _as_vector(_read(text.replace("\n", " "), "vector"))[0]


def _text_value(v) -> str:
    if not isinstance(v, (np.ndarray, list, tuple)):
        return _emit(v)  # scalars are spelled as in JSON
    a = np.asarray(v)
    if a.ndim == 1:
        return " ".join(_fmt_float(x) for x in a)
    if a.ndim == 2:
        return "\n".join("  ".join(_fmt_float(x) for x in row) for row in a)
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
    """File contents (UTF-8), or stdin when path is None or '-'."""
    stdin = path is None or path == "-"
    try:
        if stdin:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "stdin" if stdin else path
        raise DomainError(f"cannot read {source}: {exc}") from exc


def write_output(text: str, path: str | None) -> None:
    """Write to file, or stdout (flushed) when path is None or '-'."""
    if not text.endswith("\n"):
        text += "\n"
    stdout = path is None or path == "-"
    try:
        if stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        target = "stdout" if stdout else path
        raise DomainError(f"cannot write {target}: {exc}") from exc
