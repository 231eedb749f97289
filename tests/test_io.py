import io
import json
import re

import numpy as np
import pytest

from sympectra import DomainError
from sympectra.io import (_fmt_float, dumps, frame_obj, matrix_obj,
                          parse_frame, parse_matrix, parse_vector,
                          read_input, render_text, write_output)
from sympectra.symplectic import random_pd, random_symplectic


def test_fmt_float_round_trips_exactly():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200):
        assert float(_fmt_float(float(x))) == x
    assert _fmt_float(1.0) == "1"
    assert _fmt_float(0.5) == "0.5"
    # JSON reads -0 as the integer 0, so negative zero keeps its point.
    assert _fmt_float(-0.0) == "-0.0"
    assert _fmt_float(0.0) == "0"


def _with_signed_zeros(A):
    """A with a -0.0 and a +0.0 entry in its first row, so a round trip
    that loses a zero's sign shows in the bytes (assert_array_equal
    holds -0.0 == 0.0)."""
    A = A.copy()
    A[0, :2] = -0.0, 0.0
    return A


def test_matrix_json_round_trip_bit_exact():
    for seed in range(10):
        A = _with_signed_zeros(random_pd(3, seed=seed, spread=2.0))
        text = dumps(matrix_obj(A))
        B = parse_matrix(text)
        assert B.tobytes() == A.tobytes()


def test_frame_json_round_trip_bit_exact():
    X = _with_signed_zeros(random_symplectic(3, seed=4)[:, [0, 1, 3, 4]])
    text = dumps(frame_obj(X))
    Y = parse_frame(text)
    assert Y.tobytes() == X.tobytes()
    assert Y.shape == (6, 4)


def test_dumps_layout_one_top_level_key_per_line():
    text = dumps({"verdict": True, "slacks": [0.0, 1.0], "total_gap": 1.0})
    lines = text.strip().splitlines()
    assert lines[0] == "{"
    assert lines[-1] == "}"
    assert len(lines) == 5
    assert '"verdict": true' in lines[1]


def test_parse_matrix_from_plain_rows():
    A = parse_matrix("1 2\n3 4\n")
    np.testing.assert_array_equal(A, [[1.0, 2.0], [3.0, 4.0]])
    # comma separated works too
    B = parse_matrix("1, 2\n3, 4")
    np.testing.assert_array_equal(A, B)


def test_parse_matrix_from_json_variants():
    np.testing.assert_array_equal(parse_matrix('[[1, 2], [3, 4]]'),
                                  [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(
        parse_matrix('{"n": 1, "rows": [[5, 0], [0, 5]]}'),
        [[5.0, 0.0], [0.0, 5.0]])


def test_parse_matrix_rejects_garbage():
    with pytest.raises(DomainError):
        parse_matrix("")
    with pytest.raises(DomainError):
        parse_matrix("1 2\n3\n")
    with pytest.raises(DomainError):
        parse_matrix('{"rows": "nope"}')
    with pytest.raises(DomainError):
        parse_matrix("1 two\n3 4\n")
    for text, message in [
            ('{"n": 2, "rows": [[1, 0], [0, 1]]}', "declares n=2 but has 2 rows"),
            ('{"k": 1}', 'needs a "rows" field'),
            ("3", "must be an object or an array"),
            ('[["a", 1], [1, 1]]', "entries must be numbers"),
            ("[[1e999, 0], [0, 1]]", "non-finite entries"),
            ("1 0 0\n0 1 0\n0 0 1", "square of even order"),
            ('{"n": null, "rows": [[1, 0], [0, 1]]}', "declares n=None"),
            ("[[1, 0], [0, 1" + "0" * 400 + "]]", "entries must be numbers")]:
        with pytest.raises(DomainError, match=message):
            parse_matrix(text)
    with pytest.raises(DomainError, match="frame must be 2n-by-2k"):
        parse_frame("[[1, 0, 0], [0, 1, 0]]")


def test_parse_frame_checks_declared_k():
    rows = np.eye(4)[:, [0, 2]].tolist()
    for k, message in [(7, "frame declares k=7 but has 2 columns"),
                       (2, "frame declares k=2 but has 2 columns"),
                       (None, "frame declares k=None")]:
        text = json.dumps({"n": 2, "k": k, "rows": rows})
        with pytest.raises(DomainError, match=re.escape(message)):
            parse_frame(text)
    X = parse_frame(json.dumps({"n": 2, "k": 1, "rows": rows}))
    np.testing.assert_array_equal(X, np.eye(4)[:, [0, 2]])


def test_parse_vector():
    np.testing.assert_array_equal(parse_vector("1 2 3"), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(parse_vector("[4, 5]"), [4.0, 5.0])
    np.testing.assert_array_equal(parse_vector("1\n2\n3\n"), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(parse_vector("1 2\n3"), [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        parse_vector("")


@pytest.mark.parametrize("text,message", [
    ("[]", "non-empty array"),
    ("1 x", "unparseable vector text"),
    ('["a"]', "entries must be numbers"),
    ("[[1, 2]]", "1-d with finite entries"),
    ("[NaN]", "1-d with finite entries"),
    ('{"rows": [1, 2, 3]}', "non-empty list of lists"),
])
def test_parse_vector_rejects_garbage(text, message):
    with pytest.raises(DomainError, match=message):
        parse_vector(text)


def test_render_text_matrix_and_parse_back():
    A = _with_signed_zeros(random_pd(2, seed=7))
    text = render_text(matrix_obj(A))
    B = parse_matrix(text)
    assert B.tobytes() == A.tobytes()


def test_render_text_scalars_and_lists():
    out = render_text({"verdict": True, "delta": [1.0, 2.0], "k": 3})
    lines = out.strip().splitlines()
    assert "verdict: true" in lines
    assert "delta: 1 2" in lines
    assert "k: 3" in lines


def test_read_input_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n0 1\n"))
    np.testing.assert_array_equal(parse_matrix(read_input(None)), np.eye(2))


def test_read_write_files(tmp_path):
    p = tmp_path / "a.json"
    A = random_pd(2, seed=3)
    write_output(dumps(matrix_obj(A)), str(p))
    assert parse_matrix(read_input(str(p))).tobytes() == A.tobytes()
    with pytest.raises(DomainError, match="cannot write"):
        write_output("x", str(tmp_path / "missing" / "a.json"))


def test_write_output_stdout(capsys):
    write_output("hello\n", None)
    assert capsys.readouterr().out == "hello\n"
    write_output("again", "-")
    assert capsys.readouterr().out == "again\n"


def test_emitters_reject_values_they_cannot_spell():
    with pytest.raises(TypeError):
        dumps({"a": object()})
    with pytest.raises(TypeError):
        render_text({"a": np.zeros((2, 2, 2))})


def test_dumps_deterministic_bytes():
    A = random_pd(3, seed=11, spread=1.5)
    assert dumps(matrix_obj(A)) == dumps(matrix_obj(A.copy()))
