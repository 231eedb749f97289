import io
import json
import os
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

from sympectra import NumericalError
from sympectra.cli import main
from sympectra.io import dumps, matrix_obj, parse_matrix
from sympectra.spectral import symplectic_eigenvalues
from sympectra.symplectic import is_symplectic, random_pd


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_matrix(tmp_path, name, A):
    p = tmp_path / name
    p.write_text(dumps(matrix_obj(A)) + "\n")
    return str(p)


def test_eig_diagonal(tmp_path, capsys):
    p = write_matrix(tmp_path, "a.json", np.diag([2.0, 8.0]))
    code, out, _ = run(capsys, "eig", "--in", p)
    assert code == 0
    assert json.loads(out)["delta"] == [pytest.approx(4.0)]


def test_eig_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 0\n0 3\n"))
    code, out, _ = run(capsys, "eig")
    assert code == 0
    assert json.loads(out)["delta"] == [pytest.approx(3.0)]


def test_eig_writes_file(tmp_path, capsys):
    p = write_matrix(tmp_path, "a.json", np.eye(4))
    dest = tmp_path / "out.json"
    code, out, _ = run(capsys, "eig", "--in", p, "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["delta"] == [1.0, 1.0]


def test_williamson_output_is_valid(tmp_path, capsys):
    A = random_pd(2, seed=5)
    p = write_matrix(tmp_path, "a.json", A)
    code, out, _ = run(capsys, "williamson", "--in", p)
    assert code == 0
    obj = json.loads(out)
    assert obj["residual"] <= 1e-8
    W = np.array(obj["W"]["rows"])
    assert is_symplectic(W).ok
    np.testing.assert_allclose(obj["delta"], symplectic_eigenvalues(A),
                               rtol=1e-10)


def test_diag_m_mean_flag(tmp_path, capsys):
    p = write_matrix(tmp_path, "a.json",
                     np.array([[2.0, 1.0], [1.0, 1.0]]))
    code, out, _ = run(capsys, "diag-m", "--in", p, "--mean", "geometric")
    assert json.loads(out)["diag_m"] == [pytest.approx(np.sqrt(2.0))]
    code, out, _ = run(capsys, "diag-m", "--in", p, "--mean", "arithmetic")
    assert json.loads(out)["diag_m"] == [1.5]


def test_schur_check_exit_codes(tmp_path, capsys):
    p = write_matrix(tmp_path, "id.json", np.eye(4))
    code, out, _ = run(capsys, "schur-check", "--in", p)
    assert code == 0
    assert json.loads(out)["verdict"] is True

    # known failing instance for the min mean
    bad = None
    for seed in range(100):
        A = random_pd(2, seed=seed, spread=2.0)
        from sympectra.schur_horn import schur_check
        from sympectra.means import min_mean
        if not schur_check(A, min_mean()).verdict:
            bad = A
            break
    assert bad is not None
    p = write_matrix(tmp_path, "bad.json", bad)
    code, out, _ = run(capsys, "schur-check", "--in", p, "--mean", "min")
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_realize_round_trip(tmp_path, capsys):
    (tmp_path / "x.txt").write_text("2 2\n")
    (tmp_path / "y.txt").write_text("1 2\n")
    dest = tmp_path / "A.json"
    code, _, _ = run(capsys, "realize", "--x", str(tmp_path / "x.txt"),
                     "--y", str(tmp_path / "y.txt"), "--mean", "geometric",
                     "--out", str(dest))
    assert code == 0
    code, out, _ = run(capsys, "eig", "--in", str(dest))
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["delta"], [1.0, 2.0],
                               atol=1e-8)
    code, out, _ = run(capsys, "diag-m", "--in", str(dest))
    np.testing.assert_allclose(json.loads(out)["diag_m"], [2.0, 2.0],
                               atol=1e-8)


def test_realize_rejects_inadmissible(tmp_path, capsys):
    (tmp_path / "x.txt").write_text("1 2\n")
    (tmp_path / "y.txt").write_text("0.5 3\n")
    code, _, err = run(capsys, "realize", "--x", str(tmp_path / "x.txt"),
                       "--y", str(tmp_path / "y.txt"))
    assert code == 2
    assert "error:" in err


def test_kyfan_min(tmp_path, capsys):
    p = write_matrix(tmp_path, "a.json", random_pd(2, seed=1))
    code, out, _ = run(capsys, "kyfan-min", "--in", p, "--k", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 1
    assert obj["min_value"] == pytest.approx(obj["delta_partial"], abs=1e-9)
    assert len(obj["frame"]["rows"]) == 4
    assert obj["frame"]["k"] == 1


def test_kyfan_min_bad_k(tmp_path, capsys):
    p = write_matrix(tmp_path, "a.json", random_pd(2, seed=1))
    code, _, err = run(capsys, "kyfan-min", "--in", p, "--k", "5")
    assert code == 2 and "error:" in err


def test_kyfan_search_deterministic_bytes(tmp_path, capsys):
    p = write_matrix(tmp_path, "a.json", random_pd(2, seed=8))
    args = ("kyfan-search", "--in", p, "--k", "1", "--budget", "400",
            "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["violations"] == 0 and obj["n_samples"] == 400


def test_kyfan_search_bad_seed_exit_2(tmp_path, capsys):
    # A refused seed is invalid input, not a found violation (exit 1).
    p = write_matrix(tmp_path, "a.json", random_pd(2, seed=8))
    code, out, err = run(capsys, "kyfan-search", "--in", p, "--k", "1",
                         "--budget", "8", "--seed", "-1")
    assert code == 2 and out == "" and "seed must be a non-negative" in err


def test_kyfan_search_out_of_range_exit_3(tmp_path, capsys):
    # Its values overflow in A's units: no "inf" on stdout, which JSON lacks.
    p = write_matrix(tmp_path, "a.json", 2.0 ** 1023 * random_pd(2, seed=0))
    code, out, err = run(capsys, "kyfan-search", "--in", p, "--k", "2",
                         "--budget", "400", "--mean", "arithmetic")
    assert code == 3 and out == ""
    assert "out of range" in err


def test_pinch(tmp_path, capsys):
    A = random_pd(3, seed=2)
    p = write_matrix(tmp_path, "a.json", A)
    code, out, _ = run(capsys, "pinch", "--in", p, "--partition", "2,1")
    assert code == 0
    C = parse_matrix(out)
    assert C.shape == (6, 6)
    np.testing.assert_array_equal(C[:2, :2], A[:2, :2])
    assert C[0, 2] == 0.0

    code, _, err = run(capsys, "pinch", "--in", p, "--partition", "2,2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "pinch", "--in", p, "--partition", "2,x")
    assert code == 2


def test_boxplus_multiple_inputs(tmp_path, capsys):
    p1 = write_matrix(tmp_path, "a.json", np.diag([1.0, 2.0]))
    p2 = write_matrix(tmp_path, "b.json", np.diag([3.0, 4.0]))
    code, out, _ = run(capsys, "boxplus", "--in", p1, "--in", p2)
    assert code == 0
    M = parse_matrix(out)
    np.testing.assert_array_equal(M, np.diag([1.0, 3.0, 2.0, 4.0]))


def test_complete_frame(tmp_path, capsys):
    X = np.eye(6)[:, [0, 3]]
    p = tmp_path / "x.json"
    rows = "\n".join(" ".join(str(v) for v in row) for row in X)
    p.write_text(rows + "\n")
    code, out, _ = run(capsys, "complete-frame", "--in", str(p))
    assert code == 0
    W = parse_matrix(out)
    assert is_symplectic(W).ok
    np.testing.assert_array_equal(W[:, 0], X[:, 0])
    np.testing.assert_array_equal(W[:, 3], X[:, 1])


def test_major_check_exit_codes(tmp_path, capsys):
    (tmp_path / "x.txt").write_text("2 3\n")
    (tmp_path / "y.txt").write_text("1 2\n")
    code, out, _ = run(capsys, "major-check", "--x", str(tmp_path / "x.txt"),
                       "--y", str(tmp_path / "y.txt"))
    assert code == 0
    assert json.loads(out)["verdict"] is True

    code, out, _ = run(capsys, "major-check", "--x", str(tmp_path / "y.txt"),
                       "--y", str(tmp_path / "x.txt"))
    assert code == 1
    assert json.loads(out)["verdict"] is False

    # full majorization: (2, 3) is averaged from (1, 4), totals equal
    (tmp_path / "z.txt").write_text("1 4\n")
    code, out, _ = run(capsys, "major-check", "--x", str(tmp_path / "x.txt"),
                       "--y", str(tmp_path / "z.txt"), "--kind", "majorize")
    assert code == 0


def test_random_pd_deterministic_and_usable(capsys):
    code1, out1, _ = run(capsys, "random-pd", "--n", "3", "--seed", "42")
    code2, out2, _ = run(capsys, "random-pd", "--n", "3", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    A = parse_matrix(out1)
    assert np.all(np.linalg.eigvalsh(A) > 0)


def test_random_symplectic_deterministic(capsys):
    code, out1, _ = run(capsys, "random-symplectic", "--n", "2", "--seed", "3",
                        "--spread", "0.5")
    _, out2, _ = run(capsys, "random-symplectic", "--n", "2", "--seed", "3",
                     "--spread", "0.5")
    assert code == 0 and out1 == out2
    assert is_symplectic(parse_matrix(out1)).ok


def test_format_text_parses_back(tmp_path, capsys, monkeypatch):
    p = write_matrix(tmp_path, "a.json", np.diag([2.0, 8.0]))
    code, out, _ = run(capsys, "eig", "--in", p, "--format", "text")
    assert code == 0
    key, val = out.strip().split(": ")
    assert key == "delta"
    assert float(val) == pytest.approx(4.0)
    # random-pd --format text | eig --format text
    code, out, _ = run(capsys, "random-pd", "--n", "3", "--format", "text")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "eig", "--format", "text")
    assert code == 0
    key, val = out.strip().split(": ")
    assert key == "delta" and len(val.split()) == 3


@pytest.mark.parametrize("argv", [("williamson",), ("kyfan-min", "--k", "1")])
def test_format_text_matches_json_bit_for_bit(tmp_path, capsys, argv):
    p = write_matrix(tmp_path, "a.json", random_pd(2, seed=3))
    code, out, _ = run(capsys, *argv, "--in", p)
    assert code == 0
    want = {key: np.array(val["rows"] if isinstance(val, dict) else val,
                          dtype=float)
            for key, val in json.loads(out).items()}
    code, out, _ = run(capsys, *argv, "--in", p, "--format", "text")
    assert code == 0
    got = {}
    for line in out.splitlines():
        assert line == line.rstrip(), repr(line)
        if line.startswith("  "):
            got[key].append([float(t) for t in line.split()])
            continue
        key, _, value = line.partition(":")
        got[key] = [float(t) for t in value.split()]
    assert got.keys() == want.keys()
    for key, val in want.items():
        assert np.array(got[key]).tobytes() == val.tobytes(), key


def test_tol_flag_reaches_the_library(tmp_path, capsys):
    # x's first prefix sum undercuts y's by 1e-9, against sizes near 6.
    (tmp_path / "x.json").write_text("[1, 2]\n")
    (tmp_path / "y.json").write_text("[1.000000001, 2]\n")
    xy = ("--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json"))
    for tol, want in (("1e-9", 0), ("1e-11", 1), (None, 1)):
        argv = ("major-check",) + xy + (() if tol is None else ("--tol", tol))
        code, out, _ = run(capsys, *argv)
        assert code == want and json.loads(out)["verdict"] is (want == 0), tol
    p = write_matrix(tmp_path, "a.json", np.eye(2))
    for bad in ("0", "-1", "nan", "inf"):
        for argv in (("major-check",) + xy, ("eig", "--in", p)):
            code, out, err = run(capsys, *argv, f"--tol={bad}")
            assert code == 2 and out == "", (argv, bad)
            assert err.startswith("error: tolerance must be positive"), err


def test_major_check_verdicts_do_not_change_under_scaling(tmp_path, capsys):
    pairs = [([1, 2], [1.000000001, 2]), ([2, 2], [1, 2]), ([1, 3], [2, 2])]
    for x, y in pairs:
        for kind in ("weak-super", "majorize"):
            results = set()
            for e in (-1000, -40, 0, 40, 1000, 1022):
                (tmp_path / "x.json").write_text(dumps([2.0 ** e * v for v in x]))
                (tmp_path / "y.json").write_text(dumps([2.0 ** e * v for v in y]))
                code, out, _ = run(capsys, "major-check", "--kind", kind,
                                   "--x", str(tmp_path / "x.json"),
                                   "--y", str(tmp_path / "y.json"))
                results.add((code, json.loads(out)["verdict"]))
            assert len(results) == 1, (x, y, kind, results)


def test_major_check_near_the_top_of_the_range(tmp_path, capsys):
    # Equal vectors near the largest double: slacks [0, 0], true, valid JSON.
    # Their partial sums overflowed and printed "nan".
    xy = {"x": [1.5e308, 2.0 ** 1023], "y": [2.0 ** 1023, 1.5e308]}
    for name, v in xy.items():
        (tmp_path / f"{name}.json").write_text(dumps(v))
    argv = ("major-check", "--x", str(tmp_path / "x.json"),
            "--y", str(tmp_path / "y.json"))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"verdict": True, "slacks": [0, 0],
                               "total_gap": 0}
    # Slacks past the largest double are refused, with nothing on stdout.
    (tmp_path / "x.json").write_text(dumps([1.5e308, 1.5e308]))
    (tmp_path / "y.json").write_text(dumps([1e-300, 1e-300]))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "partial-sum slack is out of range" in err, err


# Malformed matrices, frames and vectors; every one must exit 2.
BAD_MATRICES = ["", "1 2\n3\n", '{"rows": "nope"}', "1 two\n3 4\n",
                '{"n": 2, "rows": [[1, 0], [0, 1]]}', '{"k": 1}', "3",
                '[["a", 1], [1, 1]]', "[[1e999, 0], [0, 1]]",
                "1 0 0\n0 1 0\n0 0 1", "[[1, 0, 0], [0, 1, 0]]",
                "[[NaN, 0], [0, 1]]"]
BAD_VECTORS = ["", "[]", "1 x", '["a"]', "[[1, 2]]", "[NaN]",
               '{"rows": [1, 2, 3]}']


def test_invalid_input_exit_2(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("not a matrix\n")
    code, _, err = run(capsys, "eig", "--in", str(p))
    assert code == 2 and "error:" in err

    code, _, err = run(capsys, "eig", "--in", str(tmp_path / "missing.json"))
    assert code == 2

    good = tmp_path / "good.txt"
    good.write_text("2 3\n4\n")  # a vector's text may take any layout
    y = tmp_path / "y.txt"
    y.write_text("1 2\n3\n")
    for cmd in ("realize", "major-check"):
        code, out, _ = run(capsys, cmd, "--x", str(good), "--y", str(y))
        assert code == 0 and out
    # Short of y by 5e-10 at k = 1: not admissible, so invalid input.
    (tmp_path / "xs.json").write_text(dumps([1 - 5e-10, 100.0]))
    (tmp_path / "ys.json").write_text(dumps([1.0, 1.0]))
    code, out, err = run(capsys, "realize", "--x", str(tmp_path / "xs.json"),
                         "--y", str(tmp_path / "ys.json"))
    assert (code, out) == (2, "") and err.startswith("error:")
    bad = tmp_path / "bad.txt"
    matrix_runs = [("eig", "--in", str(bad)),
                   ("pinch", "--partition", "1", "--in", str(bad)),
                   ("boxplus", "--in", str(bad)),
                   ("complete-frame", "--in", str(bad))]
    vector_runs = [("realize", "--x", str(bad), "--y", str(y)),
                   ("major-check", "--x", str(good), "--y", str(bad))]
    cases = ([(text, matrix_runs) for text in BAD_MATRICES]
             + [(text, vector_runs) for text in BAD_VECTORS])
    for text, runs in cases:
        bad.write_text(text)
        for argv in runs:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (argv, text)
            assert err.startswith("error:"), (argv, text, err)


def test_numerical_failure_exit_3(tmp_path, capsys, monkeypatch):
    def boom(A, tol):
        raise NumericalError("pairing failed")
    monkeypatch.setattr("sympectra.cli.symplectic_eigenvalues", boom)
    p = write_matrix(tmp_path, "a.json", np.eye(2))
    code, _, err = run(capsys, "eig", "--in", str(p))
    assert code == 3
    assert "numerical failure" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path, monkeypatch, capsys):
    # `python -m sympectra` gives in-process main's exit code, stdout bytes,
    # stderr and --out file.
    a = write_matrix(tmp_path, "a.json", random_pd(2, seed=3))
    out = tmp_path / "out.json"
    cases = [(("eig",), b"2 0\n0 2\n"),
             (("williamson", "--in", a, "--format", "text"), b""),
             (("kyfan-search", "--in", a, "--k", "2", "--budget", "1000"), b""),
             (("schur-check", "--in", a, "--out", str(out)), b"")]
    for argv, stdin in cases:
        r = subprocess.run([sys.executable, "-m", "sympectra", *argv],
                           input=stdin, capture_output=True)
        written = out.read_bytes() if out.exists() else None
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(stdin), "utf-8"))
        code, stdout, stderr = run(capsys, *argv)
        assert (r.returncode, r.stdout, r.stderr) == \
            (code, stdout.encode(), stderr.encode()), argv
        assert written == (out.read_bytes() if out.exists() else None)
    assert json.loads(written)["verdict"] is True


def test_run_freezes_after_main_returns_and_exits_with_its_code(
        tmp_path, monkeypatch, capsys):
    import sympectra.cli as cli
    events = []
    monkeypatch.setattr("gc.freeze", lambda: events.append("freeze"))
    monkeypatch.chdir(tmp_path)
    for name, data in MAJ:
        (tmp_path / name).write_bytes(data)
    argv = ["major-check", "--kind", "majorize", "--x", "maj_y.json",
            "--y", "maj_x.json"]
    code = cli.main(argv)
    expected = capsys.readouterr()
    assert code == 1 and events == []  # in-process callers never freeze

    real_main = cli.main

    def spied_main():
        code = real_main()
        events.append("main")
        return code
    monkeypatch.setattr(cli, "main", spied_main)
    monkeypatch.setattr("sys.argv", ["sympectra", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code
    assert events == ["main", "freeze"]
    assert capsys.readouterr() == expected


class BrokenStdout(io.StringIO):
    """A stdout whose reader has gone: every write, or only the flush, fails."""

    def __init__(self, write_fails):
        super().__init__()
        self.write_fails = write_fails

    def write(self, s):
        if self.write_fails:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(s)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("write_fails", [True, False],
                         ids=["write", "flush"])
def test_failed_stdout_write_exits_2(monkeypatch, capsys, write_fails):
    monkeypatch.setattr("sys.stdout", BrokenStdout(write_fails))
    code = main(["random-pd", "--n", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write stdout: [Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_2_without_a_traceback():
    # Buffered stdout, so the output is still pending at shutdown's flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        r = subprocess.run([sys.executable, "-m", "sympectra", "random-pd",
                            "--n", "2"], stdout=full, stderr=subprocess.PIPE,
                           text=True, env=env)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: cannot write stdout: "), r.stderr
    assert "Traceback" not in r.stderr and "Exception ignored" not in r.stderr


@pytest.mark.parametrize("write_fails", [True, False],
                         ids=["write", "flush"])
def test_failed_help_write_exits_2(monkeypatch, capsys, write_fails):
    # Help is written as a report is, not through argparse's own write,
    # which drops the error and exits 0.
    monkeypatch.setattr("sys.stdout", BrokenStdout(write_fails))
    code = main(["eig", "--help"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_full_stdout_help_exits_2(unbuffered):
    # Buffered, the help was pending at shutdown's flush (exit 120);
    # unbuffered, its failed write was dropped (exit 0, nothing printed).
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        r = subprocess.run([sys.executable, "-m", "sympectra", "eig", "--help"],
                           stdout=full, stderr=subprocess.PIPE, text=True,
                           env=env)
    assert r.returncode == 2, r.stderr
    assert r.stderr == ("error: cannot write stdout: "
                        "[Errno 28] No space left on device\n"), r.stderr


def test_cli_import_does_not_load_scipy():
    # Also: every name of the root's __all__, and AxiomResult, resolves
    # without a warning.
    code = ("import sys, sympectra, sympectra.cli; "
            "[getattr(sympectra, n) for n in sympectra.__all__]; "
            "from sympectra import AxiomResult; "
            "print([k for k in sys.modules if k.startswith('scipy')])")
    r = subprocess.run([sys.executable, "-W", "error", "-c", code],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


class Row(NamedTuple):
    """One CLI call and what it must give.

    With ``err`` set, stdout must be empty and stderr start with ``err``;
    otherwise stderr must be empty and stdout be ``out``, exactly or, for
    a callable, as it judges.  ``stdin`` is bytes, read as strict UTF-8;
    ``files`` are (name, bytes) pairs written to the working directory
    before the call.
    """
    argv: tuple
    code: int
    out: object = ""
    err: str = ""
    stdin: bytes = b""
    files: tuple = ()


DIAG_2_8 = b"[[2, 0], [0, 8]]\n"
MAJ = (("maj_x.json", b"[2, 2]\n"), ("maj_y.json", b"[1, 3]\n"))
N_ERR = "error: half-order n must be >= 1"
SPREAD_ERR = "error: spread must be positive"
SEED_ERR = "error: seed must be a non-negative"

# The CLI contract, one (label, row) per call.  The test's name and its
# first ten rows' ids date from when it held only the generators' refusals.
CONTRACT = [
    ("n must be >= 1", Row(("random-pd", "--n", "0"), 2, err=N_ERR)),
    ("n must be >= 1", Row(("random-pd", "--n", "-2"), 2, err=N_ERR)),
    ("n must be >= 1", Row(("random-symplectic", "--n", "-2"), 2, err=N_ERR)),
    ("spread must be positive",
     Row(("random-pd", "--n", "2", "--spread", "nan"), 2, err=SPREAD_ERR)),
    ("spread must be positive",
     Row(("random-pd", "--n", "2", "--spread", "inf"), 2, err=SPREAD_ERR)),
    ("spread must be positive",
     Row(("random-pd", "--n", "2", "--spread", "1e3"), 2, err=SPREAD_ERR)),
    ("spread must be positive",
     Row(("random-symplectic", "--n", "2", "--spread", "1e3"), 2,
         err=SPREAD_ERR)),
    ("spread must be positive",
     Row(("random-symplectic", "--n", "2", "--spread", "inf"), 2,
         err=SPREAD_ERR)),
    ("seed must be a non-negative",
     Row(("random-pd", "--n", "2", "--seed", "-1"), 2, err=SEED_ERR)),
    ("seed must be a non-negative",
     Row(("random-symplectic", "--n", "2", "--seed", "-1"), 2, err=SEED_ERR)),
    # delta of diag(2, 8) is sqrt(2 * 8) = 4, exactly, from the real
    # singular values of K; both formats print exactly these bytes.
    ("eig json", Row(("eig",), 0, '{\n  "delta": [4]\n}\n', stdin=DIAG_2_8)),
    ("eig text", Row(("eig", "--format", "text"), 0, "delta: 4\n",
                     stdin=DIAG_2_8)),
    # diag_M is scored on the unit form diag(2, 8) / 8 = diag(1/4, 1),
    # where the geometric mean is sqrt(1/4) sqrt(1) = 1/2 exactly.
    ("diag-m geometric json",
     Row(("diag-m",), 0, '{\n  "diag_m": [4]\n}\n', stdin=DIAG_2_8)),
    ("diag-m arithmetic text",
     Row(("diag-m", "--mean", "arithmetic", "--format", "text"), 0,
         "diag_m: 5\n", stdin=DIAG_2_8)),
    # The power mean tends to the geometric one as p -> 0: power:1e-20
    # scores diag(2, 8) as 4 to rounding, not as the max mean's 8.
    ("diag-m power 1e-20 near geometric",
     Row(("diag-m", "--mean", "power:1e-20"), 0,
         lambda out: abs(json.loads(out)["diag_m"][0] - 4) <= 4e-12,
         stdin=DIAG_2_8)),
    # A subnormal exponent keeps too few bits of p ln(ratio), so it is
    # scored as the geometric mean, exactly 4, not as the max mean's 8.
    ("diag-m power 5e-324 geometric json",
     Row(("diag-m", "--mean", "power:5e-324"), 0,
         '{\n  "diag_m": [4]\n}\n', stdin=DIAG_2_8)),
    # [2, 2] is majorized by [1, 3]; on their unit pair (halved) the
    # slacks are exact.  Swapped, the verdict is false: exit 1.
    ("majorize json",
     Row(("major-check", "--kind", "majorize", "--x", "maj_x.json",
          "--y", "maj_y.json"), 0,
         '{\n  "verdict": true,\n  "slacks": [1, 0],\n  "total_gap": 0\n}\n',
         files=MAJ)),
    ("majorize swapped exits 1",
     Row(("major-check", "--kind", "majorize", "--x", "maj_y.json",
          "--y", "maj_x.json"), 1,
         '{\n  "verdict": false,\n  "slacks": [-1, 0],\n  "total_gap": 0\n}\n',
         files=MAJ)),
    # x = 1e6 is admissible, but its matrix is too ill-conditioned to
    # verify: the 'spectrum' stage refuses it, exit 3.
    ("realize spectrum exits 3",
     Row(("realize", "--x", "x.json", "--y", "y.json"), 3,
         err="numerical failure: stage 'spectrum': ",
         files=(("x.json", b"[1e6, 1e6]\n"), ("y.json", b"[1, 2]\n")))),
    # x = [1000, 1000] is admissible for y = [1, 1e-8], but the realized
    # matrix fails the definiteness floor: the 'assemble' stage refuses
    # it with the matrix reader's message.  Only the prefix is matched:
    # the eigenvalue digits depend on the BLAS build.
    ("realize assemble exits 3",
     Row(("realize", "--x", "x.json", "--y", "y.json"), 3,
         err="numerical failure: stage 'assemble': realized matrix is not "
             "positive definite",
         files=(("x.json", b"[1000, 1000]\n"), ("y.json", b"[1, 1e-8]\n")))),
    # A 2-d --x is no vector, and a ragged matrix no array of numbers:
    # each gets the library's one message for its kind.
    ("2-d vector",
     Row(("major-check", "--x", "x.json", "--y", "y.json"), 2,
         err="error: vector must be",
         files=(("x.json", b"[[1, 2]]\n"), ("y.json", b"[1, 2]\n")))),
    ("ragged matrix", Row(("eig",), 2, err="error: matrix entries must be numbers",
                          stdin=b"[[1, 0], [0]]\n")),
    # Bytes that are not UTF-8 are unreadable input, in a file or on stdin.
    ("non-UTF-8 file",
     Row(("eig", "--in", "bad.json"), 2, err="error: cannot read bad.json: ",
         files=(("bad.json", b"\xff[[2,0],[0,8]]"),))),
    ("non-UTF-8 stdin",
     Row(("eig",), 2, err="error: cannot read stdin: ",
         stdin=b"\xff[[2,0],[0,8]]")),
    # JSON that the decoder refuses past its nesting or digit limits is
    # unparseable input, in a matrix on stdin or a vector file.
    ("deeply nested matrix",
     Row(("eig",), 2, err="error: unparseable matrix JSON: ",
         stdin=b"[" * 100000 + b"]" * 100000)),
    ("5000-digit matrix entry",
     Row(("eig",), 2, err="error: unparseable matrix JSON: ",
         stdin=b"[[" + b"1" * 5000 + b", 0], [0, 1]]\n")),
    ("5000-digit vector entry",
     Row(("major-check", "--x", "x.json", "--y", "y.json"), 2,
         err="error: unparseable vector JSON: ",
         files=(("x.json", b"[" + b"1" * 5000 + b", 2]\n"),
                ("y.json", b"[1, 2]\n")))),
    ("deeply nested vector",
     Row(("major-check", "--x", "x.json", "--y", "y.json"), 2,
         err="error: unparseable vector JSON: ",
         files=(("x.json", b"[1, 2]\n"),
                ("y.json", b"[" * 100000 + b"]" * 100000)))),
    # An admissible target whose z / c underflows to 0 on the unit
    # pair, so x / z is 0/0: refused at 'assemble', with no warning.
    ("realize underflowing ratio exits 3",
     Row(("realize", "--x", "x.json", "--y", "y.json"), 3,
         err="numerical failure: stage 'assemble': ",
         files=(("x.json", b"[1e308, 1e-300]\n"),
                ("y.json", b"[1e-300, 1e308]\n")))),
    # The frame passes its relative check (||X||_F^2 overflows), but its
    # complement's projector is past the double range.
    ("complete-frame overflow exits 3",
     Row(("complete-frame",), 3,
         err="numerical failure: symplectic completion failed: ",
         stdin=b'{"n": 2, "k": 1, "rows": [[1e200, 0], [0, 1e200], '
               b'[0, 0], [0, 0]]}\n')),
]


@pytest.mark.parametrize(
    "row", [row for _, row in CONTRACT],
    ids=[f"argv{i}-{label}" for i, (label, _) in enumerate(CONTRACT)])
def test_random_generators_reject_bad_arguments(tmp_path, monkeypatch, capsys,
                                                row):
    monkeypatch.chdir(tmp_path)
    for name, data in row.files:
        (tmp_path / name).write_bytes(data)
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(row.stdin), "utf-8"))
    code, out, err = run(capsys, *row.argv)
    assert code == row.code, err
    if row.err:
        assert out == "" and err.startswith(row.err), err
    else:
        assert err == ""
        assert row.out(out) if callable(row.out) else out == row.out, out


def test_diag_m_rejects_nan_power(tmp_path, capsys):
    p = write_matrix(tmp_path, "a.json", np.eye(2))
    code, out, err = run(capsys, "diag-m", "--in", p, "--mean", "power:nan")
    assert code == 2 and out == "" and "power:nan" in err
