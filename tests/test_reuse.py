"""A warm answer is a cold answer.

``spectral`` keeps one entry: the last matrix and tol read, keyed on
both, with its Cholesky factor and skew K and the result of each route
(delta only, and Williamson) that succeeded on it.  Every public result
must be bit-identical whether or not the entry is emptied before each
call, in either order of the routes and after a refusal on the other
route, must not alias what the entry holds, and must follow the
matrix's bytes and layout rather than the call order.
"""

import sys
import threading

import numpy as np
import pytest

from sympectra import NumericalError, spectral
from sympectra.means import arithmetic_mean, geometric_mean
from sympectra.schur_horn import (horn_symplectic_realize, kyfan_minimizer,
                                  kyfan_search, schur_check)
from sympectra.spectral import symplectic_eigenvalues, williamson
from sympectra.symplectic import random_pd

MEANS = (geometric_mean(), arithmetic_mean())


def _bits(result):
    """A result as a comparable value that keeps every bit."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, tuple):
        return type(result).__name__, tuple(_bits(v) for v in result)
    if isinstance(result, float):
        return result.hex()
    return result


def _calls(A, x, y):
    """calls-small's order on one matrix: eig, williamson, Schur with two
    means, the realization, the Ky Fan minimizer and a search."""
    k = min(2, A.shape[0] // 2)
    return [lambda: symplectic_eigenvalues(A),
            lambda: williamson(A),
            lambda: schur_check(A, MEANS[0]),
            lambda: schur_check(A, MEANS[1]),
            lambda: horn_symplectic_realize(x, y, MEANS[0]),
            lambda: kyfan_minimizer(A, k, MEANS[0]),
            lambda: kyfan_search(A, k, MEANS[1], budget=8, seed=3)]


# The calls of ``_calls`` in calls-small's order, and with the Williamson
# route first, so every delta-only call follows it on the same matrix.
ORDERS = ((0, 1, 2, 3, 4, 5, 6), (1, 5, 0, 2, 3, 6, 4))


def _cold(monkeypatch, call):
    monkeypatch.setattr(spectral, "_LAST", None)
    return call()


def _outcome(call):
    """call()'s bits, or its refusal's type and message."""
    try:
        return _bits(call())
    except NumericalError as exc:
        return type(exc).__name__, str(exc)


def _problem(n, e):
    A = np.ldexp(random_pd(n, seed=n), e)
    y = np.ldexp(np.linspace(1.0, 2.0, n), e)
    return A, 1.5 * y, y


@pytest.mark.parametrize("e", [-100, 0, 100])
@pytest.mark.parametrize("n", [1, 2, 4, 64])
def test_results_do_not_depend_on_the_slots(monkeypatch, n, e):
    every = _calls(*_problem(n, e))
    for order in ORDERS:
        calls = [every[i] for i in order]
        monkeypatch.setattr(spectral, "_LAST", None)
        warm = [_bits(call()) for call in calls]
        assert warm == [_bits(_cold(monkeypatch, call)) for call in calls]
        # Twice through the sequence, every call after the first reuses.
        assert warm == [_bits(call()) for call in calls]


@pytest.mark.parametrize("n", [1, 2, 4, 64])
def test_writing_into_a_result_does_not_change_the_next(monkeypatch, n):
    A, _, _ = _problem(n, 100)
    mean, k = MEANS[0], min(2, n)
    cold = [_bits(_cold(monkeypatch, call)) for call in (
        lambda: symplectic_eigenvalues(A), lambda: schur_check(A, mean),
        lambda: williamson(A), lambda: kyfan_minimizer(A, k, mean))]
    monkeypatch.setattr(spectral, "_LAST", None)
    symplectic_eigenvalues(A)[:] = 0.0
    report = schur_check(A, mean)
    assert _bits(report) == cold[1]
    for a in (report.diag_m, report.delta, report.report.k_slacks):
        a[:] = 0.0
    assert _bits(symplectic_eigenvalues(A)) == cold[0]
    fact = williamson(A)
    fact.W[:] = 0.0
    fact.delta[:] = 0.0
    result = kyfan_minimizer(A, k, mean)
    assert _bits(result) == cold[3]
    result.minimizer[:] = 0.0
    assert _bits(williamson(A)) == cold[2]
    # What the entry holds is read-only, so no caller can write into it.
    _, (U, _, _, R, K), done = spectral._LAST
    fact = done["williamson"]
    assert not any(a.flags.writeable
                   for a in (U, R, K, done["delta"], fact.W, fact.delta))


@pytest.mark.parametrize("n", [1, 2, 4, 64])
def test_a_matrix_written_in_place_is_read_afresh(monkeypatch, n):
    A, B = random_pd(n, seed=1), random_pd(n, seed=2)
    calls = _calls(A, [3.0] * n, [2.0] * n)
    for call in calls:
        call()
    A[:] = B
    warm = [_bits(call()) for call in calls]
    assert warm == [_bits(_cold(monkeypatch, call)) for call in
                    _calls(B, [3.0] * n, [2.0] * n)]


@pytest.mark.parametrize("n", [1, 2, 4, 64])
def test_a_fortran_ordered_copy_answers_as_a_fresh_call(monkeypatch, n):
    A, x, y = _problem(n, -100)
    F = np.asfortranarray(A)
    for call in _calls(A, x, y):
        call()
    warm = [_bits(call()) for call in _calls(F, x, y)]
    assert warm == [_bits(_cold(monkeypatch, call)) for call in _calls(F, x, y)]


@pytest.mark.parametrize("call", [
    symplectic_eigenvalues, williamson,
    lambda A, tol=1e-8: schur_check(A, MEANS[0], tol)],
    ids=["eig", "williamson", "schur_check"])
def test_a_refusal_at_a_tighter_tol_follows_a_success(call):
    A = random_pd(4, seed=9)
    message = (r"^eigenvalue pairing failure: \+- halves differ by \S+ "
               r"delta_n, exceeding 1\.0e-300$")
    with pytest.raises(NumericalError, match=message) as cold:
        call(A, tol=1e-300)
    call(A)
    for _ in range(2):
        with pytest.raises(NumericalError) as warm:
            call(A, tol=1e-300)
        assert str(warm.value) == str(cold.value)
    call(A)


@pytest.mark.parametrize("n, seed, tol, refused", [
    (1, 0, 1e-300, "williamson"), (8, 2, 1e-15, "eig")])
def test_a_refusal_on_one_route_leaves_the_other_cold(monkeypatch, n, seed,
                                                      tol, refused):
    # One route refuses A at tol after Cholesky succeeded (Williamson's
    # reconstruction residual, or the singular values' pairing); the
    # other route's answer on A, before and after it, is the cold one.
    A = random_pd(n, seed=seed)
    routes = {"eig": lambda: symplectic_eigenvalues(A, tol),
              "williamson": lambda: williamson(A, tol)}
    cold = {name: _outcome(lambda: _cold(monkeypatch, call))
            for name, call in routes.items()}
    assert [name for name in routes if cold[name][0] == "NumericalError"] == [
        refused]
    for order in (("eig", "williamson"), ("williamson", "eig")):
        monkeypatch.setattr(spectral, "_LAST", None)
        for name in order * 2:
            assert _outcome(routes[name]) == cold[name]


def test_threads_sharing_the_slots_get_cold_answers(monkeypatch):
    # Four threads (more than the cores) alternate between a shared matrix
    # and their own, on both routes, with a short switch interval, so the
    # entry is replaced under each other's reads.
    mats = [random_pd(2, seed=s) for s in range(5)]
    want = {(i, route.__name__): _bits(_cold(monkeypatch, lambda: route(A)))
            for i, A in enumerate(mats)
            for route in (symplectic_eigenvalues, williamson)}
    got = []

    def work(own):
        for j in range(200):
            i = own if j % 2 else 0
            for route in (symplectic_eigenvalues, williamson):
                got.append(_bits(route(mats[i])) == want[i, route.__name__])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(1, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 * 200 * 2 and all(got)
