"""Exact symplectic eigenvalues of a double matrix of order 2 or 4.

Standard library only, so Tier-1 can check the library against it.  For
A of order 2n the eigenvalues of J A are +-i delta_j, so those of
(J A)^2 are -delta_j^2, each twice: the delta_j^2 sum to
s = -tr((J A)^2) / 2 and multiply to det A.  At n = 1 that gives
delta_1^2 = det A; at n = 2 the delta_j^2 are the roots of
t^2 - s t + det A.  s and det A are formed exactly in Fractions from A's
doubles, with J A as a signed swap of A's row halves.  The square roots
are taken in decimal at ``DIGITS`` digits, and the small root as
det A / t_max, so it suffers no cancellation.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

DIGITS = 80


def _det(M):
    """det M by Gaussian elimination over Fractions, exact."""
    M = [row[:] for row in M]
    m, det = len(M), Fraction(1)
    for j in range(m):
        p = next((i for i in range(j, m) if M[i][j]), None)
        if p is None:
            return Fraction(0)
        if p != j:
            M[j], M[p] = M[p], M[j]
            det = -det
        det *= M[j][j]
        for i in range(j + 1, m):
            f = M[i][j] / M[j][j]
            for l in range(j + 1, m):
                M[i][l] -= f * M[j][l]
    return det


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def exact_delta(A) -> list:
    """Ascending symplectic eigenvalues of the symmetric positive definite
    matrix of doubles A, of order 2 or 4, as Decimals to ``DIGITS`` digits."""
    A = [[Fraction(float(a)) for a in row] for row in A]
    m = len(A)
    if m not in (2, 4) or any(len(row) != m for row in A):
        raise ValueError(f"order 2 or 4 only, got {m}")
    n = m // 2
    JA = A[n:] + [[-a for a in row] for row in A[:n]]
    s = -sum(JA[i][j] * JA[j][i] for i in range(m) for j in range(m)) / 2
    det = _det(A)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        if n == 1:
            return [_decimal(det).sqrt()]
        t_max = (_decimal(s) + _decimal(s * s - 4 * det).sqrt()) / 2
        return [(_decimal(det) / t_max).sqrt(), t_max.sqrt()]
