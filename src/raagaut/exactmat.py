"""Small exact matrix helpers over Python integers and Fractions.

Matrices are tuples of tuples.  Everything here is exact; no floats.
All rational elimination goes through ``rref``, and all integer row
reduction through ``hermite``, which also inverts unimodular integer
matrices (``int_inverse``) without making a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InputError


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in A)


def mat_eq(A, B):
    return len(A) == len(B) and all(
        len(x) == len(y) and all(p == q for p, q in zip(x, y))
        for x, y in zip(A, B))


def _int_rows(A):
    """A as lists of ints; InputError on a non-integral entry."""
    m = [[int(x) for x in row] for row in A]
    if any(a != x for r, row in zip(m, A) for a, x in zip(r, row)):
        raise InputError("integer matrix expected")
    return m


def mat_det(A):
    """Determinant of a square integer matrix by Bareiss elimination: every
    intermediate entry is a minor of A, so all divisions are exact.  Raises
    InputError on a non-integral entry."""
    m = _int_rows(A)
    n = len(m)
    sign, prev = 1, 1
    for j in range(n):
        piv = next((i for i in range(j, n) if m[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            sign = -sign
        p = m[j][j]
        for i in range(j + 1, n):
            mi, f = m[i], m[i][j]
            for t in range(j + 1, n):
                mi[t] = (mi[t] * p - f * m[j][t]) // prev
        prev = p
    return sign * prev


def rref(rows, ncols):
    """Gauss-Jordan over the rationals on the first ``ncols`` columns; any
    further columns (an augmented block) are carried along.  Returns the
    reduced rows as lists of Fractions and the pivot column of each of the
    first ``len(pivots)`` rows.  The rows not yet used keep their input
    order, so each pivot row starts as the lowest such row that is nonzero
    in its column after the earlier pivots cleared it."""
    m = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][j] != 0), None)
        if piv is None:
            continue
        m.insert(r, m.pop(piv))
        f = m[r][j]
        m[r] = [x / f for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][j] != 0:
                g = m[i][j]
                m[i] = [x - g * y for x, y in zip(m[i], m[r])]
        pivots.append(j)
    return m, pivots


def int_inverse(A):
    """Inverse of an integer matrix with determinant +-1: the Hermite normal
    form of such a matrix is I, and the operations carried onto I give the
    inverse.  InputError on a non-integral entry or any other normal form."""
    ident = mat_identity(len(A))
    H, inv = hermite(_int_rows(A), ident)
    if H != ident:
        raise InputError("matrix is not invertible over the integers")
    return inv


def solve_right(A, b):
    """One rational solution x of A x = b (A rows x cols, b length rows) or
    None if inconsistent."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    m, pivots = rref([list(A[i]) + [b[i]] for i in range(rows)], cols)
    if any(row[cols] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for row, j in zip(m, pivots):
        x[j] = row[cols]
    return tuple(x)


def hermite(rows, carry):
    """Row Hermite normal form by integer row operations, applied to the
    ``carry`` rows as well; returns (H, C).  Pivots are positive, each entry
    above a pivot lies in [0, pivot), and zero rows come last.  Quotients
    are floor divisions, so Fraction entries reduce too.

    Per column: the pivot is the entry of least absolute value (lowest row
    first), the other rows are reduced by it until it is alone, then it is
    swapped into place, made positive, and the rows above are reduced."""
    H = [list(r) for r in rows]
    C = [list(r) for r in carry]

    def add(i, q, r):
        H[i] = [x + q * y for x, y in zip(H[i], H[r])]
        C[i] = [x + q * y for x, y in zip(C[i], C[r])]

    l = 0
    for j in range(len(H[0]) if H else 0):
        while True:
            nz = [i for i in range(l, len(H)) if H[i][j] != 0]
            if len(nz) < 2:
                break
            piv = min(nz, key=lambda i: (abs(H[i][j]), i))
            for i in nz:
                if i != piv:
                    add(i, -(H[i][j] // H[piv][j]), piv)
        if not nz:
            continue
        H[l], H[nz[0]] = H[nz[0]], H[l]
        C[l], C[nz[0]] = C[nz[0]], C[l]
        if H[l][j] < 0:
            H[l] = [-x for x in H[l]]
            C[l] = [-x for x in C[l]]
        for i in range(l):
            q = H[i][j] // H[l][j]
            if q:
                add(i, -q, l)
        l += 1
    return tuple(map(tuple, H)), tuple(map(tuple, C))


def lcm_of_denominators(values):
    d = 1
    for v in values:
        d = lcm(d, Fraction(v).denominator)
    return d
