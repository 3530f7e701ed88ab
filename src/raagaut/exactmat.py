"""Small exact matrix helpers over Python integers and Fractions.

Matrices are tuples of tuples.  Everything here is exact; no floats.
All rational elimination goes through ``rref``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InputError


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(inner)) for j in range(cols))
        for i in range(rows))


def mat_eq(A, B):
    return len(A) == len(B) and all(
        len(x) == len(y) and all(p == q for p, q in zip(x, y))
        for x, y in zip(A, B))


def mat_det(A):
    """Determinant of a square integer matrix by Bareiss elimination: every
    intermediate entry is a minor of A, so all divisions are exact.  Raises
    InputError on a non-integral entry."""
    m = [[int(x) for x in row] for row in A]
    if any(a != x for r, row in zip(m, A) for a, x in zip(r, row)):
        raise InputError("integer matrix expected")
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
    first ``len(pivots)`` rows."""
    m = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][j] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = m[r][j]
        m[r] = [x / f for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][j] != 0:
                g = m[i][j]
                m[i] = [x - g * y for x, y in zip(m[i], m[r])]
        pivots.append(j)
    return m, pivots


def int_inverse(A):
    """Inverse of an integer matrix with determinant +-1, from one
    elimination of [A | I]; InputError if the inverse is not integral."""
    n = len(A)
    m, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                      for i, row in enumerate(A)], n)
    inv = [row[n:] for row in m]
    if len(pivots) < n or any(x.denominator != 1 for row in inv for x in row):
        raise InputError("matrix is not invertible over the integers")
    return tuple(tuple(int(x) for x in row) for row in inv)


def left_kernel_basis(A):
    """Basis of { x : x A = 0 } over the rationals (A given by rows)."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    # kernel of A^T v = 0 with v in Q^rows
    m, pivots = rref([[A[i][j] for i in range(rows)] for j in range(cols)],
                     rows)
    basis = []
    for j in range(rows):
        if j in pivots:
            continue
        v = [Fraction(0)] * rows
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][j]
        basis.append(tuple(v))
    return basis


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


def integer_row_hnf_transform(A):
    """Row-reduce an integer matrix to row Hermite-style form, returning
    (H, U) with U unimodular and U A = H.  Zero rows of H sit at the bottom,
    and the corresponding rows of U span the integer left kernel of A."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    H = [list(row) for row in A]
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    r = 0
    for j in range(cols):
        while True:
            nz = [i for i in range(r, rows) if H[i][j] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(H[i][j]), i))
            if H[piv][j] < 0:
                H[piv] = [-x for x in H[piv]]
                U[piv] = [-x for x in U[piv]]
            done = True
            for i in nz:
                if i == piv:
                    continue
                q = H[i][j] // H[piv][j]
                if q:
                    H[i] = [x - q * y for x, y in zip(H[i], H[piv])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[piv])]
                if H[i][j] != 0:
                    done = False
            if done:
                if piv != r:
                    H[r], H[piv] = H[piv], H[r]
                    U[r], U[piv] = U[piv], U[r]
                r += 1
                break
    return tuple(map(tuple, H)), tuple(map(tuple, U))


def lcm(a, b):
    return a // gcd(a, b) * b


def lcm_of_denominators(values):
    d = 1
    for v in values:
        d = lcm(d, Fraction(v).denominator)
    return d
