"""The one rational elimination (rref), the Bareiss determinant and the
one-pass integral inverse, checked against separate Fraction eliminations
on seeded random matrices."""

import random
from fractions import Fraction

import pytest

from raagaut.errors import InputError
from raagaut.exactmat import (int_inverse, left_kernel_basis, mat_det,
                              mat_identity, mat_mul, rref, solve_right)
from raagaut.linalg import gq_normal_form, is_normal_form

from .oracles import (fraction_det, fraction_int_inverse,
                      fraction_left_kernel, fraction_rank,
                      fraction_solve_right, rank_is_normal_form)


def random_matrix(rng, rows, cols, rational=False):
    """Random entries, then sometimes a zero row and sometimes a row that
    is a combination of two others, so singular and rank-deficient shapes
    come up often."""
    def entry():
        if rational and rng.random() < 0.5:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rng.randint(-3, 3)

    A = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.4:
        i, j, t = rng.sample(range(rows), 3)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        A[i] = [a * x + b * y for x, y in zip(A[j], A[t])]
    if rows and rng.random() < 0.2:
        A[rng.randrange(rows)] = [0] * cols
    return A


def random_unimodular(rng, n):
    A = [list(r) for r in mat_identity(n)]
    for _ in range(2 * n if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        A[i] = [x + q * y for x, y in zip(A[i], A[j])]
    if n and rng.random() < 0.5:
        A[rng.randrange(n)] = [-x for x in A[rng.randrange(n)]]
    return A


SHAPES = [(r, c) for r in range(6) for c in range(6)]


def test_det_matches_fraction_oracle():
    rng = random.Random(7)
    seen = set()
    for trial in range(600):
        n = trial % 6
        A = (random_unimodular(rng, n) if trial % 3 == 0
             else random_matrix(rng, n, n))
        d = mat_det(A)
        assert type(d) is int
        assert d == fraction_det(A), A
        seen.add(d if abs(d) <= 1 else "other")
    assert seen == {0, 1, -1, "other"}


def test_det_rejects_rational_entry():
    assert mat_det([[Fraction(4, 2), 1], [3, Fraction(5)]]) == 7
    with pytest.raises(InputError):
        mat_det([[1, 0], [0, Fraction(1, 2)]])


def test_int_inverse_matches_oracle():
    rng = random.Random(8)
    outcomes = set()
    for trial in range(600):
        n = trial % 6
        A = (random_unimodular(rng, n) if trial % 2
             else random_matrix(rng, n, n))
        want = fraction_int_inverse(A)
        if want is None:
            with pytest.raises(InputError):
                int_inverse(A)
            outcomes.add(fraction_det(A) == 0)
            continue
        inv = int_inverse(A)
        assert inv == want
        assert mat_mul(A, inv) == mat_identity(n)
        outcomes.add("inverted")
    assert outcomes == {True, False, "inverted"}


def test_int_inverse_never_truncates():
    """Determinant 1 but a non-integral inverse: an error, not a rounded
    matrix."""
    with pytest.raises(InputError):
        int_inverse([[2, 0], [0, Fraction(1, 2)]])
    assert int_inverse([[Fraction(1, 2)]]) == ((2,),)


def test_rref_rank_kernel_solve_match_oracles():
    rng = random.Random(9)
    for trial in range(1500):
        rows, cols = SHAPES[trial % len(SHAPES)]
        A = random_matrix(rng, rows, cols, rational=trial % 2 == 1)
        R, pivots = rref(A, cols)
        assert len(pivots) == fraction_rank(A)
        assert pivots == sorted(set(pivots))
        for r, row in enumerate(R):
            for j in pivots:
                assert row[j] == (1 if pivots[r:r + 1] == [j] else 0)
            if r >= len(pivots):
                assert all(x == 0 for x in row)
        basis = left_kernel_basis(A)
        assert basis == fraction_left_kernel(A)
        for v in basis:
            assert all(sum(v[i] * A[i][j] for i in range(rows)) == 0
                       for j in range(cols))
        x0 = [rng.randint(-3, 3) for _ in range(cols)]
        reachable = [sum(a * x for a, x in zip(row, x0)) for row in A]
        other = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(rows)]
        for b in (reachable, other):
            x = solve_right(A, b)
            assert x == fraction_solve_right(A, b)
            if x is not None:
                assert [sum(a * y for a, y in zip(row, x)) for row in A] == b
        assert solve_right(A, reachable) is not None


def test_is_normal_form_matches_rank_oracle():
    """Pivot columns of the bottom block from one rref agree with the
    per-column rank test, on normal forms, perturbed normal forms and raw
    block matrices."""
    rng = random.Random(10)
    outcomes = set()
    for trial in range(400):
        n, k, m = rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, 4)
        rows = random_matrix(rng, n + k, m, rational=trial % 4 == 3)
        N, _ = gq_normal_form(rows, n, k)
        bumped = [list(r) for r in N]
        bumped[rng.randrange(n)][rng.randrange(m)] += rng.choice((-1, 1))
        for cand in (rows, N, bumped):
            got = is_normal_form(cand, n, k)
            assert got == rank_is_normal_form(cand, n, k), (cand, n, k)
            outcomes.add(got)
    assert outcomes == {True, False}
