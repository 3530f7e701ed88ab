"""The one rational elimination (rref), the one integer Hermite reduction
(hermite), the Bareiss determinant and the one-pass integral inverse,
checked against separate Fraction eliminations on seeded random matrices."""

import random
from fractions import Fraction
from math import lcm

import pytest

from raagaut.errors import InputError
from raagaut.exactmat import (hermite, int_inverse, mat_det, mat_identity,
                              mat_mul, rref, solve_right)
from raagaut.linalg import gq_normal_form, is_normal_form, kernel_lattice_basis

from .oracles import (euclid_row_hnf_transform, fraction_det,
                      fraction_int_inverse, fraction_rank,
                      fraction_solve_right, kernel_search_normal_form,
                      rank_is_normal_form)


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
    """Integer matrices only: a rational entry is an error, also where the
    rational inverse exists, never a rounded matrix."""
    with pytest.raises(InputError):
        int_inverse([[2, 0], [0, Fraction(1, 2)]])
    with pytest.raises(InputError):
        int_inverse([[Fraction(1, 2)]])
    assert int_inverse([[Fraction(4, 2), 1], [1, 1]]) == ((1, -1), (-1, 2))


def test_mat_mul_matches_triple_loop():
    """Rows paired with columns give the plain triple loop on every shape up
    to 4 x 4 x 4, zero inner and outer dimensions included; a matrix with
    no rows has no columns either."""
    rng = random.Random(19)
    for rows in range(5):
        for inner in range(5):
            for cols in range(5):
                for rational in (False, True):
                    A = random_matrix(rng, rows, inner, rational)
                    B = random_matrix(rng, inner, cols, rational)
                    width = len(B[0]) if B else 0
                    want = tuple(
                        tuple(sum(A[i][t] * B[t][j] for t in range(inner))
                              for j in range(width))
                        for i in range(rows))
                    assert mat_mul(A, B) == want


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
        carried = rref([list(row) + [int(i == t) for t in range(rows)]
                        for i, row in enumerate(A)], cols)[0]
        kernel = [row[cols:] for row in carried[len(pivots):]]
        assert fraction_rank(kernel) == rows - len(pivots)
        for v in kernel:
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


def test_hermite_shape_transform_and_unimodular_carry():
    """H is in Hermite shape with its zero rows last, an identity carry
    becomes a determinant +-1 matrix C with C A = H, and any other carry X
    becomes C X."""
    rng = random.Random(11)
    seen = set()
    for trial in range(1500):
        rows, cols = SHAPES[trial % len(SHAPES)]
        A = random_matrix(rng, rows, cols, rational=trial % 3 == 2)
        H, C = hermite(A, mat_identity(rows))
        assert is_normal_form(H, rows, 0), (A, H)
        assert mat_mul(C, A) == H
        assert mat_det(C) in (1, -1)
        rank = fraction_rank(A)
        assert all(any(r) for r in H[:rank]) and not any(map(any, H[rank:]))
        X = random_matrix(rng, rows, 3)
        assert hermite(A, X) == (H, mat_mul(C, X))
        seen.add("dependent" if rank < min(rows, cols) else "full")
        seen.update("zero row" for r in A if cols and not any(r))
        seen.update("negative" for r in A if any(r)
                    and next(x for x in r if x) < 0)
        seen.update("rational" for r in A for x in r
                    if Fraction(x).denominator > 1)
    assert seen == {"dependent", "full", "zero row", "negative", "rational"}


def test_gq_normal_form_matches_kernel_search():
    """One rref of the bottom block and one hermite of the top give the same
    (N, Q) as a rational kernel per column and a Euclidean loop, also when
    the bottom rows are dependent and Q is not determined by N alone."""
    rng = random.Random(12)
    dependent = 0
    for trial in range(1500):
        n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 5)
        rows = random_matrix(rng, n + k, m, rational=trial % 2 == 1)
        N, Q = gq_normal_form(rows, n, k)
        assert (N, Q.A, Q.B) == kernel_search_normal_form(rows, n, k)
        assert mat_mul(Q.full(), rows) == N
        dependent += fraction_rank(rows[n:]) < k
    assert dependent > 300


def _integer_combination(v, basis):
    """Whether v is an integer combination of the (independent) basis."""
    x = fraction_solve_right([[b[i] for b in basis] for i in range(len(v))],
                             v)
    return x is not None and all(c.denominator == 1 for c in x)


def test_kernel_lattice_basis_spans_the_euclidean_lattice():
    """The zero rows of hermite's carry span the same lattice of
    { x in (1/d Z)^k : x * bottom = 0 } as a separate Euclidean transform,
    though the basis may differ (a vector for its negative, say)."""
    rng = random.Random(13)
    nonzero = 0
    for trial in range(1500):
        k, m = rng.randint(1, 5), rng.randint(1, 4)
        bottom = [list(map(Fraction, r))
                  for r in random_matrix(rng, k, m, rational=trial % 2 == 1)]
        d = rng.choice((1, 2, 3, 6))
        basis = kernel_lattice_basis(bottom, d)
        denom = lcm(d, *(x.denominator for r in bottom for x in r))
        H, U = euclid_row_hnf_transform(
            [[int(x * denom) for x in r] for r in bottom])
        want = [tuple(Fraction(u, d) for u in U[i])
                for i, r in enumerate(H) if not any(r)]
        assert len(basis) == len(want) == k - fraction_rank(bottom)
        for v in basis:
            assert all(sum(v[t] * bottom[t][j] for t in range(k)) == 0
                       for j in range(m))
            assert _integer_combination(v, want)
        assert all(_integer_combination(w, basis) for w in want)
        nonzero += bool(basis)
    assert nonzero > 500
