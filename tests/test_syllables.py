import random
from itertools import permutations

import pytest

from raagaut.aut import GenWhitehead, make_whitehead, theta, za_basis
from raagaut import syllables
from raagaut.core import class_tuple, parse_word
from raagaut.errors import BudgetError
from raagaut.syllables import (Decomposition, act_on_decomposition, decompose,
                               length_delta, matching_permutations, nu,
                               syllable_count)

from .decompositions import decomposition_from_words

W = parse_word


def phi_ab(split):
    return make_whitehead(split, "a",
                          {"a": W("a b"), "b": W("b"), "c": W("c"),
                           "d": W("d")},
                          {"a": W("a b^-1"), "b": W("b"), "c": W("c"),
                           "d": W("d")})


def test_chosen_decomposition_values(split):
    # the hand-chosen decompositions of the running example
    T = decomposition_from_words(split, "a",
                                 [[W("c a c"), W("c b c"), W("c b c")]])
    U = class_tuple(split, [W("c a c b c b")])
    assert T.represents(U)
    # basis order: r_a, r_b, r_Y
    assert nu(T) == ((1, 0, 0), (0, 1, 0), (0, 1, 0))
    Tp = decomposition_from_words(split, "a",
                                  [[W("c b c"), W("c a b c"), W("c b c")]])
    V = class_tuple(split, [W("c b c a b c b")])
    assert Tp.represents(V)
    assert nu(Tp) == ((0, 1, 0), (1, 1, 0), (0, 1, 0))


def test_deterministic_decompose_represents(split):
    U = class_tuple(split, [W("c a c b c b")])
    d = decompose(split, "a", U)
    assert d.represents(U)
    assert len(d.syllables) == 3


def test_cyclic_syllable(split):
    U = class_tuple(split, [W("b")])
    d = decompose(split, "a", U)
    assert len(d.syllables) == 1 and d.syllables[0].cyclic
    assert d.represents(U)
    assert nu(d) == ((0, 1, 0),)


def test_single_linear_syllable(split):
    # c u with u in the star decomposes as one syllable with both endpoints c
    U = class_tuple(split, [W("c a b")])
    d = decompose(split, "a", U)
    assert len(d.syllables) == 1
    s = d.syllables[0]
    assert s.left == ("c", 1) and s.right == ("c", 1)
    assert d.represents(U)


def test_zero_vector_for_undominated_cyclic(path4):
    # wrt b, the class of a single a is a cyclic... a is outside st(b);
    # use a class inside the star with zero net exponents instead
    U = class_tuple(path4, [W("c d c^-1 d")])
    d = decompose(path4, "d", U)
    assert d.represents(U)


def test_nu_cyclic_permutation_invariance(split):
    # two decompositions of the same class have nu equal up to cyclic
    # permutation per class
    U = class_tuple(split, [W("c a c b c b")])
    d = decompose(split, "a", U)
    base = list(nu(d))
    T = decomposition_from_words(split, "a",
                                 [[W("c a c"), W("c b c"), W("c b c")]])
    other = list(nu(T))
    rotations = [base[i:] + base[:i] for i in range(len(base))]
    assert other in rotations


def test_act_on_decomposition_example(split):
    U = class_tuple(split, [W("c a c b c b")])
    T = decomposition_from_words(split, "a",
                                 [[W("c a c"), W("c b c"), W("c b c")]])
    out = act_on_decomposition(phi_ab(split), T)
    assert nu(out) == ((1, 1, 0), (0, 1, 0), (0, 1, 0))
    assert out.represents(phi_ab(split).aut.apply_to_tuple(U))


def test_act_identity(split):
    from raagaut.aut import identity_automorphism
    U = class_tuple(split, [W("c a c b c b")])
    d = decompose(split, "a", U)
    ident = GenWhitehead(identity_automorphism(split), "a")
    out = act_on_decomposition(ident, d)
    assert nu(out) == nu(d)


def random_whitehead(g, a, rng, maxexp=2):
    from raagaut.exactmat import mat_det, mat_identity
    basis = za_basis(g, a)
    n = len(g.adjdom_class(a))
    dim = len(basis)
    A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            A[i][j] += rng.randint(-1, 1)
    if mat_det(tuple(map(tuple, A))) not in (1, -1):
        A = [list(r) for r in mat_identity(n)]
    M = [[0] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            M[i][j] = A[i][j]
    for j in range(n, dim):
        M[j][j] = 1
        for i in range(n):
            M[i][j] = rng.randint(-maxexp, maxexp)
    return theta(g, a, tuple(map(tuple, M)))


def test_equivariance_random(split, path4):
    rng = random.Random(7)
    for g in (split, path4):
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        for _ in range(50):
            a = rng.choice(g.vertices)
            words = [tuple(rng.choice(letters)
                           for _ in range(rng.randint(1, 4)))
                     for _ in range(rng.randint(1, 2))]
            U = class_tuple(g, words)
            d = decompose(g, a, U)
            phi = random_whitehead(g, a, rng)
            out = act_on_decomposition(phi, d)
            assert out.represents(phi.aut.apply_to_tuple(U))


def test_length_delta_example(path4):
    alpha = make_whitehead(path4, "c",
                           {"a": W("a c"), "b": W("b"), "c": W("c"),
                            "d": W("c^-1 d")},
                           {"a": W("a c^-1"), "b": W("b"), "c": W("c"),
                            "d": W("c d")})
    U = class_tuple(path4, [W("a d")])
    d = decompose(path4, "c", U)
    assert length_delta(alpha, d) == 0


def test_length_delta_matches_direct(split, path4):
    rng = random.Random(8)
    count = 0
    while count < 200:
        g = rng.choice((split, path4))
        a = rng.choice(g.vertices)
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 2))]
        U = class_tuple(g, words)
        d = decompose(g, a, U)
        phi = random_whitehead(g, a, rng)
        direct = phi.aut.apply_to_tuple(U).length - U.length
        assert length_delta(phi, d) == direct
        count += 1


def test_matching_permutations_running_example(split):
    V = class_tuple(split, [W("c b c a b c b")])
    Tp = decomposition_from_words(split, "a",
                                  [[W("c b c"), W("c a b c"), W("c b c")]])
    perms = matching_permutations(Tp, V)
    exps = {tuple(s.exps for s in p.syllables) for p in perms}
    assert ((1, 1), (0, 1), (0, 1)) in exps


def test_matching_permutations_budget_names_counter(split, monkeypatch):
    monkeypatch.setattr(syllables, "MATCHING_BUDGET", 1)
    U = class_tuple(split, [W("c b c a b c b")])
    with pytest.raises(BudgetError,
                       match=r"^matching_permutations steps 2 > budget 1$"):
        matching_permutations(decompose(split, "a", U), U)


def test_matching_permutations_single_cyclic(split):
    U = class_tuple(split, [W("a b")])
    d = decompose(split, "a", U)
    perms = matching_permutations(d, U)
    assert len(perms) == 1


def test_matching_permutations_vs_bruteforce(split):
    rng = random.Random(10)
    letters = [(v, s) for v in split.vertices for s in (1, -1)]
    for _ in range(15):
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                 for _ in range(2)]
        U = class_tuple(split, words)
        d = decompose(split, "a", U)
        got = {tuple(s.key() for s in p.syllables)
               for p in matching_permutations(d, U)}
        counts = []
        for cls in U.entries:
            c = syllable_count(split, "a", cls)
            counts.append((c if c else 1, c == 0))
        brute = set()
        for perm in permutations(d.syllables):
            blocks = []
            start = 0
            for count, cyc in counts:
                blocks.append((start, count, cyc))
                start += count
            cand = Decomposition(split, "a", perm, tuple(blocks))
            bad = False
            for b, (s0, count, cyc) in enumerate(blocks):
                chunk = perm[s0:s0 + count]
                if cyc != all(s.cyclic for s in chunk):
                    bad = True
                    break
            if bad:
                continue
            if cand.represents(U):
                brute.add(tuple(s.key() for s in perm))
        assert got == brute


def test_syllable_counts_match_letters_outside_star(split):
    U = class_tuple(split, [W("c a c b c b")])
    assert syllable_count(split, "a", U.entries[0]) == 3
    d = decompose(split, "a", U)
    assert len(d.syllables) == 3
