import random
from fractions import Fraction

import pytest

import raagaut.aut as aut_module
from raagaut.aut import (Automorphism, GenWhitehead, classic_whitehead,
                         enumerate_classic_whitehead, eta, graph_symmetries,
                         identity_automorphism, inner_witness, is_in_whset,
                         is_long_range, laurence_generators, make_whitehead,
                         permutation_automorphisms, support, theta,
                         za_basis, za_dims, conjugation_by,
                         conjugation_letter_factors)
from raagaut.core import DefiningGraph, class_tuple, parse_word
from raagaut.errors import BudgetError, InputError
from raagaut.exactmat import mat_mul, mat_identity, mat_det
from raagaut.linalg import BlockMatrix

from .oracles import brute_force_symmetries

W = parse_word


def aut_from(g, images, inverse_images):
    return Automorphism(g, {k: W(v) for k, v in images.items()},
                        {k: W(v) for k, v in inverse_images.items()})


def random_whitehead(g, a, rng, maxexp=2):
    basis = za_basis(g, a)
    n = len(g.adjdom_class(a))
    dim = len(basis)
    A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            A[i][j] += rng.randint(-1, 1)
    if rng.random() < 0.3:
        A[0] = [-x for x in A[0]]
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


def test_validation_rejects_non_endomorphism(split):
    # a and b are adjacent, but the proposed images c and b do not commute
    with pytest.raises(InputError):
        aut_from(split, {"a": "c", "b": "b", "c": "a", "d": "d"},
                 {"a": "c", "b": "b", "c": "a", "d": "d"})


def test_validation_rejects_bad_inverse(f2):
    with pytest.raises(InputError):
        aut_from(f2, {"a": "a b", "b": "b"}, {"a": "a", "b": "b"})


def test_compose_invert(f2):
    alpha = aut_from(f2, {"a": "a b", "b": "b"},
                     {"a": "a b^-1", "b": "b"})
    assert alpha.compose(alpha.invert()).is_identity()
    assert alpha.invert().compose(alpha).is_identity()
    cls = class_tuple(f2, [W("a")])
    assert alpha.apply_to_tuple(cls) == class_tuple(f2, [W("a b")])


def test_example_automorphism_fixes_class(path4):
    # a -> a c, d -> c^-1 d fixes the class of a d
    alpha = aut_from(path4, {"a": "a c", "b": "b", "c": "c",
                             "d": "c^-1 d"},
                     {"a": "a c^-1", "b": "b", "c": "c", "d": "c d"})
    Wt = class_tuple(path4, [W("a d")])
    assert alpha.apply_to_tuple(Wt) == Wt
    assert is_in_whset(alpha, "c")


def test_laurence_generators_path(path4):
    gens = laurence_generators(path4)
    assert len(gens) == 15
    images = {tuple(sorted(w.aut.key())) for w in gens}
    # right transvection a -> a c and the partial conjugations exist
    keys = [w.aut for w in gens]
    assert any(x.images["a"] == W("a c") for x in keys)
    assert any(x.images["d"] == W("b d b^-1") for x in keys)
    assert any(x.images["a"] == W("c a c^-1") for x in keys)
    # c^-1 d is the inverse of the right transvection d -> d c
    from raagaut.core import words_equal
    inv_present = any(words_equal(path4, x.inverse_images["d"], W("c^-1 d"))
                      for x in keys)
    assert inv_present
    for w in gens:
        w.aut._validate()


def test_laurence_generators_k2(k2):
    gens = laurence_generators(k2)
    auts = [w.aut for w in gens]
    assert any(x.images["a"] == W("a b") for x in auts)
    assert any(x.images["b"] == W("b a") for x in auts)
    assert sum(1 for x in auts if x.is_permutation()) >= 3
    assert not any("c" in repr(x) for x in auts)
    # no partial conjugations: complement of each star is empty
    assert all(len(x.images["a"]) + len(x.images["b"]) <= 3 for x in auts)


def test_laurence_generators_f2_count(f2):
    gens = laurence_generators(f2)
    # four one-sided Nielsen transvections, two single-letter conjugations,
    # two inversions, one swap
    assert len(gens) == 9
    for w in gens:
        w.aut._validate()


def test_permutation_automorphisms(f2, split):
    assert len(permutation_automorphisms(f2)) == 8
    assert len(graph_symmetries(split)) == 8
    for w in permutation_automorphisms(split):
        assert w.aut.is_permutation()


def test_graph_symmetries_match_brute_force(f2, k3, split, path4, nodom6):
    """Same permutations in the same order: the orbit map of the orbit graph
    follows the order of P."""
    rng = random.Random(17)
    graphs = [f2, k3, split, path4, nodom6]
    for _ in range(60):
        vs = ["v%d" % i for i in range(rng.randint(2, 7))]
        edges = [[u, v] for i, u in enumerate(vs) for v in vs[i + 1:]
                 if rng.random() < 0.4]
        rng.shuffle(vs)
        graphs.append(DefiningGraph(vs, edges))
    for g in graphs:
        assert graph_symmetries(g) == brute_force_symmetries(g)


def test_graph_symmetries_of_a_long_path():
    vs = ["v%d" % i for i in range(9)]
    g = DefiningGraph(vs, [[u, v] for u, v in zip(vs, vs[1:])])
    assert graph_symmetries(g) == [dict(zip(vs, vs)),
                                   dict(zip(vs, reversed(vs)))]


def test_permutation_budget_is_checked_during_the_symmetry_search():
    # 9! symmetries times 2^9 signs; the search stops at the first
    # symmetry past the budget and caches nothing
    g = DefiningGraph(["v%d" % i for i in range(9)], [])
    with pytest.raises(BudgetError, match=r"^permutation_automorphisms "
                                          r"elements \d+ > budget 100000$"):
        permutation_automorphisms(g)
    assert "symmetries" not in g._cache


def test_support_examples(split, path4):
    ident = identity_automorphism(split)
    assert support(GenWhitehead(ident, "a")) == frozenset()
    tr = make_whitehead(path4, "c",
                        {"a": W("a c"), "b": W("b"), "c": W("c"),
                         "d": W("d")},
                        {"a": W("a c^-1"), "b": W("b"), "c": W("c"),
                         "d": W("d")})
    assert support(tr) == frozenset({("a", 1)})
    pc = make_whitehead(split, "a",
                        {"a": W("a"), "b": W("b"), "c": W("a c a^-1"),
                         "d": W("a d a^-1")},
                        {"a": W("a"), "b": W("b"), "c": W("a^-1 c a"),
                         "d": W("a^-1 d a")})
    assert support(pc) == frozenset(
        {("c", 1), ("c", -1), ("d", 1), ("d", -1)})


def test_is_in_whset(split, path4):
    phi = aut_from(split, {"a": "a b^-1", "b": "b", "c": "c", "d": "d"},
                   {"a": "a b", "b": "b", "c": "c", "d": "d"})
    assert is_in_whset(phi, "a")
    assert not is_in_whset(phi, "c")
    alpha = aut_from(path4, {"a": "a c", "b": "b", "c": "c", "d": "c^-1 d"},
                     {"a": "a c^-1", "b": "b", "c": "c", "d": "c d"})
    assert is_in_whset(alpha, "c")


def test_za_basis_split(split):
    assert za_basis(split, "a") == (("r", "a"), ("r", "b"),
                                    ("Y", frozenset({"c", "d"})))
    assert za_dims(split, "a") == (2, 1)


def test_eta_example(split):
    phi = make_whitehead(split, "a",
                         {"a": W("a b"), "b": W("b"), "c": W("c"),
                          "d": W("d")},
                         {"a": W("a b^-1"), "b": W("b"), "c": W("c"),
                          "d": W("d")})
    mat = eta(split, "a", phi.aut)
    # r_a -> r_a + r_b, r_b and r_Y fixed (columns are images)
    assert mat == ((1, 0, 0), (1, 1, 0), (0, 0, 1))


def test_eta_identity(split):
    assert eta(split, "a", identity_automorphism(split)) == tuple(
        tuple(1 if i == j else 0 for j in range(3)) for i in range(3))


@pytest.mark.parametrize("graph_name", ["f2", "split", "path4"])
def test_eta_homomorphism_and_theta_inverse(graph_name, request):
    g = request.getfixturevalue(graph_name)
    rng = random.Random(graph_name)
    for a in g.vertices:
        for _ in range(12):
            x = random_whitehead(g, a, rng)
            y = random_whitehead(g, a, rng)
            assert eta(g, a, x.aut.compose(y.aut)) == \
                mat_mul(eta(g, a, x.aut), eta(g, a, y.aut))
            assert theta(g, a, eta(g, a, x.aut)).aut == x.aut
            mat = eta(g, a, x.aut)
            n, k = za_dims(g, a)
            A = tuple(tuple(mat[i][j] for j in range(n)) for i in range(n))
            assert mat_det(A) in (1, -1)


def test_support_restricted_zero_columns(split):
    # an element whose support misses {c, c^-1, d, d^-1} has zero Y-column
    phi = make_whitehead(split, "a",
                         {"a": W("a b"), "b": W("b"), "c": W("c"),
                          "d": W("d")},
                         {"a": W("a b^-1"), "b": W("b"), "c": W("c"),
                          "d": W("d")})
    S = frozenset({("c", 1), ("c", -1), ("d", 1), ("d", -1)})
    assert not (support(phi) & S)
    mat = eta(split, "a", phi.aut)
    n, k = za_dims(split, "a")
    for i in range(n):
        assert mat[i][n] == 0  # the Y column


def test_enumerate_classic_whitehead_counts(f2, k2, path4):
    cl = enumerate_classic_whitehead(f2)
    assert len(cl) == 13  # identity plus three nontrivial choices per letter
    lr = enumerate_classic_whitehead(k2, long_range_only=True)
    assert len(lr) == 1 and lr[0].aut.is_identity()
    lr_path = enumerate_classic_whitehead(path4, long_range_only=True)
    auts = [w.aut for w in lr_path]
    assert any(x.images["a"] == W("a c") for x in auts)
    assert any(x.images["a"] == W("c a c^-1") for x in auts)
    for w in lr_path:
        assert is_long_range(w) or w.aut.is_identity()
        w.aut._validate()


def test_apply_preserves_arity_and_perm_lengths(split):
    rng = random.Random(9)
    letters = [(v, s) for v in split.vertices for s in (1, -1)]
    tup = class_tuple(split, [tuple(rng.choice(letters) for _ in range(3)),
                              tuple(rng.choice(letters) for _ in range(2))])
    for wh in permutation_automorphisms(split):
        img = wh.aut.apply_to_tuple(tup)
        assert len(img) == len(tup)
        assert img.length == tup.length


def test_inner_witness(split):
    word = W("a b^-1")
    conj = conjugation_by(split, word)
    wit = inner_witness(split, "a", conj)
    from raagaut.core import words_equal
    assert wit is not None and words_equal(split, wit, word)
    phi = make_whitehead(split, "a",
                         {"a": W("a b"), "b": W("b"), "c": W("c"),
                          "d": W("d")},
                         {"a": W("a b^-1"), "b": W("b"), "c": W("c"),
                          "d": W("d")})
    assert inner_witness(split, "a", phi.aut) is None


@pytest.mark.parametrize("graph_name", ["split", "path4", "k3", "nodom6"])
def test_eta_and_inner_witness_depend_only_on_the_class(graph_name, request):
    g = request.getfixturevalue(graph_name)
    rng = random.Random(sum(map(ord, graph_name)))
    inner = 0
    for a in g.vertices:
        cls = sorted(g.adjdom_class(a), key=g.index.get)
        auts = [random_whitehead(g, a, rng).aut for _ in range(10)]
        auts += [conjugation_by(g, tuple(
            (rng.choice(cls), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 3)))) for _ in range(4)]
        for aut in auts:
            wit = inner_witness(g, a, aut)
            inner += wit is not None
            for b in cls:
                assert za_basis(g, b) == za_basis(g, a)
                assert eta(g, b, aut) == eta(g, a, aut)
                assert inner_witness(g, b, aut) == wit
    assert inner >= 4 * len(g.vertices)


def test_membership_checks_raise_input_errors(split, path4):
    ims = {"a": W("a b^-1"), "b": W("b"), "c": W("c"), "d": W("d")}
    inv = {"a": W("a b"), "b": W("b"), "c": W("c"), "d": W("d")}
    assert make_whitehead(split, "a", ims, inv).vertex == "a"
    with pytest.raises(InputError):
        make_whitehead(split, "c", ims, inv)
    # c -> c a: a commutes with b but not with d, so this is no
    # automorphism of path4
    unchecked = classic_whitehead(path4, ("a", 1), {("c", 1)},
                                  _skip_check=True)
    assert unchecked.aut.images["c"] == W("c a")
    with pytest.raises(InputError):
        classic_whitehead(path4, ("a", 1), {("c", 1)})


def test_conjugation_letter_factors(split):
    from raagaut.peak import compose_factors
    word = W("a b^-1 a")
    fs = conjugation_letter_factors(split, word)
    assert compose_factors(split, fs) == conjugation_by(split, word)


def test_theta_shape_error(split):
    bad = ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    with pytest.raises(InputError):
        theta(split, "a", bad)


def test_theta_of_full_matrix_and_of_block_agree(split):
    full = ((0, 1, 2), (1, 0, -1), (0, 0, 1))
    block = BlockMatrix(2, 1, [[0, 1], [1, 0]], [[2], [-1]])
    assert theta(split, "a", full).aut == theta(split, "a", block).aut
    for bad in (((2, 0, 0), (0, 1, 0), (0, 0, 1)),      # det 2
                ((1, 1, 0), (1, -1, 0), (0, 0, 1)),     # det -2
                BlockMatrix(1, 1, [[1]], [[0]]),        # wrong shape
                BlockMatrix(2, 1, [[1, 0], [0, 1]],
                            [[Fraction(1, 2)], [0]])):  # not integral
        with pytest.raises(InputError):
            theta(split, "a", bad)


@pytest.mark.parametrize("graph_name", ["f2", "split", "path4"])
def test_products_reduce_each_image_once(graph_name, request, monkeypatch):
    g = request.getfixturevalue(graph_name)
    rng = random.Random(graph_name)
    x = random_whitehead(g, g.vertices[0], rng).aut
    y = random_whitehead(g, g.vertices[-1], rng).aut
    calls = []
    reduce_word = aut_module.reduce_word

    def counting(graph, word):
        calls.append(word)
        return reduce_word(graph, word)

    monkeypatch.setattr(aut_module, "reduce_word", counting)
    xy = x.compose(y)
    assert len(calls) == 2 * len(g.vertices)
    del calls[:]
    assert xy.invert().compose(xy).is_identity()
    assert len(calls) == 2 * len(g.vertices)
    del calls[:]
    x.invert()
    identity_automorphism(g)
    assert calls == []


def test_automorphism_json_round_trip(split):
    phi = aut_from(split, {"a": "a b^-1", "b": "b", "c": "c", "d": "d"},
                   {"a": "a b", "b": "b", "c": "c", "d": "d"})
    again = Automorphism.from_json(split, phi.to_json())
    assert again == phi


@pytest.mark.parametrize("graph_name", ["f2", "k3", "split", "path4",
                                        "nodom6"])
def test_permutation_automorphisms_are_exact_by_construction(
        graph_name, request, monkeypatch):
    # P is built without reducing or checking anything, and every element
    # is the validated constructor's automorphism, maps in the same order
    g = request.getfixturevalue(graph_name)
    calls = []
    reduce_word = aut_module.reduce_word
    monkeypatch.setattr(aut_module, "reduce_word",
                        lambda graph, word: calls.append(word) or
                        reduce_word(graph, word))
    perms = [p.aut for p in permutation_automorphisms(g)]
    assert calls == []
    monkeypatch.setattr(aut_module, "reduce_word", reduce_word)
    gens = [wh.aut for wh in laurence_generators(g) if wh.aut.is_permutation()]
    assert len(perms) == len(graph_symmetries(g)) * 2 ** len(g.vertices)
    assert len(set(perms)) == len(perms)
    for aut in perms + gens:
        aut._validate()
        checked = Automorphism(g, aut.images, aut.inverse_images)
        assert checked == aut
        assert list(checked.images.items()) == list(aut.images.items())
        assert (list(checked.inverse_images.items()) ==
                list(aut.inverse_images.items()))
    assert set(gens) <= set(perms)
