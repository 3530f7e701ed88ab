import random

import pytest

from raagaut.aut import eta, identity_automorphism, laurence_generators
from raagaut.core import class_tuple, parse_word
from raagaut.errors import InputError
from raagaut.linalg import evaluate_word, g1_orbit_decide
from raagaut.syllables import decompose, nu_matrix
from raagaut.whorbit import (parse_support, wh_orbit_decide,
                             wh_stabilizer_presentation,
                             zero_columns_from_support)

from .decompositions import decomposition_from_words

W = parse_word


def test_running_example_orbit(split):
    U = class_tuple(split, [W("c a c b c b")])
    V = class_tuple(split, [W("c b c a b c b")])
    wh = wh_orbit_decide(split, "a", frozenset(), U, V)
    assert wh is not None
    assert wh.aut.apply_to_tuple(U) == V


def test_chosen_decompositions_not_directly_equivalent(split):
    T = decomposition_from_words(split, "a",
                                 [[W("c a c"), W("c b c"), W("c b c")]])
    Tp = decomposition_from_words(split, "a",
                                  [[W("c b c"), W("c a b c"), W("c b c")]])
    cert = g1_orbit_decide(nu_matrix(T), nu_matrix(Tp), 2, 1)
    assert cert.witness is None


def test_orbit_identity_case(split):
    U = class_tuple(split, [W("c a c b c b")])
    wh = wh_orbit_decide(split, "a", frozenset(), U, U)
    assert wh is not None and wh.aut.apply_to_tuple(U) == U


def test_orbit_count_mismatch(split):
    U = class_tuple(split, [W("c a c b c b")])
    V = class_tuple(split, [W("c a c b c")])
    assert wh_orbit_decide(split, "a", frozenset(), U, V) is None


def test_support_restriction_letters(split):
    S = parse_support(split, "c,c^-1")
    assert S == frozenset({("c", 1), ("c", -1)})
    cols = zero_columns_from_support(split, "a", S)
    # the only non-class basis element is the component, which meets S
    assert cols == frozenset({0})
    with pytest.raises(InputError):
        zero_columns_from_support(split, "a", frozenset({("b", 1)}))


def test_support_restricted_orbit(path4):
    # moving a requires support at a; forbidding it kills the witness
    U = class_tuple(path4, [W("a d")])
    alpha_images = {"a": W("a c"), "b": W("b"), "c": W("c"),
                    "d": W("c^-1 d")}
    from raagaut.aut import Automorphism
    alpha = Automorphism(path4, alpha_images,
                         {"a": W("a c^-1"), "b": W("b"), "c": W("c"),
                          "d": W("c d")})
    V = alpha.apply_to_tuple(class_tuple(path4, [W("a a d")]))
    U2 = class_tuple(path4, [W("a a d")])
    found = wh_orbit_decide(path4, "c", frozenset(), U2, V)
    assert found is not None
    blocked = wh_orbit_decide(path4, "c", frozenset({("a", 1), ("a", -1)}),
                              U2, V)
    assert blocked is None


def brute_force_reachable(g, a, U, max_len, depth=4):
    """BFS over applications of the multiplier-class Laurence generators."""
    gens = [w for w in laurence_generators(g)
            if w.vertex is not None
            and g.adjdom_class(w.vertex) == g.adjdom_class(a)]
    gens = gens + [w.invert() for w in gens]
    seen = {U}
    frontier = [U]
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for wh in gens:
                img = wh.aut.apply_to_tuple(cur)
                if img.length <= max_len and img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def test_completeness_against_bruteforce(f2, split):
    rng = random.Random(5)
    for g in (f2, split):
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        for _ in range(10):
            a = rng.choice(g.vertices)
            words = [tuple(rng.choice(letters)
                           for _ in range(rng.randint(1, 3)))]
            U = class_tuple(g, words)
            reach = brute_force_reachable(g, a, U, U.length + 2, depth=3)
            same_length = [V for V in reach if V.length == U.length]
            for V in same_length:
                wh = wh_orbit_decide(g, a, frozenset(), U, V)
                assert wh is not None, (a, U, V)
                assert wh.aut.apply_to_tuple(U) == V


def test_soundness_on_negative_pairs(f2):
    # distinct letters are not Whitehead-equivalent within one multiplier
    U = class_tuple(f2, [W("a")])
    V = class_tuple(f2, [W("b")])
    assert wh_orbit_decide(f2, "a", frozenset(), U, V) is None


def test_stabilizer_swap_example(split):
    U = class_tuple(split, [W("c a c b")])
    pres, ctx = wh_stabilizer_presentation(split, "a", frozenset(), U)
    swap = None
    for name, wh in pres.generators:
        if wh.aut.images["a"] == W("b") and wh.aut.images["b"] == W("a"):
            swap = wh
    assert swap is not None
    # the swap fixes the class but moves the decomposition's image
    d = decompose(split, "a", U)
    mat = eta(split, "a", swap.aut)
    nuT = nu_matrix(d)
    moved = tuple(tuple(sum(mat[i][t] * nuT[t][j] for t in range(len(nuT)))
                        for j in range(len(nuT[0])))
                  for i in range(len(mat)))
    assert moved != nuT
    assert swap.aut.apply_to_tuple(U) == U


def test_stabilizer_generators_fix_and_relators_trivial(split):
    U = class_tuple(split, [W("c a c b c b")])
    pres, ctx = wh_stabilizer_presentation(split, "a", frozenset(), U)
    payloads = {nm: wh.aut for nm, wh in pres.generators}
    for nm, wh in pres.generators:
        assert wh.aut.apply_to_tuple(U) == U
    ident = identity_automorphism(split)
    for rel in pres.relators:
        val = evaluate_word(rel, payloads, lambda x, y: x.compose(y),
                            lambda x: x.invert(), ident)
        assert val.is_identity()


@pytest.mark.parametrize("text,n_generators,n_relators", [
    ("c b a^-1 d d d", 19, 54), ("b^-1 a d^-1 d^-1 d^-1 c", 19, 53)])
def test_stabilizer_schreier_component_of_the_normal_form_coset(
        path4, text, n_generators, n_relators):
    """The matrix stabilizer's Schreier component is the one of the coset
    Q G1 of the normal form N = Q A.  On these tuples the residue of Q^-1
    has another stabilizer, and building on it gave non-integral
    generators."""
    U = class_tuple(path4, [W(text)])
    pres, _ = wh_stabilizer_presentation(path4, "c", frozenset(), U)
    assert (len(pres.generators), len(pres.relators)) == (n_generators,
                                                          n_relators)
    for nm, wh in pres.generators:
        assert wh.aut.apply_to_tuple(U) == U


def test_stabilizer_rewrite_roundtrip(split):
    U = class_tuple(split, [W("c a c b")])
    pres, rewrite = wh_stabilizer_presentation(split, "a", frozenset(), U)
    payloads = {nm: wh for nm, wh in pres.generators}
    rng = random.Random(11)
    names = [nm for nm, _ in pres.generators]
    from raagaut.aut import compose_gw
    for _ in range(10):
        word = [(rng.choice(names), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 4))]
        elem = None
        for nm, s in word:
            wh = payloads[nm] if s > 0 else payloads[nm].invert()
            elem = wh if elem is None else compose_gw(wh, elem)
        back = rewrite(elem.aut)
        val = evaluate_word(back, {nm: wh.aut for nm, wh in payloads.items()
                                   },
                            lambda x, y: x.compose(y),
                            lambda x: x.invert(),
                            identity_automorphism(split))
        assert val == elem.aut


def test_master_tuple_stabilizer_inner(split):
    # all length-one classes and all non-commuting length-two classes
    words = [W("a"), W("b"), W("c"), W("d")]
    pairs = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    words += [W("%s %s" % p) for p in pairs]
    U = class_tuple(split, words)
    pres, ctx = wh_stabilizer_presentation(split, "a", frozenset(), U)
    from raagaut.aut import inner_witness
    for nm, wh in pres.generators:
        assert wh.aut.is_identity() or \
            inner_witness(split, "a", wh.aut) is not None


def test_complete_graph_abelian_case(k2):
    # on a complete graph the class part is everything: k = 0 throughout
    from raagaut.aut import za_dims
    assert za_dims(k2, "a") == (2, 0)
    U = class_tuple(k2, [W("a")])
    V = class_tuple(k2, [W("b")])
    wh = wh_orbit_decide(k2, "a", frozenset(), U, V)
    assert wh is not None and wh.aut.apply_to_tuple(U) == V
    wh2 = wh_orbit_decide(k2, "a", frozenset(),
                          class_tuple(k2, [W("a a b")]),
                          class_tuple(k2, [W("a b b")]))
    assert wh2 is not None
    pres, ctx = wh_stabilizer_presentation(k2, "a", frozenset(),
                                           class_tuple(k2, [W("a b")]))
    for nm, g in pres.generators:
        assert g.aut.apply_to_tuple(class_tuple(k2, [W("a b")])) == \
            class_tuple(k2, [W("a b")])
