import pathlib
import random

import pytest

import raagaut.aut as aut_module
import raagaut.core as core_module
import raagaut.peak as peak_module

from raagaut.aut import (Automorphism, GenWhitehead, classic_whitehead,
                         enumerate_classic_whitehead, identity_automorphism,
                         inversion, is_long_range, laurence_generators,
                         make_whitehead, permutation_automorphisms, support,
                         theta, za_basis)
from raagaut.core import DefiningGraph, class_tuple, parse_tuple, parse_word
from raagaut.errors import InputError
from raagaut.peak import (Factorization, classic_factor_list,
                          classic_length_change, compose_factors,
                          complement_classic, find_peak_position, lower_peak,
                          long_range_peak_reduce, move_universe,
                          omega_factorization, intermediate_tuples, pcount,
                          peak_reduce, shorter_factors, steinberg_conjugate,
                          verify_lowering)

from .oracles import recompute_rewrite_loop

W = parse_word


def random_whitehead(g, a, rng, maxexp=2):
    basis = za_basis(g, a)
    n = len(g.adjdom_class(a))
    dim = len(basis)
    A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-1, 1)
            for col in range(n):
                A[i][col] += q * A[j][col]
    if rng.random() < 0.3:
        A[0] = [-x for x in A[0]]
    M = [[0] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            M[i][j] = A[i][j]
    for j in range(n, dim):
        M[j][j] = 1
        for i in range(n):
            M[i][j] = rng.randint(-maxexp, maxexp)
    return theta(g, a, tuple(map(tuple, M)))


def random_tuple(g, rng, maxlen=4, arity=(1, 2)):
    letters = [(v, s) for v in g.vertices for s in (1, -1)]
    words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, maxlen)))
             for _ in range(rng.randint(*arity))]
    return class_tuple(g, words)


def find_peak(g, a, b, rng, tries=500):
    """A peak (V, alpha, beta) with alpha, beta random elements of the
    Whitehead groups of [a] and [b], or None."""
    for _ in range(tries):
        al = random_whitehead(g, a, rng)
        be = random_whitehead(g, b, rng)
        if al.aut.is_identity() or be.aut.is_identity():
            continue
        Wt = random_tuple(g, rng)
        for cand in (al.aut.invert().apply_to_tuple(Wt),
                     be.aut.invert().apply_to_tuple(Wt), Wt,
                     al.aut.apply_to_tuple(Wt)):
            la = al.aut.apply_to_tuple(cand).length
            lb = be.aut.apply_to_tuple(cand).length
            if la <= cand.length >= lb and (la < cand.length
                                            or lb < cand.length):
                return cand, al, be
    return None


def checked_lowering(g, peak):
    """``lower_peak``'s lowering of a peak (V, alpha, beta), checked as
    ``rewrite_loop`` checks every lowering."""
    V, alpha, beta = peak
    low = lower_peak(g, V, alpha, beta)
    verify_lowering(g, low, V, alpha, beta, alpha.aut.apply_to_tuple(V))
    return low


# -- pcount and length change -------------------------------------------------

def test_pcount_hand_example(f2):
    # skeleton of the cyclic word a b is (a, b): pairs (a,b) and (b,a)
    Wt = class_tuple(f2, [W("a b")])
    # pair (b, a): x = b in A, y^-1 = a^-1 in B
    assert pcount(f2, Wt, "a", {("b", 1)}, {("a", -1)}) == 1
    # no pair matches ({b}, {b^-1}): (a,b) misses A, (b,a) misses B
    assert pcount(f2, Wt, "a", {("b", 1)}, {("b", -1)}) == 0
    # both forms can match one pair: A = B = all letters doubles the count
    both = pcount(f2, Wt, "a",
                  {("a", 1), ("a", -1), ("b", 1), ("b", -1)},
                  {("a", 1), ("a", -1), ("b", 1), ("b", -1)})
    assert both == 4


def test_pcount_empty_set(f2):
    Wt = class_tuple(f2, [W("a b a b")])
    assert pcount(f2, Wt, "a", set(), {("b", 1)}) == 0


def test_pcount_additivity(f2, split):
    rng = random.Random(31)
    letters = lambda g: [(v, s) for v in g.vertices for s in (1, -1)]
    for g in (f2, split):
        L = letters(g)
        for _ in range(50):
            Wt = random_tuple(g, rng, maxlen=5)
            c = rng.choice(g.vertices)
            pool = [l for l in L]
            rng.shuffle(pool)
            cut = rng.randrange(len(pool))
            A1, A2 = set(pool[:cut]), set(pool[cut:])
            B = set(rng.sample(pool, rng.randint(0, len(pool))))
            assert pcount(g, Wt, c, A1 | A2, B) == \
                pcount(g, Wt, c, A1, B) + pcount(g, Wt, c, A2, B)


def test_pcount_representative_independence(split):
    # counts on the canonical representative agree with counts on a
    # rotated/commuted representative, computed via a fresh class
    rng = random.Random(32)
    for _ in range(25):
        Wt = random_tuple(split, rng, maxlen=5, arity=(1, 1))
        word = Wt.entries[0].word
        if not word:
            continue
        r = rng.randrange(len(word))
        rotated = word[r:] + word[:r]
        Wt2 = class_tuple(split, [rotated])
        assert Wt2 == Wt
        c = rng.choice(split.vertices)
        comps = split.components_outside_star(c)
        blocks = [frozenset((v, s) for v in comp for s in (1, -1))
                  for comp in comps]
        dom_letters = [(v, s) for v in split.dom(c) if v not in
                       split.star(c) for s in (1, -1)]
        pool = list(blocks) + [frozenset({l}) for l in dom_letters]
        A = frozenset().union(*rng.sample(pool, rng.randint(0, len(pool)))) \
            if pool else frozenset()
        B = frozenset().union(*rng.sample(pool, rng.randint(0, len(pool)))) \
            if pool else frozenset()
        assert pcount(split, Wt, c, A, B) == pcount(split, Wt2, c, A, B)


def test_classic_length_change_identity(f2):
    ident = enumerate_classic_whitehead(f2)[0]
    assert ident.aut.is_identity()
    Wt = class_tuple(f2, [W("a b")])
    # identity is permutation-tagged; use a trivial classic instead
    tr = classic_whitehead(f2, ("a", 1), set())
    assert classic_length_change(f2, tr, Wt) == 0


def test_classic_length_change_direct_small(f2):
    Wt = class_tuple(f2, [W("a b a b^-1")])
    for wh in enumerate_classic_whitehead(f2, long_range_only=True):
        if wh.classic is None:
            continue
        direct = Wt.length - wh.aut.apply_to_tuple(Wt).length
        assert classic_length_change(f2, wh, Wt) == direct


def test_classic_length_change_random(f2, k2, split, path4):
    rng = random.Random(33)
    checked = 0
    while checked < 200:
        g = rng.choice((f2, k2, split, path4))
        moves = [w for w in enumerate_classic_whitehead(
            g, long_range_only=True) if w.classic is not None]
        if not moves:
            continue
        wh = rng.choice(moves)
        Wt = random_tuple(g, rng, maxlen=6)
        direct = Wt.length - wh.aut.apply_to_tuple(Wt).length
        assert classic_length_change(g, wh, Wt) == direct
        checked += 1


def test_classic_length_change_exhaustive_short(f2):
    from itertools import product
    letters = [(v, s) for v in f2.vertices for s in (1, -1)]
    moves = [w for w in enumerate_classic_whitehead(f2, long_range_only=True)
             if w.classic is not None]
    for n in range(1, 5):
        for word in product(letters, repeat=n):
            Wt = class_tuple(f2, [word])
            for wh in moves:
                direct = Wt.length - wh.aut.apply_to_tuple(Wt).length
                assert classic_length_change(f2, wh, Wt) == direct


def test_classic_records_rebuild_their_moves(f2, k3, split, path4, nodom6):
    """Every classic record, of a move and of its inverse, rebuilds the move
    through ``classic_whitehead``, and the counting bracket of an inverted
    long-range move is its length change."""
    rng = random.Random(37)
    for g in (f2, k3, split, path4, nodom6):
        moves = [wh for wh in enumerate_classic_whitehead(g)
                 + enumerate_classic_whitehead(g, long_range_only=True)
                 + laurence_generators(g) if wh.classic is not None]
        assert moves
        for wh in moves:
            for x in (wh, wh.invert()):
                assert classic_whitehead(g, *x.classic).aut == x.aut
        long_range = [wh for wh in moves if is_long_range(wh)]
        if not long_range:      # k3 is complete: no move is long-range
            continue
        for _ in range(60):
            wh = rng.choice(long_range)
            Wt = random_tuple(g, rng, maxlen=6)
            direct = Wt.length - wh.aut.invert().apply_to_tuple(Wt).length
            assert classic_length_change(g, wh.invert(), Wt) == direct


def test_classic_length_change_rejects_short_range_moves(k3, path4):
    for g in (k3, path4):
        short = [wh for wh in enumerate_classic_whitehead(g)
                 + laurence_generators(g)
                 if wh.classic is not None and not is_long_range(wh)]
        assert short
        Wt = class_tuple(g, [W("a b c")])
        for wh in short:
            with pytest.raises(InputError):
                classic_length_change(g, wh, Wt)


# -- Steinberg relations ------------------------------------------------------

def test_steinberg_disjoint_case_fixes(split):
    # alpha in Wh[a] moving only c, beta in Wh[c] moving only a is not
    # admissible; use supports on different components instead
    alpha = make_whitehead(split, "a",
                           {"a": W("a"), "b": W("b"), "c": W("a c a^-1"),
                            "d": W("a d a^-1")},
                           {"a": W("a"), "b": W("b"), "c": W("a^-1 c a"),
                            "d": W("a^-1 d a")})
    beta = make_whitehead(split, "c",
                          {"a": W("a"), "b": W("b"), "c": W("c"),
                           "d": W("d c")},
                          {"a": W("a"), "b": W("b"), "c": W("c"),
                           "d": W("d c^-1")})
    # beta moves d which lies in alpha's support: hypotheses fail
    with pytest.raises(InputError):
        steinberg_conjugate(alpha, beta)


def test_steinberg_adjacent_case(path4):
    # multipliers b and c are adjacent
    alpha = make_whitehead(path4, "c",
                           {"a": W("a c"), "b": W("b"), "c": W("c"),
                            "d": W("d")},
                           {"a": W("a c^-1"), "b": W("b"), "c": W("c"),
                            "d": W("d")})
    beta = make_whitehead(path4, "b",
                          {"a": W("a b"), "b": W("b"), "c": W("c"),
                           "d": W("d")},
                          {"a": W("a b^-1"), "b": W("b"), "c": W("c"),
                           "d": W("d")})
    gamma = steinberg_conjugate(alpha, beta)
    assert gamma.aut == alpha.aut.compose(beta.aut).compose(
        alpha.aut.invert())


def test_steinberg_conjugate_checks_membership(path4):
    # beta is recorded in the group of [b], but a -> a c lies outside it;
    # the hypotheses hold (b and a are adjacent, alpha fixes b), so only the
    # membership check of the conjugate rejects the pair
    alpha = GenWhitehead(identity_automorphism(path4), "a")
    outside = Automorphism(path4, {"a": W("a c"), "b": W("b"), "c": W("c"),
                                   "d": W("d")},
                           {"a": W("a c^-1"), "b": W("b"), "c": W("c"),
                            "d": W("d")})
    with pytest.raises(InputError):
        steinberg_conjugate(alpha, GenWhitehead(outside, "b"))


def test_steinberg_length_law(path4, split):
    rng = random.Random(34)
    graphs = (path4, split)
    checked = 0
    while checked < 100:
        g = rng.choice(graphs)
        a, b = rng.sample(list(g.vertices), 2)
        if g.adjdom_class(a) == g.adjdom_class(b):
            continue
        alpha = random_whitehead(g, a, rng)
        beta = random_whitehead(g, b, rng)
        from raagaut.peak import fixes_class_pointwise
        if not fixes_class_pointwise(alpha, g.adjdom_class(b)):
            continue
        if not g.adjacent(a, b):
            if support(alpha) & support(beta):
                continue
            if not fixes_class_pointwise(beta, g.adjdom_class(a)):
                continue
        gamma = steinberg_conjugate(alpha, beta)
        Wt = random_tuple(g, rng, maxlen=4)
        lhs = Wt.length - beta.aut.apply_to_tuple(Wt).length
        ab = alpha.aut.compose(beta.aut).apply_to_tuple(Wt).length
        rhs = alpha.aut.apply_to_tuple(Wt).length - ab
        assert lhs == rhs
        if not g.adjacent(a, b):
            assert gamma.aut == beta.aut
        checked += 1


# -- complements and shorter factors ------------------------------------------

def test_complement_classic(f2):
    tr = classic_whitehead(f2, ("a", 1), {("b", 1)})
    comp = complement_classic(f2, tr)
    assert comp.classic[0] == ("a", -1)
    assert comp.classic[1] == {("b", -1)}
    Wt = class_tuple(f2, [W("a b a b")])
    assert comp.aut.apply_to_tuple(Wt) == tr.aut.apply_to_tuple(Wt)


def test_shorter_factors_disjoint_gives_trivial_alpha1(path4):
    # c dominates a non-adjacently on the path graph
    alpha = classic_whitehead(path4, ("a", 1), set())
    beta = classic_whitehead(path4, ("c", 1), {("a", 1)})
    Wt = class_tuple(path4, [W("a d a c")])
    alpha1, beta1 = shorter_factors(path4, Wt, alpha, beta)
    assert alpha1.aut.is_identity()


@pytest.fixture
def asym5():
    """b dominates a non-adjacently, not conversely; both dominate c."""
    return DefiningGraph(["a", "b", "c", "p", "e"],
                         [["a", "p"], ["b", "p"], ["c", "p"], ["b", "e"]])


def test_shorter_factors_inequality_random(asym5):
    rng = random.Random(35)
    g = asym5
    assert g.dominates("b", "a") and not g.dominates("a", "b")
    moves_a = [w for w in enumerate_classic_whitehead(g, long_range_only=True)
               if w.classic is not None and w.classic[0] == ("a", 1)
               and w.aut.images["b"] == W("b")]
    moves_b = [w for w in enumerate_classic_whitehead(g, long_range_only=True)
               if w.classic is not None and w.classic[0][0] == "b"
               and ("a", 1) in w.classic[1]]
    assert moves_a and moves_b
    checked = 0
    while checked < 40:
        alpha = rng.choice(moves_a)
        beta = rng.choice(moves_b)
        Wt = random_tuple(g, rng, maxlen=5)
        alpha1, beta1 = shorter_factors(g, Wt, alpha, beta)
        lhs = (Wt.length - beta1.aut.apply_to_tuple(Wt).length) + \
            (Wt.length - alpha1.aut.apply_to_tuple(Wt).length)
        rhs = (Wt.length - beta.aut.apply_to_tuple(Wt).length) + \
            (Wt.length - alpha.aut.apply_to_tuple(Wt).length)
        assert lhs >= rhs
        checked += 1


# -- lowering ------------------------------------------------------------------

def test_lower_peak_same_class_single_factor(split):
    rng = random.Random(36)
    p = find_peak(split, "a", "b", rng)
    assert p is not None  # same multiplier class {a, b}
    F = checked_lowering(split, p)
    assert len(F) <= 1


def test_lower_peak_permutation_case(f2):
    swap = [w for w in permutation_automorphisms(f2)
            if w.aut.images["a"] == W("b")][0]
    tr = make_whitehead(f2, "a",
                        {"a": W("a"), "b": W("b a")},
                        {"a": W("a"), "b": W("b a^-1")})
    Wt = tr.aut.invert().apply_to_tuple(class_tuple(f2, [W("b")]))
    heights = [swap.aut.apply_to_tuple(Wt).length, Wt.length,
               tr.aut.apply_to_tuple(Wt).length]
    assert find_peak_position(heights) == 1
    checked_lowering(f2, (Wt, swap, tr))


@pytest.mark.parametrize("pair", [("a", "c"), ("a", "d"), ("b", "c"),
                                  ("b", "d")])
def test_lower_peak_path_graph_pairs(path4, pair):
    rng = random.Random(" ".join(pair))
    lowered = 0
    for _ in range(6):
        p = find_peak(path4, pair[0], pair[1], rng, tries=300)
        if p is None:
            continue
        checked_lowering(path4, p)
        lowered += 1
    assert lowered > 0 or pair == ("a", "d")  # tiny groups may lack peaks


def test_lower_peak_nodom(nodom6):
    rng = random.Random(37)
    lowered = 0
    for _ in range(8):
        p = find_peak(nodom6, "a", "b", rng, tries=600)
        if p is None:
            continue
        checked_lowering(nodom6, p)
        lowered += 1
    assert lowered >= 4


def test_lower_peak_bothdom(f2, split):
    rng = random.Random(38)
    for g, pair in ((f2, ("a", "b")), (split, ("a", "c"))):
        lowered = 0
        for _ in range(6):
            p = find_peak(g, pair[0], pair[1], rng, tries=400)
            if p is None:
                continue
            checked_lowering(g, p)
            lowered += 1
        assert lowered >= 3


# -- classic factor lists and long-range reduction ------------------------------

def test_classic_factor_list_roundtrip(split, path4):
    rng = random.Random(39)
    for g in (split, path4):
        for a in g.vertices:
            for _ in range(10):
                wh = random_whitehead(g, a, rng)
                from raagaut.aut import is_long_range
                if not is_long_range(wh):
                    continue
                fac = classic_factor_list(wh)
                assert compose_factors(g, fac) == wh.aut


def test_long_range_reduce_identity(f2):
    out = long_range_peak_reduce(g=f2, factors=[],
                                 W=class_tuple(f2, [W("a")]))
    assert out == []


def test_long_range_reduce_classic_oracle_case(f2):
    # a -> ab against the class of a: the classic algorithm shortens first
    tr = make_whitehead(f2, "b",
                        {"a": W("a b"), "b": W("b")},
                        {"a": W("a b^-1"), "b": W("b")})
    base = class_tuple(f2, [W("a b")])
    fac = long_range_peak_reduce(f2, [tr], base)
    prof = Factorization(fac, base).profile
    assert compose_factors(f2, fac) == tr.aut
    # unimodal
    assert Factorization(fac, base).is_unimodal()


# -- the full driver -----------------------------------------------------------

def test_example_fixed_class_constant_profile(path4):
    for k in range(1, 6):
        ims = {"a": W("a" + " c" * k), "b": W("b"), "c": W("c"),
               "d": W("c^-1 d")}
        inv = {"a": W("a" + " c^-1" * k), "b": W("b"), "c": W("c"),
               "d": W("c d")}
        alpha = Automorphism(path4, ims, inv)
        Wt = class_tuple(path4, [W("a" + " d" * k)])
        assert alpha.apply_to_tuple(Wt) == Wt
        factors = omega_factorization(path4, alpha)
        fac = peak_reduce(path4, factors, Wt)
        assert all(x == fac.profile[0] for x in fac.profile)
        assert compose_factors(path4, fac.factors) == alpha


def test_peak_reduce_identity(f2):
    fac = peak_reduce(f2, [], class_tuple(f2, [W("a")]))
    assert fac.factors == []


def test_peak_reduce_unimodal_random(f2, k2, split, path4):
    rng = random.Random(40)
    graphs = (f2, k2, split, path4)
    done = 0
    while done < 50:
        g = graphs[done % 4]
        gens = laurence_generators(g)
        factors = []
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(gens)
            if rng.random() < 0.5:
                w = w.invert()
            factors.append(w)
        Wt = random_tuple(g, rng, maxlen=6)
        original = compose_factors(g, factors)
        fac = peak_reduce(g, factors, Wt)
        assert fac.is_unimodal()
        got = compose_factors(g, fac.factors) if fac.factors else \
            identity_automorphism(g)
        assert got == original
        done += 1


def test_peak_reduce_adversarial_base(split, path4):
    # choose W so the composition ends low, forcing interior peaks
    rng = random.Random(41)
    for g in (split, path4):
        for _ in range(10):
            gens = laurence_generators(g)
            factors = [rng.choice(gens) for _ in range(rng.randint(2, 4))]
            short = random_tuple(g, rng, maxlen=2)
            comp = compose_factors(g, factors)
            Wt = comp.invert().apply_to_tuple(short)
            fac = peak_reduce(g, factors, Wt)
            assert fac.is_unimodal()
            assert compose_factors(g, fac.factors) == comp


def test_factorization_profile_consistency(f2):
    tr = make_whitehead(f2, "b",
                        {"a": W("a b"), "b": W("b")},
                        {"a": W("a b^-1"), "b": W("b")})
    base = class_tuple(f2, [W("a")])
    fac = Factorization([tr], base)
    assert fac.profile == [1, 2]
    data = fac.to_json()
    assert data["profile"] == [1, 2]
    assert len(data["factors"]) == 1


def test_lower_peak_soak_all_pairs(f2, split, path4, nodom6):
    asym5 = DefiningGraph(["a", "b", "c", "p", "e"],
                          [["a", "p"], ["b", "p"], ["c", "p"], ["b", "e"]])
    rng = random.Random(71)
    graphs = (f2, split, path4, nodom6, asym5)
    lowered = 0
    for g in graphs:
        for a in g.vertices:
            for b in g.vertices:
                hits = 0
                for _ in range(3):
                    p = find_peak(g, a, b, rng, tries=120)
                    if p is None:
                        continue
                    checked_lowering(g, p)
                    hits += 1
                    lowered += 1
    assert lowered >= 60


def test_peak_reduce_longer_products(split, path4, nodom6):
    rng = random.Random(72)
    for g in (split, path4, nodom6):
        gens = laurence_generators(g)
        for _ in range(6):
            factors = []
            for _ in range(rng.randint(4, 6)):
                w = rng.choice(gens)
                if rng.random() < 0.5:
                    w = w.invert()
                factors.append(w)
            short = random_tuple(g, rng, maxlen=2)
            comp = compose_factors(g, factors)
            Wt = comp.invert().apply_to_tuple(short)
            fac = peak_reduce(g, factors, Wt)
            assert fac.is_unimodal()
            assert compose_factors(g, fac.factors) == comp


def series_peak_instances(monkeypatch, g):
    """The fixed-seed instances of the benchmark's peak scaling series
    (``bench/series.py``): a two-class tuple on the running example and a
    product of Laurence generators, as (W, factors)."""
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    import raag
    import series
    import workloads
    gens = raag.laurence_generators(raag.SPLIT)
    out = []
    for i in range(series.PEAK_INSTANCES):
        prng = random.Random("series-peak-%d" % i)
        Wb = workloads.random_tuple(raag.SPLIT, prng, 2, series.PEAK_LENGTH)
        picks = [(prng.randrange(len(gens)), prng.choice((1, -1)))
                 for _ in range(max(series.PEAK_FACTORS))]
        factors = []
        for k, sign in picks:
            f = gens[k] if sign > 0 else gens[k].invert()
            factors.extend(omega_factorization(
                g, Automorphism.from_json(g, f.to_json())))
        out.append((parse_tuple(g, raag.format_tuple(Wb)), factors))
    return out


def test_peak_splice_keeps_the_intermediate_tuples(monkeypatch, split):
    """After every lowering the spliced tuple list is the whole list
    recomputed, and peak_reduce answers as the loop that recomputes it."""
    splice = peak_module.splice_lowering
    steps = []

    def checked(factors, tuples, pos, low, images):
        splice(factors, tuples, pos, low, images)
        assert tuples == intermediate_tuples(factors, base)
        steps.append(pos)

    monkeypatch.setattr(peak_module, "splice_lowering", checked)

    def lower(V, alpha, beta):
        return lower_peak(split, V, alpha, beta)

    for base, factors in series_peak_instances(monkeypatch, split):
        for n in (2, 4, 6, 8):
            fac = peak_reduce(split, factors[:n], base)
            ref = recompute_rewrite_loop(split, factors[:n], base, lower)
            assert [f.aut.key() for f in fac.factors] == \
                [f.aut.key() for f in ref]
            assert fac.profile == Factorization(ref, base).profile
    assert steps


def counted(monkeypatch, name):
    """Replace the peak module's ``name`` by a wrapper that records its
    calls; returns the list of recorded calls."""
    calls = []
    fn = getattr(peak_module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(peak_module, name, wrapper)
    return calls


def classic_peak_pairs(g, Wt):
    """[m1, m2] for each classic move m1 that lengthens Wt and each move m2,
    other than m1^-1, that shortens m1 Wt again: a factor list whose
    profile has a peak in the middle."""
    moves, _ = move_universe(g)
    pairs = []
    for m1 in moves:
        V = m1.aut.apply_to_tuple(Wt)
        if V.length <= Wt.length:
            continue
        pairs += [[m1, m2] for m2 in moves
                  if m2.aut.apply_to_tuple(V).length < V.length
                  and m2.aut != m1.aut.invert()]
    return pairs


def test_verify_lowering_runs_once_per_lowering(monkeypatch, split, f2):
    """Every lowering is checked exactly once: by the ``rewrite_loop`` that
    splices it in, including the loops nested inside a lowering.  The peak
    series instances on split exercise ``peak_reduce``; every classic
    long-range move on split keeps every length, so the classic lowerings of
    ``long_range_peak_reduce`` are counted on F2 peaks."""
    verified = counted(monkeypatch, "verify_lowering")
    spliced = counted(monkeypatch, "splice_lowering")
    classic = counted(monkeypatch, "lower_classic_peak")
    for base, factors in series_peak_instances(monkeypatch, split):
        for n in (2, 4, 6, 8):
            peak_reduce(split, factors[:n], base)
    assert spliced and not classic
    assert len(verified) == len(spliced)

    Wt = class_tuple(f2, [W("a b a b^-1 a^-1 b b")])
    pairs = classic_peak_pairs(f2, Wt)
    assert pairs
    for reduce in (long_range_peak_reduce, peak_reduce):
        del verified[:], spliced[:], classic[:]
        for factors in pairs:
            reduce(f2, factors, Wt)
        assert classic
        assert len(verified) == len(spliced)
        if reduce is long_range_peak_reduce:
            assert len(classic) == len(spliced)
        else:
            assert len(classic) < len(spliced)


def test_peak_reduce_canonicalizes_no_class(monkeypatch, split, f2):
    """Peak heights are cyclic lengths, so ``peak_reduce`` runs no
    conjugacy BFS on the tuples it builds, on the peak series instances and
    on F2 classic peaks; and it answers as it does when every image class
    is canonicalized where it is built."""
    instances = [(split, base, factors[:n]) for base, factors
                 in series_peak_instances(monkeypatch, split)
                 for n in (2, 4, 6, 8)]
    Wt = class_tuple(f2, [W("a b a b^-1 a^-1 b b")])
    instances += [(f2, Wt, pair) for pair in classic_peak_pairs(f2, Wt)]
    calls = []
    canonical = core_module.canonical_class

    def counting(g, word, budget=None):
        calls.append(word)
        return canonical(g, word, budget)

    monkeypatch.setattr(core_module, "canonical_class", counting)

    def answers():
        out = []
        for g, base, factors in instances:
            fac = peak_reduce(g, factors, base)
            out.append(([f.aut.key() for f in fac.factors], fac.profile))
        return out

    lazy = answers()
    assert not calls
    monkeypatch.setattr(aut_module, "conj_class",
                        lambda g, word: core_module.canonical_class(g, word))
    assert answers() == lazy
    assert calls


def wrong_lowerings(g, V, alpha, beta, low):
    """Two lowerings of the peak (V, alpha, beta) that ``verify_lowering``
    must reject: ``low`` followed by an inversion, which composes to the
    wrong element, and the peak itself, whose intermediate is V."""
    v = next(f.vertex for f in (alpha, beta) if f.vertex is not None)
    flip = GenWhitehead(inversion(g, v), v)
    return ((low + [flip], "lowering does not compose to beta\\*alpha\\^-1"),
            ([alpha.invert(), beta], "intermediate at full height"))


@pytest.mark.parametrize("kind", [0, 1])
def test_rewrite_loop_rejects_a_wrong_lower_peak(monkeypatch, split, kind):
    """A wrong lowering from ``lower_peak`` stops ``peak_reduce`` with the
    check's message."""
    lower = peak_module.lower_peak

    def wrong(g, V, alpha, beta):
        low = lower(g, V, alpha, beta)
        bad, message = wrong_lowerings(g, V, alpha, beta, low)[kind]
        wrong.message = message
        return bad

    monkeypatch.setattr(peak_module, "lower_peak", wrong)
    base, factors = series_peak_instances(monkeypatch, split)[0]
    with pytest.raises(AssertionError) as info:
        peak_reduce(split, factors, base)
    assert info.match(wrong.message)


@pytest.mark.parametrize("kind", [0, 1])
def test_rewrite_loop_rejects_a_wrong_classic_lowering(monkeypatch, f2,
                                                        kind):
    """The same for a wrong lowering from ``lower_classic_peak``, under
    ``long_range_peak_reduce``."""
    lower = peak_module.lower_classic_peak

    def wrong(g, V, alpha, beta, moves, index):
        low = lower(g, V, alpha, beta, moves, index)
        bad, message = wrong_lowerings(g, V, alpha, beta, low)[kind]
        wrong.message = message
        return bad

    monkeypatch.setattr(peak_module, "lower_classic_peak", wrong)
    Wt = class_tuple(f2, [W("a b a b^-1 a^-1 b b")])
    with pytest.raises(AssertionError) as info:
        long_range_peak_reduce(f2, classic_peak_pairs(f2, Wt)[0], Wt)
    assert info.match(wrong.message)
