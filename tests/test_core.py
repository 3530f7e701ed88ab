import random
from itertools import product

import pytest

import raagaut.core as core_module

from raagaut.core import (DefiningGraph, canonical_class, class_tuple,
                          conj_class, conjugate_test, cyclically_reduce,
                          enumerate_classes, enumerate_reduced_words,
                          format_word, graph_invariants, inverse_word, lexnf,
                          parse_tuple, parse_word, reduce_word, words_equal)
from raagaut.errors import BudgetError, InputError

from .oracles import (bfs_minimal_length, lexnf_trace_states,
                      quadratic_lexnf, scan_reduce, word_bfs_canonical,
                      word_lexnf)

W = parse_word


def test_reduce_commute_then_cancel(k2):
    assert reduce_word(k2, W("a b a^-1")) == W("b")


def test_reduce_identity(split):
    assert reduce_word(split, ()) == ()


def test_reduce_matches_bfs_oracle_on_random_words(f2, split, path4):
    rng = random.Random(1)
    for g in (f2, split, path4):
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
            red = reduce_word(g, w)
            assert len(red) == bfs_minimal_length(g.adj, w)
            # idempotent and length-nonincreasing
            assert reduce_word(g, red) == red
            assert len(red) <= len(w)


def test_reduce_exhaustive_short_words(split):
    letters = [(v, s) for v in split.vertices for s in (1, -1)]
    for n in range(5):
        for w in product(letters, repeat=n):
            assert len(reduce_word(split, w)) == \
                bfs_minimal_length(split.adj, w)


def test_reduce_cancels_leftmost_reachable_inverse(split):
    # a^-1 reaches both a's; the restart scan deletes the first pair it
    # finds, which starts at the leftmost a
    assert reduce_word(split, W("a b a a^-1")) == W("b a")
    assert reduce_word(split, iter(W("a b a a^-1"))) == W("b a")


@pytest.mark.parametrize("name,max_len", [("f2", 8), ("split", 6),
                                          ("path4", 6)])
def test_reduce_matches_restart_scan_exhaustive(name, max_len, request):
    g = request.getfixturevalue(name)
    letters = [(v, s) for v in g.vertices for s in (1, -1)]
    for n in range(max_len + 1):
        for w in product(letters, repeat=n):
            assert reduce_word(g, w) == scan_reduce(g, w)


def test_reduce_matches_restart_scan_random_graphs():
    rng = random.Random(4)
    for _ in range(2000):
        names = ["v%d" % i for i in range(rng.randint(2, 8))]
        g = DefiningGraph(names, [(u, v) for i, u in enumerate(names)
                                  for v in names[i + 1:]
                                  if rng.random() < 0.5])
        letters = [(v, s) for v in names for s in (1, -1)]
        for _ in range(30):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 60)))
            assert reduce_word(g, w) == scan_reduce(g, w)


def test_unknown_generator_rejected(f2):
    # letters are checked where words are parsed, not by reduce_word
    with pytest.raises(InputError):
        parse_tuple(f2, "a z")
    with pytest.raises(InputError):
        f2.check_letters((("a", 2),))


def test_canonical_class_running_example(split):
    u = canonical_class(split, W("c a c b c b"))
    assert u.length == 6
    v = canonical_class(split, W("c b c a b c b"))
    assert v.length == 7
    assert u != v


def test_canonical_conjugation_invariance(split):
    rng = random.Random(2)
    letters = [(v, s) for v in split.vertices for s in (1, -1)]
    for _ in range(30):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        conj = u + w + inverse_word(u)
        assert canonical_class(split, w) == canonical_class(split, conj)


def test_commuting_generators_same_class(k2):
    assert canonical_class(k2, W("a b")) == canonical_class(k2, W("b a"))


def test_conjugate_test(f2, split):
    assert conjugate_test(f2, W("a b"), W("b a"))
    assert not conjugate_test(f2, W("a"), W("b"))
    assert not conjugate_test(split, W("c a c b c b"), W("c b c a b c b"))


def test_conjugate_test_equivalence_relation(f2):
    rng = random.Random(3)
    letters = [(v, s) for v in f2.vertices for s in (1, -1)]
    sample = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
              for _ in range(12)]
    rel = {(i, j): conjugate_test(f2, sample[i], sample[j])
           for i in range(12) for j in range(12)}
    for i in range(12):
        assert rel[(i, i)]
        for j in range(12):
            assert rel[(i, j)] == rel[(j, i)]
            for k in range(12):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


def test_graph_invariants_split(split):
    inv = graph_invariants(split)
    assert inv["a"]["adjdom_class"] == frozenset({"a", "b"})
    assert inv["a"]["dom"] == frozenset({"a", "b"})
    assert inv["a"]["components_outside_star"] == (frozenset({"c", "d"}),)


def test_graph_invariants_path(path4):
    inv = graph_invariants(path4)
    # b adjacent to c, so c dominates a (every neighbour of a commutes with c)
    assert "a" in inv["c"]["dom"]
    assert inv["a"]["dom"] == frozenset({"a"})


def test_graph_invariants_complete(k3):
    inv = graph_invariants(k3)
    for v in k3.vertices:
        assert inv[v]["components_outside_star"] == ()


def test_adjdom_classes_partition(split, path4, k3):
    for g in (split, path4, k3):
        classes = {g.adjdom_class(v) for v in g.vertices}
        seen = set()
        for cls in classes:
            assert not (cls & seen)
            seen |= cls
            star = None
            for b in cls:
                assert star is None or g.star(b) == star
                star = g.star(b)
        assert seen == set(g.vertices)


def test_lexnf_element_equality(split):
    rng = random.Random(4)
    letters = [(v, s) for v in split.vertices for s in (1, -1)]
    for _ in range(40):
        w = reduce_word(split, tuple(rng.choice(letters)
                                     for _ in range(rng.randint(0, 6))))
        # lexnf is invariant under a random commuting swap
        for i in range(len(w) - 1):
            if w[i][0] != w[i + 1][0] and split.adjacent(w[i][0],
                                                         w[i + 1][0]):
                w2 = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                assert lexnf(split, w) == lexnf(split, w2)
                assert words_equal(split, w, w2)


@pytest.mark.parametrize("name", ["f2", "k3", "split", "path4"])
def test_lexnf_matches_oracle_exhaustive(name, request):
    g = request.getfixturevalue(name)
    for n in range(7):
        for w in enumerate_reduced_words(g, n):
            assert lexnf(g, w) == word_lexnf(g, w), w


@pytest.mark.parametrize("name", ["f2", "k3", "split", "path4"])
def test_canonical_class_matches_oracle_exhaustive(name, request):
    # Conjugate words share a class, so the oracle runs once per rotation
    # class; canonical_class and conj_class run on every word, and a lazy
    # class equals, hashes as and orders as the canonical one.
    g = request.getfixturevalue(name)
    letters = [(v, s) for v in g.vertices for s in (1, -1)]
    memo = {}
    by_rotation = {}
    first = {}
    prev = None
    for n in range(7):
        for w in product(letters, repeat=n):
            rot = min((w[i:] + w[:i] for i in range(n)), default=())
            if rot not in by_rotation:
                by_rotation[rot] = word_bfs_canonical(g, rot, memo)
            canon = canonical_class(g, w)
            lazy = conj_class(g, w)
            assert canon.word == by_rotation[rot], w
            assert lazy.length == len(lazy.rep) == canon.length, w
            assert lazy.word == canon.word, w
            assert lazy == canon and hash(lazy) == hash(canon), w
            other = first.setdefault(canon.word, lazy)
            assert lazy == other and hash(lazy) == hash(other), w
            if prev is not None:
                assert (lazy == prev) == (lazy.word == prev.word), w
                assert (lazy < prev) == ((lazy.length, lazy.word) <
                                         (prev.length, prev.word)), w
            prev = lazy


def test_lexnf_and_canonical_class_match_oracle_random(nodom6):
    rng = random.Random(5)
    letters = [(v, s) for v in nodom6.vertices for s in (1, -1)]
    for _ in range(300):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 20)))
        red = reduce_word(nodom6, w)
        assert lexnf(nodom6, red) == word_lexnf(nodom6, red)
        assert canonical_class(nodom6, w).word == \
            word_bfs_canonical(nodom6, w)


def random_graph(rng):
    n = rng.randint(2, 8)
    vs = ["v%d" % i for i in range(n)]
    rng.shuffle(vs)
    p = rng.random()
    return DefiningGraph(vs, [[vs[i], vs[j]] for i in range(n)
                              for j in range(i + 1, n) if rng.random() < p])


def test_lexnf_matches_quadratic_and_word_oracles_random():
    # 300 graphs with 2 to 8 vertices in a shuffled declared order, 200
    # reduced words of length up to 24 on each
    rng = random.Random(60)
    for _ in range(300):
        g = random_graph(rng)
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        for _ in range(200):
            w = reduce_word(g, [rng.choice(letters)
                                for _ in range(rng.randint(0, 24))])
            assert lexnf(g, w) == quadratic_lexnf(g, w) == \
                word_lexnf(g, w), (g.to_json(), w)


# A cycle of four: {a, b} and {c, d} each generate a free group, and the two
# commute.
C4 = (["a", "b", "c", "d"], [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]])


def test_canonical_class_periodic_projections(split):
    # a and c do not commute: every projection of (a c)^k has period 2; on
    # (a b c d)^m the projections onto {a, c}, {a, d}, {b, c}, {b, d} do
    for k in range(1, 9):
        w = W("a c") * k
        assert canonical_class(split, w).word == word_bfs_canonical(split, w)
    for m in range(1, 7):
        w = W("a b c d") * m
        rot = w[5:] + w[:5]
        assert canonical_class(split, rot).word == \
            word_bfs_canonical(split, rot)


def test_canonical_class_commuting_parts():
    g = DefiningGraph(*C4)
    rng = random.Random(7)
    left = [W("a b a^-1 b^-1"), W("a b") * 2, W("a a b^-1"), W("a")]
    right = [W("c d^-1") * 3, W("c d c^-1 d^-1"), W("d d c"), W("c")]
    for u in left:
        for v in right:
            # shuffle the letters of the two parts together
            marks = [0] * len(u) + [1] * len(v)
            rng.shuffle(marks)
            parts = [list(u), list(v)]
            w = tuple(parts[m].pop(0) for m in marks)
            assert canonical_class(g, w).word == word_bfs_canonical(g, w), w
            assert canonical_class(g, w) == canonical_class(g, u + v)


def test_canonical_class_matches_oracle_random_graphs():
    rng = random.Random(61)
    for _ in range(200):
        g = random_graph(rng)
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        base = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        for w in (base * rng.randint(1, 3),
                  tuple(rng.choice(letters) for _ in range(rng.randint(0, 9)))):
            assert canonical_class(g, w).word == \
                word_bfs_canonical(g, w), (g.to_json(), w)


@pytest.mark.parametrize("graph, text", [
    ("split", "a b c d a b c d a b c d"),
    ("split", "a c a c a c"),
    ("split", "c a c b c b"),
    ("split", "a b^-1 c d a^-1 c d^-1 b"),
    ("c4", "a c b d a^-1 c^-1 b^-1 d^-1"),
    ("c4", "a c b d a c b d"),
    ("nodom6", "a b c m e f a^-1 e"),
])
def test_canonical_class_budget_counts_the_trace_states(graph, text):
    # S is the number of traces a BFS that normalizes every move reaches;
    # the keyed BFS must count the same states
    def fresh():
        if graph == "c4":
            return DefiningGraph(*C4)
        if graph == "split":
            return DefiningGraph(["a", "b", "c", "d"],
                                 [["a", "b"], ["c", "d"]])
        return DefiningGraph(["a", "b", "c", "m", "e", "f"],
                             [["a", "m"], ["a", "f"], ["b", "m"], ["b", "e"],
                              ["c", "m"]])
    w = cyclically_reduce(fresh(), W(text))
    S = len(lexnf_trace_states(fresh(), w))
    assert S > 1
    canonical_class(fresh(), w, budget=S)
    message = r"^canonical_class trace states %d > budget %d$" % (S, S - 1)
    with pytest.raises(BudgetError, match=message):
        canonical_class(fresh(), w, budget=S - 1)


def test_canonical_class_trace_states_stay_few():
    # A word BFS visits 4^(m+1) words of the class of (a b c d)^m, 256 at
    # m = 3; they fall into 6 traces for every m.
    for m in range(3, 21):
        for budget in (6, 64):
            split = DefiningGraph(["a", "b", "c", "d"],
                                  [["a", "b"], ["c", "d"]])
            cls = canonical_class(split, W("a b c d") * m, budget=budget)
            assert cls.word == W("a b c d") * m


def test_canonical_class_budget_names_counter(split):
    with pytest.raises(BudgetError,
                       match=r"^canonical_class trace states 6 > budget 5$"):
        canonical_class(split, W("a b c d") * 3, budget=5)


def test_conj_class_runs_the_bfs_when_its_word_is_read(monkeypatch, split):
    # count the calls of the conjugacy BFS, including those a class makes
    # when its canonical word is read
    calls = []
    canonical = core_module.canonical_class
    monkeypatch.setattr(core_module, "canonical_class",
                        lambda g, word: calls.append(word) or
                        canonical(g, word))
    u = conj_class(split, W("b a c a^-1"))
    v = conj_class(split, W("c a c"))
    t = class_tuple(split, [W("a c a c"), W("d b")])
    assert (u.rep, u.length, v.length) == (W("b c"), 2, 3)
    # different lengths: unequal, and no BFS runs
    assert u != v and not u == v
    assert class_tuple(split, [W("c b")]) != class_tuple(split, [W("c a c")])
    assert t.length == 6 and not calls
    # equal lengths: the canonical words decide
    assert u == conj_class(split, W("c b"))
    assert u.word == W("b c") and u is conj_class(split, W("b c"))
    assert calls
    seen = len(calls)
    assert u.word == W("b c") and len(calls) == seen


def test_conj_class_budget_trips_only_when_the_word_is_read(monkeypatch,
                                                            split):
    monkeypatch.setattr(core_module, "CANONICAL_STATE_BUDGET", 5)
    cls = conj_class(split, W("a b c d") * 3)
    assert cls.length == 12
    with pytest.raises(BudgetError,
                       match=r"^canonical_class trace states 6 > budget 5$"):
        cls.word


def test_budget_error_names_counter_value_and_budget():
    err = BudgetError.exceeded("build_delta tuples", 4, 3)
    assert isinstance(err, BudgetError)
    assert str(err) == "build_delta tuples 4 > budget 3"


def test_cyclic_reduce_all_rotations_reduced(split):
    w = cyclically_reduce(split, W("a c a^-1 d"))
    for r in range(len(w)):
        rot = w[r:] + w[:r]
        assert len(reduce_word(split, rot)) == len(w)


def test_class_tuple_length(split):
    t = class_tuple(split, [W("a b"), W("c")])
    assert t.length == 3
    assert len(t) == 2


def test_word_round_trip():
    assert format_word(W("a b^-1 c")) == "a b^-1 c"
    assert W("") == ()


def test_enumerate_classes_f2(f2):
    assert len(enumerate_classes(f2, 1)) == 4
    assert len(enumerate_classes(f2, 2)) == 8


def test_graph_validation():
    with pytest.raises(InputError):
        DefiningGraph(["a", "a"], [])
    with pytest.raises(InputError):
        DefiningGraph(["a"], [["a", "a"]])
    with pytest.raises(InputError):
        DefiningGraph(["a"], [["a", "z"]])
