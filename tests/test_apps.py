import random

import pytest

from raagaut import apps, aut, linalg
from raagaut.apps import (aut_orbit_decide, build_delta, build_Z,
                          classic_length, minimize_tuple,
                          stabilizer_generators, stabilizer_presentation,
                          wh_reachable)
from raagaut.aut import (Automorphism, classic_choices, classic_whitehead,
                         enumerate_classic_whitehead, identity_automorphism,
                         laurence_generators, permutation_automorphisms)
from raagaut.core import (DefiningGraph, class_tuple, enumerate_tuples,
                          parse_word)
from raagaut.errors import BudgetError
from raagaut.linalg import evaluate_word

from .oracles import (MatrixGroupChain, abelian_image, abelianization,
                      all_tuple_loop_elements, all_tuple_orbit_graph,
                      enumeration_minimize, list_classic_minimize,
                      oracle_equivalent, oracle_minimize,
                      short_identity_loops)

W = parse_word


def to_oracle(tup):
    """Package tuple -> oracle representation over letters +-1, +-2."""
    code = {"a": 1, "b": 2}
    return tuple(tuple(code[g] * s for g, s in cls.word)
                 for cls in tup.entries)


def test_minimize_master_like_tuple_already_minimal(split):
    words = [W("a"), W("b"), W("c"), W("d"), W("a c"), W("a d"),
             W("b c"), W("b d")]
    U = class_tuple(split, words)
    m, mu = minimize_tuple(split, U)
    assert m == U
    assert mu.is_identity()


def test_minimize_f2_examples(f2):
    U = class_tuple(f2, [W("a a b")])
    m, mu = minimize_tuple(f2, U)
    assert m.length == 1
    assert mu.apply_to_tuple(U) == m
    U2 = class_tuple(f2, [W("a b a^-1 b^-1")])
    m2, _ = minimize_tuple(f2, U2)
    assert m2.length == 4


def test_minimize_agrees_with_classic_oracle(f2):
    rng = random.Random(51)
    letters = [(v, s) for v in f2.vertices for s in (1, -1)]
    for _ in range(25):
        words = [tuple(rng.choice(letters)
                       for _ in range(rng.randint(1, 6)))]
        U = class_tuple(f2, words)
        m, mu = minimize_tuple(f2, U)
        oracle_min = oracle_minimize(to_oracle(U), 2)
        assert m.length == sum(len(w) for w in oracle_min)


def test_minimize_full_enum_agrees(split):
    rng = random.Random(52)
    letters = [(v, s) for v in split.vertices for s in (1, -1)]
    for _ in range(5):
        words = [tuple(rng.choice(letters) for _ in range(3))]
        U = class_tuple(split, words)
        m, _ = minimize_tuple(split, U)
        assert m.length == enumeration_minimize(split, U).length


# -- the streamed classic descent against the list-based one ----------------

def assert_minimize_matches_list_oracle(g, U):
    m, mu = minimize_tuple(g, U)
    m_ref, mu_ref = list_classic_minimize(g, U)
    assert m == m_ref
    assert mu.key() == mu_ref.key()


# pairs stop at total length 3 on split and path4: their 6,028 pairs of
# total length 4 would take about a minute through both minimizers
@pytest.mark.parametrize("name,pair_length",
                         [("f2", 4), ("split", 3), ("path4", 3)])
def test_minimize_matches_list_oracle_exhaustive(request, name, pair_length):
    g = request.getfixturevalue(name)
    for arity, max_length in ((1, 4), (2, pair_length)):
        for length in range(1, max_length + 1):
            for U in enumerate_tuples(g, arity, length):
                assert_minimize_matches_list_oracle(g, U)


def test_minimize_matches_list_oracle_random(nodom6):
    rng = random.Random(81)
    letters = [(v, s) for v in nodom6.vertices for s in (1, -1)]
    for _ in range(300):
        U = class_tuple(nodom6, [
            tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 2))])
        assert_minimize_matches_list_oracle(nodom6, U)


@pytest.mark.parametrize("name", ["f2", "split", "path4", "nodom6"])
def test_classic_length_is_the_image_length(request, name):
    """Inverse letters and, on split, path4 and nodom6, adjacent dominated
    vertices (one-sided moves on star letters) included; one length memo
    serves every choice on a tuple, as in a descent step."""
    g = request.getfixturevalue(name)
    rng = random.Random(82)
    letters = [(v, s) for v in g.vertices for s in (1, -1)]
    for _ in range(6):
        U = class_tuple(g, [tuple(rng.choice(letters)
                                  for _ in range(rng.randint(1, 6)))
                            for _ in range(rng.randint(1, 2))])
        lengths = {}
        for m, supp in classic_choices(g):
            image = classic_whitehead(g, m, supp).aut.apply_to_tuple(U)
            assert classic_length(g, m, supp, U, lengths) == image.length


@pytest.mark.parametrize("name", ["f2", "k2", "k3", "split", "path4",
                                  "nodom6"])
@pytest.mark.parametrize("long_range_only", [False, True])
def test_classic_choices_without_repeats_are_the_list(request, name,
                                                      long_range_only):
    g = request.getfixturevalue(name)
    seen = {identity_automorphism(g)}
    distinct = []
    for m, supp in classic_choices(g, long_range_only):
        wh = classic_whitehead(g, m, supp)
        if wh.aut not in seen:
            seen.add(wh.aut)
            distinct.append((wh.aut, wh.classic))
    listed = enumerate_classic_whitehead(g, long_range_only)
    assert listed[0].aut.is_identity()
    assert [(wh.aut, wh.classic) for wh in listed[1:]] == distinct


def test_minimize_raises_when_a_scored_move_does_not_shorten(monkeypatch,
                                                             nodom6):
    monkeypatch.setattr(apps, "classic_length", lambda *args: 0)
    with pytest.raises(AssertionError,
                       match="^classic move does not shorten the tuple$"):
        minimize_tuple(nodom6, class_tuple(nodom6, [W("m^-1 c^-1 f")]))


def test_minimize_checks_every_classic_budget_first(monkeypatch, nodom6):
    """A later multiplier over budget raises before the first choice is
    yielded, so before an earlier multiplier's shortening move is taken, and
    minimize_tuple raises the list's error."""
    U = class_tuple(nodom6, [W("c a")])
    m, supp = next((m, supp) for m, supp in classic_choices(nodom6)
                   if classic_length(nodom6, m, supp, U, {}) < U.length)
    assert m[0] == "a"
    # per sign: 24 choices for a and b, 48 for m
    monkeypatch.setattr(aut, "CLASSIC_CHOICE_BUDGET", 24)
    message = r"^enumerate_classic_whitehead choices 48 > budget 24$"
    with pytest.raises(BudgetError, match=message):
        next(classic_choices(nodom6))
    with pytest.raises(BudgetError, match=message):
        minimize_tuple(nodom6, U)


def test_wh_reachable_witnesses(split):
    U = class_tuple(split, [W("c a c b c b")])
    for target, wh in wh_reachable(split, "a", U):
        assert wh.aut.apply_to_tuple(U) == target
        assert target.length == U.length


def test_wh_reachable_budget_names_counter(f2):
    with pytest.raises(BudgetError,
                       match=r"^wh_reachable candidates 2 > budget 1$"):
        list(wh_reachable(f2, "a", class_tuple(f2, [W("a b")]), budget=1))


def test_build_delta_edges_validated(f2):
    U = class_tuple(f2, [W("a")])
    graph = build_delta(f2, U)
    # single-letter classes: the four signed letters, one P-orbit
    assert graph.n_vertices() == 1
    assert len(graph.orbit) == 4
    for W1, (rep, p) in graph.orbit.items():
        assert p.apply_to_tuple(graph.payloads[rep]) == W1
    for (src, dst, name, aut) in graph.edges:
        assert aut.apply_to_tuple(graph.payloads[src]) == \
            graph.payloads[dst]


# -- the orbit graph on P-orbit representatives against the all-tuple graph --

GRAPHS = ["f2", "split", "path4", "nodom6"]
# minimal tuples whose orbit graphs have two representatives
MULTI_REP = {"f2": "a a b b", "nodom6": "a b^-1 c^-1 c^-1"}


def random_tuple(g, rng, arity=None):
    letters = [(v, s) for v in g.vertices for s in (1, -1)]
    arity = arity or rng.randint(1, 2)
    while True:
        U = class_tuple(g, [tuple(rng.choice(letters)
                                  for _ in range(rng.randint(1, 3)))
                            for _ in range(arity)])
        if all(c.length for c in U.entries):
            return U


def orbit_graph_cases(g, name, seed, count):
    """Seeded minimal tuples, then the graph's multi-representative one."""
    rng = random.Random(seed)
    cases = [minimize_tuple(g, random_tuple(g, rng))[0]
             for _ in range(count)]
    if name in MULTI_REP:
        cases.append(class_tuple(g, [W(MULTI_REP[name])]))
    return cases


@pytest.mark.parametrize("name", GRAPHS)
def test_orbit_map_holds_the_all_tuple_vertices(request, name):
    g = request.getfixturevalue(name)
    for W_min in orbit_graph_cases(g, name, 71, 3):
        graph = build_delta(g, W_min)
        tuples, _ = all_tuple_orbit_graph(g, W_min)
        assert set(graph.orbit) == set(tuples)
        assert next(iter(graph.orbit)) == W_min
        for W1, (rep, p) in graph.orbit.items():
            assert p.apply_to_tuple(graph.payloads[rep]) == W1
        # each representative stands for its own P-orbit only
        for v, R in enumerate(graph.payloads):
            assert graph.orbit[R][0] == v
    if name in MULTI_REP:
        assert graph.n_vertices() == 2


@pytest.mark.parametrize("name", GRAPHS)
def test_orbit_decide_agrees_with_all_tuple_graph(request, name):
    g = request.getfixturevalue(name)
    rng = random.Random(72)
    gens = laurence_generators(g)
    answers = set()
    for arity in (1, 2, 2):
        U = random_tuple(g, rng, arity)
        image = U
        for _ in range(rng.randint(1, 3)):
            image = rng.choice(gens).aut.apply_to_tuple(image)
        other = random_tuple(g, rng, arity)
        reachable, _ = all_tuple_orbit_graph(g, minimize_tuple(g, U)[0])
        for V in (image, other):
            expected = minimize_tuple(g, V)[0] in reachable
            alpha = aut_orbit_decide(g, U, V)
            assert (alpha is not None) == expected, (U, V)
            if alpha is not None:
                assert alpha.apply_to_tuple(U) == V
            answers.add(expected)
    assert answers == {True, False}


@pytest.mark.parametrize("name", GRAPHS)
def test_stabilizer_generators_match_all_tuple_loops(request, name):
    g = request.getfixturevalue(name)
    n = len(g.vertices)
    for W_min in orbit_graph_cases(g, name, 73, 1):
        mine = stabilizer_generators(g, W_min)
        _, edges = all_tuple_orbit_graph(g, W_min, with_stabilizers=True)
        theirs = all_tuple_loop_elements(g, edges)
        for p in (2, 3):
            A = {abelian_image(x, p) for x in mine}
            B = {abelian_image(x, p) for x in theirs}
            chain_a = MatrixGroupChain(A, n, p)
            chain_b = MatrixGroupChain(B, n, p)
            assert all(chain_a.contains(x) for x in B), (W_min, p)
            assert all(chain_b.contains(x) for x in A), (W_min, p)


@pytest.mark.parametrize("name,text,reps", [("split", "c a c b", 1),
                                            ("f2", "a a b b", 2)])
def test_build_delta_sweeps_once_per_representative(request, monkeypatch,
                                                    name, text, reps):
    g = request.getfixturevalue(name)
    W_min, _ = minimize_tuple(g, class_tuple(g, [W(text)]))
    calls = []

    def counting(g, a, U, **kw):
        calls.append((U, a))
        return wh_reachable(g, a, U, **kw)

    monkeypatch.setattr(apps, "wh_reachable", counting)
    graph = build_delta(g, W_min)
    assert graph.n_vertices() == reps
    assert calls == [(R, a) for R in graph.payloads
                     for a in apps._class_reps(g)]


def test_orbit_decide_basic(f2):
    assert aut_orbit_decide(f2, class_tuple(f2, [W("a")]),
                            class_tuple(f2, [W("b")])) is not None
    assert aut_orbit_decide(
        f2, class_tuple(f2, [W("a b a^-1 b^-1")]),
        class_tuple(f2, [W("a a b b")])) is None


def test_orbit_decide_running_example_pair(split):
    U = class_tuple(split, [W("c a c b c b")])
    V = class_tuple(split, [W("c b c a b c b")])
    alpha = aut_orbit_decide(split, U, V)
    assert alpha is not None
    assert alpha.apply_to_tuple(U) == V


def test_orbit_graph_cache_keeps_budgets_apart(split):
    # the orbit graph of [a] holds eight tuples; one built under the default
    # budget does not answer a call under a smaller one
    U = class_tuple(split, [W("a")])
    V = class_tuple(split, [W("c")])
    assert aut_orbit_decide(split, U, V) is not None
    with pytest.raises(BudgetError,
                       match=r"^build_delta tuples 4 > budget 3$"):
        aut_orbit_decide(split, U, V, max_vertices=3)


def test_orbit_decide_arity_mismatch(f2):
    U = class_tuple(f2, [W("a")])
    V = class_tuple(f2, [W("a"), W("b")])
    assert aut_orbit_decide(f2, U, V) is None


def test_orbit_equivalence_relation_sample(f2):
    rng = random.Random(53)
    letters = [(v, s) for v in f2.vertices for s in (1, -1)]
    sample = [class_tuple(f2, [tuple(rng.choice(letters)
                                     for _ in range(rng.randint(1, 4)))])
              for _ in range(6)]
    rel = {}
    for i, U in enumerate(sample):
        for j, V in enumerate(sample):
            rel[(i, j)] = aut_orbit_decide(f2, U, V) is not None
    for i in range(len(sample)):
        assert rel[(i, i)]
        for j in range(len(sample)):
            assert rel[(i, j)] == rel[(j, i)]
            for k in range(len(sample)):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


def test_orbit_agrees_with_oracle_sample(f2):
    rng = random.Random(54)
    letters = [(v, s) for v in f2.vertices for s in (1, -1)]
    for _ in range(15):
        U = class_tuple(f2, [tuple(rng.choice(letters)
                                   for _ in range(rng.randint(1, 4)))])
        V = class_tuple(f2, [tuple(rng.choice(letters)
                                   for _ in range(rng.randint(1, 4)))])
        mine = aut_orbit_decide(f2, U, V) is not None
        theirs = oracle_equivalent(to_oracle(U), to_oracle(V), 2)
        assert mine == theirs


def test_stabilizer_generators_f2(f2):
    Wt = class_tuple(f2, [W("a")])
    gens = stabilizer_generators(f2, Wt)
    assert gens
    for x in gens:
        assert x.apply_to_tuple(Wt) == Wt
    # the expected elements lie in the generated subgroup
    targets = [
        Automorphism(f2, {"a": W("a"), "b": W("b a")},
                     {"a": W("a"), "b": W("b a^-1")}),
        Automorphism(f2, {"a": W("a"), "b": W("a b")},
                     {"a": W("a"), "b": W("a^-1 b")}),
        Automorphism(f2, {"a": W("a"), "b": W("b^-1")},
                     {"a": W("a"), "b": W("b^-1")}),
        Automorphism(f2, {"a": W("a"), "b": W("a^-1 b a")},
                     {"a": W("a"), "b": W("a b a^-1")}),
    ]
    seen = {identity_automorphism(f2).key()}
    frontier = [identity_automorphism(f2)]
    for _ in range(3):
        nxt = []
        for x in frontier:
            for ga in gens:
                for y in (ga.compose(x), ga.invert().compose(x)):
                    if y.key() not in seen:
                        seen.add(y.key())
                        nxt.append(y)
        frontier = nxt
    for t in targets:
        assert t.key() in seen


def test_stabilizer_generators_conjugated_back(f2):
    # a non-minimal input exercises the conjugation by the minimizer
    Wt = class_tuple(f2, [W("a a b")])
    gens = stabilizer_generators(f2, Wt)
    for x in gens:
        assert x.apply_to_tuple(Wt) == Wt


def test_stabilizer_presentation_trivial_graph():
    g1 = DefiningGraph(["a"], [])
    pres = stabilizer_presentation(g1, class_tuple(g1, [W("a")]))
    payloads = {nm: aut for nm, aut in pres.generators}
    ident = identity_automorphism(g1)
    for rel in pres.relators:
        val = evaluate_word(rel, payloads, lambda x, y: x.compose(y),
                            lambda x: x.invert(), ident)
        assert val.is_identity()
    # the stabilizer of a single generator class in Aut(Z) is trivial
    for nm, aut in pres.generators:
        assert aut.is_identity()


def test_stabilizer_presentation_f2(f2):
    Wt = class_tuple(f2, [W("a")])
    pres = stabilizer_presentation(f2, Wt)
    payloads = {nm: aut for nm, aut in pres.generators}
    ident = identity_automorphism(f2)
    for nm, aut in pres.generators:
        assert aut.apply_to_tuple(Wt) == Wt
    for rel in pres.relators:
        val = evaluate_word(rel, payloads, lambda x, y: x.compose(y),
                            lambda x: x.invert(), ident)
        assert val.is_identity()
    # consistency harness: the presented group contains the brute-force
    # stabilizer elements of small word length
    targets = [
        Automorphism(f2, {"a": W("a"), "b": W("b a")},
                     {"a": W("a"), "b": W("b a^-1")}),
        Automorphism(f2, {"a": W("a"), "b": W("b^-1")},
                     {"a": W("a"), "b": W("b^-1")}),
    ]
    gens = [aut for _, aut in pres.generators]
    seen = {identity_automorphism(f2).key()}
    frontier = [identity_automorphism(f2)]
    for _ in range(2):
        nxt = []
        for x in frontier:
            for ga in gens:
                for y in (ga.compose(x), ga.invert().compose(x)):
                    if y.key() not in seen:
                        seen.add(y.key())
                        nxt.append(y)
        frontier = nxt
    for t in targets:
        assert t.key() in seen
    # H1 of Stab[a] has order 8 (the image in GL(2,Z) is the infinite
    # dihedral group [[1,x],[0,+-1]]), and the presented group maps onto it
    assert abelianization([nm for nm, _ in pres.generators],
                          pres.relators) == (0, [2, 2, 2])


@pytest.mark.parametrize("words,h1", [
    # the stabilizer of [a, b] is SAut(F2), and H1(SAut(F2)) = H1(SL(2,Z))
    (["a b a^-1 b^-1"], (0, [12])),
    # the stabilizer of ([a], [b]) is Inn(F2), free of rank 2
    (["a", "b"], (2, [])),
], ids=["commutator", "a;b"])
def test_stabilizer_presentation_f2_abelianizes(f2, words, h1):
    pres = stabilizer_presentation(f2, class_tuple(f2, [W(w) for w in words]))
    assert abelianization([nm for nm, _ in pres.generators],
                          pres.relators) == h1


def test_build_Z_cells_close_up(f2):
    from raagaut.apps import _verify_cells
    Wt = class_tuple(f2, [W("a")])
    Z = build_Z(f2, Wt)
    _verify_cells(f2, Z)
    kinds = {kind for kind, _, _ in Z.cells}
    assert "C1" in kinds
    assert "C3" in kinds


def test_build_Z_short_loops_match_brute_force(k2):
    Z = build_Z(k2, class_tuple(k2, [W("a")]))
    classic = [w.aut for w in enumerate_classic_whitehead(k2)
               + permutation_automorphisms(k2) if not w.aut.is_identity()]
    loops, canon = short_identity_loops(Z.graph, classic)
    assert len(loops) == 682
    c3 = [tuple(e for e, _ in steps) for kind, _, steps in Z.cells
          if kind == "C3"]
    assert all(fwd for kind, _, steps in Z.cells if kind == "C3"
               for _, fwd in steps)
    assert {canon(loop) for loop in c3} == loops
    # no two cells are rotations or reversals of each other
    assert len({canon(loop) for loop in c3}) == len(c3)


def laurence_bfs_reachable(g, U, max_len, depth=4):
    """Independent one-sided oracle: tuples reachable from U by short
    products of Laurence generators without exceeding max_len."""
    gens = laurence_generators(g)
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


def test_orbit_decide_complete_on_laurence_bfs(split, path4):
    rng = random.Random(61)
    for g in (split, path4):
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        checked = 0
        for _ in range(6):
            U = class_tuple(g, [tuple(rng.choice(letters)
                                      for _ in range(rng.randint(1, 3)))])
            reach = laurence_bfs_reachable(g, U, U.length + 2, depth=3)
            targets = [V for V in reach if V.length <= U.length][:10]
            for V in targets:
                alpha = aut_orbit_decide(g, U, V)
                assert alpha is not None, (g.vertices, U, V)
                assert alpha.apply_to_tuple(U) == V
                checked += 1
        assert checked >= 10


def test_stabilizer_subgroup_contains_short_stabilizers(split):
    Wt = class_tuple(split, [W("a c")])
    gens = stabilizer_generators(split, Wt)
    lg = laurence_generators(split)
    lg = lg + [w.invert() for w in lg]
    short_stab = set()
    for x in lg:
        if x.aut.apply_to_tuple(Wt) == Wt:
            short_stab.add(x.aut)
        for y in lg:
            comp = x.aut.compose(y.aut)
            if comp.apply_to_tuple(Wt) == Wt:
                short_stab.add(comp)
    seen = {identity_automorphism(split).key()}
    frontier = [identity_automorphism(split)]
    for _ in range(3):
        nxt = []
        for x in frontier:
            for ga in gens:
                for y in (ga.compose(x), ga.invert().compose(x)):
                    if y.key() not in seen:
                        seen.add(y.key())
                        nxt.append(y)
        frontier = nxt
    missing = [s for s in short_stab if s.key() not in seen]
    assert not missing, missing[:3]


@pytest.mark.parametrize("name", GRAPHS)
def test_sweep_reduces_its_source_matrix_once(request, monkeypatch, name):
    # every sweep reduces the source matrix at most once, only when it
    # tests a candidate, and yields what one decision per candidate yields
    g = request.getfixturevalue(name)
    normal_forms = []
    normal_form = linalg.gq_normal_form
    monkeypatch.setattr(linalg, "gq_normal_form",
                        lambda rows, n, k: normal_forms.append(rows) or
                        normal_form(rows, n, k))
    tests = []
    decider = apps.g1_orbit_decider

    def counting_decider(*args):
        decide = decider(*args)
        return lambda rows_b: tests.append(rows_b) or decide(rows_b)

    def single_decisions(rows_a, n, k, zero_columns):
        return lambda rows_b: linalg.g1_orbit_decide(rows_a, rows_b, n, k,
                                                     zero_columns)

    most = 0
    for R in orbit_graph_cases(g, name, 35, 4):
        for a in apps._class_reps(g):
            del normal_forms[:], tests[:]
            monkeypatch.setattr(apps, "g1_orbit_decider", counting_decider)
            got = [(t, wh.aut) for t, wh in wh_reachable(g, a, R)]
            assert len(normal_forms) == len(tests) + bool(tests)
            most = max(most, len(tests))
            monkeypatch.setattr(apps, "g1_orbit_decider", single_decisions)
            assert got == [(t, wh.aut) for t, wh in wh_reachable(g, a, R)]
    assert most > 1
