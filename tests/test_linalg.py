import random
from fractions import Fraction
from math import gcd

import pytest

from raagaut import linalg
from raagaut.errors import InputError
from raagaut.exactmat import int_inverse, mat_eq, mat_identity, mat_mul
from raagaut.linalg import (BlockMatrix, LabeledGraph, Presentation,
                            _lift_block,
                            cover_presentation, evaluate_matrix_word,
                            evaluate_word, g1_orbit_decide,
                            g1_orbit_decider,
                            g1_stabilizer_presentation, gd_stabilizer,
                            gd_stab_word, gl_presentation, gl_word,
                            gq_normal_form, is_normal_form,
                            presentation_from_finite_index, rho,
                            schreier_g1_in_gd, semidirect_presentation)

from .oracles import fraction_det, fraction_inverse

EXAMPLE_A = [[1], [0], [2]]


def unimodular(rng, n, spread=2):
    A = [list(r) for r in mat_identity(n)]
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-spread, spread)
            for col in range(n):
                A[i][col] += q * A[j][col]
    if rng.random() < 0.3:
        A[0] = [-x for x in A[0]]
    return A


def random_g1(rng, n, k, spread=2):
    A = unimodular(rng, n, spread)
    B = [[rng.randint(-spread, spread) for _ in range(k)] for _ in range(n)]
    return BlockMatrix(n, k, A, B)


def random_gq(rng, n, k):
    A = unimodular(rng, n)
    B = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
          for _ in range(k)] for _ in range(n)]
    return BlockMatrix(n, k, A, B)


# -- the worked example -------------------------------------------------------

def test_example_normal_form():
    N, Q = gq_normal_form(EXAMPLE_A, 2, 1)
    assert mat_eq(N, ((0,), (0,), (2,)))
    assert Q.A == ((1, 0), (0, 1))
    assert Q.B == ((Fraction(-1, 2),), (Fraction(0),))
    assert mat_eq(Q.act(EXAMPLE_A), N)
    assert is_normal_form(N, 2, 1)
    assert not is_normal_form(EXAMPLE_A, 2, 1)


def test_example_gd_stabilizer():
    N = ((0,), (0,), (2,))
    struct, pres = gd_stabilizer(N, 2, 1, 2)
    assert [nm for nm, _ in pres.generators] == ["a", "b", "c"]
    assert len(pres.relators) == 5
    mats = dict(pres.generators)
    assert mats["a"].A == ((1, 1), (0, 1))
    assert mats["b"].A == ((1, 0), (1, 1))
    assert mats["c"].A == ((-1, 0), (0, 1))
    payloads = {nm: p for nm, p in pres.generators}
    for rel in pres.relators:
        assert evaluate_matrix_word(rel, payloads) == \
            BlockMatrix.identity(2, 1)


def test_example_schreier_components():
    N = ((0,), (0,), (2,))
    _, pres = gd_stabilizer(N, 2, 1, 2)
    graph0 = schreier_g1_in_gd(pres.generators, 2, 1, 2, ((0,), (0,)))
    graph1 = schreier_g1_in_gd(pres.generators, 2, 1, 2, ((1,), (0,)))
    assert graph0.n_vertices() == 1
    assert graph1.n_vertices() == 3
    # the two components cover all four residues mod 2
    assert set(graph0.vindex) | set(graph1.vindex) == {
        ((x,), (y,)) for x in range(2) for y in range(2)}
    # label regularity: exactly one in and one out edge per label per vertex
    for graph in (graph0, graph1):
        for v in range(graph.n_vertices()):
            assert sorted(graph.out[v]) == ["a", "b", "c"]
            assert sorted(graph.inc[v]) == ["a", "b", "c"]
            for name in ("a", "b", "c"):
                s, _, label, _ = graph.edges[graph.out[v][name]]
                assert (s, label) == (v, name)
                _, d, label, _ = graph.edges[graph.inc[v][name]]
                assert (d, label) == (v, name)
        assert len(graph.edges) == graph.n_vertices() * 3


def test_example_orbit_negative_but_gq_equal():
    N = ((0,), (0,), (2,))
    cert = g1_orbit_decide(EXAMPLE_A, N, 2, 1)
    assert cert.witness is None
    assert cert.reason == "schreier-component"
    NA, _ = gq_normal_form(EXAMPLE_A, 2, 1)
    NB, _ = gq_normal_form(N, 2, 1)
    assert mat_eq(NA, NB)  # same rational orbit, different integral orbit


def test_example_stabilizer_presentation_counts():
    pres, ctx = g1_stabilizer_presentation(EXAMPLE_A, 2, 1)
    assert len(pres.generators) == 7
    assert len(pres.relators) == 15
    for nm, p in pres.generators:
        assert p.is_integral()
        assert mat_eq(p.act(EXAMPLE_A), ((1,), (0,), (2,)))
    payloads = {nm: p for nm, p in pres.generators}
    for rel in pres.relators:
        assert evaluate_matrix_word(rel, payloads) == \
            BlockMatrix.identity(2, 1)


def test_example_listed_generators_in_subgroup():
    pres, rewrite = g1_stabilizer_presentation(EXAMPLE_A, 2, 1)
    payloads = {nm: p for nm, p in pres.generators}
    a = BlockMatrix(2, 1, [[1, 1], [0, 1]], [[0], [0]])
    b = BlockMatrix(2, 1, [[1, 0], [1, 1]], [[0], [0]])
    c = BlockMatrix(2, 1, [[-1, 0], [0, 1]], [[0], [0]])

    def prod(*ms):
        out = BlockMatrix.identity(2, 1)
        for m in ms:
            out = out.mul(m)
        return out

    words = [a, c, prod(b, b), prod(b, c, b.inv()), prod(b, a, a, b.inv()),
             prod(b, a, c, a.inv(), b.inv()),
             prod(b, a, b, a.inv(), b.inv())]
    _, Q = gq_normal_form(EXAMPLE_A, 2, 1)
    Qi = Q.inv()
    listed_explicit = [
        [[1, 0, 0], [2, 1, -1], [0, 0, 1]],
        [[-1, 0, 1], [-2, 1, 1], [0, 0, 1]],
        [[-1, 2, 1], [-2, 3, 1], [0, 0, 1]],
        [[-3, 2, 2], [-4, 3, 2], [0, 0, 1]],
        [[3, -1, -1], [4, -1, -2], [0, 0, 1]],
    ]
    for i, w in enumerate(words):
        D = Qi.mul(w).mul(Q)
        if i >= 2:
            assert D == BlockMatrix.from_full(2, 1, listed_explicit[i - 2])
        assert mat_eq(D.act(EXAMPLE_A), ((1,), (0,), (2,)))
        word = rewrite(D)
        assert evaluate_matrix_word(word, payloads) == D


# -- normal form properties ---------------------------------------------------

def test_normal_form_uniqueness_random():
    rng = random.Random(42)
    for _ in range(100):
        n, k, m = rng.choice(((2, 1, 1), (2, 1, 2), (1, 2, 2), (3, 1, 2),
                              (2, 2, 2)))
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n + k)]
        N1, Q1 = gq_normal_form(rows, n, k)
        assert mat_eq(Q1.act(rows), N1)
        assert is_normal_form(N1, n, k)
        P = random_gq(rng, n, k)
        N2, Q2 = gq_normal_form(P.act(rows), n, k)
        assert mat_eq(N1, N2)


def test_normal_form_idempotent():
    rng = random.Random(43)
    for _ in range(20):
        rows = [[rng.randint(-3, 3)] for _ in range(3)]
        N, _ = gq_normal_form(rows, 2, 1)
        N2, Q2 = gq_normal_form(N, 2, 1)
        assert mat_eq(N, N2)


def test_zero_matrix_normal_form():
    rows = [[0], [0], [0]]
    N, Q = gq_normal_form(rows, 2, 1)
    assert mat_eq(N, rows)
    assert Q == BlockMatrix.identity(2, 1)
    assert is_normal_form(rows, 2, 1)


# -- presentations ------------------------------------------------------------

@pytest.mark.parametrize("m,en,er", [(0, 0, 0), (1, 1, 1), (2, 3, 5)])
def test_gl_presentation_counts(m, en, er):
    pres = gl_presentation(m)
    assert len(pres.generators) == en
    assert len(pres.relators) == er


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gl_presentation_relators_evaluate(m):
    pres = gl_presentation(m)
    payloads = dict(pres.generators)
    for rel in pres.relators:
        val = evaluate_word(rel, payloads, mat_mul, int_inverse,
                            mat_identity(m))
        assert mat_eq(val, mat_identity(m))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gl_word_fuzz(m):
    rng = random.Random(m)
    gens = dict(__import__("raagaut.linalg", fromlist=["x"])
                .gl_generator_matrices(m))
    for _ in range(40):
        M = [list(r) for r in mat_identity(m)]
        for _ in range(6):
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                q = rng.randint(-2, 2)
                for col in range(m):
                    M[i][col] += q * M[j][col]
        if rng.random() < 0.5:
            M[0] = [-x for x in M[0]]
        M = tuple(map(tuple, M))
        word = gl_word(M)
        val = evaluate_word(word, gens, mat_mul, int_inverse,
                            mat_identity(m))
        assert mat_eq(val, M)


def test_semidirect_trivial_h():
    pG = gl_presentation(1)
    pH = Presentation([], [])
    out = semidirect_presentation(pG, pH, {})
    assert len(out.generators) == 1 and len(out.relators) == 1


def test_semidirect_infinite_dihedral():
    # Z/2 acting on Z by inversion
    c = ((-1,),)
    t = ((1,),)  # placeholder payloads; only structure is checked
    pG = Presentation([("c", c)], [(("c", 1), ("c", 1))])
    pH = Presentation([("t", t)], [])
    out = semidirect_presentation(pG, pH, {("c", "t"): (("t", -1),)})
    assert len(out.generators) == 2
    assert len(out.relators) == 2
    assert (("c", 1), ("t", 1), ("c", -1), ("t", 1)) in out.relators


def test_gd_stabilizer_trivial():
    # full pivots and injective bottom-row map: trivial stabilizer
    N = ((1, 0), (0, 1))
    struct, pres = gd_stabilizer(N, 1, 1, 1)
    assert len(pres.generators) == 0
    assert len(pres.relators) == 0


def test_gd_stab_word_random():
    rng = random.Random(7)
    N = ((0,), (0,), (2,))
    struct, pres = gd_stabilizer(N, 2, 1, 2)
    payloads = {nm: p for nm, p in pres.generators}
    elems = [p for _, p in pres.generators]
    for _ in range(25):
        X = BlockMatrix.identity(2, 1)
        for _ in range(rng.randint(1, 4)):
            p = rng.choice(elems)
            X = X.mul(p if rng.random() < 0.5 else p.inv())
        word = gd_stab_word(X, struct)
        assert evaluate_matrix_word(word, payloads) == X


# -- crossed homomorphism -----------------------------------------------------

def test_rho_identity_and_example():
    assert rho(BlockMatrix.identity(2, 1), 2) == ((0,), (0,))
    _, Q = gq_normal_form(EXAMPLE_A, 2, 1)
    assert rho(Q.inv(), 2) == ((1,), (0,))


def test_rho_crossed_homomorphism_law():
    rng = random.Random(12)
    for _ in range(200):
        n, k, d = rng.choice(((2, 1, 2), (2, 2, 3), (1, 2, 2)))
        def rand_gd():
            A = unimodular(rng, n)
            B = [[Fraction(rng.randint(-4, 4), d) for _ in range(k)]
                 for _ in range(n)]
            return BlockMatrix(n, k, A, B)
        P, Q = rand_gd(), rand_gd()
        left = rho(P.mul(Q), d)
        action = mat_mul(P.A, rho(Q, d))
        expect = tuple(tuple((action[i][j] + rho(P, d)[i][j]) % d
                             for j in range(k)) for i in range(n))
        assert left == expect
        # kernel characterization
        assert (rho(P, d) == tuple(tuple(0 for _ in range(k))
                                   for _ in range(n))) == P.is_integral()


def test_schreier_empty_generators():
    graph = schreier_g1_in_gd([], 2, 1, 2, ((1,), (0,)))
    assert graph.vindex == {((1,), (0,)): 0}
    assert len(graph.edges) == 0


# -- orbit decision -----------------------------------------------------------

def test_orbit_identity_and_random_positive():
    rng = random.Random(21)
    for _ in range(30):
        n, k, m = rng.choice(((2, 1, 1), (2, 1, 2), (1, 2, 2)))
        rows = [[rng.randint(-3, 3) for _ in range(m)]
                for _ in range(n + k)]
        cert = g1_orbit_decide(rows, rows, n, k)
        assert cert.witness is not None
        P = random_g1(rng, n, k)
        target = [[int(x) for x in row] for row in P.act(rows)]
        cert2 = g1_orbit_decide(rows, target, n, k)
        assert cert2.witness is not None
        assert mat_eq(cert2.witness.act(rows),
                      tuple(tuple(map(Fraction, r)) for r in target))


def test_orbit_symmetric():
    rng = random.Random(22)
    for _ in range(20):
        n, k, m = 2, 1, 1
        A = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n + k)]
        B = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n + k)]
        ab = g1_orbit_decide(A, B, n, k).witness is not None
        ba = g1_orbit_decide(B, A, n, k).witness is not None
        assert ab == ba


def test_orbit_support_restriction():
    rng = random.Random(23)
    n, k = 1, 2
    rows = [[1], [2], [3]]
    P = BlockMatrix(1, 2, [[1]], [[2, 0]])
    target = [[int(x) for x in r] for r in P.act(rows)]
    cert = g1_orbit_decide(rows, target, n, k, zero_columns={1})
    assert cert.witness is not None
    D = cert.witness
    assert all(row[1] == 0 for row in D.B)


# -- presentation combinators -------------------------------------------------

def make_cyclic_schreier(order, payload_of):
    """Schreier graph of Z/2 inside Z/4: two cosets, generator x swaps."""
    graph = LabeledGraph()
    graph.add_vertex("H")
    graph.add_vertex("xH")
    graph.add_edge(0, 1, "x", payload_of("x"))
    graph.add_edge(1, 0, "x", payload_of("x"))
    graph.add_edge(0, 0, "h", payload_of("h"))
    graph.add_edge(1, 1, "h", payload_of("h"))
    return graph


def test_presentation_from_finite_index_z4():
    # H = Z/2 = <h | h^2> inside G = Z/4 generated by x with x^2 = h;
    # model elements as integers mod 4 under addition
    def payload(name):
        return 1 if name == "x" else 2

    graph = make_cyclic_schreier(4, payload)
    pH = Presentation([("h", 2)], [(("h", 1), ("h", 1))])

    def rewriter(elem):
        elem = elem % 4
        assert elem in (0, 2)
        return (("h", 1),) if elem == 2 else ()

    pres = presentation_from_finite_index(
        pH, [("x", 1)], graph, 0, rewriter,
        lambda a, b: (a + b) % 4, lambda a: (-a) % 4, 0)
    assert {nm for nm, _ in pres.generators} == {"h", "x"}
    # the presented group is cyclic of order four: verify relator content
    payloads = {nm: p for nm, p in pres.generators}
    for rel in pres.relators:
        val = evaluate_word(rel, payloads, lambda a, b: (a + b) % 4,
                            lambda a: (-a) % 4, 0)
        assert val == 0
    assert any(len(rel) >= 3 for rel in pres.relators)


def test_presentation_from_finite_index_index_one():
    graph = LabeledGraph()
    graph.add_vertex("H")
    graph.add_edge(0, 0, "h", 2)
    pH = Presentation([("h", 2)], [((("h", 1)) , ("h", 1))])
    pres = presentation_from_finite_index(
        pH, [], graph, 0, lambda e: (("h", 1),) if e % 4 == 2 else (),
        lambda a, b: (a + b) % 4, lambda a: (-a) % 4, 0)
    assert len(pres.generators) == 1
    assert len(pres.relators) == 1


def test_cover_presentation_counts_example():
    N = ((0,), (0,), (2,))
    _, pres = gd_stabilizer(N, 2, 1, 2)
    graph = schreier_g1_in_gd(pres.generators, 2, 1, 2, ((1,), (0,)))
    out, gen_of_edge = cover_presentation(
        pres, graph, graph.vindex[((1,), (0,))],
        lambda x, y: x.mul(y), lambda x: x.inv(),
        BlockMatrix.identity(2, 1))
    assert len(out.generators) == 7
    assert len(out.relators) == 15
    assert sorted(gen_of_edge.values()) == sorted(
        nm for nm, _ in out.generators)


def test_matrix_stab_trivial_gl1():
    rows = [[0]]
    pres, ctx = g1_stabilizer_presentation(rows, 1, 0)
    # stabilizer of the zero vector in GL(1,Z) is the order-two group
    assert len(pres.generators) == 1
    payloads = {nm: p for nm, p in pres.generators}
    for rel in pres.relators:
        assert evaluate_matrix_word(rel, payloads) == \
            BlockMatrix.identity(1, 0)


def test_block_matrix_rejects_non_integral_top_left():
    with pytest.raises(InputError, match="^top-left block must be integral$"):
        BlockMatrix(1, 0, [[Fraction(3, 2)]], [[]])
    with pytest.raises(InputError, match="^top-left block must be integral$"):
        BlockMatrix.from_full(1, 1, [[Fraction(1, 2), 0], [0, 1]])
    assert BlockMatrix(1, 0, [[Fraction(-2, 2)]], [[]]).A == ((-1,),)


# -- integer block arithmetic against Fraction matrices -------------------------

def random_block(rng, n, k):
    A = unimodular(rng, n)
    B = [[Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(k)]
         for _ in range(n)]
    return BlockMatrix(n, k, A, B)


def split_full(M, n):
    """(A, B) blocks of a full (n+k)-row matrix."""
    return (tuple(tuple(row[:n]) for row in M[:n]),
            tuple(tuple(row[n:]) for row in M[:n]))


def assert_lowest_terms(X):
    assert X.den > 0
    assert gcd(X.den, *(x for row in X.num for x in row)) == 1
    assert X.B == tuple(tuple(Fraction(x, X.den) for x in row)
                        for row in X.num)


def test_block_products_and_inverses_match_fraction_matrices():
    rng, act_rng = random.Random(15), random.Random(16)
    for _ in range(400):
        n, k = rng.randint(1, 3), rng.randint(0, 3)
        X, Y = random_block(rng, n, k), random_block(rng, n, k)
        for Z, full in ((X.mul(Y), mat_mul(X.full(), Y.full())),
                        (X.inv(), fraction_inverse(X.full()))):
            assert (Z.A, Z.B) == split_full(full, n)
            assert Z.full() == full
            assert fraction_det(Z.A) in (1, -1)
            assert_lowest_terms(Z)
        assert X.mul(X.inv()) == BlockMatrix.identity(n, k)
        m = act_rng.randint(0, 3)
        rows = [[act_rng.choice((act_rng.randint(-9, 9), Fraction(
            act_rng.randint(-9, 9), act_rng.randint(1, 12))))
            for _ in range(m)] for _ in range(n + k)]
        assert X.act(rows) == mat_mul(X.full(), rows)


def test_only_the_constructor_computes_a_determinant(monkeypatch):
    """A product or inverse of det +-1 blocks has det +-1, so only blocks
    from outside are checked; a lifted block equals the one built through
    the constructor with its zero column put back."""
    rng = random.Random(17)
    blocks = [random_block(rng, n, k) for n in (1, 2, 3) for k in (0, 1, 2)
              for _ in range(5)]
    calls = []
    det = linalg.mat_det
    monkeypatch.setattr(linalg, "mat_det",
                        lambda A: calls.append(A) or det(A))
    lifted = []
    for X in blocks:
        Z = X.mul(X.inv()).mul(X)
        assert Z == X and X.inv().inv() == X
        assert BlockMatrix.identity(X.n, X.k).mul(X) == X
        lifted.append((X, _lift_block(Z, X.k + 1, frozenset({0}))))
    assert calls == []
    for X, L in lifted:
        assert L == BlockMatrix(X.n, X.k + 1, X.A,
                                [(0,) + row for row in X.B])
    assert len(calls) == len(blocks)


def test_block_spellings_are_equal_and_hash_equal():
    A = [[1, 1], [0, 1]]
    spellings = [
        BlockMatrix(2, 2, A, [[Fraction(2, 4), 3], [Fraction(-6, 3), 0]]),
        BlockMatrix(2, 2, A, [[Fraction(1, 2), Fraction(3)],
                              [-2, Fraction(0, 5)]]),
        BlockMatrix(2, 2, ((Fraction(2, 2), 1), (0, 1)),
                    [[Fraction(3, 6), Fraction(9, 3)], [Fraction(-2), 0]]),
        BlockMatrix.from_full(2, 2, [[1, 1, Fraction(1, 2), 3],
                                     [0, 1, -2, 0], [0, 0, 1, 0],
                                     [0, 0, 0, 1]]),
    ]
    X = spellings[0]
    spellings += [X.mul(BlockMatrix.identity(2, 2)), X.inv().inv()]
    for Y in spellings:
        assert Y == X and hash(Y) == hash(X)
        assert (Y.num, Y.den) == (((1, 6), (-4, 0)), 2)
    assert X != BlockMatrix(2, 2, A, [[1, 3], [-2, 0]])
    assert BlockMatrix(1, 1, [[1]], [[Fraction(3, 3)]]).den == 1
    assert BlockMatrix(1, 0, [[1]], [[]]).den == 1


@pytest.mark.parametrize("build,message", [
    (lambda: BlockMatrix(2, 1, [[1, 0]], [[0], [0]]), "bad A block shape"),
    (lambda: BlockMatrix(2, 1, [[1, 0], [0]], [[0], [0]]),
     "bad A block shape"),
    (lambda: BlockMatrix(2, 1, [[1, 0], [0, 1]], [[0]]), "bad B block shape"),
    (lambda: BlockMatrix(2, 1, [[1, 0], [0, 1]], [[0], [Fraction(1, 2), 0]]),
     "bad B block shape"),
    (lambda: BlockMatrix(1, 0, [[2]], [[]]),
     "top-left block must have determinant \\+-1"),
    (lambda: BlockMatrix.from_full(1, 1, [[1, 0], [1, 1]]),
     "matrix is not block upper triangular with identity bottom"),
    (lambda: rho(BlockMatrix(1, 1, [[1]], [[Fraction(1, 3)]]), 2),
     "matrix is not in the denominator-d group"),
])
def test_block_matrix_errors(build, message):
    with pytest.raises(InputError, match="^%s$" % message):
        build()


def test_check_relators_inverts_each_generator_once(monkeypatch):
    pres, _ = g1_stabilizer_presentation(EXAMPLE_A, 2, 1)
    inverse_letters = sum(s < 0 for rel in pres.relators for _, s in rel)
    assert inverse_letters > len(pres.generators)
    inverted = []
    inv = BlockMatrix.inv

    def counting_inv(self):
        inverted.append(self)
        return inv(self)

    monkeypatch.setattr(BlockMatrix, "inv", counting_inv)
    ident = BlockMatrix.identity(2, 1)
    pres.check_relators(BlockMatrix.mul, BlockMatrix.inv, ident)
    assert inverted == [p for _, p in pres.generators]
    # a generator whose rational block is shifted breaks some relator
    for i, (name, p) in enumerate(pres.generators):
        gens = list(pres.generators)
        gens[i] = (name, BlockMatrix(2, 1, p.A,
                                     [[x + 1 for x in row] for row in p.B]))
        with pytest.raises(AssertionError,
                           match="^relator is not the identity$"):
            Presentation(gens, pres.relators).check_relators(
                BlockMatrix.mul, BlockMatrix.inv, ident)


def g1_inputs():
    """(A, Bs, n, k, zero_columns): the orbit tests' inputs, each source with
    every target drawn for it, the identity and a zero-column mismatch."""
    rng = random.Random(21)
    for _ in range(30):
        n, k, m = rng.choice(((2, 1, 1), (2, 1, 2), (1, 2, 2)))
        rows = [[rng.randint(-3, 3) for _ in range(m)]
                for _ in range(n + k)]
        target = [[int(x) for x in row]
                  for row in random_g1(rng, n, k).act(rows)]
        yield rows, [target, rows], n, k, frozenset()
    rng = random.Random(22)
    pairs = [[[rng.randint(-3, 3)] for _ in range(3)] for _ in range(40)]
    for A in pairs[:20]:
        yield A, pairs[20:], 2, 1, frozenset()
    yield EXAMPLE_A, [((0,), (0,), (2,)), EXAMPLE_A], 2, 1, frozenset()
    rows = [[1], [2], [3]]
    target = [[int(x) for x in r]
              for r in BlockMatrix(1, 2, [[1]], [[2, 0]]).act(rows)]
    yield rows, [target, [[1], [2], [4]], rows], 1, 2, {1}


def test_decider_answers_as_each_single_decision():
    # one decider per source, called on every target in turn, gives each
    # target the reason and witness of a fresh decision
    reasons = set()
    for A, Bs, n, k, zc in g1_inputs():
        decide = g1_orbit_decider(A, n, k, zc)
        for B in Bs + Bs[::-1]:
            got = decide(B)
            want = g1_orbit_decide(A, B, n, k, zc)
            assert got.reason == want.reason, (A, B)
            assert got.witness == want.witness, (A, B)
            reasons.add(got.reason)
    assert reasons == {None, "normal-forms", "schreier-component"}


def test_decider_reduces_its_source_once_and_lazily(monkeypatch):
    calls = []
    normal_form = linalg.gq_normal_form
    monkeypatch.setattr(linalg, "gq_normal_form",
                        lambda rows, n, k: calls.append(rows) or
                        normal_form(rows, n, k))
    rows = [[1], [2], [3]]
    decide = g1_orbit_decider(rows, 1, 2, {1})
    assert decide([[1], [2], [4]]).reason == "normal-forms"
    assert calls == []
    for B in ([[2], [2], [3]], rows, [[-1], [2], [3]]):
        decide(B)
    assert len(calls) == 4 and calls[1:] == [[(2,), (2,)], [(1,), (2,)],
                                            [(-1,), (2,)]]
    with pytest.raises(InputError, match="^expected 3 rows$"):
        decide([[1], [2]])
