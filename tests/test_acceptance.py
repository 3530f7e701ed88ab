"""Acceptance suite: the worked examples plus the property suites, one test
per criterion, each printing its own pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

import pytest

from raagaut.aut import (Automorphism, identity_automorphism,
                         laurence_generators, theta, za_basis)
from raagaut.core import DefiningGraph, class_tuple, parse_word
from raagaut.exactmat import mat_eq, mat_identity, mat_mul
from raagaut.linalg import (BlockMatrix, evaluate_matrix_word, evaluate_word,
                            g1_orbit_decide, g1_stabilizer_presentation,
                            gd_stabilizer, gl_presentation, gq_normal_form,
                            schreier_g1_in_gd)
from raagaut.peak import (compose_factors, peak_reduce, omega_factorization)
from raagaut.syllables import decompose, nu, nu_matrix
from raagaut.whorbit import wh_orbit_decide, wh_stabilizer_presentation

from .decompositions import decomposition_from_words
from .oracles import oracle_equivalent

W = parse_word


def report(name, ok, extra=""):
    print("%s: %s %s" % (name, "PASS" if ok else "FAIL", extra))
    assert ok


@pytest.fixture(scope="module")
def split():
    return DefiningGraph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])


@pytest.fixture(scope="module")
def f2():
    return DefiningGraph(["a", "b"], [])


def test_criterion_1_worked_matrix_example():
    start = time.time()
    A = [[1], [0], [2]]
    N, Q = gq_normal_form(A, 2, 1)
    ok = mat_eq(N, ((0,), (0,), (2,)))

    struct, pres = gd_stabilizer(N, 2, 1, 2)
    mats = dict(pres.generators)
    ok &= [nm for nm, _ in pres.generators] == ["a", "b", "c"]
    ok &= mats["a"].A == ((1, 1), (0, 1))
    ok &= mats["b"].A == ((1, 0), (1, 1))
    ok &= mats["c"].A == ((-1, 0), (0, 1))
    ok &= len(pres.relators) == 5

    comp0 = schreier_g1_in_gd(pres.generators, 2, 1, 2, ((0,), (0,)))
    comp1 = schreier_g1_in_gd(pres.generators, 2, 1, 2, ((1,), (0,)))
    ok &= comp0.n_vertices() == 1 and comp1.n_vertices() == 3
    ok &= len(set(comp0.vindex) | set(comp1.vindex)) == 4

    cert = g1_orbit_decide(A, [[0], [0], [2]], 2, 1)
    ok &= cert.witness is None
    NB, _ = gq_normal_form([[0], [0], [2]], 2, 1)
    ok &= mat_eq(N, NB)  # equal in the denominator-2 orbit

    spres, rewrite = g1_stabilizer_presentation(A, 2, 1)
    ok &= len(spres.generators) == 7 and len(spres.relators) == 15
    payloads = dict(spres.generators)
    for nm, p in spres.generators:
        ok &= mat_eq(p.act(A), ((1,), (0,), (2,)))

    a = BlockMatrix(2, 1, [[1, 1], [0, 1]], [[0], [0]])
    b = BlockMatrix(2, 1, [[1, 0], [1, 1]], [[0], [0]])
    c = BlockMatrix(2, 1, [[-1, 0], [0, 1]], [[0], [0]])

    def prod(*ms):
        out = BlockMatrix.identity(2, 1)
        for m in ms:
            out = out.mul(m)
        return out

    listed = [a, c, prod(b, b), prod(b, c, b.inv()),
              prod(b, a, a, b.inv()), prod(b, a, c, a.inv(), b.inv()),
              prod(b, a, b, a.inv(), b.inv())]
    Qi = Q.inv()
    for x in listed:
        D = Qi.mul(x).mul(Q)
        word = rewrite(D)
        ok &= evaluate_matrix_word(word, payloads) == D
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report("criterion 1 (matrix worked example)", ok,
           "(%.2fs)" % elapsed)


def test_criterion_2_syllable_example(split):
    start = time.time()
    T = decomposition_from_words(split, "a",
                                 [[W("c a c"), W("c b c"), W("c b c")]])
    Tp = decomposition_from_words(split, "a",
                                  [[W("c b c"), W("c a b c"), W("c b c")]])
    # basis order (r_a, r_b, r_Y): nu(T) = (r_a, r_b, r_b)
    ok = nu(T) == ((1, 0, 0), (0, 1, 0), (0, 1, 0))
    ok &= nu(Tp) == ((0, 1, 0), (1, 1, 0), (0, 1, 0))

    cert = g1_orbit_decide(nu_matrix(T), nu_matrix(Tp), 2, 1)
    ok &= cert.witness is None

    U = class_tuple(split, [W("c a c b c b")])
    V = class_tuple(split, [W("c b c a b c b")])
    phi = wh_orbit_decide(split, "a", frozenset(), U, V)
    ok &= phi is not None and phi.aut.apply_to_tuple(U) == V

    U2 = class_tuple(split, [W("c a c b")])
    pres, ctx = wh_stabilizer_presentation(split, "a", frozenset(), U2)
    swap = None
    for name, wh in pres.generators:
        if wh.aut.images["a"] == W("b") and wh.aut.images["b"] == W("a"):
            swap = wh
    ok &= swap is not None
    if swap is not None:
        from raagaut.aut import eta
        d = decompose(split, "a", U2)
        mat = eta(split, "a", swap.aut)
        nuT = nu_matrix(d)
        moved = tuple(tuple(sum(mat[i][t] * nuT[t][j]
                                for t in range(len(nuT)))
                            for j in range(len(nuT[0])))
                      for i in range(len(mat)))
        ok &= moved != nuT
        ok &= swap.aut.apply_to_tuple(U2) == U2
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report("criterion 2 (syllable worked example)", ok, "(%.2fs)" % elapsed)


def test_criterion_3_fixed_class_peak_reduction():
    path4 = DefiningGraph(["a", "b", "c", "d"],
                          [["a", "b"], ["b", "c"], ["c", "d"]])
    start = time.time()
    ok = True
    for k in range(1, 6):
        ims = {"a": W("a" + " c" * k), "b": W("b"), "c": W("c"),
               "d": W("c^-1 d")}
        inv = {"a": W("a" + " c^-1" * k), "b": W("b"), "c": W("c"),
               "d": W("c d")}
        alpha = Automorphism(path4, ims, inv)
        Wt = class_tuple(path4, [W("a" + " d" * k)])
        ok &= alpha.apply_to_tuple(Wt) == Wt
        fac = peak_reduce(path4, omega_factorization(path4, alpha), Wt)
        ok &= all(x == fac.profile[0] for x in fac.profile)
        ok &= compose_factors(path4, fac.factors) == alpha
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report("criterion 3 (fixed class, constant profile)", ok,
           "(%.2fs)" % elapsed)


def _random_block(rng, n, k):
    A = [list(r) for r in mat_identity(n)]
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            for col in range(n):
                A[i][col] += q * A[j][col]
    from fractions import Fraction
    B = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
          for _ in range(k)] for _ in range(n)]
    return BlockMatrix(n, k, A, B)


def test_criterion_4i_normal_form_uniqueness():
    start = time.time()
    rng = random.Random(101)
    for _ in range(100):
        n, k, m = rng.choice(((2, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)))
        rows = [[rng.randint(-4, 4) for _ in range(m)]
                for _ in range(n + k)]
        N1, _ = gq_normal_form(rows, n, k)
        P = _random_block(rng, n, k)
        N2, _ = gq_normal_form(P.act(rows), n, k)
        assert mat_eq(N1, N2)
    elapsed = time.time() - start
    report("criterion 4i (normal form uniqueness x100)", elapsed < 60,
           "(%.1fs)" % elapsed)


def _random_wh(g, a, rng, maxexp=2):
    basis = za_basis(g, a)
    n = len(g.adjdom_class(a))
    dim = len(basis)
    A = [list(r) for r in mat_identity(n)]
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


def test_criterion_4ii_eta_homomorphism(f2, split):
    from raagaut.aut import eta
    path4 = DefiningGraph(["a", "b", "c", "d"],
                          [["a", "b"], ["b", "c"], ["c", "d"]])
    start = time.time()
    rng = random.Random(102)
    pairs = 0
    graphs = (f2, split, path4)
    while pairs < 100:
        g = graphs[pairs % 3]
        a = rng.choice(g.vertices)
        x = _random_wh(g, a, rng)
        y = _random_wh(g, a, rng)
        assert eta(g, a, x.aut.compose(y.aut)) == \
            mat_mul(eta(g, a, x.aut), eta(g, a, y.aut))
        assert theta(g, a, eta(g, a, x.aut)).aut == x.aut
        pairs += 1
    elapsed = time.time() - start
    report("criterion 4ii (eta homomorphism + theta x100)", elapsed < 60,
           "(%.1fs)" % elapsed)


def test_criterion_4iii_length_delta(split):
    from raagaut.syllables import length_delta
    path4 = DefiningGraph(["a", "b", "c", "d"],
                          [["a", "b"], ["b", "c"], ["c", "d"]])
    start = time.time()
    rng = random.Random(103)
    done = 0
    while done < 200:
        g = (split, path4)[done % 2]
        a = rng.choice(g.vertices)
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        words = [tuple(rng.choice(letters)
                       for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 2))]
        U = class_tuple(g, words)
        d = decompose(g, a, U)
        phi = _random_wh(g, a, rng)
        assert length_delta(phi, d) == \
            phi.aut.apply_to_tuple(U).length - U.length
        done += 1
    elapsed = time.time() - start
    report("criterion 4iii (length delta x200)", elapsed < 60,
           "(%.1fs)" % elapsed)


def test_criterion_4iv_unimodal_profiles(f2, split):
    k2 = DefiningGraph(["a", "b"], [["a", "b"]])
    path4 = DefiningGraph(["a", "b", "c", "d"],
                          [["a", "b"], ["b", "c"], ["c", "d"]])
    start = time.time()
    rng = random.Random(104)
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
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        words = [tuple(rng.choice(letters)
                       for _ in range(rng.randint(1, 5)))]
        Wt = class_tuple(g, words)
        original = compose_factors(g, factors)
        fac = peak_reduce(g, factors, Wt)
        assert fac.is_unimodal()
        got = compose_factors(g, fac.factors) if fac.factors else \
            identity_automorphism(g)
        assert got == original
        done += 1
    elapsed = time.time() - start
    report("criterion 4iv (unimodal peak reduction x50)", elapsed < 60,
           "(%.1fs)" % elapsed)


def test_criterion_4v_steinberg_length_law(split):
    from raagaut.aut import support
    from raagaut.peak import fixes_class_pointwise, steinberg_conjugate
    path4 = DefiningGraph(["a", "b", "c", "d"],
                          [["a", "b"], ["b", "c"], ["c", "d"]])
    start = time.time()
    rng = random.Random(105)
    done = 0
    while done < 100:
        g = (split, path4)[done % 2]
        a, b = rng.sample(list(g.vertices), 2)
        if g.adjdom_class(a) == g.adjdom_class(b):
            continue
        alpha = _random_wh(g, a, rng)
        beta = _random_wh(g, b, rng)
        if not fixes_class_pointwise(alpha, g.adjdom_class(b)):
            continue
        if not g.adjacent(a, b):
            if support(alpha) & support(beta):
                continue
            if not fixes_class_pointwise(beta, g.adjdom_class(a)):
                continue
        letters = [(v, s) for v in g.vertices for s in (1, -1)]
        Wt = class_tuple(g, [tuple(rng.choice(letters)
                                   for _ in range(rng.randint(1, 4)))])
        steinberg_conjugate(alpha, beta)
        lhs = Wt.length - beta.aut.apply_to_tuple(Wt).length
        rhs = alpha.aut.apply_to_tuple(Wt).length - \
            alpha.aut.compose(beta.aut).apply_to_tuple(Wt).length
        assert lhs == rhs
        done += 1
    elapsed = time.time() - start
    report("criterion 4v (Steinberg length law x100)", elapsed < 60,
           "(%.1fs)" % elapsed)


def test_criterion_4vi_presentation_relators(split):
    from raagaut.exactmat import int_inverse
    start = time.time()
    # matrix presentations
    for m in (1, 2, 3):
        pres = gl_presentation(m)
        payloads = dict(pres.generators)
        for rel in pres.relators:
            assert mat_eq(evaluate_word(rel, payloads, mat_mul, int_inverse,
                                        mat_identity(m)), mat_identity(m))
    N = ((0,), (0,), (2,))
    _, pres = gd_stabilizer(N, 2, 1, 2)
    payloads = {nm: p for nm, p in pres.generators}
    for rel in pres.relators:
        assert evaluate_matrix_word(rel, payloads) == \
            BlockMatrix.identity(2, 1)
    spres, _ = g1_stabilizer_presentation([[1], [0], [2]], 2, 1)
    payloads = {nm: p for nm, p in spres.generators}
    for rel in spres.relators:
        assert evaluate_matrix_word(rel, payloads) == \
            BlockMatrix.identity(2, 1)
    # automorphism presentations
    U = class_tuple(split, [W("c a c b c b")])
    wpres, _ = wh_stabilizer_presentation(split, "a", frozenset(), U)
    payloads = {nm: wh.aut for nm, wh in wpres.generators}
    ident = identity_automorphism(split)
    for rel in wpres.relators:
        val = evaluate_word(rel, payloads, lambda x, y: x.compose(y),
                            lambda x: x.invert(), ident)
        assert val.is_identity()
    f2 = DefiningGraph(["a", "b"], [])
    from raagaut.apps import stabilizer_presentation
    apres = stabilizer_presentation(f2, class_tuple(f2, [W("a")]))
    payloads = {nm: aut for nm, aut in apres.generators}
    ident2 = identity_automorphism(f2)
    for rel in apres.relators:
        val = evaluate_word(rel, payloads, lambda x, y: x.compose(y),
                            lambda x: x.invert(), ident2)
        assert val.is_identity()
    elapsed = time.time() - start
    report("criterion 4vi (all relators are identities)", elapsed < 60,
           "(%.1fs)" % elapsed)


def test_criterion_5_oracle_equivalence(f2):
    from raagaut.apps import aut_orbit_decide
    start = time.time()
    rng = random.Random(106)
    letters = [(v, s) for v in f2.vertices for s in (1, -1)]

    def to_oracle(tup):
        code = {"a": 1, "b": 2}
        return tuple(tuple(code[g] * s for g, s in cls.word)
                     for cls in tup.entries)

    pool = []
    while len(pool) < 26:
        n = rng.randint(1, 8)
        word = tuple(rng.choice(letters) for _ in range(n))
        U = class_tuple(f2, [word])
        if 0 < U.length <= 8:
            pool.append(U)
    pool.append(class_tuple(f2, [W("a b a^-1 b^-1")]))
    pool.append(class_tuple(f2, [W("a a b b")]))
    pairs = 0
    agreements = 0
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            if pairs >= 220:
                break
            U, V = pool[i], pool[j]
            mine = aut_orbit_decide(f2, U, V) is not None
            theirs = oracle_equivalent(to_oracle(U), to_oracle(V), 2)
            assert mine == theirs, (U, V)
            agreements += 1
            pairs += 1
    # the commutator against a^2 b^2 must come out negative
    neg = aut_orbit_decide(f2, class_tuple(f2, [W("a b a^-1 b^-1")]),
                           class_tuple(f2, [W("a a b b")]))
    assert neg is None
    elapsed = time.time() - start
    ok = agreements >= 200 and elapsed < 300
    report("criterion 5 (classic Whitehead oracle x%d)" % agreements, ok,
           "(%.1fs)" % elapsed)


def test_criterion_6_certificate_fuzz(tmp_path, capsys):
    from raagaut.cli import main
    start = time.time()
    rng = random.Random(107)
    graphs = {
        "f2": '{"vertices": ["a","b"], "edges": []}',
        "split": '{"vertices": ["a","b","c","d"], '
                 '"edges": [["a","b"],["c","d"]]}',
    }
    paths = {}
    for name, text in graphs.items():
        p = tmp_path / (name + ".json")
        p.write_text(text)
        paths[name] = str(p)
    matp = tmp_path / "m.mat"

    def random_word(g_letters, lo=1, hi=4):
        return " ".join(
            "%s%s" % (rng.choice(g_letters), rng.choice(("", "^-1")))
            for _ in range(rng.randint(lo, hi)))

    runs = 0
    budget_exits = 0
    for _ in range(500):
        kind = rng.choice(("reduce", "conj", "orbit", "wh-orbit",
                           "minimize", "matrix-nf", "matrix-orbit",
                           "wh-stab"))
        gname = rng.choice(("f2", "split"))
        gl = ["a", "b"] if gname == "f2" else ["a", "b", "c", "d"]
        if rng.random() < 0.05:
            gl = gl + ["z"]  # occasionally invalid generators
        argv = [kind, "--graph", paths[gname], "--json"]
        if kind == "reduce":
            argv += ["--word", random_word(gl)]
        elif kind == "conj":
            argv += ["--word", random_word(gl), "--word2", random_word(gl)]
        elif kind in ("orbit", "wh-orbit"):
            argv += ["--tuple", random_word(gl, 1, 3),
                     "--tuple2", random_word(gl, 1, 3)]
            if kind == "wh-orbit":
                argv += ["--vertex", rng.choice(gl)]
        elif kind == "minimize":
            argv += ["--tuple", random_word(gl, 1, 3)]
        elif kind == "wh-stab":
            argv += ["--tuple", random_word(gl, 1, 2),
                     "--vertex", rng.choice(gl)]
        elif kind in ("matrix-nf", "matrix-orbit"):
            if rng.random() < 0.5:
                # the worked-example pair needs a denominator-2 Schreier
                # graph, so tiny budgets genuinely exhaust on it
                matp.write_text("2 1 1 1\n1\n0\n2")
                n, k, m = 2, 1, 1
            else:
                n, k, m = rng.choice(((2, 1, 1), (1, 1, 2)))
                rows = [[rng.randint(-2, 2) for _ in range(m)]
                        for _ in range(n + k)]
                matp.write_text("%d %d %d 1\n" % (n, k, m) + "\n".join(
                    " ".join(str(x) for x in row) for row in rows))
            argv += ["--matrix", str(matp)]
            if kind == "matrix-orbit":
                mat2 = tmp_path / "m2.mat"
                if rng.random() < 0.5 and (n, k, m) == (2, 1, 1):
                    mat2.write_text("2 1 1 1\n0\n0\n2")
                else:
                    rows2 = [[rng.randint(-2, 2) for _ in range(m)]
                             for _ in range(n + k)]
                    mat2.write_text("%d %d %d 1\n" % (n, k, m) + "\n".join(
                        " ".join(str(x) for x in row) for row in rows2))
                argv += ["--matrix2", str(mat2)]
        if rng.random() < (0.3 if kind == "matrix-orbit" else 0.04):
            argv += ["--max-vertices", "1"]
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 2:
            budget_exits += 1
        runs += 1
    elapsed = time.time() - start
    ok = runs == 500 and elapsed < 300
    report("criterion 6 (certificate fuzz x500, %d budget exits)"
           % budget_exits, ok, "(%.1fs)" % elapsed)
