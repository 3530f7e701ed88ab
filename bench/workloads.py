"""Seeded benchmark inputs.

Each workload builds one *round*: a fixed-composition list of CLI queries
whose inputs are drawn from the seed.  The program only ever sees the files
and strings written here.  Every query carries the benchmark's own check of
the answer, which knows the expected outcome from how the input was built
or decides it with an invariant (see ``checks``).
"""

from __future__ import annotations

import json
import os
import sys

import checks
import raag
from raag import (F2, SPLIT, cyclic_reduce, format_tuple, format_word,
                  gcd_invariant, random_product, tuple_length)

WORKLOADS = ("orbit", "conj-peak", "schreier", "presentation")


class Query:
    """One query: a CLI argument list (``--json`` is appended when run) or,
    where the CLI cannot express the input, an in-process ``call`` that
    returns the answer as the CLI would print it; a label naming its size
    class; and the answer check."""

    __slots__ = ("label", "argv", "check", "call")

    def __init__(self, label, argv, check, call=None):
        self.label = label
        self.argv = argv
        self.check = check
        self.call = call


class Inputs:
    """Writes the input files of one run under a directory of its own."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.count = 0

    def write(self, stem, text):
        self.count += 1
        path = os.path.join(self.root, "%s-%d" % (stem, self.count))
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def graph(self, name):
        path = os.path.join(self.root, name + ".json")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump(raag.GRAPHS[name].to_json(), fh)
        return path


# -- random words and tuples --------------------------------------------------

def random_word(G, rng, length):
    """A cyclically reduced word of exactly ``length`` letters."""
    letters = [(v, s) for v in G.vertices for s in (1, -1)]
    while True:
        w = cyclic_reduce(G, [rng.choice(letters) for _ in range(length)])
        if len(w) == length:
            return w


def random_tuple(G, rng, arity, total):
    cuts = sorted(rng.sample(range(1, total), arity - 1)) if arity > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [random_word(G, rng, n) for n in sizes]


def image_tuple(G, rng, words, max_len):
    """The image of ``words`` under a seeded product of one to three
    Laurence generators whose cyclically reduced total length stays within
    ``max_len``."""
    while True:
        alpha = random_product(G, rng, rng.randint(1, 3))
        img = [cyclic_reduce(G, w) for w in alpha.apply_tuple(words)]
        if 0 < tuple_length(G, img) <= max_len and all(img):
            return img


# -- orbit: the whole-group pipeline ------------------------------------------

# The README orbit example and the slow stab-gens profile, both on the running
# example graph: fixed in every round.
README_ORBIT = ("c a c b c b", "c b c a b c b")
PROFILE_STAB = "c a c b"

# Per graph: (class, partner).  Each round draws seeded images of these
# classes, so the inputs change with the seed while the cost of a query,
# which follows the minimal tuple of its class, does not.  The partner has
# a different per-entry exponent gcd, so a pair of images of the class and
# its partner lies in two orbits; where both have the same minimal length
# the program has to build the orbit graph to tell them apart.
ORBIT_CLASSES = {
    "split": [("a d", "b b"), ("b b d", "a a a"), ("d^-1; b", "d d; b"),
              ("a^-1 c; c", "a a; c")],
    "path4": [("a^-1 d", "a a"), ("a a b^-1", "c c c"),
              ("b^-1; d", "b b; d"), ("a d d", "b b b")],
    "nodom6": [("e f", "e e"), ("c^-1 e", "m m"), ("m; c^-1", "m m; c"),
               ("b b f", "c c c")],
}
# Seeded stab-gens queries: images of the first class of each graph.
STAB_GENS_GRAPHS = ("path4", "nodom6")
# Orbit pairs (one positive, one negative) per class and round.  The 16
# nodom6 decisions, about 0.06 s each, are the middle of the round's 42
# queries, so the median latency falls among them and not on the edge
# between two kinds of query.
ORBIT_PAIRS = {"split": 1, "path4": 1, "nodom6": 2}


def orbit_round(rng, inp):
    split = inp.graph("split")
    qs = [Query("orbit readme",
                ["orbit", "--graph", split,
                 "--tuple", README_ORBIT[0], "--tuple2", README_ORBIT[1]],
                checks.orbit(SPLIT, raag.parse_tuple(README_ORBIT[0]),
                             raag.parse_tuple(README_ORBIT[1]), True)),
          Query("stab-gens profile",
                ["stab-gens", "--graph", split, "--tuple", PROFILE_STAB],
                checks.stab_gens(SPLIT, raag.parse_tuple(PROFILE_STAB)))]
    for name, classes in ORBIT_CLASSES.items():
        G = raag.GRAPHS[name]
        gpath = inp.graph(name)
        for idx, (text, partner) in enumerate(classes):
            base = raag.parse_tuple(text)
            other = raag.parse_tuple(partner)
            if gcd_invariant(G, base) == gcd_invariant(G, other):
                raise ValueError("%s and %s share their gcd invariant"
                                 % (text, partner))
            for _ in range(ORBIT_PAIRS[name]):
                U = image_tuple(G, rng, base, 5)
                V = image_tuple(G, rng, base, 5)
                qs.append(Query("orbit+ " + name,
                                ["orbit", "--graph", gpath, "--tuple",
                                 format_tuple(U), "--tuple2",
                                 format_tuple(V)],
                                checks.orbit(G, U, V, True)))
                V = image_tuple(G, rng, other, 5)
                qs.append(Query("orbit- " + name,
                                ["orbit", "--graph", gpath, "--tuple",
                                 format_tuple(U), "--tuple2",
                                 format_tuple(V)],
                                checks.orbit(G, U, V, False)))
            if idx < 2:
                W = image_tuple(G, rng, base, 5)
                qs.append(Query("minimize " + name,
                                ["minimize", "--graph", gpath,
                                 "--tuple", format_tuple(W)],
                                checks.minimize(G, W, tuple_length(G, base))))
        if name in STAB_GENS_GRAPHS:
            W = image_tuple(G, rng, raag.parse_tuple(classes[0][0]), 5)
            qs.append(Query("stab-gens " + name,
                            ["stab-gens", "--graph", gpath,
                             "--tuple", format_tuple(W)],
                            checks.stab_gens(G, W)))
    return qs


# -- conj-peak: canonical classes and peak reduction --------------------------

def conjugate_pair(G, rng, w):
    """A rotation of ``w`` conjugated by a random two-letter word, so the
    program has to cyclically reduce and canonicalize it."""
    r = rng.randrange(len(w))
    u = random_word(G, rng, 2)
    return raag.reduce(G, raag.inverse(u) + w[r:] + w[:r] + u)


def commuting_run(m):
    return raag.parse_word(" ".join(["a b c d"] * m))


def peak_call(graph_path, tuple_text, factors_path):
    """Peak-reduce a factor list in-process, the way ``cmd_peak_reduce``
    does.  The CLI's ``--aut`` accepts only a single generalized Whitehead
    element, so a product of several generators cannot go through it."""
    def call():
        core = sys.modules["raagaut.core"]
        aut = sys.modules["raagaut.aut"]
        peak = sys.modules["raagaut.peak"]
        g = core.DefiningGraph.load(graph_path)
        W = core.parse_tuple(g, tuple_text)
        with open(factors_path) as fh:
            data = json.load(fh)
        factors = []
        for f in data:
            factors.extend(peak.omega_factorization(
                g, aut.Automorphism.from_json(g, f)))
        return peak.peak_reduce(g, factors, W).to_json()
    return call


# Peak-reduction panel: per graph, (tuple, factors) with each factor an
# index into ``raag.laurence_generators(G)`` and +1 or -1 for its inverse.
# Tuples have total length 13 to 20.  Peak reduction is heavy-tailed (a
# few seconds to minutes at these sizes, from the exponential conjugacy
# canonicalization), so the timed panel keeps instances that take about
# 0.01 to 1 s and a run holds enough queries; the conj m=6 queries and the
# peak scaling series, whose instances are not chosen by run time (see
# ``series``), carry the steep end.  Each round relabels every instance
# by a seeded letter-permuting automorphism psi (W -> psi(W), f -> psi f
# psi^-1), which changes the input but not the shape of the problem.
PEAK_PANEL = {
    "split": [
        ("b a b a b a b a b; a b d c b a b a b a b", [(13, 1), (0, -1)]),
        ("a^-1 b^-1 c^-1 d^-1 c^-1 a^-1 b^-1 a^-1 a^-1 b^-1 a^-1; "
         "c^-1 d^-1 c^-1 d^-1 c^-1", [(2, 1), (6, -1)]),
        ("a^-1 b a^-1; c d d c d c d d c d d c d d c d",
         [(8, 1), (9, 1), (1, 1), (4, -1)]),
        ("d^-1 c^-1 d^-1 a^-1 b^-1 a^-1 b^-1 a^-1; a b a b a d c d",
         [(15, 1), (16, -1), (0, 1), (15, -1)]),
        ("d c; c d c c d c a b a b a d c",
         [(9, -1), (13, 1), (9, 1), (5, -1), (17, -1), (15, -1)]),
        ("a^-1 b^-1 d c d c d c d; d^-1 c^-1 d^-1 c^-1 d^-1 a^-1",
         [(8, -1), (7, -1), (3, -1), (14, -1), (17, 1), (11, 1)]),
        ("b^-1 a^-1 b^-1 b^-1 a^-1; a b a b b a b b c^-1 d",
         [(17, 1), (11, -1), (1, -1), (7, 1), (12, -1), (7, -1), (4, -1),
          (0, -1)]),
        ("a^-1 b^-1 a^-1 a^-1 b^-1 c^-1 d; "
         "a^-1 b^-1 a^-1 a^-1 b^-1 a^-1 b^-1 a^-1 a^-1 b^-1 a^-1 b^-1 a^-1",
         [(9, 1), (14, -1), (12, -1), (4, -1), (14, -1), (7, 1), (15, 1),
          (16, 1)]),
    ],
    "nodom6": [
        ("m^-1 m^-1 e^-1; c a c a c^-1 e m m e m m", [(14, -1), (11, -1)]),
        ("f m a m; m^-1 f^-1 c c a^-1 c^-1 c^-1 b^-1 c c a c^-1 c^-1 a^-1",
         [(3, -1), (24, 1)]),
        ("m e b c b^-1 m^-1 c f c^-1 m b c^-1; c b^-1 c a c^-1 b c^-1 b^-1",
         [(1, 1), (11, 1), (21, -1), (20, -1)]),
        ("f; a c b b c^-1 m f c b^-1 b^-1 c^-1 a^-1 m b^-1 c^-1 a^-1 b b",
         [(15, 1), (20, 1), (22, -1), (26, -1)]),
        ("b^-1; c a c a^-1 c^-1 b c a c a^-1 c^-1 b c a c a^-1 c^-1 b m^-1",
         [(3, -1), (25, -1), (0, 1), (27, 1), (10, -1), (16, 1)]),
        ("b c a c f m f^-1 c^-1 a^-1 c^-1; c a^-1 m^-1",
         [(14, -1), (0, -1), (27, 1), (16, 1), (9, 1), (5, 1)]),
        ("f m a; m c a a c^-1 b^-1 c a^-1 c^-1 b c b c a c^-1 b",
         [(16, -1), (6, 1), (16, -1), (6, -1), (0, -1), (3, -1), (9, 1),
          (27, -1)]),
        ("m^-1; b c b a b^-1 c^-1 a^-1 b^-1 c^-1 b^-1 c b a f b^-1 c^-1",
         [(2, 1), (13, 1), (4, -1), (12, -1), (6, -1), (17, 1), (11, -1),
          (21, 1)]),
    ],
}


def peak_query(name, text, picks, inp, psi=None):
    """One panel instance, relabeled by ``psi`` when given."""
    G = raag.GRAPHS[name]
    gens = raag.laurence_generators(G)
    factors = [gens[i] if s > 0 else gens[i].invert() for i, s in picks]
    W = raag.parse_tuple(text)
    if psi is not None:
        W = psi.apply_tuple(W)
        factors = [psi.compose(f).compose(psi.invert()) for f in factors]
    alpha = raag.Aut.identity(G)
    for f in factors:
        alpha = f.compose(alpha)
    fpath = inp.write("factors", json.dumps([f.to_json() for f in factors]))
    return Query("peak n=%d" % len(picks), None,
                 checks.peak_reduce(G, W, alpha),
                 peak_call(inp.graph(name), format_tuple(W), fpath))


# m -> (conjugate pairs, non-conjugate pairs) per round.  A non-conjugate
# pair canonicalizes two classes, a conjugate pair one (the second word
# hits the per-graph memo).  The twelve m = 4 non-conjugate pairs are the
# middle of the round, so the median latency falls among them.
CONJ_COUNTS = {3: (3, 3), 4: (2, 12), 5: (0, 5), 6: (1, 0)}


def conj_peak_round(rng, inp):
    qs = []
    gpath = inp.graph("split")
    for m, (npos, nneg) in CONJ_COUNTS.items():
        w = commuting_run(m)
        for i in range(npos + nneg):
            w1 = conjugate_pair(SPLIT, rng, w)
            expect = i < npos
            if expect:
                w2 = conjugate_pair(SPLIT, rng, w)
            else:
                # flip one letter: the exponent-sum vector changes, so the
                # two words cannot be conjugate
                j = rng.randrange(len(w))
                w2 = w[:j] + ((w[j][0], -w[j][1]),) + w[j + 1:]
                w2 = conjugate_pair(SPLIT, rng, w2)
            qs.append(Query("conj%s m=%d" % ("+" if expect else "-", m),
                            ["conj", "--graph", gpath,
                             "--word", format_word(w1),
                             "--word2", format_word(w2)],
                            checks.conj(SPLIT, w1, w2, expect)))
    for name, panel in PEAK_PANEL.items():
        syms = raag.symmetries(raag.GRAPHS[name])
        for text, picks in panel:
            qs.append(peak_query(name, text, picks, inp, rng.choice(syms)))
    return qs


# -- schreier: integer block matrices -----------------------------------------

def unimodular(rng, n):
    """A seeded integer matrix of determinant +-1: a product of elementary
    row operations."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(2, 4)):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        P[i] = [x + q * y for x, y in zip(P[i], P[j])]
    if rng.random() < 0.5:
        P[0] = [-x for x in P[0]]
    return P


def block_matrix(rng, n, k, d):
    """An integral [[P, R], [0, I]] with det P = +-1."""
    P = unimodular(rng, n)
    R = [[rng.randint(-d, d) for _ in range(k)] for _ in range(n)]
    rows = [P[i] + R[i] for i in range(n)]
    rows += [[int(i == j) for j in range(n + k)] for i in range(n, n + k)]
    return rows


def matrix_input(rng, n, k, d):
    """Top rows P*[I; 0] + d*R over a bottom block d*I, for seeded P
    unimodular and R integral.  The rational normal form has denominator d,
    so the Schreier graph has d^(n*k) vertices, and the top block is
    primitive modulo d for every seed, so the component searched, and with
    it the cost, does not depend on the seed."""
    P = unimodular(rng, n)
    top = [[P[i][j] if j < n else 0 for j in range(k)] for i in range(n)]
    top = [[x + d * rng.randint(-2, 2) for x in row] for row in top]
    bottom = [[d * int(i == j) for j in range(k)] for i in range(k)]
    return top + bottom


def matrix_file(inp, rows, n, k):
    return inp.write("mat", raag.format_matrix_text(rows, n, k))


# (k, d): residue count d^(2k) from 16 to 4096.  Three instances at 2401
# residues: with matrix-stab at 81 they are the cluster the p90 latency
# falls in, rather than the gap between two sizes.
ORBIT_SIZES = ((1, 4), (1, 9), (1, 16), (1, 25), (2, 2), (2, 3), (2, 4),
               (2, 5), (2, 6), (2, 7), (2, 7), (2, 7), (2, 8))
STAB_SIZES = ((1, 4), (1, 6), (2, 2), (2, 3), (2, 4))


def schreier_round(rng, inp):
    n = 2
    qs = []
    for k, d in ORBIT_SIZES:
        A = matrix_input(rng, n, k, d)
        B = raag.mat_mul(block_matrix(rng, n, k, d), A)
        pa, pb = matrix_file(inp, A, n, k), matrix_file(inp, B, n, k)
        group = "nf-%d" % len(qs)
        qs.append(Query("matrix-nf", ["matrix-nf", "--matrix", pa],
                        checks.matrix_nf(A, n, k, group)))
        qs.append(Query("matrix-nf", ["matrix-nf", "--matrix", pb],
                        checks.matrix_nf(B, n, k, group)))
        qs.append(Query("matrix-orbit res=%d" % d ** (n * k),
                        ["matrix-orbit", "--matrix", pa, "--matrix2", pb],
                        checks.matrix_orbit(A, B, n, k)))
    for k, d in STAB_SIZES:
        A = matrix_input(rng, n, k, d)
        qs.append(Query("matrix-stab res=%d" % d ** (n * k),
                        ["matrix-stab", "--matrix", matrix_file(inp, A, n, k)],
                        checks.matrix_stab(A, n, k)))
    return qs


# -- presentation: stabilizer presentations -----------------------------------

# Fixed F2 classes whose stabilizer presentations are built in every round,
# each from a seeded image so the minimization step runs too.
STAB_PRES_F2 = ("a b a^-1 b^-1", "a b a b^-1")
# Running example: every support set outside st(a) for vertex a.
RUNNING_WH = "a c b c"
# Seeded wh-stab queries per graph (split and path4) and round.
WH_PER_GRAPH = 200


def supports(G, a):
    letters = [(v, s) for v in G.vertices if v not in G.star(a)
               for s in (1, -1)]
    out = []
    for mask in range(1, 1 << len(letters)):
        out.append([letters[i] for i in range(len(letters)) if mask >> i & 1])
    return out


def presentation_round(rng, inp):
    qs = []
    for text in STAB_PRES_F2:
        base = raag.parse_tuple(text)
        group = "stab-pres-%s" % text
        for _ in range(2):
            W = image_tuple(F2, rng, base, 8)
            qs.append(Query("stab-pres", ["stab-pres", "--graph",
                                          inp.graph("f2"),
                                          "--tuple", format_tuple(W)],
                            checks.stab_pres(group)))
    gpath = inp.graph("split")
    U = raag.parse_tuple(RUNNING_WH)
    for S in supports(SPLIT, "a"):
        qs.append(Query("wh-stab running",
                        ["wh-stab", "--graph", gpath, "--vertex", "a",
                         "--tuple", RUNNING_WH,
                         "--support", ",".join(format_word([x]) for x in S)],
                        checks.wh_stab(SPLIT, U)))
    for name in ("split", "path4"):
        G = raag.GRAPHS[name]
        gpath = inp.graph(name)
        for i in range(WH_PER_GRAPH):
            a = G.vertices[i % len(G.vertices)]
            W = random_tuple(G, rng, 1 + i % 2, rng.randint(3, 6))
            opts = supports(G, a)
            S = rng.choice(opts) if opts and rng.random() < 0.75 else []
            qs.append(Query("wh-stab",
                            ["wh-stab", "--graph", gpath, "--vertex", a,
                             "--tuple", format_tuple(W),
                             "--support",
                             ",".join(format_word([x]) for x in S)],
                            checks.wh_stab(G, W)))
    return qs


ROUNDS = {"orbit": orbit_round, "conj-peak": conj_peak_round,
          "schreier": schreier_round, "presentation": presentation_round}
