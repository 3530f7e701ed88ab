"""Orbit decision and stabilizer presentations inside one generalized
Whitehead group, with optional support restriction.

The route is the syllable one: decompose, enumerate the permutations of the
target's decomposition that still decompose the target, substitute their
class exponents into the source frames, and solve the resulting matrix
orbit problem in the block group (with columns zeroed where the support
restriction demands it).
"""

from __future__ import annotations

from .aut import (Automorphism, GenWhitehead, compose_gw, eta,
                  identity_automorphism, support, theta, za_basis, za_dims)
from .core import ClassTuple, InputError, parse_word
from .exactmat import mat_mul
from .linalg import (BlockMatrix, LabeledGraph, Presentation,
                     g1_orbit_decide, g1_stabilizer_presentation,
                     presentation_from_finite_index)
from .syllables import (Decomposition, decompose, matching_permutations,
                        nu_matrix, syllable_count)


def parse_support(g, text):
    """Support sets are comma-separated letters like ``c,c^-1``."""
    letters = set()
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        w = parse_word(tok)
        if len(w) != 1:
            raise InputError("support entries must be single letters")
        g.check_letters(w)
        letters.add(w[0])
    return frozenset(letters)


def zero_columns_from_support(g, a, S):
    """Indices (into the non-class part of the basis) of columns forced to
    vanish: r_b for b in S, l_b for b^-1 in S, r_Y whenever the component
    meets S."""
    S = frozenset(S)
    for gen, _ in S:
        if gen in g.star(a):
            raise InputError("support restriction meets the star of %r" % a)
    basis = za_basis(g, a)
    n = len(g.adjdom_class(a))
    cols = set()
    for j, (kind, payload) in enumerate(basis[n:]):
        if kind == "r" and payload not in g.star(a) and (payload, 1) in S:
            cols.add(j)
        elif kind == "l" and (payload, -1) in S:
            cols.add(j)
        elif kind == "Y":
            if any(gen in payload for gen, _ in S):
                cols.add(j)
    return frozenset(cols)


def _substitutions(T: Decomposition, Tv: Decomposition, V: ClassTuple):
    """The decompositions of V on the frames of T: T with the class
    exponents of each permutation of Tv that decomposes V, each exponent
    assignment once."""
    seen = set()
    for perm in matching_permutations(Tv, V):
        exps = tuple(s.exps for s in perm.syllables)
        if exps in seen:
            continue
        seen.add(exps)
        cand = T.with_exps(exps)
        if cand.represents(V):
            yield cand


def wh_orbit_decide(g, a, S, U: ClassTuple, V: ClassTuple,
                    max_vertices=None):
    """An element of the support-restricted Whitehead group of [a] carrying
    U to V, or None.

    Soundness is rechecked on the witness before returning.
    """
    S = frozenset(S)
    if len(U.entries) != len(V.entries):
        return None
    for cu, cv in zip(U.entries, V.entries):
        if syllable_count(g, a, cu) != syllable_count(g, a, cv):
            return None
    T = decompose(g, a, U)
    zc = zero_columns_from_support(g, a, S)
    n, k = za_dims(g, a)
    nuT = nu_matrix(T)
    for cand in _substitutions(T, decompose(g, a, V), V):
        cert = g1_orbit_decide(nuT, nu_matrix(cand), n, k, zc,
                               max_vertices=max_vertices)
        if cert.witness is None:
            continue
        wh = theta(g, a, cert.witness)
        if wh.aut.apply_to_tuple(U) != V:
            raise AssertionError("orbit witness does not map U to V")
        if S and support(wh) & S:
            raise AssertionError("orbit witness violates the support "
                                 "restriction")
        return wh
    return None


def wh_stabilizer_presentation(g, a, S, U: ClassTuple, max_vertices=None):
    """Finite presentation of the support-restricted stabilizer of U in the
    Whitehead group of [a].

    Returns (presentation, rewrite) where ``rewrite`` writes further
    stabilizer elements (automorphisms) over the returned generators.
    """
    S = frozenset(S)
    T1 = decompose(g, a, U)
    zc = zero_columns_from_support(g, a, S)
    n, k = za_dims(g, a)
    nu1 = nu_matrix(T1)
    # candidate vertices: distinct exponent targets from valid permutations
    targets = [nu_matrix(cand) for cand in _substitutions(T1, T1, U)]

    pres_matrix, mrewrite = g1_stabilizer_presentation(
        nu1, n, k, zc, max_vertices=max_vertices)
    s2 = [(name, theta(g, a, payload))
          for name, payload in pres_matrix.generators]

    transversal = {}  # vertex -> its transversal letter (name, element)
    s1 = []
    for target in targets:
        if target == nu1:
            continue
        cert = g1_orbit_decide(nu1, target, n, k, zc,
                               max_vertices=max_vertices)
        if cert.witness is None:
            continue
        s1.append(("t%d" % len(s1), theta(g, a, cert.witness)))
        transversal[target] = s1[-1]

    graph = LabeledGraph()
    for v in [nu1] + list(transversal):
        graph.add_vertex(v)
    for name, wh in s1 + s2:
        mat = eta(g, a, wh.aut)
        for v in graph.payloads:
            img = mat_mul(mat, v)
            if img not in graph.vindex:
                raise AssertionError("stabilizer label leaves the vertex set")
            graph.add_edge(graph.vindex[v], graph.vindex[img], name, wh)

    def rewrite(aut: Automorphism):
        """Word over the presentation's generators for a stabilizer element
        of the Whitehead group of [a]: move to the base vertex with a
        transversal letter, then rewrite the matrix-stabilizer part."""
        mat = eta(g, a, aut)
        key = mat_mul(mat, nu1)
        if key == nu1:
            return mrewrite(_block_of(mat, n, k))
        if key not in transversal:
            raise InputError("element does not stabilize the tuple")
        name, wh = transversal[key]
        rest = eta(g, a, wh.aut.invert().compose(aut))
        return ((name, 1),) + mrewrite(_block_of(rest, n, k))

    ident = GenWhitehead(identity_automorphism(g), a)
    pres = presentation_from_finite_index(
        Presentation(s2, pres_matrix.relators), s1, graph,
        graph.vindex[nu1], lambda elem: rewrite(elem.aut), compose_gw,
        GenWhitehead.invert, ident)
    for name, wh in pres.generators:
        if wh.aut.apply_to_tuple(U) != U:
            raise AssertionError("stabilizer generator moves U")
        if S and support(wh) & S:
            raise AssertionError("stabilizer generator violates the support "
                                 "restriction")
    pres.check_relators(compose_gw, GenWhitehead.invert, ident)
    return pres, rewrite


def _block_of(mat, n, k):
    """The block matrix of an ``eta`` matrix."""
    A = [[mat[i][j] for j in range(n)] for i in range(n)]
    B = [[mat[i][j] for j in range(n, n + k)] for i in range(n)]
    return BlockMatrix(n, k, A, B)
