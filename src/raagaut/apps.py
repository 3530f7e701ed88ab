"""Top-level algorithms: tuple minimization, the finite orbit graph, orbit
decision under the whole automorphism group, stabilizer generators, and the
stabilizer presentation complex.

Reachable same-length or shorter tuples under one multiplier group are
enumerated by sweeping candidate class-exponent matrices over the tuple's
own syllable frames: the substitution form of the action makes this sweep
exhaustive, so no global enumeration of shorter tuples is needed (the
tests cross-check against that enumeration, ``oracles.enumeration_minimize``).

The orbit graph is taken up to the finite group P of signed graph
symmetries, as in Whitehead's algorithm and McCool's: its vertices are
P-orbit representatives, an orbit map places every tuple of the component
at its representative, the sweeps run once per representative, and the
loops include the symmetries that fix each representative.
"""

from __future__ import annotations

from .aut import (Automorphism, classic_choices, classic_whitehead,
                  conjugation_by, conjugation_letter_factors,
                  enumerate_classic_whitehead, identity_automorphism,
                  is_long_range, permutation_automorphisms, support, theta,
                  za_dims)
from .core import ClassTuple, conj_class, cyclically_reduce, reduce_word
from .errors import BudgetError, InputError
from .linalg import LabeledGraph, Presentation, g1_orbit_decide
from .peak import (classic_factor_list, fixes_class_pointwise,
                   long_range_peak_reduce)
from .syllables import decompose, nu_matrix
from .whorbit import wh_stabilizer_presentation, zero_columns_from_support

DELTA_VERTEX_BUDGET = 2000
Z_VERTEX_BUDGET = 60
SWEEP_BUDGET = 200_000


def _class_reps(g):
    """One vertex per star-equality class."""
    seen = set()
    reps = []
    for v in g.vertices:
        cls = g.adjdom_class(v)
        if cls not in seen:
            seen.add(cls)
            reps.append(v)
    return reps


def _vectors_of_norm_at_most(n, budget):
    """Integer vectors of dimension n with 1-norm at most budget."""
    if n == 0:
        yield ()
        return
    for head in range(-budget, budget + 1):
        for tail in _vectors_of_norm_at_most(n - 1, budget - abs(head)):
            yield (head,) + tail


def _exponent_assignments(mults, n, total, exact):
    """Assignments of new class-exponent columns to column groups (given by
    their multiplicities), with the weighted norm equal to the total when
    exact, strictly below it otherwise."""

    def rec(idx, remaining):
        if idx == len(mults):
            if (exact and remaining == 0) or (not exact and remaining >= 1):
                yield {}
            return
        mult = mults[idx]
        for vec in _vectors_of_norm_at_most(n, remaining // mult):
            cost = mult * sum(abs(x) for x in vec)
            for rest in rec(idx + 1, remaining - cost):
                out = dict(rest)
                out[idx] = vec
                yield out

    return rec(0, total)


def wh_reachable(g, a, U: ClassTuple, shorter=False, zero_columns=frozenset(),
                 budget=None):
    """All tuples reachable from U inside the support-restricted Whitehead
    group of [a] with the same total length (or strictly shorter), each with
    a verified witness.  ``budget`` caps the candidate exponent assignments
    (None: ``SWEEP_BUDGET``).

    Yields (tuple, GenWhitehead) pairs; the starting tuple itself is not
    reported.
    """
    if budget is None:
        budget = SWEEP_BUDGET
    T = decompose(g, a, U)
    nuT = nu_matrix(T)
    n, k = za_dims(g, a)
    cols = [tuple(nuT[i][j] for i in range(len(nuT)))
            for j in range(len(T.syllables))]
    tops = [col[:n] for col in cols]
    bottoms = [col[n:] for col in cols]
    total = sum(sum(abs(x) for x in top) for top in tops)
    group_of = {}
    col_group = []
    mults = []
    for top, bottom in zip(tops, bottoms):
        key = (top, bottom)
        if key not in group_of:
            group_of[key] = len(mults)
            mults.append(0)
        gi = group_of[key]
        mults[gi] += 1
        col_group.append(gi)
    seen_targets = set()
    count = 0
    for assign in _exponent_assignments(mults, n, total, exact=not shorter):
        count += 1
        if count > budget:
            raise BudgetError.exceeded("wh_reachable candidates", count,
                                       budget)
        newexps = [assign[col_group[j]] for j in range(len(cols))]
        if not shorter and newexps == list(tops):
            continue
        cand = T.with_exps(newexps)
        ok = True
        words = []
        for b in range(len(cand.blocks)):
            word = cand.class_word(b)
            cls = conj_class(g, word)
            if cls.length != len(word):
                ok = False
                break
            words.append(cls)
        if not ok:
            continue
        target = ClassTuple(words)
        if shorter and target.length >= U.length:
            continue
        if target == U or target in seen_targets:
            continue
        cert = g1_orbit_decide(nuT, nu_matrix(cand), n, k, zero_columns)
        if cert.witness is None:
            continue
        wh = theta(g, a, cert.witness)
        if wh.aut.apply_to_tuple(U) != target:
            raise AssertionError("sweep witness does not map to its target")
        seen_targets.add(target)
        yield target, wh


def classic_length(g, m, supp, U: ClassTuple, lengths):
    """Total length of the image of U under the classic Whitehead move with
    multiplier letter m and support supp, without building the move: each
    letter (x, s) becomes m^-1 (x, s) m with m^-1 present when (x, -s) is in
    the support and m when (x, s) is, and a class is as long as its
    cyclically reduced words, so each class's ``rep`` is read and no
    canonical word is computed.  A class the move leaves letter for letter
    keeps its length; ``lengths`` memoizes substituted word -> cyclic
    length, since choices that differ only on generators outside a class
    substitute the same word."""
    supp = frozenset(supp)
    minv = (m[0], -m[1])
    total = 0
    for cls in U:
        word = []
        for x in cls.rep:
            if (x[0], -x[1]) in supp:
                word.append(minv)
            word.append(x)
            if x in supp:
                word.append(m)
        if len(word) == cls.length:
            total += cls.length
            continue
        word = tuple(word)
        n = lengths.get(word)
        if n is None:
            n = lengths[word] = len(cyclically_reduce(g, word))
        total += n
    return total


def minimize_tuple(g, U: ClassTuple):
    """A minimal-length tuple in the orbit of U together with a minimizing
    automorphism.

    Descends by single classic moves first, taking the first move of
    ``classic_choices`` whose ``classic_length`` is shorter and building only
    that one, then certifies via the reachable-shorter sweep for every
    multiplier class.
    """
    cur = U
    total = identity_automorphism(g)
    while True:
        step = None
        lengths = {}
        for m, supp in classic_choices(g):
            if classic_length(g, m, supp, cur, lengths) < cur.length:
                aut = classic_whitehead(g, m, supp, _skip_check=True).aut
                img = aut.apply_to_tuple(cur)
                if img.length >= cur.length:
                    raise AssertionError(
                        "classic move does not shorten the tuple")
                step = (aut, img)
                break
        if step is None:
            for a in _class_reps(g):
                for target, wh in wh_reachable(g, a, cur, shorter=True):
                    step = (wh.aut, target)
                    break
                if step is not None:
                    break
        if step is None:
            break
        aut, cur = step
        total = aut.compose(total)
    if total.apply_to_tuple(U) != cur:
        raise AssertionError("minimizer does not map to the minimum")
    return cur, total


class OrbitGraph(LabeledGraph):
    """The orbit graph on P-orbit representatives.  ``orbit`` maps every
    tuple of the component, in discovery order, to (representative vertex,
    p) with p an automorphism in P and p(representative) = tuple."""

    def __init__(self):
        super().__init__()
        self.orbit = {}


def build_delta(g, W_min: ClassTuple, with_stabilizers=False,
                max_vertices=None):
    """The finite orbit graph on the component of a minimal tuple, taken up
    to the finite group P of signed graph symmetries
    (``permutation_automorphisms``).

    Vertices are P-orbit representatives, the first one W_min, and edges
    carry automorphisms.  A new tuple's whole P-orbit enters ``orbit`` at
    once, in the order of P; ``max_vertices`` (None:
    ``DELTA_VERTEX_BUDGET``) caps the tuples there, not the
    representatives.  Reachability is P-equivariant, because p
    conjugates the Whitehead group of [a] onto that of [p(a)], so
    ``wh_reachable`` sweeps only at representatives: a witness wh from R to
    q(R') becomes the edge R -> R' carrying q^-1 wh.  Every non-identity
    element of the setwise stabilizer Stab_P(R) is a loop at R.
    ``with_stabilizers`` adds the Whitehead stabilizer generators at R;
    with those, the loops of this graph generate the stabilizer of W_min
    (Schreier's lemma on the groupoid of the all-tuple graph)."""
    if max_vertices is None:
        max_vertices = DELTA_VERTEX_BUDGET
    perms = [p.aut for p in permutation_automorphisms(g)]
    graph = OrbitGraph()
    orbit = graph.orbit
    edge_seen = set()

    def add_edge(src, dst, aut, prefix):
        if aut.is_identity():
            return
        key = (src, aut.key())
        if key not in edge_seen:
            edge_seen.add(key)
            graph.add_edge(src, dst, "%s%d" % (prefix, len(graph.edges)), aut)

    def locate(W):
        """(representative vertex, q) for W; a new W represents its orbit."""
        if W not in orbit:
            rep = graph.add_vertex(W)
            for p in perms:
                image = p.apply_to_tuple(W)
                if image not in orbit:
                    if len(orbit) >= max_vertices:
                        raise BudgetError.exceeded(
                            "build_delta tuples", len(orbit) + 1,
                            max_vertices)
                    orbit[image] = (rep, p)
                if image == W:
                    add_edge(rep, rep, p, "p")
        return orbit[W]

    locate(W_min)
    src = 0
    while src < graph.n_vertices():
        R = graph.payloads[src]
        for a in _class_reps(g):
            for target, wh in wh_reachable(g, a, R):
                dst, q = locate(target)
                add_edge(src, dst, q.invert().compose(wh.aut), "w")
            if with_stabilizers:
                pres, _ = wh_stabilizer_presentation(g, a, frozenset(), R)
                for _, wh in pres.generators:
                    add_edge(src, src, wh.aut, "s")
        src += 1
    for (src, dst, _, aut) in graph.edges:
        if aut.apply_to_tuple(graph.payloads[src]) != graph.payloads[dst]:
            raise AssertionError("orbit graph edge label mismatch")
    return graph


def _delta_cached(g, W_min, with_stabilizers, max_vertices):
    """``build_delta`` once per graph and arguments: a graph built under one
    budget does not answer a call under another."""
    cache = g._cache.setdefault("delta", {})
    key = (W_min, with_stabilizers, max_vertices)
    if key not in cache:
        cache[key] = build_delta(g, W_min, with_stabilizers, max_vertices)
    return cache[key]


def _aut_letter(aut, fwd):
    """The automorphism an orbit-graph edge carries in the direction it is
    crossed."""
    return aut if fwd else aut.invert()


def _wh_letter(wh, fwd):
    """The same for an edge of the presentation complex."""
    return _aut_letter(wh.aut, fwd)


def aut_orbit_decide(g, U: ClassTuple, V: ClassTuple, max_vertices=None):
    """An automorphism carrying U to V, or None: minimize both sides, then
    look for V's minimum among the tuples of the orbit graph of U's
    minimum, and follow the tree path to its representative."""
    if len(U.entries) != len(V.entries):
        return None
    U_min, mu = minimize_tuple(g, U)
    V_min, mv = minimize_tuple(g, V)
    if U_min.length != V_min.length:
        return None
    graph = _delta_cached(g, U_min, False, max_vertices)
    if V_min not in graph.orbit:
        return None
    rep, q = graph.orbit[V_min]
    parent = graph.bfs_tree(graph.vindex[U_min])
    alpha = graph.path_element(graph.tree_path(parent, rep), _aut_letter,
                               Automorphism.compose,
                               identity_automorphism(g))
    result = mv.invert().compose(q).compose(alpha).compose(mu)
    if result.apply_to_tuple(U) != V:
        raise AssertionError("orbit witness does not map U to V")
    return result


def stabilizer_generators(g, W: ClassTuple, max_vertices=None):
    """A finite generating set for the stabilizer of W: fundamental-group
    generators of the orbit graph at the minimum, whose loops include the
    symmetries fixing each representative, conjugated back."""
    W_min, mu = minimize_tuple(g, W)
    graph = _delta_cached(g, W_min, True, max_vertices)
    _, loops = graph.schreier_generators(
        graph.vindex[W_min], _aut_letter, Automorphism.compose,
        Automorphism.invert, identity_automorphism(g))
    gens = []
    seen = set()
    mu_inv = mu.invert()
    for _, elem in loops:
        if elem.is_identity():
            continue
        out = mu_inv.compose(elem).compose(mu)
        if out.apply_to_tuple(W) != W:
            raise AssertionError("stabilizer generator moves W")
        if out not in seen:
            seen.add(out)
            gens.append(out)
    return gens


# -- the stabilizer presentation complex --------------------------------------

def _powerset(letters):
    letters = sorted(letters)
    for mask in range(1 << len(letters)):
        yield frozenset(letters[i] for i in range(len(letters))
                        if mask >> i & 1)


class StabComplex:
    """1-skeleton plus 2-cells; each cell is a closed edge path (steps of
    (edge index, forward)) with its kind tag."""

    def __init__(self, graph, cells):
        self.graph = graph
        self.cells = cells


def build_Z(g, W_min: ClassTuple, max_vertices=None):
    """The presentation complex: the orbit component with classic-move and
    support-restricted edges, stabilizer loops, and the seven cell families.

    The C3 cells are every loop of 2 to 5 classic edges (classic Whitehead
    moves and permutations) that composes to the identity, each once up to
    rotation and reversal, leaving out loops in which a step is followed,
    cyclically, by its own inverse edge, except the two-edge loops
    ``e, inverse(e)``.  They are enumerated completely, with no budget: a
    loop is a path of at most 3 classic edges and a path of at most 2 from
    the same vertex with the same automorphism, so the cost is the classic
    out-degree cubed per vertex.

    Small instances only: ``max_vertices`` (None: ``Z_VERTEX_BUDGET``) caps
    the tuples of the orbit component, and the per-vertex, per-class,
    per-support-subset stabilizer loops are an exponential wall by
    construction.
    """
    if max_vertices is None:
        max_vertices = Z_VERTEX_BUDGET
    delta = _delta_cached(g, W_min, False, max_vertices)
    graph = LabeledGraph()
    for key in delta.orbit:
        graph.add_vertex(key)
    vertices = list(graph.vindex.keys())

    edge_by_key = {}

    def add_edge(src, dst, wh):
        key = (src, wh.aut.key())
        if key in edge_by_key:
            return edge_by_key[key]
        idx = graph.add_edge(src, dst, "e%d" % len(graph.edges), wh)
        edge_by_key[key] = idx
        return idx

    # classic Whitehead edges (including permutations)
    classics = [w for w in enumerate_classic_whitehead(g)
                if not w.aut.is_identity()]
    perms = [w for w in permutation_automorphisms(g)
             if not w.aut.is_identity()]
    for W1 in vertices:
        src = graph.vindex[W1]
        for wh in classics + perms:
            target = wh.aut.apply_to_tuple(W1)
            if target in graph.vindex:
                add_edge(src, graph.vindex[target], wh)
    # support-restricted witness edges, stabilizer loops and, for the empty
    # support, the rewriters of stabilizer elements as loop words
    rewriters = {}
    cells = []
    for W1 in vertices:
        src = graph.vindex[W1]
        for a in _class_reps(g):
            letters = [(v, s) for v in g.vertices
                       if v not in g.star(a) for s in (1, -1)]
            for S in _powerset(letters):
                zc = zero_columns_from_support(g, a, S)
                for target, wh in wh_reachable(g, a, W1, zero_columns=zc):
                    if target in graph.vindex:
                        add_edge(src, graph.vindex[target], wh)
                pres, rewrite = wh_stabilizer_presentation(g, a, S, W1)
                name_to_edge = {name: add_edge(src, src, wh)
                                for name, wh in pres.generators}
                if not S:
                    rewriters[(src, a)] = (rewrite, name_to_edge)
                # C1 cells: the relators of each stabilizer presentation
                for rel in pres.relators:
                    steps = [(name_to_edge[nm], sgn > 0) for nm, sgn in rel]
                    if steps:
                        cells.append(("C1", src, steps))

    def loop_word_for(src, a, aut):
        rewrite, table = rewriters[(src, a)]
        return [(table[nm], sgn > 0) for nm, sgn in rewrite(aut)]

    def edge_of(src, aut):
        return edge_by_key.get((src, aut.key()))

    # C2: non-classic long-range edges against classic factorizations
    classic_keys = {w.aut.key() for w in classics + perms}
    for idx, (src, dst, name, wh) in enumerate(list(graph.edges)):
        if wh.vertex is None:
            continue
        if wh.aut.key() in classic_keys or not is_long_range(wh):
            continue
        base = graph.payloads[src]
        fac = long_range_peak_reduce(g, classic_factor_list(wh), base)
        steps = []
        cur = src
        ok = True
        for f in fac:
            e = edge_of(cur, f.aut)
            if e is None:
                ok = False
                break
            steps.append((e, True))
            cur = graph.edges[e][1]
        if ok and cur == dst:
            cells.append(("C2", src, steps + [(idx, False)]))

    # C3: short classic loops composing to the identity.  A loop of at most
    # 5 edges is a path p of at most 3 and a path q of at most 2 from the
    # same vertex with the same automorphism, hence the same end, closed by
    # walking q back along inverse edges; only the paths of at most 2 edges
    # are stored
    classic_out = [[e for e in graph.out[v].values()
                    if graph.edges[e][3].aut.key() in classic_keys]
                   for v in range(graph.n_vertices())]
    inverse = {}
    for out in classic_out:
        for e in out:
            _, d, _, wh = graph.edges[e]
            inv = edge_of(d, wh.aut.invert())
            if inv is None:
                raise AssertionError("classic edge without an inverse edge")
            inverse[e] = inv

    def classic_paths(src, depth):
        """(path, automorphism) for the classic paths of at most depth
        edges from src, depth first."""
        stack = [((), src, identity_automorphism(g))]
        while stack:
            path, v, comp = stack.pop()
            yield path, comp
            if len(path) < depth:
                for e in classic_out[v]:
                    _, d, _, wh = graph.edges[e]
                    stack.append((path + (e,), d, wh.aut.compose(comp)))

    short_loops = set()
    for src in range(graph.n_vertices()):
        halves = {}
        for q, comp in classic_paths(src, 2):
            halves.setdefault(comp.key(), []).append(q)
        for p, comp in classic_paths(src, 3):
            for q in halves.get(comp.key(), ()):
                if p == q:
                    continue
                loop = p + tuple(inverse[e] for e in reversed(q))
                if _is_reduced_loop(loop, inverse):
                    short_loops.add(_loop_key(loop, inverse))
    for loop in sorted(short_loops):
        cells.append(("C3", graph.edges[loop[0]][0],
                      [(e, True) for e in loop]))

    # C4: conjugating inner classic loops across edges; the conjugate of a
    # letter conjugation is conjugation by the letter's image
    inner_classics = [((v, s), conjugation_by(g, ((v, s),)))
                      for v in g.vertices for s in (1, -1)]
    for idx, (src, dst, name, wh) in enumerate(list(graph.edges)):
        if wh.vertex is None:
            continue
        for letter, beta in inner_classics:
            bloop = edge_of(src, beta)
            if bloop is None:
                continue
            wit = reduce_word(g, wh.aut.apply_to_word((letter,)))
            letters = conjugation_letter_factors(g, wit)
            steps = [(idx, False), (bloop, True), (idx, True)]
            ok = True
            tail = []
            for f in reversed(letters):
                e = edge_of(dst, f.aut)
                if e is None:
                    ok = False
                    break
                tail.append((e, False))
            if ok:
                cells.append(("C4", dst, steps + tail))

    # C5: same-class triangles against stabilizer loops
    for e1, (s1, d1, _, w1) in enumerate(graph.edges):
        if w1.vertex is None:
            continue
        a = w1.vertex
        cls = g.adjdom_class(a)
        for e2 in graph.out[d1].values():
            _, d2, _, w2 = graph.edges[e2]
            if w2.vertex is None or g.adjdom_class(w2.vertex) != cls:
                continue
            for e3 in graph.out[d2].values():
                _, d3, _, w3 = graph.edges[e3]
                if not _lands_in(graph.edges[e3], s1, cls):
                    continue
                if len({s1, d1, d2}) < 2:
                    continue
                comp = w3.aut.compose(w2.aut).compose(w1.aut)
                if comp.apply_to_tuple(graph.payloads[s1]) != \
                        graph.payloads[s1]:
                    continue
                try:
                    word = loop_word_for(s1, _rep_of(g, a), comp)
                except InputError:
                    continue
                steps = [(e1, True), (e2, True), (e3, True)]
                steps += [(e, not fwd) for e, fwd in reversed(word)]
                cells.append(("C5", s1, steps))

    # C6: permutation conjugation squares closed by stabilizer loops
    for ep, (sp, dp, _, wp) in enumerate(graph.edges):
        if wp.vertex is not None:
            continue
        for eb in graph.out[sp].values():
            _, db, _, wb = graph.edges[eb]
            if wb.vertex is None:
                continue
            b = wb.vertex
            bimg = wp.aut.images[b][0][0]
            target = wp.aut.apply_to_tuple(graph.payloads[db])
            if target not in graph.vindex:
                continue
            tgt = graph.vindex[target]
            # an edge labeled in the image multiplier class from pW1 to pbW1
            for eg in graph.out[dp].values():
                if not _lands_in(graph.edges[eg], tgt,
                                 g.adjdom_class(bimg)):
                    continue
                wg = graph.edges[eg][3]
                diff = wp.aut.compose(wb.aut.invert()).compose(
                    wp.aut.invert()).compose(wg.aut)
                if not diff.apply_to_tuple(graph.payloads[dp]) == \
                        graph.payloads[dp]:
                    continue
                try:
                    word = loop_word_for(dp, _rep_of(g, bimg), diff)
                except InputError:
                    continue
                steps = [(ep, False), (eb, True), (ep, True), (eg, False)]
                steps += word
                cells.append(("C6", dp, steps))
                break

    # C7: Steinberg squares closed by stabilizer loops
    for ea, (sa_, da_, _, wa) in enumerate(graph.edges):
        if wa.vertex is None:
            continue
        a = wa.vertex
        for eb in graph.out[sa_].values():
            _, db, _, wb = graph.edges[eb]
            if eb == ea or wb.vertex is None:
                continue
            b = wb.vertex
            if g.adjdom_class(a) == g.adjdom_class(b):
                continue
            if not fixes_class_pointwise(wa, g.adjdom_class(b)):
                continue
            if not g.adjacent(a, b):
                if support(wa) & support(wb):
                    continue
                if not fixes_class_pointwise(wb, g.adjdom_class(a)):
                    continue
            W1 = sa_
            abW1 = wa.aut.compose(wb.aut).apply_to_tuple(graph.payloads[W1])
            if abW1 not in graph.vindex:
                continue
            tgt = graph.vindex[abW1]
            gammas = [e for e in graph.out[db].values()
                      if _lands_in(graph.edges[e], tgt, g.adjdom_class(a))]
            deltas = [e for e in graph.out[da_].values()
                      if _lands_in(graph.edges[e], tgt, g.adjdom_class(b))]
            if not gammas or not deltas:
                continue
            eg, ed = gammas[0], deltas[0]
            wg = graph.edges[eg][3]
            wd = graph.edges[ed][3]
            u1 = wa.aut.compose(wg.aut.invert())
            u2 = wd.aut.compose(wa.aut).compose(wb.aut.invert()).compose(
                wa.aut.invert())
            if u1.apply_to_tuple(abW1) != abW1 or \
                    u2.apply_to_tuple(abW1) != abW1:
                continue
            try:
                word1 = loop_word_for(tgt, _rep_of(g, a), u1)
                word2 = loop_word_for(tgt, _rep_of(g, b), u2)
            except InputError:
                continue
            steps = [(eb, True), (eg, True)]
            steps += word1 + word2
            steps += [(ed, False), (ea, False)]
            cells.append(("C7", W1, steps))

    return StabComplex(graph, cells)


def _is_reduced_loop(loop, inverse):
    """Whether no step of a closed edge path is followed, cyclically, by its
    own inverse edge; the two-edge loop ``e, inverse(e)`` counts as reduced."""
    n = len(loop)
    return n == 2 or all(inverse[loop[i]] != loop[(i + 1) % n]
                         for i in range(n))


def _loop_key(loop, inverse):
    """The least rotation of a closed edge path or of its reversal, the
    inverse edges in reverse order."""
    back = tuple(inverse[e] for e in reversed(loop))
    return min(path[i:] + path[:i] for path in (loop, back)
               for i in range(len(loop)))


def _lands_in(edge, dst, cls):
    """Whether an edge ends at dst with a label in the multiplier class."""
    _, d, _, w = edge
    return d == dst and w.vertex is not None and \
        w.graph.adjdom_class(w.vertex) == cls


def _rep_of(g, a):
    for v in _class_reps(g):
        if v in g.adjdom_class(a):
            return v


def _verify_cells(g, Z: StabComplex):
    for kind, base, steps in Z.cells:
        comp = identity_automorphism(g)
        v = base
        for eidx, fwd in steps:
            s, d, _, wh = Z.graph.edges[eidx]
            if fwd:
                if s != v:
                    raise AssertionError("%s cell path broken" % kind)
                comp = wh.aut.compose(comp)
                v = d
            else:
                if d != v:
                    raise AssertionError("%s cell path broken" % kind)
                comp = wh.aut.invert().compose(comp)
                v = s
        if v != base or not comp.is_identity():
            raise AssertionError("%s cell boundary is not an identity loop"
                                 % kind)


def stabilizer_presentation(g, W: ClassTuple, max_vertices=None):
    """Finite presentation of the stabilizer of W read off the fundamental
    group of the presentation complex at the minimal representative."""
    W_min, mu = minimize_tuple(g, W)
    Z = build_Z(g, W_min, max_vertices=max_vertices)
    _verify_cells(g, Z)
    ident = identity_automorphism(g)
    _, loops = Z.graph.schreier_generators(
        Z.graph.vindex[W_min], _wh_letter, Automorphism.compose,
        Automorphism.invert, ident)
    gen_of_edge = {idx: "z%d" % i for i, (idx, _) in enumerate(loops, 1)}
    mu_inv = mu.invert()
    gens = [(gen_of_edge[idx], mu_inv.compose(elem).compose(mu))
            for idx, elem in loops]
    # a cell closes at the base through the tree, whose edges carry no
    # generator; the word spells the composed element, so it reads the
    # cell's steps backwards
    relators = [tuple((gen_of_edge[eidx], 1 if fwd else -1)
                      for eidx, fwd in reversed(steps)
                      if eidx in gen_of_edge)
                for _, _, steps in Z.cells]
    pres = Presentation(gens, relators)
    for nm, aut in pres.generators:
        if aut.apply_to_tuple(W) != W:
            raise AssertionError("presented generator moves W")
    pres.check_relators(Automorphism.compose, Automorphism.invert, ident)
    return pres
