"""Automorphisms of a right-angled Artin group: Laurence generators,
permutation automorphisms, generalized Whitehead automorphisms, supports,
and the embedding of each multiplier group into block integer matrices.

Automorphisms are stored as validated pairs (images, inverse images); both
maps are checked to be endomorphisms and mutually inverse on generators, so
inverting never requires solving anything.  Products and inverses of
validated automorphisms, inversions and the elements of P (signed graph
symmetries) are exact by construction and skip the check.
"""

from __future__ import annotations

import json
from itertools import product
from math import prod

from .core import (InputError, Word, conj_class, format_word, inverse_word,
                   lexnf, parse_word, power_word, reduce_word, ClassTuple)
from .errors import BudgetError
from .linalg import BlockMatrix

PERMUTATION_BUDGET = 100_000
CLASSIC_CHOICE_BUDGET = 200_000


class Automorphism:
    """A validated automorphism given by generator images and inverse images."""

    __slots__ = ("graph", "images", "inverse_images", "_key")

    def __init__(self, graph, images, inverse_images, _skip_check=False):
        self.graph = graph
        self.images = {v: reduce_word(graph, images[v]) for v in graph.vertices}
        self.inverse_images = {
            v: reduce_word(graph, inverse_images[v]) for v in graph.vertices}
        self._key = None
        if not _skip_check:
            self._validate()

    @classmethod
    def _from_reduced(cls, graph, images, inverse_images):
        """An automorphism from images and inverse images that are already
        reduced and known to be mutually inverse (products, inverses and
        single-letter maps of validated automorphisms); nothing is reduced
        or checked again."""
        self = cls.__new__(cls)
        self.graph = graph
        self.images = images
        self.inverse_images = inverse_images
        self._key = None
        return self

    def _validate(self):
        g = self.graph
        for imgs in (self.images, self.inverse_images):
            for u in g.vertices:
                for v in g.adj[u]:
                    com = imgs[u] + imgs[v] + inverse_word(imgs[u]) + \
                        inverse_word(imgs[v])
                    if reduce_word(g, com):
                        raise InputError(
                            "images of adjacent %r,%r do not commute" % (u, v))
        for v in g.vertices:
            w = self.apply_inverse_to_word(self.images[v])
            if w != ((v, 1),):
                raise InputError("maps are not mutually inverse at %r" % (v,))
            w = self.apply_to_word(self.inverse_images[v])
            if w != ((v, 1),):
                raise InputError("maps are not mutually inverse at %r" % (v,))

    # -- action ------------------------------------------------------------

    def _map_word(self, imgs, word):
        out = []
        for gen, sign in word:
            img = imgs[gen]
            out.extend(img if sign > 0 else inverse_word(img))
        return reduce_word(self.graph, out)

    def apply_to_word(self, word) -> Word:
        return self._map_word(self.images, word)

    def apply_inverse_to_word(self, word) -> Word:
        return self._map_word(self.inverse_images, word)

    def apply_to_class(self, cls):
        return conj_class(self.graph, self.apply_to_word(cls.rep))

    def apply_to_tuple(self, tup: ClassTuple) -> ClassTuple:
        return ClassTuple([self.apply_to_class(c) for c in tup])

    # -- algebra -----------------------------------------------------------

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other (apply ``other`` first)."""
        if self.graph is not other.graph:
            raise InputError("automorphisms live on different graphs")
        g = self.graph
        images = {v: self.apply_to_word(other.images[v]) for v in g.vertices}
        inv = {v: other.apply_inverse_to_word(self.inverse_images[v])
               for v in g.vertices}
        return Automorphism._from_reduced(g, images, inv)

    def invert(self) -> "Automorphism":
        return Automorphism._from_reduced(self.graph, self.inverse_images,
                                          self.images)

    def key(self):
        if self._key is None:
            g = self.graph
            self._key = tuple(lexnf(g, self.images[v]) for v in g.vertices)
        return self._key

    def __eq__(self, other):
        return (isinstance(other, Automorphism)
                and self.graph is other.graph and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def is_identity(self):
        return all(self.images[v] == ((v, 1),) for v in self.graph.vertices)

    def is_permutation(self):
        """Restricts to a permutation of the letters."""
        return all(len(self.images[v]) == 1 for v in self.graph.vertices)

    def to_json(self):
        return {"images": {v: format_word(w) for v, w in self.images.items()},
                "inverse_images": {
                    v: format_word(w) for v, w in self.inverse_images.items()}}

    @classmethod
    def from_json(cls, graph, data):
        try:
            images = {v: parse_word(w) for v, w in data["images"].items()}
            inv = {v: parse_word(w)
                   for v, w in data["inverse_images"].items()}
        except (KeyError, TypeError) as exc:
            raise InputError("bad automorphism data: %s" % exc)
        missing = set(graph.vertices) - set(images) | \
            set(graph.vertices) - set(inv)
        if missing:
            raise InputError("missing images for %s" % sorted(missing))
        for w in list(images.values()) + list(inv.values()):
            graph.check_letters(w)
        return cls(graph, images, inv)

    @classmethod
    def load(cls, graph, path):
        with open(path) as fh:
            return cls.from_json(graph, json.load(fh))

    def __repr__(self):
        parts = ", ".join(
            "%s->%s" % (v, format_word(w) or "1")
            for v, w in self.images.items() if w != ((v, 1),))
        return "Automorphism(%s)" % (parts or "id")


def identity_automorphism(g) -> Automorphism:
    ims = {v: ((v, 1),) for v in g.vertices}
    return Automorphism._from_reduced(g, ims, dict(ims))


class GenWhitehead:
    """A generalized Whitehead automorphism with the multiplier vertex a of
    the Whitehead group of [a] it lies in, or ``vertex=None`` for a
    permutation automorphism.

    ``classic`` optionally records (multiplier letter, support) when the
    automorphism is a classic Whitehead automorphism (see
    ``classic_whitehead``).  Membership is not checked here:
    ``make_whitehead`` and ``classic_whitehead`` check it.
    """

    __slots__ = ("aut", "vertex", "classic")

    def __init__(self, aut, vertex=None, classic=None):
        self.aut = aut
        self.vertex = vertex
        self.classic = classic

    @property
    def graph(self):
        return self.aut.graph

    def invert(self):
        classic = None
        if self.classic is not None:
            m, supp = self.classic
            classic = ((m[0], -m[1]), supp)
        return GenWhitehead(self.aut.invert(), self.vertex, classic)

    def __eq__(self, other):
        return isinstance(other, GenWhitehead) and self.aut == other.aut

    def __hash__(self):
        return hash(self.aut)

    def __repr__(self):
        tag = "Perm" if self.vertex is None else "Mult[%s]" % (self.vertex,)
        return "GenWhitehead(%s, %r)" % (tag, self.aut)


def is_in_whset(aut: Automorphism, a) -> bool:
    """Check the two defining clauses of the Whitehead group of [a] against
    the reduced images."""
    g = aut.graph
    cls = g.adjdom_class(a)
    for b in g.vertices:
        img = aut.images[b]
        if b in cls:
            if any(gen not in cls for gen, _ in img):
                return False
        else:
            outside = [(gen, s) for gen, s in img if gen not in cls]
            if outside != [(b, 1)]:
                return False
    return True


def checked_whitehead(aut: Automorphism, a, classic=None) -> GenWhitehead:
    """The element of the Whitehead group of [a]; an input error when the
    automorphism lies outside it."""
    if not is_in_whset(aut, a):
        raise InputError("automorphism is not in the Whitehead group of [%s]"
                         % a)
    return GenWhitehead(aut, a, classic)


def make_whitehead(g, a, images, inverse_images) -> GenWhitehead:
    return checked_whitehead(Automorphism(g, images, inverse_images), a)


def classic_whitehead(g, m, supp, _skip_check=False) -> GenWhitehead:
    """The classic Whitehead automorphism with multiplier letter m and
    support supp: x -> x m when (x, 1) is in supp, x -> m^-1 x when (x, -1)
    is, x -> m^-1 x m when both are, and every other generator is fixed.
    Its inverse is the move (m^-1, supp)."""
    supp = frozenset(supp)
    minv = (m[0], -m[1])
    ims, inv = {}, {}
    for v in g.vertices:
        left = (v, -1) in supp
        right = (v, 1) in supp
        ims[v] = (minv,) * left + ((v, 1),) + (m,) * right
        inv[v] = (m,) * left + ((v, 1),) + (minv,) * right
    aut = Automorphism(g, ims, inv, _skip_check=_skip_check)
    if _skip_check:
        return GenWhitehead(aut, m[0], (m, supp))
    return checked_whitehead(aut, m[0], (m, supp))


def support(wh: GenWhitehead):
    """Support of an element of a Whitehead group, straight from the
    definition."""
    if wh.vertex is None:
        raise InputError("support is defined for multiplier-tagged elements")
    g = wh.graph
    a = wh.vertex
    cls = g.adjdom_class(a)
    supp = set()
    for b in g.vertices:
        img = wh.aut.images[b]
        if b in g.star(a):
            if img != ((b, 1),):
                supp.add((b, 1))
                supp.add((b, -1))
        else:
            u, v = split_around(g, cls, img, b)
            if v:
                supp.add((b, 1))
            if u:
                supp.add((b, -1))
    return frozenset(supp)


def split_around(g, cls, word, b):
    """Split a reduced image u*b*v of a generator b not adjacent to the
    multiplier class into its left and right multiplier parts."""
    pos = [i for i, (gen, _) in enumerate(word) if gen not in cls]
    if len(pos) != 1 or word[pos[0]] != (b, 1):
        raise InputError("image is not of the form u*%s*v" % b)
    i = pos[0]
    return word[:i], word[i + 1:]


def sum_exponent(word, gen):
    return sum(s for gname, s in word if gname == gen)


# -- the Z_[a] basis and the eta/theta correspondence ----------------------

def za_basis(g, a):
    """Ordered basis of the free abelian group attached to [a]:

    r_b for b in [a] (generator order), then r_b for the other adjacent
    dominated vertices, then interleaved r_b, l_b for non-adjacent dominated
    vertices, then one r_Y per component of the graph minus st(a) with at
    least two vertices (by least vertex).
    """
    key = ("za_basis", a)
    if key not in g._cache:
        cls = sorted(g.adjdom_class(a), key=g.index.get)
        star = g.star(a)
        dom = g.dom(a)
        basis = [("r", b) for b in cls]
        for b in sorted(star & dom - g.adjdom_class(a), key=g.index.get):
            basis.append(("r", b))
        for b in sorted(dom - star, key=g.index.get):
            basis.append(("r", b))
            basis.append(("l", b))
        for comp in g.components_outside_star(a):
            if len(comp) >= 2:
                basis.append(("Y", comp))
        g._cache[key] = tuple(basis)
    return g._cache[key]


def za_dims(g, a):
    basis = za_basis(g, a)
    n = len(g.adjdom_class(a))
    return n, len(basis) - n


def eta(g, a, aut: Automorphism):
    """Matrix of an element of the Whitehead group of [a] on the basis above
    (columns = images of basis vectors)."""
    cls = g.adjdom_class(a)
    basis = za_basis(g, a)
    n = len(cls)
    dim = len(basis)
    cols = [[0] * dim for _ in range(dim)]
    for j, b in enumerate(basis):
        col = cols[j]
        kind, payload = b
        if kind == "r" and payload in cls:
            img = aut.images[payload]
            for i in range(n):
                col[i] = sum_exponent(img, basis[i][1])
        elif kind == "r" and payload in g.star(a):
            img = aut.images[payload]
            for i in range(n):
                col[i] = sum_exponent(img, basis[i][1])
            col[j] = 1
        elif kind in ("r", "l"):
            u, v = split_around(g, cls, aut.images[payload], payload)
            side = v if kind == "r" else u
            for i in range(n):
                col[i] = sum_exponent(side, basis[i][1])
            col[j] = 1
        else:
            comp = payload
            x = min(comp, key=g.index.get)
            u, v = split_around(g, cls, aut.images[x], x)
            for i in range(n):
                col[i] = sum_exponent(v, basis[i][1])
            col[j] = 1
    # rows x cols
    return tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))


def theta(g, a, matrix) -> GenWhitehead:
    """Inverse of eta: rebuild the automorphism from a block matrix of the
    required shape (invertible integer top-left block over [a], arbitrary
    integer top-right block, identity bottom), given in full or as a
    ``BlockMatrix``.  The inverse images come from ``BlockMatrix.inv``, which
    inverts only the top-left block."""
    basis = za_basis(g, a)
    cls_order = [b for kind, b in basis if kind == "r" and b in g.adjdom_class(a)]
    n = len(cls_order)
    dim = len(basis)
    if isinstance(matrix, BlockMatrix):
        block = matrix
        if (block.n, block.k) != (n, dim - n):
            raise InputError("matrix has wrong shape for this basis")
    else:
        if len(matrix) != dim or any(len(row) != dim for row in matrix):
            raise InputError("matrix has wrong shape for this basis")
        # raises unless the bottom rows are [0 I] and the top-left block
        # has determinant +-1
        block = BlockMatrix.from_full(n, dim - n, matrix)
    if not block.is_integral():
        raise InputError("matrix top-right block is not integral")

    def images_from(M):
        mat = [x + y for x, y in zip(M.A, M.num)]
        ims = {}
        col = {b: j for j, b in enumerate(basis)}

        def power(kind, payload):
            j = col[(kind, payload)]
            return power_word((b, mat[i][j]) for i, b in enumerate(cls_order))

        for v in g.vertices:
            if v in g.adjdom_class(a):
                ims[v] = power("r", v)
            elif v in g.star(a) and v in g.dom(a):
                ims[v] = ((v, 1),) + power("r", v)
            elif v in g.dom(a):
                ims[v] = power("l", v) + ((v, 1),) + power("r", v)
            else:
                comp = g.component_of(a, v)
                if comp is not None and len(comp) >= 2:
                    u = power("Y", comp)
                    ims[v] = inverse_word(u) + ((v, 1),) + u
                else:
                    ims[v] = ((v, 1),)
        return ims

    return make_whitehead(g, a, images_from(block), images_from(block.inv()))


def inner_witness(g, a, aut: Automorphism):
    """If an element of the Whitehead group of [a] is conjugation by a word
    in [a], return that word; otherwise None.

    Recognized from the matrix: identity top-left block, zero columns on
    adjacent dominated vertices, and a single exponent vector e appearing as
    +e on every r_c and r_Y column and -e on every l_c column.
    """
    basis = za_basis(g, a)
    cls_order = [b for kind, b in basis
                 if kind == "r" and b in g.adjdom_class(a)]
    n = len(cls_order)
    mat = eta(g, a, aut)
    for i in range(n):
        for j in range(n):
            if mat[i][j] != (1 if i == j else 0):
                return None
    e = None
    for j in range(n, len(basis)):
        kind, payload = basis[j]
        colv = tuple(mat[i][j] for i in range(n))
        if kind == "r" and payload in g.star(a):
            if any(colv):
                return None
            continue
        want = colv if kind in ("r", "Y") else tuple(-x for x in colv)
        if e is None:
            e = want
        elif e != want:
            return None
    if e is None:
        e = (0,) * n
    return power_word(zip(cls_order, e))


def conjugation_by(g, word) -> Automorphism:
    """Inner automorphism x -> w^-1 x w."""
    winv = inverse_word(word)
    ims = {v: reduce_word(g, winv + ((v, 1),) + word) for v in g.vertices}
    inv = {v: reduce_word(g, word + ((v, 1),) + winv) for v in g.vertices}
    return Automorphism._from_reduced(g, ims, inv)


def conjugation_letter_factors(g, word):
    """Conjugation by a word as a list of single-letter conjugations, each a
    generalized Whitehead automorphism; applying them first-to-last yields
    conjugation by the whole word."""
    factors = []
    for gen, sign in word:
        aut = conjugation_by(g, ((gen, sign),))
        factors.append(GenWhitehead(aut, gen))
    return factors


# -- generator enumeration -------------------------------------------------

def graph_symmetries(g):
    """All adjacency-preserving vertex permutations, in the order of
    ``itertools.permutations`` of the vertex list.

    A backtracking search maps the vertices in declared order, trying the
    candidates in declared order: an unused vertex of the same degree whose
    adjacency to the vertices already mapped matches.  It stops as soon as
    the signed group the symmetries span (``permutation_automorphisms``,
    2^n elements per symmetry) passes ``PERMUTATION_BUDGET``.
    """
    key = "symmetries"
    if key not in g._cache:
        vs = g.vertices
        out = []
        pi = {}

        def extend(i):
            if i == len(vs):
                out.append(dict(pi))
                if len(out) * 2 ** len(vs) > PERMUTATION_BUDGET:
                    raise BudgetError.exceeded(
                        "permutation_automorphisms elements",
                        len(out) * 2 ** len(vs), PERMUTATION_BUDGET)
                return
            u = vs[i]
            for x in vs:
                if x in pi.values() or len(g.adj[x]) != len(g.adj[u]):
                    continue
                if all((pi[v] in g.adj[x]) == (v in g.adj[u])
                       for v in vs[:i]):
                    pi[u] = x
                    extend(i + 1)
                    del pi[u]

        extend(0)
        g._cache[key] = out
    return g._cache[key]


def _symmetry(g, pi, signs):
    """The automorphism v -> pi(v)^s_v for a graph symmetry pi and signs in
    vertex order, built exact: a single-letter image is reduced, and the
    inverse sends pi(v) -> v^s_v.  Both maps are in vertex order."""
    sign = dict(zip(g.vertices, signs))
    back = {x: v for v, x in pi.items()}
    ims = {v: ((pi[v], sign[v]),) for v in g.vertices}
    inv = {x: ((back[x], sign[back[x]]),) for x in g.vertices}
    return Automorphism._from_reduced(g, ims, inv)


def permutation_automorphisms(g):
    """The finite subgroup P of automorphisms permuting the letters: each
    graph symmetry with each choice of signs, built by ``_symmetry`` without
    reduction or check."""
    key = "perm_auts"
    if key not in g._cache:
        g._cache[key] = [
            GenWhitehead(_symmetry(g, pi, signs))
            for pi in graph_symmetries(g)
            for signs in product((1, -1), repeat=len(g.vertices))]
    return g._cache[key]


def inversion(g, a) -> Automorphism:
    """The inversion a -> a^-1, fixing every other generator."""
    ims = {v: ((v, 1),) for v in g.vertices}
    ims[a] = ((a, -1),)
    return Automorphism._from_reduced(g, ims, dict(ims))


def laurence_generators(g):
    """The finite Laurence generating set: dominated transvections (right
    always; left when the pair is non-adjacent), partial conjugations,
    inversions and graphic automorphisms."""
    key = "laurence"
    if key not in g._cache:
        out = []
        seen = set()

        def add(wh):
            if wh.aut not in seen and not wh.aut.is_identity():
                seen.add(wh.aut)
                out.append(wh)

        for a in g.vertices:
            for b in g.vertices:
                if a == b or not g.dominates(a, b):
                    continue
                # b -> b a, and b -> a^-1 b
                add(classic_whitehead(g, (a, 1), {(b, 1)}, _skip_check=True))
                if not g.adjacent(a, b):
                    add(classic_whitehead(g, (a, 1), {(b, -1)},
                                          _skip_check=True))
        for a in g.vertices:
            for comp in g.components_outside_star(a):
                # c -> a c a^-1 on the component
                conj = {(c, s) for c in comp for s in (1, -1)}
                add(classic_whitehead(g, (a, -1), conj, _skip_check=True))
        for a in g.vertices:
            add(GenWhitehead(inversion(g, a)))
        for pi in graph_symmetries(g):
            add(GenWhitehead(_symmetry(g, pi, (1,) * len(g.vertices))))
        g._cache[key] = out
    return g._cache[key]


def classic_choices(g, long_range_only=False):
    """The (multiplier letter, support letters) choices of the classic
    Whitehead automorphisms of multiplier type, both multiplier signs, in
    the order ``enumerate_classic_whitehead`` lists them, repeats included.

    Per-vertex actions are chosen consistently with the structure of the
    multiplier group: non-adjacent dominated vertices take any of the four
    classic actions, components with at least two vertices move as blocks
    (conjugation only), adjacent dominated vertices may be multiplied on one
    side, and everything else stays fixed.  With ``long_range_only`` the
    star of the multiplier is left untouched.  Every multiplier's count of
    action choices is checked against ``CLASSIC_CHOICE_BUDGET`` before the
    first choice is yielded.
    """
    per_vertex = []
    for a in g.vertices:
        # each slot lists the support letters of its alternative actions
        slots = [((), ((b, 1),), ((b, -1),), ((b, 1), (b, -1)))
                 for b in sorted(g.dom(a) - g.star(a), key=g.index.get)]
        slots += [((), tuple((b, s) for b in comp for s in (1, -1)))
                  for comp in g.components_outside_star(a) if len(comp) >= 2]
        if not long_range_only:
            slots += [((), ((b, 1),), ((b, -1),)) for b in sorted(
                (g.star(a) & g.dom(a)) - {a}, key=g.index.get)]
        choices = prod(len(slot) for slot in slots)
        if choices > CLASSIC_CHOICE_BUDGET:
            raise BudgetError.exceeded("enumerate_classic_whitehead choices",
                                       choices, CLASSIC_CHOICE_BUDGET)
        per_vertex.append((a, slots))
    for a, slots in per_vertex:
        for sign in (1, -1):
            for choice in product(*slots):
                yield (a, sign), tuple(x for part in choice for x in part)


def enumerate_classic_whitehead(g, long_range_only=False):
    """All classic Whitehead automorphisms of multiplier type, both
    multiplier signs, including the identity: the distinct automorphisms of
    ``classic_choices``, in its order, after the identity."""
    key = ("classics", long_range_only)
    if key in g._cache:
        return g._cache[key]
    identity = identity_automorphism(g)
    out = [GenWhitehead(identity)]
    seen = {identity}
    for m, supp in classic_choices(g, long_range_only):
        wh = classic_whitehead(g, m, supp, _skip_check=True)
        if wh.aut not in seen:
            seen.add(wh.aut)
            out.append(wh)
    g._cache[key] = out
    return out


def classify_classic(wh: GenWhitehead):
    """The (multiplier letter, support) record of a classic Whitehead
    automorphism: its own, or else that of the equal classic long-range move,
    cached onto ``wh.classic``; None when there is none."""
    if wh.classic is None:
        for cand in enumerate_classic_whitehead(wh.graph,
                                                long_range_only=True):
            if cand.classic is not None and cand.aut == wh.aut:
                wh.classic = cand.classic
                break
    return wh.classic


def is_long_range(wh: GenWhitehead) -> bool:
    """Element of a Whitehead group whose restriction to the star letters is
    a permutation (always true for permutation automorphisms)."""
    if wh.vertex is None:
        return True
    return all(len(wh.aut.images[b]) == 1 for b in wh.graph.star(wh.vertex))


def compose_gw(x: GenWhitehead, y: GenWhitehead) -> GenWhitehead:
    """Compose within a common multiplier class (or permutations)."""
    aut = x.aut.compose(y.aut)
    if x.vertex is None and y.vertex is None:
        return GenWhitehead(aut)
    if x.vertex is not None and y.vertex is not None and \
            x.graph.adjdom_class(x.vertex) == x.graph.adjdom_class(y.vertex):
        return GenWhitehead(aut, x.vertex)
    return retag(aut)


def retag(aut: Automorphism) -> GenWhitehead:
    """The element of Omega an automorphism is: a permutation automorphism,
    or else an element of the Whitehead group of the first vertex whose group
    contains it."""
    if aut.is_permutation():
        return GenWhitehead(aut)
    for a in aut.graph.vertices:
        if is_in_whset(aut, a):
            return GenWhitehead(aut, a)
    raise InputError("automorphism is not a generalized Whitehead element")
