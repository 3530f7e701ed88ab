"""Syllable decompositions of class tuples with respect to a vertex, the
map into the free abelian group attached to the multiplier class, and the
action of the multiplier group on decompositions.

A syllable with respect to a vertex ``a`` is a graphically reduced product
``c u d`` with ``u`` over st(a) and endpoints outside st(a) (both absent for
a cyclic syllable).  Middles are stored with the multiplier-class part
normalized to the left, as an exponent vector, since class letters commute
with everything in the star.
"""

from __future__ import annotations

from .aut import GenWhitehead, eta, za_basis
from .core import ClassTuple, ConjClass, conj_class, power_word
from .errors import BudgetError, InputError

MATCHING_BUDGET = 200_000


class Syllable:
    """One syllable: optional endpoints, class-exponent vector, and the
    non-class part of the middle (order preserved)."""

    __slots__ = ("left", "right", "exps", "u")

    def __init__(self, left, right, exps, u):
        self.left = left
        self.right = right
        self.exps = tuple(exps)
        self.u = tuple(u)

    @property
    def cyclic(self):
        return self.left is None

    def with_exps(self, exps):
        return Syllable(self.left, self.right, exps, self.u)

    def key(self):
        return (self.left, self.right, self.exps, self.u)

    def __repr__(self):
        return "Syllable(%r | %r | %r, u=%r)" % (
            self.left, self.exps, self.right, self.u)


class Decomposition:
    """Concatenated per-class syllable decompositions of a class tuple.

    ``blocks`` records, per class, the slice of ``syllables`` it owns and
    whether it is a single cyclic syllable.
    """

    __slots__ = ("graph", "vertex", "syllables", "blocks", "cls_order")

    def __init__(self, graph, vertex, syllables, blocks):
        self.graph = graph
        self.vertex = vertex
        self.syllables = tuple(syllables)
        self.blocks = tuple(blocks)  # (start, count, cyclic)
        cls = graph.adjdom_class(vertex)
        self.cls_order = tuple(sorted(cls, key=graph.index.get))

    def with_exps(self, exps):
        """The same frames with new class-exponent vectors, one per
        syllable."""
        return Decomposition(self.graph, self.vertex,
                             [s.with_exps(e)
                              for s, e in zip(self.syllables, exps)],
                             self.blocks)

    def class_word(self, b):
        """The representative associated with one class of the decomposition."""
        start, count, cyclic = self.blocks[b]
        word = []
        for s in self.syllables[start:start + count]:
            if not cyclic:
                word.append(s.left)
            word.extend(power_word(zip(self.cls_order, s.exps)))
            word.extend(s.u)
        return tuple(word)

    def associated_tuple(self) -> ClassTuple:
        return ClassTuple([conj_class(self.graph, self.class_word(b))
                           for b in range(len(self.blocks))])

    def represents(self, tup: ClassTuple) -> bool:
        """Whether this is a genuine decomposition of ``tup``: per class the
        associated word has the class's minimal length (hence is graphically
        and cyclically reduced) and lies in the class."""
        if len(self.blocks) != len(tup.entries):
            return False
        for b, cls in enumerate(tup.entries):
            word = self.class_word(b)
            if len(word) != cls.length:
                return False
            if conj_class(self.graph, word) != cls:
                return False
        return True

    def __repr__(self):
        return "Decomposition(%s)" % (list(self.syllables),)


def syllable_count(g, a, cls: ConjClass):
    """Number of syllables any decomposition of the class has, or 0 for a
    cyclic-syllable class."""
    return sum(1 for gen, _ in cls.word if gen not in g.star(a))


def decompose(g, a, tup: ClassTuple) -> Decomposition:
    """The deterministic decomposition: scan each canonical representative,
    cutting before each letter outside st(a), starting at the first one."""
    star = g.star(a)
    cls_order = sorted(g.adjdom_class(a), key=g.index.get)
    sylls = []
    blocks = []
    for cls in tup.entries:
        word = cls.word
        outside = [i for i, (gen, _) in enumerate(word) if gen not in star]
        start = len(sylls)
        if not outside:
            sylls.append(Syllable(None, None,
                                  *_split_middle(word, cls_order)))
            blocks.append((start, 1, True))
            continue
        rot = word[outside[0]:] + word[:outside[0]]
        cuts = [i for i, (gen, _) in enumerate(rot) if gen not in star]
        for idx, c in enumerate(cuts):
            nxt = cuts[(idx + 1) % len(cuts)]
            middle = rot[c + 1:nxt] if idx + 1 < len(cuts) else rot[c + 1:]
            sylls.append(Syllable(rot[c], rot[nxt],
                                  *_split_middle(middle, cls_order)))
        blocks.append((start, len(cuts), False))
    return Decomposition(g, a, sylls, blocks)


def _split_middle(middle, cls_order):
    """(class-exponent vector, the other letters in order) of a middle."""
    exps = [0] * len(cls_order)
    u = []
    for gen, s in middle:
        if gen in cls_order:
            exps[cls_order.index(gen)] += s
        else:
            u.append((gen, s))
    return exps, u


def nu_syllable(g, a, s: Syllable):
    """Image of one syllable in the free abelian group attached to [a]."""
    basis = za_basis(g, a)
    pos = {b: i for i, b in enumerate(basis)}
    n = len(g.adjdom_class(a))
    vec = [0] * len(basis)
    for i in range(n):
        vec[i] += s.exps[i]
    dom = g.dom(a)
    star = g.star(a)
    for gen, sign in s.u:
        if gen in dom and gen in star and ("r", gen) in pos:
            vec[pos[("r", gen)]] += sign
    if not s.cyclic:
        for letter, is_left in ((s.left, True), (s.right, False)):
            gen, sign = letter
            if gen in dom:
                if is_left:
                    if sign > 0:
                        vec[pos[("r", gen)]] += 1
                    else:
                        vec[pos[("l", gen)]] -= 1
                else:
                    if sign > 0:
                        vec[pos[("l", gen)]] += 1
                    else:
                        vec[pos[("r", gen)]] -= 1
            else:
                comp = g.component_of(a, gen)
                vec[pos[("Y", comp)]] += 1 if is_left else -1
    return tuple(vec)


def nu(d: Decomposition):
    """Per-syllable vectors, as a tuple of columns."""
    return tuple(nu_syllable(d.graph, d.vertex, s) for s in d.syllables)


def nu_matrix(d: Decomposition):
    """The same data as a (basis x syllables) integer matrix."""
    cols = nu(d)
    dim = len(za_basis(d.graph, d.vertex))
    return tuple(tuple(col[i] for col in cols) for i in range(dim))


def _eta_on(wh: GenWhitehead, d: Decomposition):
    """The matrix of an element of the multiplier group of a
    decomposition."""
    if wh.vertex not in d.graph.adjdom_class(d.vertex):
        raise InputError("automorphism is not in the multiplier group "
                         "of this decomposition")
    return eta(d.graph, d.vertex, wh.aut)


def act_on_decomposition(wh: GenWhitehead, d: Decomposition) -> Decomposition:
    """Exponent substitution along the matrix action; the result decomposes
    the image tuple."""
    g = d.graph
    a = d.vertex
    mat = _eta_on(wh, d)
    n = len(g.adjdom_class(a))
    new = []
    for s in d.syllables:
        col = nu_syllable(g, a, s)
        new.append(tuple(sum(mat[i][j] * col[j] for j in range(len(col)))
                         for i in range(n)))
    out = d.with_exps(new)
    src = d.associated_tuple()
    if not out.represents(wh.aut.apply_to_tuple(src)):
        raise AssertionError("syllable action produced an invalid "
                             "decomposition")
    return out


def length_delta(wh: GenWhitehead, d: Decomposition) -> int:
    """Length change of the underlying tuple, summed per syllable."""
    g = d.graph
    a = d.vertex
    mat = _eta_on(wh, d)
    n = len(g.adjdom_class(a))
    delta = 0
    for s in d.syllables:
        col = nu_syllable(g, a, s)
        new = [sum(mat[i][j] * col[j] for j in range(len(col)))
               for i in range(n)]
        delta += sum(abs(e) for e in new) - sum(abs(e) for e in s.exps)
    return delta


def matching_permutations(d: Decomposition, tup: ClassTuple) -> list:
    """All permutations of the source decomposition's syllables that are
    valid decompositions of ``tup``, found by chained backtracking of at most
    ``MATCHING_BUDGET`` steps.

    Results are deduplicated by syllable sequence.
    """
    g = d.graph
    a = d.vertex
    pool = list(d.syllables)
    counts = []
    for cls in tup.entries:
        c = syllable_count(g, a, cls)
        counts.append((c if c else 1, c == 0))
    if sum(c for c, _ in counts) != len(pool):
        return []

    results = []
    seen = set()
    steps = [0]

    def place(block, slot, used, acc):
        steps[0] += 1
        if steps[0] > MATCHING_BUDGET:
            raise BudgetError.exceeded("matching_permutations steps",
                                       steps[0], MATCHING_BUDGET)
        if block == len(counts):
            key = tuple(s.key() for s in acc)
            if key not in seen:
                seen.add(key)
                cand = Decomposition(g, a, acc, _blocks_from_counts(counts))
                if cand.represents(tup):
                    results.append(cand)
            return
        count, cyclic = counts[block]
        base = sum(c for c, _ in counts[:block])
        if cyclic:
            for i, s in enumerate(pool):
                if i in used or not s.cyclic:
                    continue
                place(block + 1, 0, used | {i}, acc + [s])
            return
        if slot == count:
            first = acc[base]
            last = acc[base + count - 1]
            if last.right == first.left:
                place(block + 1, 0, used, acc)
            return
        prev = acc[-1] if slot > 0 else None
        tried = set()
        for i, s in enumerate(pool):
            if i in used or s.cyclic:
                continue
            if s.key() in tried:
                continue
            if prev is not None and s.left != prev.right:
                continue
            tried.add(s.key())
            place(block, slot + 1, used | {i}, acc + [s])

    place(0, 0, frozenset(), [])
    return results


def _blocks_from_counts(counts):
    blocks = []
    start = 0
    for count, cyclic in counts:
        blocks.append((start, count, cyclic))
        start += count
    return blocks
