"""Defining graphs and exact word/conjugacy computations in a right-angled
Artin group.

Words are tuples of letters; a letter is a pair ``(generator, sign)`` with
sign +1 or -1.  A word is *graphically reduced* when it contains no subword
``x v x^-1`` in which every letter of ``v`` commutes with ``x`` (two
generators commute iff they are adjacent in the defining graph, and every
generator commutes with itself).  Graphically reduced words are exactly the
length-minimal representatives, and any two of them for the same element
differ by commutation moves; this is what all equality tests below lean on.
``reduce_word`` reaches such a word in one stack pass.
"""

from __future__ import annotations

import json
from heapq import heapify, heappop, heappush
from itertools import product

from .errors import BudgetError, InputError

Letter = tuple[str, int]
Word = tuple[Letter, ...]

CANONICAL_STATE_BUDGET = 2_000_000
WORD_ENUMERATION_BUDGET = 200_000
TUPLE_ENUMERATION_BUDGET = 500_000


class DefiningGraph:
    """A finite simplicial graph: vertex names in a fixed order plus a
    symmetric irreflexive adjacency relation.

    The vertex order is the declared generator order; it fixes letter
    ordering, canonical forms and all basis orders downstream.
    """

    def __init__(self, vertices, edges):
        vertices = list(vertices)
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex names")
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        adj = {v: set() for v in self.vertices}
        for e in edges:
            u, v = e
            if u not in self.index or v not in self.index:
                raise InputError("edge %r uses unknown vertex" % (tuple(e),))
            if u == v:
                raise InputError("self-loop at %r not allowed" % (u,))
            adj[u].add(v)
            adj[v].add(u)
        self.adj = {v: frozenset(adj[v]) for v in self.vertices}
        self._cache = {}

    # -- basic queries ----------------------------------------------------

    def adjacent(self, a, b):
        return b in self.adj[a]

    def star(self, a):
        key = ("star", a)
        if key not in self._cache:
            self._cache[key] = self.adj[a] | {a}
        return self._cache[key]

    def dominates(self, a, b):
        """a dominates b iff every neighbour of b commutes with a."""
        return self.adj[b] <= self.star(a)

    def dom(self, a):
        """All vertices dominated by a, including a itself."""
        key = ("dom", a)
        if key not in self._cache:
            self._cache[key] = frozenset(
                b for b in self.vertices if self.dominates(a, b))
        return self._cache[key]

    def adjdom_class(self, a):
        """The class [a] of vertices with the same star as a."""
        key = ("cls", a)
        if key not in self._cache:
            sa = self.star(a)
            self._cache[key] = frozenset(
                b for b in self.vertices if self.star(b) == sa)
        return self._cache[key]

    def components_outside_star(self, a):
        """Connected components of the graph minus st(a), ordered by their
        least vertex."""
        key = ("comps", a)
        if key not in self._cache:
            outside = [v for v in self.vertices if v not in self.star(a)]
            seen = set()
            comps = []
            for v in outside:
                if v in seen:
                    continue
                comp = {v}
                stack = [v]
                while stack:
                    x = stack.pop()
                    for y in self.adj[x]:
                        if y not in self.star(a) and y not in comp:
                            comp.add(y)
                            stack.append(y)
                seen |= comp
                comps.append(frozenset(comp))
            comps.sort(key=lambda c: min(self.index[v] for v in c))
            self._cache[key] = tuple(comps)
        return self._cache[key]

    def component_of(self, a, v):
        for comp in self.components_outside_star(a):
            if v in comp:
                return comp
        return None

    def letter_key(self, letter):
        """Order on letters: generator order first, positive before negative."""
        gen, sign = letter
        return (self.index[gen], 0 if sign > 0 else 1)

    def check_letters(self, word):
        for gen, sign in word:
            if gen not in self.index:
                raise InputError("unknown generator %r" % (gen,))
            if sign not in (1, -1):
                raise InputError("bad sign %r" % (sign,))

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_json(cls, data):
        try:
            return cls(data["vertices"], data.get("edges", []))
        except (KeyError, TypeError) as exc:
            raise InputError("bad graph data: %s" % exc)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def to_json(self):
        edges = sorted(
            {tuple(sorted((u, v), key=self.index.get))
             for u in self.vertices for v in self.adj[u]})
        return {"vertices": list(self.vertices),
                "edges": [list(e) for e in edges]}

    def __repr__(self):
        return "DefiningGraph(%r)" % (list(self.vertices),)


# -- word utilities -------------------------------------------------------

def parse_word(text) -> Word:
    """Parse whitespace-separated tokens, each ``name`` or ``name^-1``."""
    letters = []
    for tok in text.split():
        if tok.endswith("^-1"):
            letters.append((tok[:-3], -1))
        elif "^" in tok:
            raise InputError("bad token %r" % (tok,))
        else:
            letters.append((tok, 1))
    return tuple(letters)


def format_word(word) -> str:
    if not word:
        return ""
    return " ".join(g if s > 0 else g + "^-1" for g, s in word)


def inverse_word(word) -> Word:
    return tuple((g, -s) for g, s in reversed(word))


def power_word(pairs) -> Word:
    """The word x1^e1 x2^e2 ... of the pairs (xi, ei): the letter (xi, +-1)
    repeated |ei| times."""
    return tuple(let for name, e in pairs
                 for let in [(name, 1 if e > 0 else -1)] * abs(e))


def reduce_word(g: DefiningGraph, word) -> Word:
    """Graphically reduce a word in one left-to-right pass over a stack.

    Each incoming letter scans back through the stack, past letters that
    commute with it (letters of its own generator included), up to the
    first letter that does not.  It cancels against the leftmost inverse it
    reached, or else is pushed.  The result is the word that deleting the
    leftmost cancellable pair to a fixpoint gives, and any maximal deletion
    sequence reaches minimal length (Servatius).  ``word`` may be any
    iterable of letters.  Letters are not checked here: words from outside
    the program are checked where they are parsed.
    """
    adj = g.adj
    out = []
    for let in word:
        gen, sign = let
        star = adj[gen]
        hit = -1
        for i in range(len(out) - 1, -1, -1):
            other, s = out[i]
            if other == gen:
                if s != sign:
                    hit = i
            elif other not in star:
                break
        if hit < 0:
            out.append(let)
        else:
            del out[hit]
    return tuple(out)


def words_equal(g, w1, w2):
    """Equality as group elements."""
    return not reduce_word(g, tuple(w1) + inverse_word(tuple(w2)))


def _trace_table(g):
    """Per-graph table: generator -> the generators that do not commute
    with it, itself included, as a tuple and as a bit mask; generator -> its
    bit; letter -> its ``letter_key`` as one integer."""
    table = g._cache.get("trace")
    if table is None:
        bit = {v: 1 << i for i, v in enumerate(g.vertices)}
        dep = {v: tuple(u for u in g.vertices if u not in g.adj[v])
               for v in g.vertices}
        mask = {v: sum(bit[u] for u in dep[v]) for v in g.vertices}
        key = {(v, s): 2 * i + (s < 0)
               for i, v in enumerate(g.vertices) for s in (1, -1)}
        table = g._cache["trace"] = (dep, mask, bit, key)
    return table


def lexnf(g, word) -> Word:
    """Lexicographic normal form of a *reduced* word (Anisimov-Knuth).

    Repeatedly take the least letter that no earlier letter of another,
    non-adjacent generator blocks; the result is the least word of the
    trace, so two reduced words represent the same element iff their normal
    forms coincide.  A letter waits only for the last earlier letter of
    each generator that does not commute with it, its own generator
    included: letters of one generator are chained, and in a reduced word
    two of them with no blocking letter between are equal, so the greedy
    takes the same letters in the same order.  The cost is O(n*d + n log n)
    for d the generators that do not commute with a given one.
    """
    n = len(word)
    if n < 2:
        return tuple(word)
    dep, _, _, key = _trace_table(g)
    last = {}
    waits = [0] * n
    after = [[] for _ in range(n)]
    ready = []
    for j, let in enumerate(word):
        gen = let[0]
        for h in dep[gen]:
            i = last.get(h)
            if i is not None:
                after[i].append(j)
                waits[j] += 1
        last[gen] = j
        if not waits[j]:
            ready.append(key[let] * n + j)
    heapify(ready)
    out = []
    while ready:
        i = heappop(ready) % n
        out.append(word[i])
        for j in after[i]:
            waits[j] -= 1
            if not waits[j]:
                heappush(ready, key[word[j]] * n + j)
    return tuple(out)


def cyclically_reduce(g, word) -> Word:
    """A minimal-length representative of the conjugacy class of ``word``.

    A reduced word is cyclically reduced unless a letter that can come to
    its front has its inverse among the letters that can go to its back;
    such a pair is deleted, until none is left."""
    w = reduce_word(g, word)
    while True:
        backs = _front_positions(g, w[::-1])
        for (gen, s), i in _front_positions(g, w).items():
            j = backs.get((gen, -s))
            if j is not None:
                j = len(w) - 1 - j
                w = tuple(x for t, x in enumerate(w) if t != i and t != j)
                break
        else:
            return w


class ConjClass:
    """A conjugacy class, held by ``rep``, a cyclically reduced word of it,
    and ``length``, the common length of those words (Servatius 1989).

    ``word`` is the canonical word: the lexicographically least word (under
    the declared generator order) among the cyclically reduced words of the
    class, found as the least ``lexnf`` over the traces that
    ``canonical_class`` reaches.  It is computed the first time it is read,
    so a class that is only measured runs no BFS; comparing, hashing and
    printing read it.
    """

    __slots__ = ("graph", "rep", "length", "_word")

    def __init__(self, graph, rep, word=None, _token=None):
        if _token is not _CONJ_TOKEN:
            raise TypeError("use conj_class() or canonical_class() to build "
                            "ConjClass values")
        self.graph = graph
        self.rep = rep
        self.length = len(rep)
        self._word = word

    @property
    def word(self):
        if self._word is None:
            self._word = canonical_class(self.graph, self.rep).word
        return self._word

    def __eq__(self, other):
        return (isinstance(other, ConjClass) and self.length == other.length
                and self.word == other.word)

    def __hash__(self):
        return hash(self.word)

    def __lt__(self, other):
        return (self.length, self.word) < (other.length, other.word)

    def __repr__(self):
        return "ConjClass(%s)" % (format_word(self.word) or "1")


_CONJ_TOKEN = object()


def _front_positions(g, trace):
    """Letter -> position, for each letter of a reduced word that can be
    commuted to its front: the first letter of its generator with no
    earlier letter of a generator that does not commute with it."""
    _, mask, bit, _ = _trace_table(g)
    blocked = 0
    out = {}
    for i, let in enumerate(trace):
        gen = let[0]
        if not blocked & bit[gen]:
            out[let] = i
        blocked |= mask[gen]
    return out


def _projection_slots(g, word):
    """The rotations that key ``canonical_class``'s states.

    Returns, per generator, the slots of the dependent pairs {h, k} (k = h
    allowed) whose projection of ``word`` has minimal period above 1, and
    each slot's period."""
    dep = _trace_table(g)[0]
    gens = {gen for gen, _ in word}
    pairs = [(h, k) for h in g.vertices if h in gens
             for k in dep[h] if k in gens and g.index[k] >= g.index[h]]
    slots = {h: [] for h in gens}
    periods = []
    for h, k in pairs:
        proj = tuple(x for x in word if x[0] == h or x[0] == k)
        n = len(proj)
        period = next(p for p in range(1, n + 1)
                      if not n % p and proj[p:] + proj[:p] == proj)
        if period > 1:
            slots[h].append(len(periods))
            if k != h:
                slots[k].append(len(periods))
            periods.append(period)
    return slots, periods


def conj_class(g, word) -> ConjClass:
    """The conjugacy class of ``word``, held by its cyclic reduction and
    memoized per graph; no BFS runs until its canonical word is read."""
    w = cyclically_reduce(g, word)
    memo = g._cache.setdefault("conj", {})
    cls = memo.get(w)
    if cls is None:
        cls = memo[w] = ConjClass(g, w, None, _CONJ_TOKEN)
    return cls


def canonical_class(g, word, budget=None) -> ConjClass:
    """The class of ``word`` with its canonical word, by a BFS over the
    traces of the cyclic conjugates of a cyclically reduced representative.
    It runs where a class's canonical word is first read, and where a
    caller asks for the canonical word at once.

    A move sends a letter that can come to the front to the back.
    Cyclically reduced words are conjugate iff commutations and rotations
    connect them (Servatius 1989), so the least ``lexnf`` among the traces
    reached is the least word of the class.  A trace is determined by its
    projections onto the dependent generator pairs (Cori-Perrin), and
    moving a front letter of generator h rotates by one the projection onto
    every pair {h, k}, k = h allowed, and no other; so a state is keyed by
    these rotation offsets, each modulo its projection's minimal period,
    carries any word of its trace, and costs one ``lexnf``.  Every state's
    ``lexnf`` is memoized to the class; ``budget`` caps the number of
    trace states (None: ``CANONICAL_STATE_BUDGET``).
    """
    if budget is None:
        budget = CANONICAL_STATE_BUDGET
    w = cyclically_reduce(g, word)
    memo = g._cache.setdefault("canon", {})
    cls = memo.get(w)
    if cls is not None:
        return cls
    start = lexnf(g, w)
    cls = memo.get(start)
    if cls is None:
        slots, periods = _projection_slots(g, w)
        origin = (0,) * len(periods)
        seen = {origin}
        forms = [start]
        frontier = [(w, origin)]
        while frontier:
            nxt = []
            for u, offsets in frontier:
                for let, i in _front_positions(g, u).items():
                    moved = list(offsets)
                    for s in slots[let[0]]:
                        moved[s] = (moved[s] + 1) % periods[s]
                    moved = tuple(moved)
                    if moved not in seen:
                        seen.add(moved)
                        if len(seen) > budget:
                            raise BudgetError.exceeded(
                                "canonical_class trace states", len(seen),
                                budget)
                        v = u[:i] + u[i + 1:] + (let,)
                        forms.append(lexnf(g, v))
                        nxt.append((v, moved))
            frontier = nxt
        key = _trace_table(g)[3]
        least = min(forms, key=lambda u: [key[x] for x in u])
        cls = ConjClass(g, least, least, _CONJ_TOKEN)
        for u in forms:
            memo[u] = cls
    memo[w] = cls
    return cls


def conjugate_test(g, w1, w2) -> bool:
    return canonical_class(g, w1) == canonical_class(g, w2)


class ClassTuple:
    """An ordered tuple of conjugacy classes; length is the sum of entry
    lengths."""

    __slots__ = ("entries", "length")

    def __init__(self, entries):
        self.entries = tuple(entries)
        if not all(isinstance(c, ConjClass) for c in self.entries):
            raise TypeError("entries must be ConjClass values")
        self.length = sum(c.length for c in self.entries)

    def __eq__(self, other):
        return isinstance(other, ClassTuple) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return "ClassTuple(%s)" % "; ".join(
            format_word(c.word) or "1" for c in self.entries)


def class_tuple(g, words) -> ClassTuple:
    return ClassTuple([conj_class(g, w) for w in words])


def parse_tuple(g, text) -> ClassTuple:
    words = [parse_word(part) for part in text.split(";")]
    for w in words:
        g.check_letters(w)
    return class_tuple(g, words)


def graph_invariants(g: DefiningGraph) -> dict:
    """Per-vertex star, domination set, star-equality class and components
    outside the star."""
    out = {}
    for a in g.vertices:
        out[a] = {
            "star": g.star(a),
            "dom": g.dom(a),
            "adjdom_class": g.adjdom_class(a),
            "components_outside_star": g.components_outside_star(a),
        }
    return out


def _cancels_back(g, word, let):
    """Whether ``let`` appended to the reduced ``word`` cancels: the nearest
    letter of its generator, past letters that commute with it, is its
    inverse."""
    gen, s = let
    for other, t in reversed(word):
        if other == gen:
            return t == -s
        if not g.adjacent(gen, other):
            return False
    return False


def enumerate_reduced_words(g, length):
    """All graphically reduced words of exactly the given length, at most
    ``WORD_ENUMERATION_BUDGET`` of them.

    ``enumerate_classes`` and ``enumerate_tuples`` build on it.
    """
    letters = [(v, s) for v in g.vertices for s in (1, -1)]
    out = []
    stack = [()]
    while stack:
        w = stack.pop()
        if len(w) == length:
            out.append(w)
            if len(out) > WORD_ENUMERATION_BUDGET:
                raise BudgetError.exceeded("enumerate_reduced_words words",
                                           len(out), WORD_ENUMERATION_BUDGET)
            continue
        for let in letters:
            if not _cancels_back(g, w, let):
                stack.append(w + (let,))
    return out


def enumerate_classes(g, length):
    """All conjugacy classes of exactly the given length."""
    cache = g._cache.setdefault("classes", {})
    if length in cache:
        return cache[length]
    seen = set()
    for w in enumerate_reduced_words(g, length):
        cls = canonical_class(g, w)
        if cls.length == length:
            seen.add(cls)
    result = sorted(seen)
    cache[length] = result
    return result


def enumerate_tuples(g, arity, total_length):
    """All ClassTuples with the given arity and total length, at most
    ``TUPLE_ENUMERATION_BUDGET`` of them."""
    def splits(m, total):
        if m == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in splits(m - 1, total - first):
                yield (first,) + rest

    out = []
    for split in splits(arity, total_length):
        pools = [enumerate_classes(g, ln) for ln in split]
        for combo in product(*pools):
            out.append(ClassTuple(combo))
            if len(out) > TUPLE_ENUMERATION_BUDGET:
                raise BudgetError.exceeded("enumerate_tuples tuples",
                                           len(out), TUPLE_ENUMERATION_BUDGET)
    return out
