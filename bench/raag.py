"""Word, conjugacy and automorphism arithmetic for right-angled Artin groups,
written independently of the program under test.

The benchmark builds its inputs and checks the program's answers with this
module only, so a defect in the program cannot make its own answers look
right.  Words are tuples of letters ``(generator, sign)``.  Reduction is a
stack scan, and conjugacy classes are canonicalized over traces: states
are lexicographic normal forms, and a move sends a letter that can come to
the front to the back.  Every conjugate of a cyclically reduced element is
reached this way (Servatius 1989), and the least normal form over the
reachable states names the class.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd


class Graph:
    """A defining graph: vertex names in generator order and adjacency."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.order = {v: i for i, v in enumerate(self.vertices)}
        self.adj = {v: set() for v in self.vertices}
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.edges = sorted(tuple(sorted(e, key=self.order.get))
                            for e in {frozenset(e) for e in edges})

    def to_json(self):
        return {"vertices": list(self.vertices),
                "edges": [list(e) for e in self.edges]}

    def star(self, a):
        return self.adj[a] | {a}

    def dominates(self, a, b):
        return a != b and self.adj[b] <= self.star(a)

    def components_outside_star(self, a):
        rest = [v for v in self.vertices if v not in self.star(a)]
        comps, seen = [], set()
        for v in rest:
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                x = stack.pop()
                for y in self.adj[x]:
                    if y in rest and y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            comps.append(frozenset(comp))
        return comps


SPLIT = Graph("abcd", [("a", "b"), ("c", "d")])
PATH4 = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
NODOM6 = Graph(["a", "b", "c", "m", "e", "f"],
               [("a", "m"), ("a", "f"), ("b", "m"), ("b", "e"), ("c", "m")])
F2 = Graph("ab", [])
GRAPHS = {"split": SPLIT, "path4": PATH4, "nodom6": NODOM6, "f2": F2}


# -- words --------------------------------------------------------------------

def parse_word(text):
    out = []
    for tok in text.split():
        out.append((tok[:-3], -1) if tok.endswith("^-1") else (tok, 1))
    return tuple(out)


def format_word(word):
    return " ".join(gen if s > 0 else gen + "^-1" for gen, s in word)


def parse_tuple(text):
    return [parse_word(part) for part in text.split(";")]


def format_tuple(words):
    return "; ".join(format_word(w) for w in words)


def inverse(word):
    return tuple((gen, -s) for gen, s in reversed(word))


def reduce(G, word):
    """Graphically reduced form: each new letter cancels against the last
    earlier inverse it can reach through letters commuting with it."""
    out = []
    for gen, s in word:
        adj = G.adj[gen]
        for i in range(len(out) - 1, -1, -1):
            g2, s2 = out[i]
            if g2 == gen:
                if s2 == -s:
                    del out[i]
                    break
                out.append((gen, s))
                break
            if g2 not in adj:
                out.append((gen, s))
                break
        else:
            out.append((gen, s))
    return tuple(out)


def _front_indices(G, word):
    """Positions whose letter can be commuted to the front."""
    seen = set()
    out = []
    for i, (gen, _) in enumerate(word):
        if gen not in seen and seen <= G.adj[gen]:
            out.append(i)
        seen.add(gen)
    return out


def _back_indices(G, word):
    n = len(word)
    rev = _front_indices(G, tuple(reversed(word)))
    return [n - 1 - i for i in rev]


def letter_key(G, letter):
    return (G.order[letter[0]], 0 if letter[1] > 0 else 1)


def lexnf(G, word):
    """The lexicographically least word of the trace of a reduced word."""
    rest = list(word)
    out = []
    while rest:
        best = min(_front_indices(G, rest),
                   key=lambda i: letter_key(G, rest[i]))
        out.append(rest.pop(best))
    return tuple(out)


def cyclic_reduce(G, word):
    w = reduce(G, word)
    while True:
        backs = {w[i]: i for i in _back_indices(G, w)}
        hit = None
        for i in _front_indices(G, w):
            j = backs.get((w[i][0], -w[i][1]))
            if j is not None:
                hit = (i, j)
                break
        if hit is None:
            return w
        w = tuple(x for t, x in enumerate(w) if t not in hit)


def conj_key(G, word):
    """Canonical representative of the conjugacy class of ``word``."""
    start = lexnf(G, cyclic_reduce(G, word))
    if not start:
        return start
    seen = {start}
    todo = [start]
    while todo:
        w = todo.pop()
        for i in _front_indices(G, w):
            nxt = lexnf(G, w[:i] + w[i + 1:] + (w[i],))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return min(seen, key=lambda w: [letter_key(G, x) for x in w])


def class_length(G, word):
    return len(cyclic_reduce(G, word))


def tuple_length(G, words):
    return sum(class_length(G, w) for w in words)


def same_classes(G, words1, words2):
    return len(words1) == len(words2) and all(
        conj_key(G, u) == conj_key(G, v) for u, v in zip(words1, words2))


def exponent_vector(G, word):
    vec = [0] * len(G.vertices)
    for gen, s in word:
        vec[G.order[gen]] += s
    return vec


def gcd_invariant(G, words):
    """Per-entry gcd of the abelianized exponent vectors.  An automorphism
    acts on each entry's vector by the same matrix in GL_n(Z), which keeps
    every entry's gcd."""
    out = []
    for w in words:
        g = 0
        for x in exponent_vector(G, w):
            g = gcd(g, x)
        out.append(g)
    return tuple(out)


# -- automorphisms ------------------------------------------------------------

class Aut:
    """An automorphism given by generator images and inverse images."""

    def __init__(self, G, images, inverse_images):
        self.G = G
        self.images = {v: reduce(G, images[v]) for v in G.vertices}
        self.inverse_images = {v: reduce(G, inverse_images[v])
                               for v in G.vertices}

    @classmethod
    def identity(cls, G):
        ims = {v: ((v, 1),) for v in G.vertices}
        return cls(G, ims, ims)

    @classmethod
    def from_json(cls, G, data):
        """Parse the program's automorphism JSON; raises ValueError when it
        is malformed."""
        try:
            ims = {v: parse_word(data["images"][v]) for v in G.vertices}
            inv = {v: parse_word(data["inverse_images"][v])
                   for v in G.vertices}
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError("malformed automorphism: %r" % (exc,))
        for w in list(ims.values()) + list(inv.values()):
            for gen, _ in w:
                if gen not in G.order:
                    raise ValueError("unknown generator %r" % (gen,))
        return cls(G, ims, inv)

    def to_json(self):
        return {"images": {v: format_word(w) for v, w in self.images.items()},
                "inverse_images": {v: format_word(w) for v, w in
                                   self.inverse_images.items()}}

    def apply(self, word):
        out = []
        for gen, s in word:
            img = self.images[gen]
            out.extend(img if s > 0 else inverse(img))
        return reduce(self.G, out)

    def apply_inverse(self, word):
        out = []
        for gen, s in word:
            img = self.inverse_images[gen]
            out.extend(img if s > 0 else inverse(img))
        return reduce(self.G, out)

    def compose(self, other):
        """self after other."""
        G = self.G
        return Aut(G, {v: self.apply(other.images[v]) for v in G.vertices},
                   {v: other.apply_inverse(self.inverse_images[v])
                    for v in G.vertices})

    def invert(self):
        return Aut(self.G, self.inverse_images, self.images)

    def is_valid(self):
        """Both maps are endomorphisms (images of adjacent generators
        commute) and they invert each other on every generator."""
        G = self.G
        for imgs in (self.images, self.inverse_images):
            for u, v in G.edges:
                x, y = imgs[u], imgs[v]
                if reduce(G, x + y + inverse(x) + inverse(y)):
                    return False
        return all(self.apply(self.inverse_images[v]) == ((v, 1),) and
                   self.apply_inverse(self.images[v]) == ((v, 1),)
                   for v in G.vertices)

    def equals(self, other):
        G = self.G
        return all(not reduce(G, self.images[v] +
                              inverse(other.images[v]))
                   for v in G.vertices)

    def is_identity(self):
        return all(self.images[v] == ((v, 1),) for v in self.G.vertices)

    def apply_tuple(self, words):
        return [self.apply(w) for w in words]


def _elementary(G, changes):
    ims = {v: ((v, 1),) for v in G.vertices}
    inv = dict(ims)
    for v, (img, img_inv) in changes.items():
        ims[v] = img
        inv[v] = img_inv
    return Aut(G, ims, inv)


def laurence_generators(G):
    """Dominated transvections, partial conjugations, inversions and graph
    symmetries (Laurence 1995), each with its inverse map."""
    out = []
    for a in G.vertices:
        for b in G.vertices:
            if not G.dominates(a, b):
                continue
            out.append(_elementary(G, {b: (((b, 1), (a, 1)),
                                           ((b, 1), (a, -1)))}))
            if b not in G.adj[a]:
                out.append(_elementary(G, {b: (((a, 1), (b, 1)),
                                               ((a, -1), (b, 1)))}))
    for a in G.vertices:
        for comp in G.components_outside_star(a):
            out.append(_elementary(G, {c: (((a, 1), (c, 1), (a, -1)),
                                           ((a, -1), (c, 1), (a, 1)))
                                       for c in comp}))
    for a in G.vertices:
        out.append(_elementary(G, {a: (((a, -1),), ((a, -1),))}))
    out += [x for x in symmetries(G) if not x.is_identity() and
            all(img[0][1] > 0 for img in x.images.values())]
    return out


def symmetries(G):
    """Graph symmetries composed with inversions of any set of generators:
    the automorphisms that permute the letters."""
    out = []
    for perm in permutations(G.vertices):
        pi = dict(zip(G.vertices, perm))
        if any((pi[v] in G.adj[pi[u]]) != (v in G.adj[u])
               for u in G.vertices for v in G.vertices if u != v):
            continue
        for mask in range(1 << len(G.vertices)):
            sign = {v: -1 if mask >> i & 1 else 1
                    for i, v in enumerate(G.vertices)}
            ims = {v: ((pi[v], sign[v]),) for v in G.vertices}
            inv = {pi[v]: ((v, sign[v]),) for v in G.vertices}
            out.append(Aut(G, ims, inv))
    return out


def random_product(G, rng, count):
    """A product of ``count`` random Laurence generators or their
    inverses."""
    gens = laurence_generators(G)
    total = Aut.identity(G)
    for _ in range(count):
        x = rng.choice(gens)
        total = (x.invert() if rng.random() < 0.5 else x).compose(total)
    return total


def has_peak(profile):
    """A peak is an interior point at least as high as both neighbours and
    strictly higher than one of them."""
    for i in range(1, len(profile) - 1):
        a, b, c = profile[i - 1], profile[i], profile[i + 1]
        if a <= b >= c and (a < b or c < b):
            return True
    return False


# -- integer block matrices ---------------------------------------------------

def mat_mul(A, B):
    return [[sum(A[i][t] * B[t][j] for t in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def det(A):
    """Exact determinant by Fraction elimination."""
    M = [[Fraction(x) for x in row] for row in A]
    n = len(M)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            out = -out
        out *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            if f:
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return out


def mat_inverse(M):
    """Exact inverse of an invertible square matrix."""
    n = len(M)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(M)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [r[n:] for r in aug]


def block_full(data):
    """The (n+k)-square matrix of a block JSON ``{"n","k","A","B"}``:
    [[A, B], [0, I]].  Raises ValueError when malformed."""
    try:
        n, k = int(data["n"]), int(data["k"])
        A = [[Fraction(x) for x in row] for row in data["A"]]
        B = [[Fraction(x) for x in row] for row in data["B"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError("malformed block matrix: %r" % (exc,))
    if len(A) != n or len(B) != n or any(len(r) != n for r in A) or \
            any(len(r) != k for r in B):
        raise ValueError("block matrix has the wrong shape")
    rows = [A[i] + B[i] for i in range(n)]
    rows += [[Fraction(int(i == j)) for j in range(n + k)]
             for i in range(n, n + k)]
    return rows


def is_unimodular_integral(full, n):
    """Integral entries and an invertible integral top-left block."""
    if any(x.denominator != 1 for row in full for x in row):
        return False
    return abs(det([row[:n] for row in full[:n]])) == 1


def parse_matrix_text(text):
    """The program's matrix format: ``n k m d`` then n+k rows of m
    integers, each entry meaning value/d."""
    toks = text.split()
    n, k, m, d = (int(x) for x in toks[:4])
    vals = [Fraction(int(x), d) for x in toks[4:]]
    if len(vals) != (n + k) * m:
        raise ValueError("matrix text has the wrong number of entries")
    return [vals[i * m:(i + 1) * m] for i in range(n + k)], n, k


def format_matrix_text(rows, n, k):
    m = len(rows[0])
    lines = ["%d %d %d 1" % (n, k, m)]
    lines += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def abelian_invariants(rows, ncols):
    """The abelianization of a presentation from its integer relation
    matrix: (sorted prime-power orders of the torsion part, free rank)."""
    M = [list(r) for r in rows]
    diag = []
    t = 0
    while True:
        cells = [(abs(M[i][j]), i, j) for i in range(t, len(M))
                 for j in range(t, ncols) if M[i][j]]
        if not cells:
            break
        _, pi, pj = min(cells)
        while True:
            M[t], M[pi] = M[pi], M[t]
            for r in M:
                r[t], r[pj] = r[pj], r[t]
            p = M[t][t]
            for i in range(t + 1, len(M)):
                q = M[i][t] // p
                if q:
                    M[i] = [x - q * y for x, y in zip(M[i], M[t])]
            for j in range(t + 1, ncols):
                q = M[t][j] // p
                if q:
                    for r in M:
                        r[j] -= q * r[t]
            rest = [(abs(M[i][t]), i, t) for i in range(t + 1, len(M))
                    if M[i][t]]
            rest += [(abs(M[t][j]), t, j) for j in range(t + 1, ncols)
                     if M[t][j]]
            if not rest:
                break
            _, pi, pj = min(rest)
        diag.append(abs(M[t][t]))
        t += 1
    torsion = []
    for d in diag:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                torsion.append(q)
            p += 1
    return tuple(sorted(torsion)), ncols - len(diag)
