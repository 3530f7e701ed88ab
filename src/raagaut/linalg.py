"""Exact block-matrix machinery: the normal form for the block group
GL(n,Z) x M_{n,k}(Q) acting on (n+k)-row matrices, stabilizer presentations,
the mod-d crossed homomorphism, Schreier graphs, and the two presentation
combinators (finite-index overgroup, finite covering complex).

All arithmetic is exact.  A block matrix keeps its rational block as an
integer numerator block over one denominator, so products, inverses and
the action in the block group run on integers: ``int_inverse`` inverts the
top-left block by integer Hermite reduction, and the action divides by the
denominator once per entry, so an integral element keeps integer rows
integer.  The determinant is checked where a block comes from outside (the
constructor); products and inverses of det +-1 blocks keep det +-1.  The
orbit and stabilizer routines keep their input rows as given; row
reduction to the normal form runs in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

from .core import power_word
from .errors import BudgetError, InputError
from .exactmat import (hermite, int_inverse, lcm_of_denominators, mat_det,
                       mat_eq, mat_identity, mat_mul, rref, solve_right)

SCHREIER_VERTEX_BUDGET = 1_000_000


class BlockMatrix:
    """Element of GL(n,Z) x M_{n,k}(Q): block upper triangular with integer
    determinant-+-1 top-left block A, rational top-right block B, identity
    bottom-right.

    B is stored as an integer block ``num`` over one positive denominator
    ``den``, in lowest terms, so products and inverses run in integers."""

    __slots__ = ("n", "k", "A", "num", "den")

    def __init__(self, n, k, A, B):
        self.n = n
        self.k = k
        self.A = tuple(tuple(int(x) for x in row) for row in A)
        if self.A != tuple(map(tuple, A)):
            raise InputError("top-left block must be integral")
        # ints and Fractions already carry a numerator and a denominator
        B = [[x if isinstance(x, (int, Fraction)) else Fraction(x)
              for x in row] for row in B]
        den = lcm(*[x.denominator for row in B for x in row])
        self.num = tuple(tuple(x.numerator * (den // x.denominator)
                               for x in row) for row in B)
        self.den = den
        if len(self.A) != n or any(len(r) != n for r in self.A):
            raise InputError("bad A block shape")
        if len(B) != n or any(len(r) != k for r in B):
            raise InputError("bad B block shape")
        if mat_det(self.A) not in (1, -1):
            raise InputError("top-left block must have determinant +-1")

    @classmethod
    def _reduced(cls, n, k, A, num, den):
        """The element [[A, num/den], [0, I]] from integer blocks, with
        num/den brought to lowest terms.  A is not checked: callers pass
        products and inverses of det +-1 blocks."""
        g = gcd(den, *[x for row in num for x in row])
        if g != 1:
            num = tuple(tuple(x // g for x in row) for row in num)
            den //= g
        self = cls.__new__(cls)
        self.n, self.k, self.A, self.num, self.den = n, k, A, num, den
        return self

    @classmethod
    def identity(cls, n, k):
        return cls._reduced(n, k, mat_identity(n), ((0,) * k,) * n, 1)

    @classmethod
    def from_full(cls, n, k, M):
        for i in range(n, n + k):
            for j in range(n + k):
                want = 1 if i == j else 0
                if M[i][j] != want:
                    raise InputError("matrix is not block upper triangular "
                                     "with identity bottom")
        A = [[M[i][j] for j in range(n)] for i in range(n)]
        B = [[M[i][j] for j in range(n, n + k)] for i in range(n)]
        return cls(n, k, A, B)

    @property
    def B(self):
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def full(self):
        rows = []
        B = self.B
        for i in range(self.n):
            rows.append(tuple(Fraction(x) for x in self.A[i]) + B[i])
        for i in range(self.k):
            rows.append(tuple(
                Fraction(1) if j == self.n + i else Fraction(0)
                for j in range(self.n + self.k)))
        return tuple(rows)

    def mul(self, other: "BlockMatrix") -> "BlockMatrix":
        """[[A, B], [0, I]] [[A', B'], [0, I]] = [[A A', A B' + B], [0, I]],
        over the common denominator lcm(den, den')."""
        den = lcm(self.den, other.den)
        f, g = den // other.den, den // self.den
        AB = mat_mul(self.A, other.num)
        num = tuple(tuple(x * f + y * g for x, y in zip(r1, r2))
                    for r1, r2 in zip(AB, self.num))
        return BlockMatrix._reduced(self.n, self.k,
                                    mat_mul(self.A, other.A), num, den)

    def inv(self) -> "BlockMatrix":
        Ainv = int_inverse(self.A)
        num = tuple(tuple(-x for x in row)
                    for row in mat_mul(Ainv, self.num))
        return BlockMatrix._reduced(self.n, self.k, Ainv, num, self.den)

    def denominator(self):
        return self.den

    def is_integral(self):
        return self.den == 1

    def act(self, rows):
        """Left action on an (n+k)-row matrix: the top rows become
        A top + (num bottom) / den, and the bottom rows stay."""
        n, den = self.n, self.den
        cols = tuple(zip(*rows))
        top = []
        for a, b in zip(self.A, self.num):
            row = []
            for col in cols:
                y = sum(map(mul, b, col[n:]))
                row.append(sum(map(mul, a, col))
                           + (y if den == 1 else Fraction(y, den)))
            top.append(tuple(row))
        return tuple(top) + tuple(map(tuple, rows[n:]))

    def key(self):
        return (self.n, self.k, self.A, self.num, self.den)

    def __eq__(self, other):
        return isinstance(other, BlockMatrix) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "BlockMatrix(A=%r, B=%r)" % (self.A, self.B)


def target_lcd(rows):
    return lcm_of_denominators(x for row in rows for x in row)


def rho(Q: BlockMatrix, d):
    """Residue of the rational block: (d*B) mod d, entrywise."""
    if d % Q.den:
        raise InputError("matrix is not in the denominator-d group")
    f = d // Q.den
    return tuple(tuple(x * f % d for x in row) for row in Q.num)


# -- normal form -----------------------------------------------------------

def gq_normal_form(rows, n, k):
    """Row-reduce to the canonical form: first kill columns with the bottom
    k rows wherever possible, then scaled integer Hermite reduction on the
    top block.  Returns (N, Q) with N = Q * input, exactly."""
    rows = [list(map(Fraction, r)) for r in rows]
    if len(rows) != n + k:
        raise InputError("expected %d rows" % (n + k))
    m = len(rows[0]) if rows else 0
    bottom = rows[n:]

    # Step 1: a pivot row of the reduced bottom block is the bottom-row
    # combination that vanishes on every column before its pivot and is 1
    # there; it clears the top of its pivot column, and its carried
    # identity columns give the qB update.  rref keeps the unused bottom
    # rows in input order, which fixes qB when the bottom rows are
    # dependent.
    top = [r + [Fraction(0)] * k for r in rows[:n]]
    R, pivots = rref([r + [int(i == t) for t in range(k)]
                      for i, r in enumerate(bottom)], m)
    for row, j in zip(R, pivots):
        for i, t in enumerate(top):
            c = t[j]
            if c:
                top[i] = [x - c * y for x, y in zip(t, row)]

    # Steps 2-4: integer Hermite reduction of the top block, carrying
    # [qA | qB] = [I_n | qB].
    H, C = hermite([t[:m] for t in top],
                   [[int(i == j) for j in range(n)] + t[m:]
                    for i, t in enumerate(top)])
    N = H + tuple(map(tuple, bottom))
    Q = BlockMatrix(n, k, [c[:n] for c in C], [c[n:] for c in C])
    return N, Q


def is_normal_form(rows, n, k) -> bool:
    rows = [list(map(Fraction, r)) for r in rows]
    if len(rows) != n + k:
        raise InputError("expected %d rows" % (n + k))
    m = len(rows[0]) if rows else 0
    # first bullet: wherever a bottom-row combination can reach a column
    # without touching previous columns (a pivot column of the bottom
    # block), the top of that column is zero
    for j in rref(rows[n:], m)[1]:
        if any(rows[i][j] != 0 for i in range(n)):
            return False
    # Hermite shape of the top block
    pivots = []
    for i in range(n):
        nzcols = [j for j in range(m) if rows[i][j] != 0]
        if not nzcols:
            for i2 in range(i, n):
                if any(rows[i2][j] != 0 for j in range(m)):
                    return False
            break
        p = nzcols[0]
        if pivots and p <= pivots[-1]:
            return False
        if rows[i][p] <= 0:
            return False
        for i2 in range(i):
            if not (0 <= rows[i2][p] < rows[i][p]):
                return False
        pivots.append(p)
    return True


def pivot_count(rows, n):
    """The non-zero rows among the first n."""
    return sum(1 for row in rows[:n] if any(row))


# -- presentations ---------------------------------------------------------

class Presentation:
    """Finite presentation: named generators with concrete payloads, and
    relator words over the generator names (letters (name, +-1))."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators):
        self.generators = list(generators)
        self.relators = [tuple(r) for r in relators]
        names = {name for name, _ in self.generators}
        if len(names) != len(self.generators):
            raise InputError("duplicate generator names")
        for rel in self.relators:
            for name, s in rel:
                if name not in names:
                    raise InputError("relator uses unknown generator %r"
                                     % (name,))

    def __repr__(self):
        return "Presentation(%d generators, %d relators)" % (
            len(self.generators), len(self.relators))

    def check_relators(self, mul, inv, identity):
        """Raise AssertionError unless every relator, evaluated on the
        generators' payloads, is the identity.  Each generator is inverted
        once."""
        letters = letter_table(self.generators, inv)
        for rel in self.relators:
            if fold_word(rel, letters, mul, identity) != identity:
                raise AssertionError("relator is not the identity")


def invert_pword(word):
    return tuple((name, -s) for name, s in reversed(word))


def letter_table(named, inv):
    """(name, +-1) -> element for named generators: each payload and its
    inverse."""
    letters = {}
    for name, p in named:
        letters[(name, 1)] = p
        letters[(name, -1)] = inv(p)
    return letters


def fold_word(word, letters, mul, identity):
    """The left-to-right product of a word over a ``letter_table``."""
    return reduce(mul, map(letters.__getitem__, word), identity)


def evaluate_word(word, payloads, mul, inv, identity):
    out = identity
    for name, s in word:
        p = payloads[name]
        out = mul(out, p if s > 0 else inv(p))
    return out


def evaluate_matrix_word(word, payloads):
    ident = None
    for p in payloads.values():
        ident = BlockMatrix.identity(p.n, p.k)
        break
    return evaluate_word(word, payloads, lambda x, y: x.mul(y),
                         lambda x: x.inv(), ident)


def gl_generator_matrices(m):
    """Named generating matrices of GL(m,Z): elementary transvections and
    one inversion.  For m = 2 the names follow the two-generator-plus-
    inversion convention a, b, c."""
    gens = []
    if m == 0:
        return gens
    if m == 1:
        c = ((-1,),)
        gens.append(("c", c))
        return gens
    ident = [list(r) for r in mat_identity(m)]

    def elem(i, j):
        M = [row[:] for row in ident]
        M[i][j] = 1
        return tuple(map(tuple, M))

    if m == 2:
        gens.append(("a", elem(0, 1)))
        gens.append(("b", elem(1, 0)))
    else:
        for i in range(m):
            for j in range(m):
                if i != j:
                    gens.append(("e%d%d" % (i + 1, j + 1), elem(i, j)))
    inv0 = [row[:] for row in ident]
    inv0[0][0] = -1
    gens.append(("c", tuple(map(tuple, inv0))))
    return gens


def gl_presentation(m) -> Presentation:
    """A finite presentation of GL(m,Z).

    m=0 trivial, m=1 the order-two group, m=2 the amalgam presentation, and
    for m>=3 the Steinberg relations plus the order-4 relation, extended by
    the inversion via the semidirect product combinator.
    """
    gens = gl_generator_matrices(m)
    if m == 0:
        return Presentation([], [])
    if m == 1:
        return Presentation(gens, [((("c", 1),) * 2)])
    if m == 2:
        a, b, c = ("a", 1), ("b", 1), ("c", 1)
        ai, bi, ci = ("a", -1), ("b", -1), ("c", -1)
        rels = [
            (c, c),
            (ai, b) * 3 + invert_pword((b, ai, b) * 2),
            (ai, b) * 6,
            (c, a, c, a),
            (c, b, c, b),
        ]
        return Presentation(gens, rels)
    # m >= 3: Milnor's presentation of SL(m,Z), then adjoin the inversion.
    sl_gens = [(n, p) for n, p in gens if n != "c"]
    name = {(i, j): "e%d%d" % (i + 1, j + 1)
            for i in range(m) for j in range(m) if i != j}
    rels = []
    pairs = list(name)
    for (i, j) in pairs:
        for (p, q) in pairs:
            if (i, j) >= (p, q):
                continue
            x, y = (name[(i, j)], 1), (name[(p, q)], 1)
            xi, yi = (name[(i, j)], -1), (name[(p, q)], -1)
            if j != p and i != q:
                rels.append((x, y, xi, yi))
            elif j == p and i != q:
                rels.append((x, y, xi, yi, (name[(i, q)], -1)))
            elif q == i and p != j:
                rels.append((y, x, yi, xi, (name[(p, j)], -1)))
    w = ((name[(0, 1)], 1), (name[(1, 0)], -1), (name[(0, 1)], 1))
    rels.append(w * 4)
    sl_pres = Presentation(sl_gens, rels)
    cmat = dict(gens)["c"]
    cinv = int_inverse(cmat)
    action = {}
    letters = letter_table(sl_gens, int_inverse)
    for gname, gmat in sl_gens:
        conj = mat_mul(mat_mul(cmat, gmat), cinv)
        word = gl_word(conj)
        action[("c", gname)] = word
        if not mat_eq(fold_word(word, letters, mat_mul, mat_identity(m)),
                      conj):
            raise AssertionError("inversion action word is wrong")
    top = Presentation([("c", cmat)], [((("c", 1),) * 2)])
    return semidirect_presentation(top, sl_pres, action)


def semidirect_presentation(pG: Presentation, pH: Presentation,
                            action) -> Presentation:
    """Presentation of G acting on H: generators of both, relators of both,
    plus g h g^-1 w^-1 for each pair, where action[(g,h)] = w is a word over
    the H generators for g h g^-1."""
    gens = list(pG.generators) + list(pH.generators)
    rels = list(pG.relators) + list(pH.relators)
    for gname, _ in pG.generators:
        for hname, _ in pH.generators:
            w = action[(gname, hname)]
            rels.append(((gname, 1), (hname, 1), (gname, -1))
                        + invert_pword(w))
    return Presentation(gens, rels)


def abelian_presentation(named):
    """Free abelian presentation: all pairs commute."""
    gens = list(named)
    rels = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            x, y = (gens[i][0], 1), (gens[j][0], 1)
            rels.append((x, y, (gens[i][0], -1), (gens[j][0], -1)))
    return Presentation(gens, rels)


# -- GL word rewriting -----------------------------------------------------

def gl_word(C):
    """Express C in GL(m,Z) as a word over the named generators of
    gl_generator_matrices(m), by exact row reduction."""
    m = len(C)
    if m == 0:
        return ()
    if m == 1:
        if C == ((1,),):
            return ()
        if C == ((-1,),):
            return (("c", 1),)
        raise InputError("not in GL(1,Z)")

    def ename(i, j):
        if m == 2:
            return "a" if (i, j) == (0, 1) else "b"
        return "e%d%d" % (i + 1, j + 1)

    word = []
    det = mat_det(C)
    if det not in (1, -1):
        raise InputError("matrix is not in GL(m,Z)")
    M = [list(row) for row in C]
    if det == -1:
        # C = c * (c^-1 C); pull the inversion out front
        word.append(("c", 1))
        cinv = [list(row) for row in mat_identity(m)]
        cinv[0][0] = -1
        M = [list(r) for r in mat_mul(cinv, M)]

    # reduce M (det +1) to the identity with row operations; a row operation
    # row_i += q*row_j is left multiplication by ename(i,j)^q, so M equals
    # the product of the inverse operations in order.
    ops = []  # (i, j, q) meaning row_i += q * row_j was applied

    def rowop(i, j, q):
        if q == 0:
            return
        for t in range(m):
            M[i][t] += q * M[j][t]
        ops.append((i, j, q))

    for col in range(m):
        while True:
            nz = [i for i in range(col, m) if M[i][col] != 0]
            if not nz:
                raise InputError("matrix is not in GL(m,Z)")
            if len(nz) == 1 and abs(M[nz[0]][col]) == 1:
                break
            piv = min(nz, key=lambda i: (abs(M[i][col]), i))
            moved = False
            for i in nz:
                if i == piv:
                    continue
                q = -(M[i][col] // M[piv][col])
                rowop(i, piv, q)
                moved = True
            if not moved:
                # single nonzero entry with |entry| > 1: impossible in GL
                raise InputError("matrix is not in GL(m,Z)")
        i0 = nz[0]
        if i0 != col:
            # swap via three row operations keeping determinant
            rowop(col, i0, 1)
            rowop(i0, col, -1)
            rowop(col, i0, 1)
            # now row col holds the old row i0, row i0 holds its negative
        # clear the rest of the column
        for i in range(m):
            if i != col and M[i][col] != 0:
                q = -M[i][col] // M[col][col]
                rowop(i, col, q)
    # now M is diagonal with +-1 entries and determinant 1
    negs = [i for i in range(m) if M[i][i] == -1]
    if len(negs) % 2:
        raise AssertionError("GL reduction left an odd number of signs")
    for t in range(0, len(negs), 2):
        i, j = negs[t], negs[t + 1]
        # diag(-1,-1) in the (i,j) plane equals (e_ij e_ji^-1 e_ij)^2
        for _ in range(2):
            rowop(i, j, 1)
            rowop(j, i, -1)
            rowop(i, j, 1)
    for i in range(m):
        for j in range(m):
            if M[i][j] != (1 if i == j else 0):
                raise AssertionError("GL reduction failed")
    # ops in order turned the det-one part M0 into I: op_r ... op_1 M0 = I,
    # so M0 = op_1^-1 op_2^-1 ... op_r^-1, read left to right.
    word.extend(power_word((ename(i, j), -q) for i, j, q in ops))
    check = fold_word(word, letter_table(gl_generator_matrices(m),
                                         int_inverse),
                      mat_mul, mat_identity(m))
    if not mat_eq(check, C):
        raise AssertionError("GL word reconstruction failed")
    return tuple(word)


# -- labeled graphs ----------------------------------------------------------

class LabeledGraph:
    """Directed multigraph with labeled edges; a reversed edge carries the
    inverse label.

    Invariant: every vertex has at most one outgoing and at most one
    incoming edge per label.  ``out[v]`` and ``inc[v]`` map each label to
    that edge's index, in edge-index order, and serve both as the label
    index and as the adjacency.  Schreier graphs have exactly one edge per
    label each way at every vertex.

    Paths are lists of (edge index, forward?) steps; a spanning tree is the
    parent map of ``bfs_tree``, and ``tree_path`` is the one walk up it."""

    def __init__(self):
        self.payloads = []
        self.vindex = {}
        self.edges = []  # (src, dst, name, payload)
        self.out = []    # per vertex: name -> edge index
        self.inc = []    # per vertex: name -> edge index

    def add_vertex(self, key, payload=None):
        if key in self.vindex:
            return self.vindex[key]
        idx = len(self.payloads)
        self.vindex[key] = idx
        self.payloads.append(payload if payload is not None else key)
        self.out.append({})
        self.inc.append({})
        return idx

    def add_edge(self, src, dst, name, payload):
        if name in self.out[src] or name in self.inc[dst]:
            raise InputError("label %r repeats at vertex %d or %d"
                             % (name, src, dst))
        idx = len(self.edges)
        self.edges.append((src, dst, name, payload))
        self.out[src][name] = idx
        self.inc[dst][name] = idx
        return idx

    def n_vertices(self):
        return len(self.payloads)

    def neighbors(self, v):
        """(label, other endpoint, edge index, backward?) for the edges at
        v; sorting these orders edges by label, then endpoint."""
        edges = self.edges
        out = [(name, edges[idx][1], idx, False)
               for name, idx in self.out[v].items()]
        return out + [(name, edges[idx][0], idx, True)
                      for name, idx in self.inc[v].items()]

    def component(self, start):
        seen = {start}
        frontier = [start]
        while frontier:
            for _, w, _, _ in self.neighbors(frontier.pop()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    def bfs_tree(self, base):
        """Spanning tree of the component of base: vertex -> (edge, forward)
        leading back toward the base, in BFS order.  Each vertex scans its
        edges sorted by label, other endpoint, edge index and direction, so
        the output is deterministic."""
        parent = {base: None}
        frontier = [base]
        while frontier:
            nxt = []
            for v in frontier:
                for _, w, idx, back in sorted(self.neighbors(v)):
                    if w not in parent:
                        parent[w] = (idx, not back)
                        nxt.append(w)
            frontier = nxt
        return parent

    def tree_path(self, parent, v):
        """The tree path base -> v, as steps in traversal order."""
        steps = []
        while parent[v] is not None:
            idx, fwd = parent[v]
            steps.append((idx, fwd))
            s, d, _, _ = self.edges[idx]
            v = s if fwd else d
        steps.reverse()
        return steps

    def path_word(self, parent, v):
        """Word spelling the tree-path element base -> v as a left-to-right
        product (so the first-crossed edge label is the rightmost letter;
        applied to the base coset it lands on v)."""
        return tuple((self.edges[idx][2], 1 if fwd else -1)
                     for idx, fwd in reversed(self.tree_path(parent, v)))

    def path_element(self, path, letter, mul, start):
        """Compose the edges of a path onto ``start`` in traversal order,
        each later edge acting on the earlier result.  ``letter(payload,
        forward)`` is the element an edge carries in that direction."""
        out = start
        for idx, fwd in path:
            out = mul(letter(self.edges[idx][3], fwd), out)
        return out

    def tree_elements(self, parent, letter, mul, identity):
        """``path_element`` of the tree path base -> v for every tree
        vertex.  Each vertex extends its parent vertex's element by one
        edge, in BFS order, so the whole tree is composed once."""
        elems = {}
        for v, step in parent.items():
            if step is None:
                elems[v] = identity
            else:
                idx, fwd = step
                s, d, _, payload = self.edges[idx]
                elems[v] = mul(letter(payload, fwd), elems[s if fwd else d])
        return elems

    def schreier_generators(self, base, letter, mul, inv, identity):
        """Schreier's lemma: the spanning tree ``bfs_tree(base)`` and, for
        each non-tree edge s -> d in edge order, (edge index, the loop
        tree(d)^-1 . edge . tree(s) at the base).  These loops generate the
        fundamental group; every caller builds a connected graph, so a tree
        that misses a vertex is an internal fault."""
        parent = self.bfs_tree(base)
        if len(parent) != self.n_vertices():
            raise AssertionError("graph is not connected")
        tree = self.tree_elements(parent, letter, mul, identity)
        tree_edges = {step[0] for step in parent.values() if step is not None}
        return parent, [
            (idx, mul(mul(inv(tree[d]), letter(payload, True)), tree[s]))
            for idx, (s, d, _, payload) in enumerate(self.edges)
            if idx not in tree_edges]

    def trace(self, start, word, gen_of_edge):
        """Follow a word from ``start`` and rewrite it over the generators
        that ``gen_of_edge`` names (edge index -> name); other edges are
        dropped.  Words are left-to-right products acting on cosets, so the
        walk consumes them from the right.  Returns the rewritten word and
        the end vertex."""
        out = []
        v = start
        for name, s in reversed(word):
            if s > 0:
                idx = self.out[v][name]
                v = self.edges[idx][1]
            else:
                idx = self.inc[v][name]
                v = self.edges[idx][0]
            if idx in gen_of_edge:
                out.append((gen_of_edge[idx], 1 if s > 0 else -1))
        out.reverse()
        return tuple(out), v


def _letter(inv):
    """Edge letter for payloads that are group elements: the payload
    forward, its inverse backward."""
    return lambda payload, fwd: payload if fwd else inv(payload)


# -- stabilizer of a normal form in G_d --------------------------------------

class StabStructure:
    """The structural data of the stabilizer of a normal form in the
    denominator-d group: pivot count l, kernel basis for the translation
    part, and the named generator layout."""

    __slots__ = ("n", "k", "d", "l", "K_basis", "gl_names", "m_names",
                 "k_names", "payloads")

    def __init__(self, n, k, d, l, K_basis, gl_names, m_names, k_names,
                 payloads):
        self.n = n
        self.k = k
        self.d = d
        self.l = l
        self.K_basis = K_basis
        self.gl_names = gl_names
        self.m_names = m_names
        self.k_names = k_names
        self.payloads = payloads


def _embed_gl(n, k, l, small):
    """Embed an (n-l)x(n-l) integer matrix into the lower-right of the A
    block of an identity BlockMatrix."""
    A = [list(r) for r in mat_identity(n)]
    m = len(small)
    for i in range(m):
        for j in range(m):
            A[l + i][l + j] = small[i][j]
    return BlockMatrix(n, k, A, [[0] * k for _ in range(n)])


def kernel_lattice_basis(bottom, d):
    """Basis of { x in (1/d Z)^k : x * bottom = 0 } where bottom has k rows:
    the carried rows of the zero rows of its Hermite normal form."""
    denom = lcm(d, target_lcd(bottom))
    scaled = [[int(x * denom) for x in row] for row in bottom]
    H, U = hermite(scaled, mat_identity(len(bottom)))
    return [tuple(Fraction(u, d) for u in U[i])
            for i, row in enumerate(H) if not any(row)]


def gd_stabilizer(rows, n, k, d):
    """Structure and finite presentation of the stabilizer of a matrix in
    normal form under the denominator-d block group.

    The stabilizer is (M_{l,n-l}(Z) x GL(n-l,Z)) acting on K^n, with K the
    kernel of the bottom-row coefficient map; the presentation is assembled
    with the semidirect-product combinator and all generators carry their
    concrete matrices.
    """
    rows = [tuple(map(Fraction, r)) for r in rows]
    if not is_normal_form(rows, n, k):
        raise InputError("matrix is not in normal form")
    if d % target_lcd(rows) != 0:
        raise InputError("matrix entries are not multiples of 1/d")
    l = pivot_count(rows, n)
    m = n - l
    bottom = rows[n:]

    K_basis = kernel_lattice_basis(bottom, d)
    k_named = []
    payloads = {}
    for i in range(n):
        for t, kb in enumerate(K_basis):
            name = "k_%d_%d" % (i + 1, t + 1)
            B = [[Fraction(0)] * k for _ in range(n)]
            B[i] = list(kb)
            mat = BlockMatrix(n, k, mat_identity(n), B)
            k_named.append((name, mat))
            payloads[name] = mat
    m_named = []
    for i in range(l):
        for j in range(m):
            name = "m_%d_%d" % (i + 1, j + 1)
            A = [list(r) for r in mat_identity(n)]
            A[i][l + j] = 1
            mat = BlockMatrix(n, k, A, [[0] * k for _ in range(n)])
            m_named.append((name, mat))
            payloads[name] = mat
    gl_named = []
    for name, small in gl_generator_matrices(m):
        mat = _embed_gl(n, k, l, small)
        gl_named.append((name, mat))
        payloads[name] = mat

    for name, mat in k_named + m_named + gl_named:
        if not mat_eq(mat.act(rows), tuple(rows)):
            raise AssertionError("stabilizer generator %s moves the matrix"
                                 % name)

    struct = StabStructure(n, k, d, l, K_basis,
                           [nm for nm, _ in gl_named],
                           [nm for nm, _ in m_named],
                           [nm for nm, _ in k_named], payloads)

    # presentations of the three layers
    p_gl = gl_presentation(m)
    p_gl = Presentation([(nm, payloads[nm]) for nm, _ in p_gl.generators],
                        p_gl.relators)
    p_m = abelian_presentation(m_named)
    if m_named:
        action_glm = {}
        for gname, gmat in p_gl.generators:
            small = [[gmat.A[l + i][l + j] for j in range(n - l)]
                     for i in range(n - l)]
            sinv = int_inverse(small)
            for i in range(l):
                for j in range(n - l):
                    action_glm[(gname, "m_%d_%d" % (i + 1, j + 1))] = \
                        power_word(("m_%d_%d" % (i + 1, t + 1), sinv[j][t])
                                   for t in range(n - l))
        p_top = semidirect_presentation(p_gl, p_m, action_glm)
    else:
        p_top = p_gl
    p_k = abelian_presentation(k_named)
    if k_named:
        action_k = {}
        for gname, gmat in p_top.generators:
            for i in range(n):
                for t in range(len(K_basis)):
                    action_k[(gname, "k_%d_%d" % (i + 1, t + 1))] = \
                        power_word(("k_%d_%d" % (r + 1, t + 1), gmat.A[r][i])
                                   for r in range(n))
        pres = semidirect_presentation(p_top, p_k, action_k)
    else:
        pres = p_top

    pres.check_relators(BlockMatrix.mul, BlockMatrix.inv,
                        BlockMatrix.identity(n, k))
    return struct, pres


def solve_int_combo(basis_rows, target):
    """Integer coefficients expressing target over the basis rows, or None."""
    if not basis_rows:
        return () if all(x == 0 for x in target) else None
    A = [[Fraction(basis_rows[i][j]) for i in range(len(basis_rows))]
         for j in range(len(target))]
    x = solve_right(A, list(target))
    if x is None:
        return None
    if any(c.denominator != 1 for c in x):
        return None
    combo = [sum(int(x[i]) * basis_rows[i][j] for i in range(len(x)))
             for j in range(len(target))]
    if any(c != t for c, t in zip(combo, target)):
        return None
    return tuple(int(c) for c in x)


def gd_stab_word(X: BlockMatrix, struct: StabStructure):
    """Express a stabilizer element over the structured generators: first
    the translation part over the K^n basis, then the M block, then the
    GL(n-l,Z) word."""
    n, k, l = struct.n, struct.k, struct.l
    word = []
    B = X.B
    for i in range(n):
        coeffs = solve_int_combo(struct.K_basis, B[i])
        if coeffs is None:
            raise InputError("translation part is not in the kernel lattice")
        word.extend(power_word(("k_%d_%d" % (i + 1, t + 1), c)
                               for t, c in enumerate(coeffs)))
    A = X.A
    for i in range(n):
        for j in range(l):
            if A[i][j] != (1 if i == j else 0):
                raise InputError("element does not stabilize the pivots")
    word.extend(power_word(("m_%d_%d" % (i + 1, j + 1), A[i][l + j])
                           for i in range(l) for j in range(n - l)))
    small = tuple(tuple(A[l + i][l + j] for j in range(n - l))
                  for i in range(n - l))
    word.extend(gl_word(small))
    check = evaluate_matrix_word(tuple(word), struct.payloads)
    if check != X:
        raise AssertionError("stabilizer word reconstruction failed")
    return tuple(word)


# -- Schreier graph of the integral subgroup ---------------------------------

def schreier_g1_in_gd(named_gens, n, k, d, start, max_vertices=None):
    """Schreier graph of the integral block group inside the denominator-d
    group on the component of the residue ``start``: vertices are residue
    matrices mod d, edges follow the crossed homomorphism update.

    Each generator permutes the residues, so a search along the edges out of
    ``start`` reaches the whole component; it computes each residue's
    images once.  Vertices are numbered by their entries read from the last
    one, and edges are added generator by generator in vertex order.
    ``max_vertices`` caps the vertices built."""
    if max_vertices is None:
        max_vertices = SCHREIER_VERTEX_BUDGET
    moves = [(C.A, rho(C, d)) for _, C in named_gens]
    images = {}  # residue -> its image under each generator
    frontier = [start]
    while frontier:
        res = frontier.pop()
        if res in images:
            continue
        if len(images) == max_vertices:
            raise BudgetError.exceeded("schreier_g1_in_gd vertices",
                                       max_vertices + 1, max_vertices)
        cols = tuple(zip(*res))
        images[res] = [
            tuple(tuple((sum(map(mul, a, col)) + r) % d
                        for col, r in zip(cols, rc_row))
                  for a, rc_row in zip(A, rc))
            for A, rc in moves]
        frontier.extend(images[res])
    graph = LabeledGraph()
    for res in sorted(images, key=lambda r: sum(r, ())[::-1]):
        graph.add_vertex(res)
    for i, (name, C) in enumerate(named_gens):
        for v, res in enumerate(graph.payloads):
            graph.add_edge(v, graph.vindex[images[res][i]], name, C)
    return graph


# -- orbit decision -----------------------------------------------------------

class OrbitCertificate:
    """Outcome of an orbit check: the witness when positive, a reason when
    negative."""

    __slots__ = ("witness", "reason")

    def __init__(self, witness=None, reason=None):
        self.witness = witness
        self.reason = reason


def _drop_rows(rows, n, zero_columns):
    keep = [i for i in range(len(rows)) if i < n or (i - n) not in
            zero_columns]
    return [rows[i] for i in keep]


def _lift_block(D, k, zero_columns):
    """Reinsert zero columns into the rational block."""
    cols = []
    small = 0
    for j in range(k):
        if j in zero_columns:
            cols.append(None)
        else:
            cols.append(small)
            small += 1
    num = tuple(tuple(0 if c is None else row[c] for c in cols)
                for row in D.num)
    return BlockMatrix._reduced(D.n, k, D.A, num, D.den)


def g1_orbit_decide(rows_a, rows_b, n, k, zero_columns=frozenset(),
                    max_vertices=None):
    """Find an integral block matrix D with D*A = B (its rational block zero
    on the given columns), or decide none exists.

    Returns an OrbitCertificate; the reason is "normal-forms" or
    "schreier-component" on the negative side.
    """
    zero_columns = frozenset(zero_columns)
    rows_a = [tuple(r) for r in rows_a]
    rows_b = [tuple(r) for r in rows_b]
    if len(rows_a) != n + k or len(rows_b) != n + k:
        raise InputError("expected %d rows" % (n + k))
    for j in zero_columns:
        if rows_a[n + j] != rows_b[n + j]:
            return OrbitCertificate(reason="normal-forms")
    ra = _drop_rows(rows_a, n, zero_columns)
    rb = _drop_rows(rows_b, n, zero_columns)
    k2 = k - len(zero_columns)
    NA, QA = gq_normal_form(ra, n, k2)
    NB, QB = gq_normal_form(rb, n, k2)
    if not mat_eq(NA, NB):
        return OrbitCertificate(reason="normal-forms")
    d = lcm(target_lcd(NA), lcm(QA.denominator(), QB.denominator()))
    if d == 1:
        D = QB.inv().mul(QA)
    else:
        _, pres = gd_stabilizer(NA, n, k2, d)
        ra = rho(QA, d)
        graph = schreier_g1_in_gd(pres.generators, n, k2, d, ra,
                                  max_vertices)
        vb = graph.vindex.get(rho(QB, d))
        if vb is None:
            return OrbitCertificate(reason="schreier-component")
        parent = graph.bfs_tree(graph.vindex[ra])
        C = graph.path_element(graph.tree_path(parent, vb),
                               _letter(BlockMatrix.inv), BlockMatrix.mul,
                               BlockMatrix.identity(n, k2))
        D = QB.inv().mul(C).mul(QA)
    if not D.is_integral():
        raise AssertionError("orbit witness is not integral")
    D = _lift_block(D, k, zero_columns)
    if not mat_eq(D.act(rows_a), tuple(rows_b)):
        raise AssertionError("orbit witness does not map A to B")
    return OrbitCertificate(witness=D)


# -- presentation of the integral stabilizer ---------------------------------

def cover_presentation(pres: Presentation, graph: LabeledGraph, base,
                       mul, inv, identity):
    """Presentation of the finite-index subgroup read off a connected
    Schreier graph of it, as the fundamental group of the covering complex:
    one generator per non-tree edge, one relator per (vertex, relator of the
    base presentation).  Returns the presentation and the generator name of
    each non-tree edge index.
    """
    _, loops = graph.schreier_generators(base, _letter(inv), mul, inv,
                                         identity)
    gen_of_edge = {idx: "x%d" % i for i, (idx, _) in enumerate(loops, 1)}
    gens = [(gen_of_edge[idx], elem) for idx, elem in loops]

    relators = []
    for v in range(graph.n_vertices()):
        for rel in pres.relators:
            word, end = graph.trace(v, rel, gen_of_edge)
            if end != v:
                raise AssertionError("relator did not close up in the cover")
            relators.append(word)
    return Presentation(gens, relators), gen_of_edge


def g1_stabilizer_presentation(rows_a, n, k, zero_columns=frozenset(),
                               max_vertices=None):
    """Finite presentation of the stabilizer of an integer matrix in the
    integral block group (rational block zero on the given columns).

    Returns (presentation, rewrite); ``rewrite`` expresses further
    stabilizer elements over the presentation's generators.
    """
    zero_columns = frozenset(zero_columns)
    rows_a = [tuple(r) for r in rows_a]
    ra = _drop_rows(rows_a, n, zero_columns)
    k2 = k - len(zero_columns)
    N, Q = gq_normal_form(ra, n, k2)
    d = lcm(target_lcd(N), Q.denominator())
    struct, pres_n = gd_stabilizer(N, n, k2, d)
    Qi = Q.inv()
    # C in the stabilizer of N has an integral Q^-1 C Q exactly when it
    # fixes the coset Q G1, whose residue is rho(Q, d)
    base_key = rho(Q, d)
    graph = schreier_g1_in_gd(pres_n.generators, n, k2, d, base_key,
                              max_vertices)
    # relabel payloads by conjugating into the stabilizer of A
    pres_conj = Presentation(
        [(nm, Qi.mul(p).mul(Q)) for nm, p in pres_n.generators],
        pres_n.relators)
    conj = dict(pres_conj.generators)
    graph.edges = [(s, dst, name, conj[name])
                   for s, dst, name, _ in graph.edges]
    base = graph.vindex[base_key]
    pres, gen_of_edge = cover_presentation(
        pres_conj, graph, base, BlockMatrix.mul, BlockMatrix.inv,
        BlockMatrix.identity(n, k2))
    lifted = [(nm, _lift_block(p, k, zero_columns))
              for nm, p in pres.generators]
    pres = Presentation(lifted, pres.relators)
    for nm, p in pres.generators:
        if not p.is_integral():
            raise AssertionError("stabilizer generator is not integral")
        if not mat_eq(p.act(rows_a), tuple(rows_a)):
            raise AssertionError("stabilizer generator moves the matrix")

    def rewrite(D: BlockMatrix):
        """Word over the output generators for an element of the integral
        stabilizer: conjugate it into the structured stabilizer and trace
        its word there through the Schreier component."""
        small = BlockMatrix(n, k2, D.A, [
            [x for j, x in enumerate(row) if j not in zero_columns]
            for row in D.B])
        word, end = graph.trace(base, gd_stab_word(Q.mul(small).mul(Qi),
                                                   struct), gen_of_edge)
        if end != base:
            raise InputError("word does not lie in the integral stabilizer")
        return word

    return pres, rewrite


def presentation_from_finite_index(pH: Presentation, extra, graph, base,
                                   rewriter, mul, inv, identity):
    """Present a group from a finite presentation of a finite-index subgroup
    and a connected Schreier graph over both generator sets.

    Generators: the subgroup's plus the extra coset generators.  Relators:
    the subgroup's, plus one per fundamental-group generator of the graph,
    equating it with its rewriting over the subgroup generators (computed by
    ``rewriter`` from the composed group element)."""
    parent, loops = graph.schreier_generators(base, _letter(inv), mul, inv,
                                              identity)
    gens = list(pH.generators) + list(extra)
    rels = list(pH.relators)
    for idx, elem in loops:
        s, d, name, _ = graph.edges[idx]
        # the fundamental-group generator of the non-tree edge, as a word:
        # (tree path to d)^-1 * edge * (tree path to s)
        word = invert_pword(graph.path_word(parent, d))
        word += ((name, 1),)
        word += graph.path_word(parent, s)
        rel = word + invert_pword(rewriter(elem))
        if rel and not _trivially_cancels(rel):
            rels.append(rel)
    return Presentation(gens, rels)


def _trivially_cancels(word):
    stack = []
    for name, s in word:
        if stack and stack[-1] == (name, -s):
            stack.pop()
        else:
            stack.append((name, s))
    return not stack
