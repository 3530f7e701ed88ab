"""Independent oracles used by the tests.

Everything here works on its own representations (signed integer letters,
plain tuples) and implements textbook algorithms directly, so it shares no
code path with the package.  The exceptions are the all-tuple orbit graph,
which runs the package's own Whitehead sweeps at every tuple, the
enumeration minimizer, which runs the package's one-group orbit decision
on every shorter tuple, the list minimizer, which runs the classic
descent over the package's materialized list of classic Whitehead moves,
and the peak rewrite loop that recomputes every profile with the
package's peak search and lowering check: they are references for the
graph built on representatives, for the minimizing sweep, for the
streamed classic descent and for the spliced peak profiles, not for the
parts they call.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import permutations, product

from raagaut.apps import wh_reachable
from raagaut.aut import (enumerate_classic_whitehead, identity_automorphism,
                         permutation_automorphisms)
from raagaut.core import enumerate_tuples
from raagaut.peak import (find_peak_position, intermediate_tuples,
                          verify_lowering)
from raagaut.whorbit import wh_orbit_decide, wh_stabilizer_presentation


# -- graph symmetries -----------------------------------------------------------

def brute_force_symmetries(g):
    """Every adjacency-preserving vertex permutation, by trying all n! of
    them in the order of ``itertools.permutations``."""
    out = []
    for perm in permutations(g.vertices):
        pi = dict(zip(g.vertices, perm))
        if all((pi[v] in g.adj[pi[u]]) == (v in g.adj[u])
               for u in g.vertices for v in g.vertices if u != v):
            out.append(pi)
    return out


# -- free group cyclic words --------------------------------------------------
# letters: +1..r and -1..-r

def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyc_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def cyc_canon(word):
    w = cyc_reduce(word)
    if not w:
        return ()
    return min(w[i:] + w[:i] for i in range(len(w)))


def canon_tuple(words):
    return tuple(cyc_canon(w) for w in words)


def tuple_len(tup):
    return sum(len(w) for w in tup)


def whitehead_moves(rank):
    """All classic Whitehead automorphisms of the free group of the given
    rank, as letter-image maps, plus the signed letter permutations."""
    letters = [i for i in range(1, rank + 1)] + \
              [-i for i in range(1, rank + 1)]
    moves = []
    # type 2: multiplier a, subsets of the other letters
    for a in letters:
        others = [x for x in letters if abs(x) != abs(a)]
        positives = [x for x in others if x > 0]
        for choice in product(range(4), repeat=len(positives)):
            img = {}
            for x, c in zip(positives, choice):
                if c == 0:
                    img[x] = (x,)
                elif c == 1:
                    img[x] = (x, a)
                elif c == 2:
                    img[x] = (-a, x)
                else:
                    img[x] = (-a, x, a)
            img[abs(a)] = (abs(a),)
            moves.append(_complete(img, rank))
    # type 1: signed permutations
    from itertools import permutations
    for perm in permutations(range(1, rank + 1)):
        for signs in product((1, -1), repeat=rank):
            img = {i + 1: (perm[i] * signs[i],) for i in range(rank)}
            moves.append(_complete(img, rank))
    # dedupe
    seen = set()
    out = []
    for mv in moves:
        key = tuple(sorted(mv.items()))
        if key not in seen:
            seen.add(key)
            out.append(mv)
    return out


def _complete(img, rank):
    full = {}
    for i in range(1, rank + 1):
        im = img.get(i, (i,))
        full[i] = im
        full[-i] = tuple(-x for x in reversed(im))
    return full


def apply_move(move, tup):
    out = []
    for w in tup:
        new = []
        for x in w:
            new.extend(move[x])
        out.append(cyc_canon(tuple(new)))
    return tuple(out)


def oracle_minimize(tup, rank):
    """Whitehead minimization: greedy descent by single classic moves."""
    cur = canon_tuple(tup)
    moves = whitehead_moves(rank)
    while True:
        best = None
        for mv in moves:
            img = apply_move(mv, cur)
            if tuple_len(img) < tuple_len(cur):
                best = img
                break
        if best is None:
            return cur
        cur = best


def oracle_equivalent(t1, t2, rank, budget=200_000):
    """Whitehead's theorem: minimize both, then search the minimal level by
    single classic moves."""
    m1 = oracle_minimize(t1, rank)
    m2 = oracle_minimize(t2, rank)
    if tuple_len(m1) != tuple_len(m2):
        return False
    if m1 == m2:
        return True
    moves = whitehead_moves(rank)
    seen = {m1}
    frontier = [m1]
    while frontier:
        cur = frontier.pop()
        for mv in moves:
            img = apply_move(mv, cur)
            if tuple_len(img) != tuple_len(m1) or img in seen:
                continue
            if img == m2:
                return True
            seen.add(img)
            frontier.append(img)
            if len(seen) > budget:
                raise RuntimeError("oracle budget exceeded")
    return False


# -- graphical reduction oracle -----------------------------------------------

def bfs_minimal_length(adjacency, word, budget=300_000):
    """Minimal length of a word in a RAAG by BFS over commutation swaps and
    adjacent cancellations; adjacency maps each generator to its neighbour
    set."""
    def moves(w):
        for i in range(len(w) - 1):
            (g1, s1), (g2, s2) = w[i], w[i + 1]
            if g1 == g2 and s1 == -s2:
                yield w[:i] + w[i + 2:]
            if g1 != g2 and g2 in adjacency[g1]:
                yield w[:i] + (w[i + 1], w[i]) + w[i + 2:]

    word = tuple(word)
    best = len(word)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for m in moves(w):
                if m in seen:
                    continue
                seen.add(m)
                if len(seen) > budget:
                    raise RuntimeError("oracle budget exceeded")
                best = min(best, len(m))
                nxt.append(m)
        frontier = nxt
    return best


# -- labeled graphs by edge scans ---------------------------------------------
# The adjacency and spanning tree of a LabeledGraph read straight off its
# edge list (src, dst, name, payload), scanning every edge per vertex.

def edge_scan_neighbors(edges, v):
    for idx, (s, d, _, _) in enumerate(edges):
        if s == v:
            yield idx, True
        if d == v:
            yield idx, False


def edge_scan_component(edges, start):
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for idx, fwd in edge_scan_neighbors(edges, v):
            s, d, _, _ = edges[idx]
            w = d if fwd else s
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def edge_scan_bfs_tree(edges, base):
    """vertex -> (edge index, forward?) toward the base; each vertex takes
    its edges by label, then other endpoint, then edge order."""
    parent = {base: None}
    frontier = [base]
    while frontier:
        nxt = []
        for v in frontier:
            incident = sorted(
                edge_scan_neighbors(edges, v),
                key=lambda p: (edges[p[0]][2], edges[p[0]][1 if p[1] else 0]))
            for idx, fwd in incident:
                s, d, _, _ = edges[idx]
                w = d if fwd else s
                if w not in parent:
                    parent[w] = (idx, fwd)
                    nxt.append(w)
        frontier = nxt
    return parent


# -- Schreier graphs over every residue ----------------------------------------
# The Schreier graph of the integral block group inside the denominator-d
# group on all d^(n*k) residue matrices, numbered with the first flattened
# entry running fastest and with edges added generator by generator, and the
# component of one residue copied out in that numbering.  Block matrices are
# read only through ``.A`` and ``.B``.

def all_residue_schreier(named_gens, n, k, d):
    """(vertex keys, edges (src, dst, name, payload)) on every residue."""
    keys = []
    for flat in product(range(d), repeat=n * k):
        flat = flat[::-1]
        keys.append(tuple(tuple(flat[i * k + j] for j in range(k))
                          for i in range(n)))
    index = {key: v for v, key in enumerate(keys)}
    edges = []
    for name, C in named_gens:
        rc = [[int(x * d) % d for x in row] for row in C.B]
        for v, res in enumerate(keys):
            img = tuple(tuple((sum(C.A[i][t] * res[t][j] for t in range(n))
                               + rc[i][j]) % d for j in range(k))
                        for i in range(n))
            edges.append((v, index[img], name, C))
    return keys, edges


def residue_component(keys, edges, start):
    """Keys and edges of the component of the residue ``start``, with the
    vertices renumbered in their order in the full graph."""
    comp = sorted(edge_scan_component(edges, keys.index(start)))
    new = {v: i for i, v in enumerate(comp)}
    return ([keys[v] for v in comp],
            [(new[s], new[d], name, p) for s, d, name, p in edges
             if s in new])


# -- conjugacy classes by word BFS --------------------------------------------
# The canonical class word and the lexicographic normal form straight from
# their definitions: a BFS over every word reachable by commutation swaps
# and rotations, and a greedy normal form that rescans for blockers.  The
# package works on traces instead.  The graph is read only through
# ``g.adj`` and ``g.vertices``.

def _letter_key(g, letter):
    return (g.vertices.index(letter[0]), 0 if letter[1] > 0 else 1)


def _commutes(g, x, y):
    return x == y or y in g.adj[x]


def scan_reduce(g, word):
    """Delete the leftmost cancellable pair x ... x^-1 (everything between
    commuting with x), restarting the scan after each deletion, until none
    is left: the restart scan that ``reduce_word``'s one-pass stack form
    must reproduce letter for letter."""
    letters = list(word)
    changed = True
    while changed:
        changed = False
        for i, (gi, si) in enumerate(letters):
            for j in range(i + 1, len(letters)):
                gj, sj = letters[j]
                if gj == gi and sj == -si:
                    del letters[j], letters[i]
                    changed = True
                    break
                if not _commutes(g, gi, gj):
                    break
            if changed:
                break
    return tuple(letters)


def _cyclic_reduce(g, word):
    w = scan_reduce(g, word)
    while True:
        for r in range(len(w)):
            red = scan_reduce(g, w[r:] + w[:r])
            if len(red) < len(w):
                w = red
                break
        else:
            return w


def word_lexnf(g, word):
    """Greedily pull the least unblocked letter of a reduced word to the
    front."""
    rest = list(word)
    out = []
    while rest:
        best = None
        for i, let in enumerate(rest):
            if any(not _commutes(g, rest[j][0], let[0]) for j in range(i)):
                continue
            if best is None or \
                    _letter_key(g, let) < _letter_key(g, rest[best]):
                best = i
        out.append(rest.pop(best))
    return tuple(out)


def word_bfs_canonical(g, word, memo=None, budget=2_000_000):
    """The least word reachable from a cyclic reduction of ``word`` by
    commutation swaps and rotations; ``memo``, if given, maps every word
    seen to the answer."""
    w = _cyclic_reduce(g, word)
    if memo is not None and w in memo:
        return memo[w]
    seen = {w}
    frontier = [w]
    best = w
    keyf = lambda u: tuple(_letter_key(g, x) for x in u)
    while frontier:
        nxt = []
        for u in frontier:
            cands = [u[1:] + u[:1]]
            for i in range(len(u) - 1):
                if u[i][0] != u[i + 1][0] and u[i + 1][0] in g.adj[u[i][0]]:
                    cands.append(u[:i] + (u[i + 1], u[i]) + u[i + 2:])
            for c in cands:
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    if keyf(c) < keyf(best):
                        best = c
        if len(seen) > budget:
            raise RuntimeError("oracle budget exceeded")
        frontier = nxt
    if memo is not None:
        for u in seen:
            memo[u] = best
    return best



def quadratic_lexnf(g, word):
    """The quadratic Anisimov-Knuth greedy on a reduced word: every position
    counts all its earlier blockers (letters of another generator that does
    not commute with it), and taking a letter releases every later position
    it blocks."""
    n = len(word)
    if n < 2:
        return tuple(word)
    gens = [gen for gen, _ in word]
    keys = [_letter_key(g, let) for let in word]
    blockers = [0] * n
    blocks = [[] for _ in range(n)]
    for i, gi in enumerate(gens):
        for j in range(i + 1, n):
            if not _commutes(g, gi, gens[j]):
                blockers[j] += 1
                blocks[i].append(j)
    ready = [(keys[i], i) for i in range(n) if not blockers[i]]
    heapify(ready)
    out = []
    while ready:
        _, i = heappop(ready)
        out.append(word[i])
        for j in blocks[i]:
            blockers[j] -= 1
            if not blockers[j]:
                heappush(ready, (keys[j], j))
    return tuple(out)


def _letter_fronts(g, trace):
    """Letter -> first position, for each distinct letter of a trace that
    can be commuted to its front."""
    seen = set()
    out = {}
    for i, let in enumerate(trace):
        gen = let[0]
        if let not in out and all(_commutes(g, gen, x) for x in seen):
            out[let] = i
        seen.add(gen)
    return out


def lexnf_trace_states(g, word):
    """The trace states of the class of a cyclically reduced ``word``, each
    keyed by its ``quadratic_lexnf``, by a BFS that moves each front letter
    to the back and normalizes every move: the state set whose size
    ``canonical_class`` counts against its budget."""
    start = quadratic_lexnf(g, word)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for i in _letter_fronts(g, u).values():
                v = quadratic_lexnf(g, u[:i] + u[i + 1:] + u[i:i + 1])
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


# -- peak reduction with whole-profile recomputation ----------------------------

def recompute_rewrite_loop(g, factors, base, lower, budget=20_000):
    """The peak rewrite loop that recomputes every intermediate tuple of the
    whole factor list after each lowering."""
    factors = [f for f in factors if not f.aut.is_identity()]
    steps = 0
    prev_measure = None
    while True:
        tuples = intermediate_tuples(factors, base)
        profile = [t.length for t in tuples]
        pos = find_peak_position(profile)
        if pos is None:
            return factors
        h = profile[pos]
        measure = (h, sum(1 for x in profile[1:-1] if x == h))
        if prev_measure is not None and measure >= prev_measure:
            raise AssertionError("peak reduction measure did not decrease")
        prev_measure = measure
        steps += 1
        if steps > budget:
            raise RuntimeError("oracle budget exceeded")
        V = tuples[pos]
        alpha = factors[pos - 1].invert()
        beta = factors[pos]
        low = lower(V, alpha, beta)
        verify_lowering(g, low, V, alpha, beta, tuples[pos - 1])
        factors[pos - 1:pos + 1] = low
        factors = [f for f in factors if not f.aut.is_identity()]

# -- exact linear algebra by separate Fraction eliminations -------------------
# One hand-written Gauss-Jordan per question, as the package had them before
# it shared one rref: the determinant by rational elimination, the integral
# inverse as determinant check plus inverse, the rank, the left kernel and
# one solution of A x = b.

def fraction_det(A):
    """Determinant over the rationals (a Fraction)."""
    n = len(A)
    m = [list(map(Fraction, row)) for row in A]
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if m[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            det = -det
        det *= m[j][j]
        for i in range(j + 1, n):
            f = m[i][j] / m[j][j]
            for t in range(j, n):
                m[i][t] -= f * m[j][t]
    return det


def fraction_inverse(A):
    """Inverse over the rationals, or None if A is singular."""
    n = len(A)
    m = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for j in range(n):
        piv = next((i for i in range(j, n) if m[i][j] != 0), None)
        if piv is None:
            return None
        m[j], m[piv] = m[piv], m[j]
        f = m[j][j]
        m[j] = [x / f for x in m[j]]
        for i in range(n):
            if i != j and m[i][j] != 0:
                f = m[i][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(row[n:]) for row in m)


def fraction_int_inverse(A):
    """Inverse of an integer matrix with determinant +-1, or None."""
    if fraction_det(A) not in (1, -1):
        return None
    return tuple(tuple(int(x) for x in row) for row in fraction_inverse(A))


def fraction_rank(A):
    if not A or not A[0]:
        return 0
    m = [list(map(Fraction, row)) for row in A]
    rows, cols = len(m), len(m[0])
    rank = 0
    for j in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][j] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        f = m[rank][j]
        m[rank] = [x / f for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][j] != 0:
                g = m[i][j]
                m[i] = [x - g * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def fraction_left_kernel(A):
    """Basis of { x : x A = 0 }, one vector per non-pivot column of A^T."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    m = [[Fraction(A[i][j]) for i in range(rows)] for j in range(cols)]
    piv_of_col = {}
    r = 0
    for j in range(rows):
        piv = next((i for i in range(r, cols) if m[i][j] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = m[r][j]
        m[r] = [x / f for x in m[r]]
        for i in range(cols):
            if i != r and m[i][j] != 0:
                g = m[i][j]
                m[i] = [x - g * y for x, y in zip(m[i], m[r])]
        piv_of_col[j] = r
        r += 1
        if r == cols:
            break
    basis = []
    for j in range(rows):
        if j in piv_of_col:
            continue
        v = [Fraction(0)] * rows
        v[j] = Fraction(1)
        for pc, pr in piv_of_col.items():
            v[pc] = -m[pr][j]
        basis.append(tuple(v))
    return basis


def fraction_solve_right(A, b):
    """The solution of A x = b with zeros at the free columns, or None."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    m = [list(map(Fraction, A[i])) + [Fraction(b[i])] for i in range(rows)]
    piv_cols = []
    r = 0
    for j in range(cols):
        piv = next((i for i in range(r, rows) if m[i][j] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = m[r][j]
        m[r] = [x / f for x in m[r]]
        for i in range(rows):
            if i != r and m[i][j] != 0:
                g = m[i][j]
                m[i] = [x - g * y for x, y in zip(m[i], m[r])]
        piv_cols.append(j)
        r += 1
    if any(m[i][cols] != 0 for i in range(r, rows)):
        return None
    x = [Fraction(0)] * cols
    for i, j in enumerate(piv_cols):
        x[j] = m[i][cols]
    return tuple(x)


def kernel_search_normal_form(rows, n, k):
    """The block normal form as one rational left kernel per column and a
    Euclidean loop of its own: (N, qA, qB) with N = [[qA, qB], [0, I]] times
    the input.  Per column j, the first kernel vector of the bottom block's
    columns before j that is nonzero on column j clears the top of column
    j; then the top block is Hermite-reduced with the pivot of least
    absolute value, swapped into place, made positive, and the rows above
    reduced into [0, pivot)."""
    rows = [list(map(Fraction, r)) for r in rows]
    m = len(rows[0]) if rows else 0
    bottom = rows[n:]
    top = [rows[i] + [Fraction(int(i == t)) for t in range(n + k)]
           for i in range(n)]
    for j in range(m):
        for v in fraction_left_kernel([r[:j] for r in bottom]):
            val = sum(v[t] * bottom[t][j] for t in range(k))
            if val:
                break
        else:
            continue
        combo = [sum(v[t] * bottom[t][c] for t in range(k)) for c in range(m)]
        for row in top:
            f = -row[j] / val
            for c in range(m):
                row[c] += f * combo[c]
            for t in range(k):
                row[m + n + t] += f * v[t]
    l = 0
    for j in range(m):
        nz = [i for i in range(l, n) if top[i][j] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            piv = min(nz, key=lambda i: (abs(top[i][j]), i))
            for i in nz:
                if i != piv:
                    q = top[i][j] // top[piv][j]
                    top[i] = [x - q * y for x, y in zip(top[i], top[piv])]
            nz = [i for i in range(l, n) if top[i][j] != 0]
        top[l], top[nz[0]] = top[nz[0]], top[l]
        if top[l][j] < 0:
            top[l] = [-x for x in top[l]]
        for i in range(l):
            q = top[i][j] // top[l][j]
            top[i] = [x - q * y for x, y in zip(top[i], top[l])]
        l += 1
    N = tuple(tuple(r[:m]) for r in top) + tuple(map(tuple, bottom))
    return (N, tuple(tuple(int(x) for x in r[m:m + n]) for r in top),
            tuple(tuple(r[m + n:]) for r in top))


def euclid_row_hnf_transform(A):
    """(H, U) with U unimodular and U A = H in row Hermite-style form, zero
    rows last: per column, make the least pivot positive, reduce the other
    rows by floor division until it is alone, then swap it into place."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    H = [list(row) for row in A]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    r = 0
    for j in range(cols):
        while True:
            nz = [i for i in range(r, rows) if H[i][j] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(H[i][j]), i))
            if H[piv][j] < 0:
                H[piv] = [-x for x in H[piv]]
                U[piv] = [-x for x in U[piv]]
            for i in nz:
                if i != piv:
                    q = H[i][j] // H[piv][j]
                    H[i] = [x - q * y for x, y in zip(H[i], H[piv])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[piv])]
            if all(H[i][j] == 0 for i in nz if i != piv):
                H[r], H[piv] = H[piv], H[r]
                U[r], U[piv] = U[piv], U[r]
                r += 1
                break
    return H, U


def rank_is_normal_form(rows, n, k):
    """The normal-form test with the bottom block's pivot columns found as
    the columns where the rank of the column prefix grows."""
    rows = [list(map(Fraction, r)) for r in rows]
    m = len(rows[0]) if rows else 0
    bottom = rows[n:]
    for j in range(m):
        prev_rank = fraction_rank([row[:j] for row in bottom]) if j else 0
        cur_rank = fraction_rank([row[:j + 1] for row in bottom])
        if cur_rank == prev_rank + 1:
            if any(rows[i][j] != 0 for i in range(n)):
                return False
    pivots = []
    for i in range(n):
        nzcols = [j for j in range(m) if rows[i][j] != 0]
        if not nzcols:
            return all(x == 0 for row in rows[i:n] for x in row)
        p = nzcols[0]
        if pivots and p <= pivots[-1]:
            return False
        if rows[i][p] <= 0:
            return False
        if not all(0 <= rows[i2][p] < rows[i][p] for i2 in range(i)):
            return False
        pivots.append(p)
    return True


# -- minimization by enumeration ------------------------------------------------

def enumeration_minimize(g, U):
    """A tuple of least length in the orbit of U by plain enumeration: step
    to the first strictly shorter tuple that the generalized Whitehead group
    of some vertex reaches (``wh_orbit_decide`` with empty support), until
    no shorter tuple is reached."""
    arity = len(U.entries)
    while True:
        step = next((cand for length in range(arity, U.length)
                     for cand in enumerate_tuples(g, arity, length)
                     if any(wh_orbit_decide(g, a, frozenset(), U, cand)
                            is not None for a in g.vertices)), None)
        if step is None:
            return U
        U = step


def list_classic_minimize(g, U):
    """(minimal tuple, minimizing automorphism) by the descent over the
    materialized list ``enumerate_classic_whitehead``: step by the first
    listed move whose canonicalized image is shorter, else by the first
    target of the reachable-shorter sweep, taking one vertex per
    star-equality class in vertex order, until neither steps."""
    reps = []
    for v in g.vertices:
        if all(g.adjdom_class(v) != g.adjdom_class(r) for r in reps):
            reps.append(v)
    cur, total = U, identity_automorphism(g)
    while True:
        step = next(((wh.aut, img) for wh in enumerate_classic_whitehead(g)
                     for img in [wh.aut.apply_to_tuple(cur)]
                     if img.length < cur.length), None)
        if step is None:
            step = next(((wh.aut, target) for a in reps
                         for target, wh in wh_reachable(g, a, cur,
                                                        shorter=True)), None)
        if step is None:
            return cur, total
        aut, cur = step
        total = aut.compose(total)


# -- the orbit graph on every tuple -------------------------------------------
# A breadth-first search that adds the P edges and runs the Whitehead sweeps
# at every tuple of the component, and the loop elements of a spanning tree:
# the reference for the package's graph on P-orbit representatives.

def all_tuple_orbit_graph(g, W_min, with_stabilizers=False):
    """(tuples in BFS order, edges (src, dst, name, automorphism))."""
    reps = []
    for v in g.vertices:
        if not any(v in g.adjdom_class(r) for r in reps):
            reps.append(v)
    index = {W_min: 0}
    tuples = [W_min]
    edges = []
    edge_seen = set()

    def add(src, target, aut, prefix):
        if target not in index:
            index[target] = len(tuples)
            tuples.append(target)
        key = (src, aut.key())
        if key not in edge_seen:
            edge_seen.add(key)
            edges.append((src, index[target], prefix + str(len(edges)), aut))

    for src, W1 in enumerate(tuples):   # the list grows: a FIFO frontier
        for p in permutation_automorphisms(g):
            add(src, p.aut.apply_to_tuple(W1), p.aut, "p")
        for a in reps:
            for target, wh in wh_reachable(g, a, W1):
                add(src, target, wh.aut, "w")
    if with_stabilizers:
        for src, W1 in enumerate(tuples):
            for a in reps:
                pres, _ = wh_stabilizer_presentation(g, a, frozenset(), W1)
                for _, wh in pres.generators:
                    add(src, W1, wh.aut, "s")
    return tuples, edges


def all_tuple_loop_elements(g, edges):
    """The element of every non-tree edge's loop at tuple 0."""
    parent = edge_scan_bfs_tree(edges, 0)
    tree = {}
    for v, step in parent.items():
        if step is None:
            tree[v] = identity_automorphism(g)
            continue
        idx, fwd = step
        s, d, _, aut = edges[idx]
        tree[v] = aut.compose(tree[s]) if fwd else \
            aut.invert().compose(tree[d])
    tree_edges = {step[0] for step in parent.values() if step is not None}
    return [tree[d].invert().compose(aut).compose(tree[s])
            for idx, (s, d, _, aut) in enumerate(edges)
            if idx not in tree_edges]


# -- short identity loops of the presentation complex -------------------------
# On a free abelian group Z^n (a complete defining graph) an automorphism is
# its integer matrix on H1, so a closed walk composes to the identity exactly
# when the product of its edge matrices is the identity matrix.

def _integer_matrix(aut):
    vs = aut.graph.vertices
    return tuple(tuple(sum(s for x, s in aut.images[vj] if x == vi)
                       for vj in vs) for vi in vs)


def _mat_mul(A, B):
    return tuple(tuple(sum(a * b for a, b in zip(row, col))
                       for col in zip(*B)) for row in A)


def short_identity_loops(graph, auts):
    """(loops, canon) for the edges of a graph over Z^n whose automorphisms
    are among auts.  ``canon`` maps a closed walk to the least rotation of
    it or of its reversal (the inverse edges in reverse order); ``loops``
    holds ``canon`` of every closed walk of 2 to 5 such edges whose matrices
    multiply to the identity and in which no step is followed, cyclically,
    by its inverse edge, unless the walk has two edges."""
    wanted = {_integer_matrix(a) for a in auts}
    matrix = {idx: _integer_matrix(e[3].aut)
              for idx, e in enumerate(graph.edges)}
    out = {}
    for idx, (s, _, _, _) in enumerate(graph.edges):
        if matrix[idx] in wanted:
            out.setdefault(s, []).append(idx)
    n = len(next(iter(wanted)))
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    inverse = {e: f for s, es in out.items() for e in es
               for f in out.get(graph.edges[e][1], ())
               if graph.edges[f][1] == s
               and _mat_mul(matrix[f], matrix[e]) == ident}

    def canon(walk):
        back = tuple(inverse[e] for e in reversed(walk))
        return min(w[i:] + w[:i] for w in (tuple(walk), back)
                   for i in range(len(walk)))

    loops = set()
    for start in out:
        stack = [((), start, ident)]
        while stack:
            walk, v, m = stack.pop()
            if len(walk) >= 2 and v == start and m == ident and (
                    len(walk) == 2 or all(
                        inverse[walk[i]] != walk[(i + 1) % len(walk)]
                        for i in range(len(walk)))):
                loops.add(canon(walk))
            if len(walk) < 5:
                for e in out.get(v, ()):
                    stack.append((walk + (e,), graph.edges[e][1],
                                  _mat_mul(matrix[e], m)))
    return loops, canon


# -- matrix groups over Z/p ---------------------------------------------------
# Automorphisms act on H1 = Z^n; their images mod p generate a subgroup of
# GL(n, Z/p), held as a base and strong generating set built by the
# deterministic Schreier-Sims algorithm (Holt, Handbook of Computational
# Group Theory, 4.4.2) on the standard basis vectors as base points.
# Elements are (matrix, inverse) pairs acting on column vectors.

def abelian_image(aut, p):
    """(matrix, inverse) of aut on H1 mod p: entry (i, j) is the exponent
    sum of vertex i in the image of vertex j."""
    vs = aut.graph.vertices

    def matrix(images):
        return tuple(tuple(sum(s for x, s in images[vj] if x == vi) % p
                           for vj in vs) for vi in vs)
    return matrix(aut.images), matrix(aut.inverse_images)


def _mat_mul_mod(A, B, p):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) % p
                       for col in zip(*B)) for row in A)


class MatrixGroupChain:
    def __init__(self, gens, n, p):
        self.n, self.p = n, p
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.ident = (ident, ident)
        self.base = list(ident)   # e_j is row j of the identity
        self.gens = [[x for x in sorted(set(gens)) if x[0] != ident]] + \
            [[] for _ in range(n - 1)]
        self.trans = [self._transversal(i) for i in range(n)]
        i = n - 1
        while i >= 0:
            j = self._schreier_check(i)
            i = i - 1 if j is None else j

    def _mul(self, x, y):
        p = self.p
        return _mat_mul_mod(x[0], y[0], p), _mat_mul_mod(y[1], x[1], p)

    def _act(self, x, v):
        return tuple(sum(a * b for a, b in zip(row, v)) % self.p
                     for row in x[0])

    def _transversal(self, i):
        """Base point i's orbit under level i: point -> element carrying
        the base point there."""
        trans = {self.base[i]: self.ident}
        frontier = [self.base[i]]
        while frontier:
            pt = frontier.pop()
            for s in self.gens[i]:
                img = self._act(s, pt)
                if img not in trans:
                    trans[img] = self._mul(s, trans[pt])
                    frontier.append(img)
        return trans

    def sift(self, x, start=0):
        """x divided by transversal elements from level ``start`` on:
        (residue, level where it left the chain)."""
        for i in range(start, self.n):
            u = self.trans[i].get(self._act(x, self.base[i]))
            if u is None:
                return x, i
            x = self._mul((u[1], u[0]), x)
        return x, self.n

    def _schreier_check(self, i):
        """Sift every Schreier generator of level i through the deeper
        levels; add the first nontrivial residue to the levels down to
        where it stopped and return that level, or None."""
        for u in list(self.trans[i].values()):
            for s in self.gens[i]:
                su = self._mul(s, u)
                v = self.trans[i][self._act(su, self.base[i])]
                h, j = self.sift(self._mul((v[1], v[0]), su), i + 1)
                if h != self.ident:
                    for lev in range(i + 1, j + 1):
                        self.gens[lev].append(h)
                        self.trans[lev] = self._transversal(lev)
                    return j
        return None

    def contains(self, x):
        return self.sift(x)[0] == self.ident


# -- abelian invariants -------------------------------------------------------

def smith_diagonal(rows):
    """The nonzero invariant factors of an integer matrix (its Smith normal
    form diagonal, each dividing the next), by pivoting on the entry of
    least absolute value."""
    m = [list(r) for r in {tuple(r) for r in rows} if any(r)]
    diag = []
    while m:
        _, pi, pj = min((abs(x), i, j) for i, r in enumerate(m)
                        for j, x in enumerate(r) if x)
        piv = m[pi][pj]
        for i, r in enumerate(m):
            if i != pi and r[pj]:
                q = r[pj] // piv
                m[i] = [x - q * y for x, y in zip(r, m[pi])]
        for j, x in enumerate(m[pi]):
            if j != pj and x:
                q = x // piv
                for r in m:
                    r[j] -= q * r[pj]
        if any(r[pj] for i, r in enumerate(m) if i != pi) or \
                any(x for j, x in enumerate(m[pi]) if j != pj):
            continue   # remainders left: a smaller pivot next time
        bad = next((r for i, r in enumerate(m) if i != pi
                    and any(x % piv for x in r)), None)
        if bad is not None:
            m[pi] = [x + y for x, y in zip(m[pi], bad)]
            continue
        diag.append(abs(piv))
        m = [r for i, r in enumerate(m) if i != pi and any(r)]
    return sorted(diag)


def abelianization(generators, relators):
    """(free rank, torsion invariant factors) of a presentation's
    abelianization; relators are words of (generator, exponent)."""
    col = {name: j for j, name in enumerate(generators)}
    rows = []
    for rel in relators:
        row = [0] * len(generators)
        for name, e in rel:
            row[col[name]] += e
        rows.append(row)
    diag = smith_diagonal(rows)
    return len(generators) - len(diag), [d for d in diag if d > 1]
