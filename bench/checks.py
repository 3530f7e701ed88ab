"""Answer checks that do not trust the program.

Each constructor returns ``check(data, groups)``: it takes the parsed JSON
answer of one query and returns ``None`` when the answer is right or a
one-line reason when it is not.  ``groups`` is shared by the queries of one
run: answers that must agree across queries (the normal form of A and of
D*A, the abelianized stabilizer presentation of two tuples in one orbit)
record their value there and later members are compared against it.

What each check relies on:

- orbit pairs are built by applying automorphisms (positive) or so the
  per-entry gcd of the abelianized exponent vectors differs (negative);
  a positive certificate must be an automorphism carrying U to V;
- conj pairs are built by rotation and conjugation, or differ in their
  exponent-sum vectors;
- a matrix-orbit witness D must be integral and unimodular with D*A = B;
- every stabilizer generator must fix the input and every relator must
  evaluate to the identity;
- a peak reduction must compose to the input automorphism and its length
  profile, recomputed here, must have no peak.
"""

from __future__ import annotations

from fractions import Fraction

from raag import (Aut, abelian_invariants, block_full, conj_key, det,
                  has_peak, is_unimodular_integral, mat_inverse, mat_mul,
                  parse_matrix_text, parse_word, same_classes, tuple_length)


def _aut(G, data):
    aut = Aut.from_json(G, data)
    if not aut.is_valid():
        raise ValueError("certificate is not an automorphism")
    return aut


def _relators(data):
    """Relators as lists of (name, sign); checks the declared counts."""
    names = data["generators"]
    if len(names) != data["n_generators"] or \
            len(set(names)) != len(names):
        raise ValueError("generator list does not match its count")
    if len(data["relators"]) != data["n_relators"]:
        raise ValueError("relator list does not match its count")
    out = []
    for rel in data["relators"]:
        word = []
        for tok in rel:
            name, exp = tok.rsplit("^", 1)
            if name not in names or exp not in ("1", "-1"):
                raise ValueError("relator letter %r is undeclared" % tok)
            word.append((name, int(exp)))
        out.append(word)
    return names, out


def _in_group(groups, key, value):
    if groups.setdefault(key, value) != value:
        raise ValueError("disagrees with another answer of group %s" % key)


def guarded(fn):
    """Turn a malformed answer (missing keys, bad types) into a rejection
    instead of a crash of the benchmark."""
    def check(data, groups):
        try:
            return fn(data, groups)
        except (KeyError, TypeError, ValueError, IndexError,
                AttributeError, ZeroDivisionError) as exc:
            return "malformed or inconsistent answer: %s" % (exc,)
    return check


def orbit(G, U, V, expect):
    @guarded
    def check(data, groups):
        if data["equivalent"] is not expect:
            return "answered %r, expected %r" % (data["equivalent"], expect)
        if expect and not same_classes(
                G, _aut(G, data["automorphism"]).apply_tuple(U), V):
            return "certificate does not carry U to V"
        return None
    return check


def minimize(G, U, bound):
    @guarded
    def check(data, groups):
        minimal = [parse_word(w) for w in data["minimal"]]
        mu = _aut(G, data["automorphism"])
        if not same_classes(G, mu.apply_tuple(U), minimal):
            return "certificate does not carry U to the minimal tuple"
        length = tuple_length(G, minimal)
        if length != data["length"] or length > bound:
            return "minimal length %d (reported %r) exceeds the %d known" % (
                length, data["length"], bound)
        return None
    return check


def stab_gens(G, W):
    @guarded
    def check(data, groups):
        for gen in data["generators"]:
            if not same_classes(G, _aut(G, gen).apply_tuple(W), W):
                return "a generator moves the tuple"
        return None
    return check


def conj(G, w1, w2, expect):
    @guarded
    def check(data, groups):
        if data["conjugate"] is not expect:
            return "answered %r, expected %r" % (data["conjugate"], expect)
        c1, c2 = parse_word(data["canonical1"]), parse_word(data["canonical2"])
        if conj_key(G, c1) != conj_key(G, w1) or \
                conj_key(G, c2) != conj_key(G, w2):
            return "a canonical word lies in another class"
        if (c1 == c2) != expect:
            return "canonical words disagree with the answer"
        return None
    return check


def peak_reduce(G, W, alpha):
    @guarded
    def check(data, groups):
        factors = [_aut(G, f) for f in data["factors"]]
        total = Aut.identity(G)
        profile = [tuple_length(G, W)]
        cur = list(W)
        for f in factors:
            total = f.compose(total)
            cur = f.apply_tuple(cur)
            profile.append(tuple_length(G, cur))
        if not total.equals(alpha):
            return "factors do not compose to the input automorphism"
        if profile != data["profile"]:
            return "reported profile %r, recomputed %r" % (data["profile"],
                                                           profile)
        if has_peak(profile):
            return "profile %r has a peak" % (profile,)
        return None
    return check


def _rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def matrix_nf(A, n, k, group):
    @guarded
    def check(data, groups):
        N, n2, k2 = parse_matrix_text(data["normal_form"])
        Q = block_full(data["Q"])
        if (n2, k2) != (n, k) or abs(det([r[:n] for r in Q[:n]])) != 1 or \
                any(x.denominator != 1 for r in Q[:n] for x in r[:n]):
            return "Q is not in the block group"
        if mat_mul(Q, _rows(A)) != N:
            return "N is not Q*A"
        _in_group(groups, group, tuple(map(tuple, N)))
        return None
    return check


def matrix_orbit(A, B, n, k):
    @guarded
    def check(data, groups):
        if data["equivalent"] is not True:
            return "answered not equivalent for B = D*A"
        D = block_full(data["witness"])
        if not is_unimodular_integral(D, n):
            return "witness is not integral and unimodular"
        if mat_mul(D, _rows(A)) != _rows(B):
            return "witness does not carry A to B"
        return None
    return check


def matrix_stab(A, n, k):
    @guarded
    def check(data, groups):
        names, relators = _relators(data)
        mats = {nm: block_full(data["generator_matrices"][nm])
                for nm in names}
        rows = _rows(A)
        for nm, M in mats.items():
            if not is_unimodular_integral(M, n) or mat_mul(M, rows) != rows:
                return "generator %s does not fix the matrix" % nm
        inv = {nm: mat_inverse(M) for nm, M in mats.items()}
        ident = [[Fraction(int(i == j)) for j in range(n + k)]
                 for i in range(n + k)]
        for rel in relators:
            val = ident
            for nm, s in rel:
                val = mat_mul(val, mats[nm] if s > 0 else inv[nm])
            if val != ident:
                return "a relator is not the identity"
        return None
    return check


def stab_pres(group):
    """The answer names no payloads, so the check is structural plus an
    invariant: tuples in one orbit have conjugate stabilizers, so their
    presentations must have the same abelianization."""
    @guarded
    def check(data, groups):
        names, relators = _relators(data)
        col = {nm: i for i, nm in enumerate(names)}
        rows = []
        for rel in relators:
            row = [0] * len(names)
            for nm, s in rel:
                row[col[nm]] += s
            rows.append(row)
        _in_group(groups, group, abelian_invariants(rows, len(names)))
        return None
    return check


def wh_stab(G, U):
    @guarded
    def check(data, groups):
        names, relators = _relators(data)
        gens = {nm: _aut(G, data["generator_images"][nm]) for nm in names}
        for nm, x in gens.items():
            if not same_classes(G, x.apply_tuple(U), U):
                return "generator %s moves the tuple" % nm
        for rel in relators:
            val = Aut.identity(G)
            for nm, s in rel:
                val = val.compose(gens[nm] if s > 0 else gens[nm].invert())
            if not val.is_identity():
                return "a relator is not the identity"
        return None
    return check

