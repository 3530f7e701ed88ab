"""Peak lowering and full peak reduction.

A peak is a triple (W, alpha, beta) with both images no longer than W and
one strictly shorter; lowering it means refactoring beta*alpha^-1 so every
intermediate image of alpha*W stays strictly below |W|.  The driver
repeatedly lowers a maximal peak of the current factorization until the
length profile is strictly decreasing, then constant, then strictly
increasing.

The case analysis follows the structure of the main peak-lowering argument:
permutations conjugate away, equal multiplier classes merge, adjacent
classes use a Steinberg relation, mutual non-adjacent domination reduces to
the classic long-range machinery, one-sided domination runs the iterative
loop with shorter-factor replacements, and no domination recurses on the
support intersection.  Classic long-range peaks are lowered by a bounded
search over the finite classic move set.  Every lowering enters a
factorization through ``rewrite_loop``, which checks it once with
``verify_lowering`` before splicing it in; ``peak_reduce`` checks that its
result composes to its input.

Heights are sums of cyclic lengths, which a class holds from a cyclically
reduced word, so peak reduction runs no conjugacy BFS on the tuples it
passes through.
"""

from __future__ import annotations

from .aut import (Automorphism, GenWhitehead, checked_whitehead,
                  classic_whitehead, classify_classic, compose_gw,
                  conjugation_by, conjugation_letter_factors,
                  enumerate_classic_whitehead, eta, identity_automorphism,
                  inner_witness, inversion, is_in_whset, is_long_range,
                  permutation_automorphisms, retag, split_around, support,
                  theta, za_basis)
from .core import ClassTuple, InputError, inverse_word, reduce_word
from .errors import BudgetError

ASYM_LOOP_BUDGET = 400
REWRITE_BUDGET = 20_000


class Factorization:
    """A factorization by generalized Whitehead automorphisms, first-applied
    first, with its length profile on a base tuple: ``profile`` when given
    (the lengths of the tuples the factors act on, base first, and the
    last image), else computed."""

    __slots__ = ("factors", "base", "profile")

    def __init__(self, factors, base: ClassTuple, profile=None):
        self.factors = list(factors)
        self.base = base
        self.profile = profile_of(self.factors, base) if profile is None \
            else profile

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def is_unimodal(self):
        p = self.profile
        i = 0
        while i + 1 < len(p) and p[i + 1] < p[i]:
            i += 1
        while i + 1 < len(p) and p[i + 1] == p[i]:
            i += 1
        while i + 1 < len(p) and p[i + 1] > p[i]:
            i += 1
        return i == len(p) - 1

    def to_json(self):
        return {"factors": [f.aut.to_json() for f in self.factors],
                "profile": list(self.profile)}


def profile_of(factors, base):
    prof = [base.length]
    cur = base
    for f in factors:
        cur = f.aut.apply_to_tuple(cur)
        prof.append(cur.length)
    return prof


def intermediate_tuples(factors, base):
    out = [base]
    for f in factors:
        out.append(f.aut.apply_to_tuple(out[-1]))
    return out


def compose_factors(g, factors) -> Automorphism:
    out = identity_automorphism(g)
    for f in factors:
        out = f.aut.compose(out)
    return out


def verify_lowering(g, factors, peak_tuple, alpha, beta, base):
    """Check a lowering of the peak (W, alpha, beta), given with
    ``base = alpha*W``: the factors, identity factors included, compose to
    beta*alpha^-1 and every proper intermediate image of alpha*W is
    strictly below |W|.  Returns the tuple each factor acts on, base
    first."""
    target = beta.aut.compose(alpha.aut.invert())
    if compose_factors(g, factors) != target:
        raise AssertionError("lowering does not compose to beta*alpha^-1")
    images = intermediate_tuples(factors[:-1], base)
    if any(t.length >= peak_tuple.length for t in images[1:]):
        raise AssertionError("lowering has an intermediate at full "
                             "height")
    return images


# -- length change brackets --------------------------------------------------

def pcount(g, W: ClassTuple, c, A, B) -> int:
    """Count cyclic subword instances x u y with u over the proper star of
    c, where (x, y^-1) lies in A x B or in B x A.

    Letters of st(c) other than c itself are transparent: they are dropped
    both from the scanned words and from the argument sets, while
    multiplier letters c^{+-1} act as instance endpoints like any letter
    outside the star.  This makes the count additive in both arguments and
    reproduce the length change of classic long-range moves.
    """
    proper = g.star(c) - {c}
    Af = {l for l in A if l[0] not in proper}
    Bf = {l for l in B if l[0] not in proper}
    total = 0
    for cls in W.entries:
        letters = cls.word
        pos = [i for i, (v, _) in enumerate(letters) if v not in proper]
        if not pos:
            continue
        for idx, i in enumerate(pos):
            j = pos[(idx + 1) % len(pos)]
            x = letters[i]
            y = letters[j]
            yinv = (y[0], -y[1])
            if x in Af and yinv in Bf:
                total += 1
            if x in Bf and yinv in Af:
                total += 1
    return total


def all_letters(g):
    return frozenset((v, s) for v in g.vertices for s in (1, -1))


def classic_length_change(g, wh: GenWhitehead, W: ClassTuple) -> int:
    """|W| - |wh W| for a classic long-range automorphism, via the counting
    bracket; an input error on any other move."""
    info = classify_classic(wh) if is_long_range(wh) else None
    if info is None:
        raise InputError("not a classic long-range Whitehead automorphism")
    m, supp = info
    c = m[0]
    C = supp | {m}
    Cp = all_letters(g) - C
    return pcount(g, W, c, {m}, C - {m}) - pcount(g, W, c, Cp, C - {m})


# -- Steinberg relations ------------------------------------------------------

def fixes_class_pointwise(wh: GenWhitehead, cls):
    return all(wh.aut.images[v] == ((v, 1),) for v in cls)


def steinberg_conjugate(alpha: GenWhitehead, beta: GenWhitehead
                        ) -> GenWhitehead:
    """alpha beta alpha^-1, validated inside the Whitehead group of beta's
    class, under the Steinberg hypotheses."""
    g = alpha.graph
    a, b = alpha.vertex, beta.vertex
    if a is None or b is None:
        raise InputError("Steinberg conjugation needs multiplier tags")
    if g.adjdom_class(a) == g.adjdom_class(b):
        raise InputError("multiplier classes must differ")
    if not fixes_class_pointwise(alpha, g.adjdom_class(b)):
        raise InputError("alpha must fix the other multiplier class")
    if not g.adjacent(a, b):
        if support(alpha) & support(beta):
            raise InputError("supports must be disjoint when multipliers "
                             "are non-adjacent")
        if not fixes_class_pointwise(beta, g.adjdom_class(a)):
            raise InputError("beta must fix the first multiplier class in "
                             "the non-adjacent case")
    aut = alpha.aut.compose(beta.aut).compose(alpha.aut.invert())
    return checked_whitehead(aut, b)


# -- classic automorphism constructors ---------------------------------------

def complement_classic(g, wh: GenWhitehead) -> GenWhitehead:
    """The complement: inverted multiplier, complementary support, same
    action on conjugacy classes (it differs from the original by an inner
    automorphism)."""
    m, supp = wh.classic
    a = m[0]
    full = frozenset(l for l in all_letters(g) if l[0] not in g.star(a))
    comp = classic_whitehead(g, (m[0], -m[1]), full - supp)
    expected = conjugation_by(g, ((m[0], -m[1]),)).compose(wh.aut)
    if comp.aut != expected:
        raise AssertionError("complement construction mismatch")
    return comp


def shorter_factors(g, W: ClassTuple, alpha: GenWhitehead,
                    beta: GenWhitehead):
    """The two shorter replacement automorphisms for a one-sided-domination
    classic pair: beta1 with inverted multiplier and support in the double
    complement, alpha1 supported on the intersection.

    The defining length inequality is checked on W before returning.
    """
    ma, sa = alpha.classic
    mb, sb = beta.classic
    a, b = ma[0], mb[0]
    if g.adjacent(a, b) or not g.dominates(b, a) or g.dominates(a, b):
        raise InputError("needs non-adjacent one-sided domination")
    if alpha.aut.images[b] != ((b, 1),):
        raise InputError("alpha must fix the dominating vertex")
    if ma not in sb and (a, 1) not in sb:
        raise InputError("the dominated multiplier must lie in the other "
                         "support")
    A = sa | {ma}
    B = sb | {mb}
    full = all_letters(g)
    b1supp = {x for x in full - A - B if x[0] not in g.star(b)}
    beta1 = classic_whitehead(g, (mb[0], -mb[1]), b1supp)
    a1supp = {x for x in A & B if x[0] not in g.star(a)}
    alpha1 = classic_whitehead(g, ma, a1supp)
    lhs = (W.length - beta1.aut.apply_to_tuple(W).length) + \
        (W.length - alpha1.aut.apply_to_tuple(W).length)
    rhs = (W.length - beta.aut.apply_to_tuple(W).length) + \
        (W.length - alpha.aut.apply_to_tuple(W).length)
    if lhs < rhs:
        raise AssertionError("shorter-factor inequality failed")
    return alpha1, beta1


# -- factor lists for long-range elements -------------------------------------

def classic_factor_list(wh: GenWhitehead):
    """Factor a long-range element of a Whitehead group into classic moves
    with multipliers in its class, with the signed class permutation last."""
    if wh.vertex is None:
        return [] if wh.aut.is_identity() else [wh]
    g = wh.graph
    a = wh.vertex
    cls = g.adjdom_class(a)
    if not is_long_range(wh):
        raise InputError("element is not long-range")
    # signed permutation part on the class
    ims = {v: ((v, 1),) for v in g.vertices}
    for v in cls:
        ims[v] = wh.aut.images[v]
    inv = {v: ((v, 1),) for v in g.vertices}
    for v in cls:
        img = wh.aut.images[v]
        inv[img[0][0]] = ((v, img[0][1]),)
    p = Automorphism(g, ims, inv)
    pure = p.invert().compose(wh.aut)
    basis = za_basis(g, a)
    cls_order = [v for kind, v in basis if kind == "r" and v in cls]
    n = len(cls_order)
    mat = eta(g, a, pure)
    factors = []
    for j in range(n, len(basis)):
        kind, payload = basis[j]
        for i in range(n):
            e = mat[i][j]
            if not e:
                continue
            c = cls_order[i]
            sgn = 1 if e > 0 else -1
            for _ in range(abs(e)):
                if kind == "r" and payload in g.star(a):
                    raise AssertionError("long-range element moves the star")
                if kind == "r":
                    f = classic_whitehead(g, (c, sgn), {(payload, 1)})
                elif kind == "l":
                    f = classic_whitehead(g, (c, -sgn), {(payload, -1)})
                else:
                    f = classic_whitehead(
                        g, (c, sgn),
                        {(x, s) for x in payload for s in (1, -1)})
                factors.append(f)
    if not p.is_identity():
        factors.append(GenWhitehead(p))
    if compose_factors(g, factors) != wh.aut:
        raise AssertionError("classic factor list does not compose back")
    return factors


# -- move sets and the bounded classic-peak search ----------------------------

def move_universe(g, cls=None, include_perms=True):
    """(moves, index) for the classic search: classic long-range moves (all
    multipliers, or multipliers in a fixed class) plus optionally the
    relevant permutation automorphisms."""
    key = ("moves", cls, include_perms)
    if key in g._cache:
        return g._cache[key]
    moves = []
    for wh in enumerate_classic_whitehead(g, long_range_only=True):
        if wh.aut.is_identity():
            continue
        if cls is None or wh.classic[0][0] in cls:
            moves.append(wh)
    if include_perms:
        for wh in permutation_automorphisms(g):
            if wh.aut.is_identity():
                continue
            if cls is None:
                moves.append(wh)
            else:
                if all(wh.aut.images[v] == ((v, 1),) for v in g.vertices
                       if v not in cls) and \
                        all(wh.aut.images[v][0][0] in cls for v in cls):
                    moves.append(wh)
    index = {wh.aut.key(): wh for wh in moves}
    g._cache[key] = (moves, index)
    return moves, index


def lower_classic_peak(g, V: ClassTuple, alpha, beta, moves, index):
    """Bounded exact search for a lowering of a peak between two moves from
    the given universe, as guaranteed by the classic long-range theory."""
    target = beta.aut.compose(alpha.aut.invert())
    if target.is_identity():
        return []
    aV = alpha.aut.apply_to_tuple(V)
    bV = beta.aut.apply_to_tuple(V)
    hit = index.get(target.key())
    if hit is not None:
        return [hit]
    first = []
    for m in moves:
        img = m.aut.apply_to_tuple(aV)
        if img.length < V.length:
            first.append((m, img))
    last = [m for m in moves
            if m.aut.invert().apply_to_tuple(bV).length < V.length]
    for m1, img1 in first:
        rem = target.compose(m1.aut.invert())
        hit = index.get(rem.key())
        if hit is not None:
            return [m1, hit]
    for m1, img1 in first:
        inv1 = m1.aut.invert()
        for mk in last:
            rem = mk.aut.invert().compose(target).compose(inv1)
            hit = index.get(rem.key())
            if hit is not None:
                return [m1, hit, mk]
    for m1, img1 in first:
        inv1 = m1.aut.invert()
        for m2 in moves:
            img2 = m2.aut.apply_to_tuple(img1)
            if img2.length >= V.length:
                continue
            inv2 = m2.aut.invert()
            for mk in last:
                # target = mk * m3 * m2 * m1, so m3 = mk^-1 target m1^-1 m2^-1
                rem = mk.aut.invert().compose(target).compose(
                    inv1).compose(inv2)
                hit = index.get(rem.key())
                if hit is not None:
                    return [m1, m2, hit, mk]
    raise BudgetError("classic peak lowering search exhausted")


def find_peak_position(profile):
    """An interior position of maximal height that is a peak, or None."""
    best = None
    for i in range(1, len(profile) - 1):
        left, h, right = profile[i - 1], profile[i], profile[i + 1]
        if left <= h >= right and (left < h or right < h):
            if best is None or h > profile[best]:
                best = i
    return best


def rewrite_loop(g, factors, base, lower, budget=None) -> Factorization:
    """Repeatedly replace a maximal peak with a lowering until the profile
    is unimodal, in at most ``budget`` steps (None: ``REWRITE_BUDGET``).
    Each lowering is checked once, by ``verify_lowering``, before it is
    spliced in.  The measure (max interior height, positions at it) is
    asserted to decrease lexicographically.  The result carries the
    profile of the tuples the loop ended with."""
    if budget is None:
        budget = REWRITE_BUDGET
    factors = [f for f in factors if not f.aut.is_identity()]
    tuples = intermediate_tuples(factors, base)
    steps = 0
    prev_measure = None
    while True:
        profile = [t.length for t in tuples]
        pos = find_peak_position(profile)
        if pos is None:
            return Factorization(factors, base, profile)
        # lowering a maximal peak removes one interior position at the
        # maximal peak height and inserts only strictly lower ones
        h = profile[pos]
        measure = (h, sum(1 for x in profile[1:-1] if x == h))
        if prev_measure is not None and measure >= prev_measure:
            raise AssertionError("peak reduction measure did not decrease")
        prev_measure = measure
        steps += 1
        if steps > budget:
            raise BudgetError.exceeded("rewrite_loop steps", steps, budget)
        V = tuples[pos]
        alpha = factors[pos - 1].invert()
        beta = factors[pos]
        low = lower(V, alpha, beta)
        images = verify_lowering(g, low, V, alpha, beta, tuples[pos - 1])
        splice_lowering(factors, tuples, pos, low, images)


def splice_lowering(factors, tuples, pos, low, images):
    """Replace the factors pos-1 and pos, around the peak ``tuples[pos]``,
    by the lowering ``low`` with its identity factors dropped, and the
    peak by the tuples they act on (``images``, from ``verify_lowering``).
    The lowering composes to the two factors it replaces, so every other
    tuple stays."""
    kept = [(f, t) for f, t in zip(low, images) if not f.aut.is_identity()]
    factors[pos - 1:pos + 1] = [f for f, _ in kept]
    tuples[pos - 1:pos + 1] = [t for _, t in kept]


def long_range_peak_reduce(g, factors, W: ClassTuple, cls=None,
                           include_perms=True):
    """Peak-reduce a long-range element, given as a factor list, with
    respect to W, by classic moves."""
    moves, index = move_universe(g, cls, include_perms)

    def lower(V, alpha, beta):
        return lower_classic_peak(g, V, alpha, beta, moves, index)

    return rewrite_loop(g, factors, W, lower).factors


# -- inner insertion ----------------------------------------------------------

def insert_inner(g, factors, base, conj_word, side):
    """Exactly multiply a lowering by an inner conjugation on the chosen
    side, inserting its letter factors at a minimum of the profile."""
    if not conj_word:
        return list(factors)
    tuples = intermediate_tuples(factors, base)
    values = [t.length for t in tuples]
    l = values.index(min(values))
    if side == "right":
        psi = compose_factors(g, factors[:l])
        w = reduce_word(g, psi.apply_to_word(conj_word))
    else:
        psi2 = compose_factors(g, factors[l:])
        w = reduce_word(g, psi2.apply_inverse_to_word(conj_word))
    inner = conjugation_letter_factors(g, w)
    return list(factors[:l]) + inner + list(factors[l:])


def invert_lowering(factors):
    return [f.invert() for f in reversed(factors)]


# -- the main case analysis ---------------------------------------------------

def lower_peak(g, V, alpha, beta):
    """A lowering of the peak (V, alpha, beta), as a factor list of
    beta*alpha^-1, per the main case dispatch.  The caller checks it:
    ``rewrite_loop`` runs ``verify_lowering`` on every lowering."""
    if alpha.aut.is_identity():
        return [beta]
    if beta.aut.is_identity():
        return [alpha.invert()]
    if beta.aut == alpha.aut:
        return []
    a, b = alpha.vertex, beta.vertex
    if a is None and b is None:
        raise InputError("two permutations cannot form a peak")
    if a is None:
        return _perm_lower(g, V, alpha, beta)
    if b is None:
        return invert_lowering(_perm_lower(g, V, beta, alpha))
    if g.adjdom_class(a) == g.adjdom_class(b):
        return [compose_gw(beta, alpha.invert())]
    if g.adjacent(a, b):
        if fixes_class_pointwise(alpha, g.adjdom_class(b)):
            gamma = steinberg_conjugate(alpha, beta)
            return [gamma, alpha.invert()]
        if fixes_class_pointwise(beta, g.adjdom_class(a)):
            return invert_lowering(lower_peak(g, V, beta, alpha))
        raise AssertionError("adjacent multipliers with no fixed class")
    bdom = g.dominates(b, a)
    adom = g.dominates(a, b)
    if adom and bdom:
        base = alpha.aut.apply_to_tuple(V)
        factors = classic_factor_list(alpha.invert()) + \
            classic_factor_list(beta)
        return long_range_peak_reduce(g, factors, base)
    if bdom:
        return lower_asymmetric(g, V, alpha, beta)
    if adom:
        return invert_lowering(lower_asymmetric(g, V, beta, alpha))
    return lower_nodom(g, V, alpha, beta)


def _perm_lower(g, V, alpha, beta):
    """alpha is a permutation: conjugate beta across it."""
    conj = alpha.aut.compose(beta.aut).compose(alpha.aut.invert())
    gamma = retag(conj)
    return [gamma, alpha.invert()]


# -- no domination ------------------------------------------------------------

def _fix_vertex(g, wh, v):
    """(w, fixed) for an element of a Whitehead group and a vertex v it
    conjugates within its class: fixed, wh followed by the inverse of
    conjugation by w, is the element of the same group that fixes v.  w is
    empty when wh already fixes v."""
    img = wh.aut.images[v]
    if img == ((v, 1),):
        return (), wh
    u, w = split_around(g, g.adjdom_class(wh.vertex), img, v)
    if reduce_word(g, u + w):
        raise AssertionError("image of %r is not a conjugate" % (v,))
    fixed = conjugation_by(g, w).invert().compose(wh.aut)
    return w, GenWhitehead(fixed, wh.vertex)


def _zero_class_rows(g, a, aut, keys):
    """The element of the Whitehead group of [a] whose matrix is that of aut
    with the class rows of the given basis columns set to zero."""
    basis = za_basis(g, a)
    n = len(g.adjdom_class(a))
    mat = [list(row) for row in eta(g, a, aut)]
    for key in keys:
        j = basis.index(key)
        for i in range(n):
            mat[i][j] = 0
    return theta(g, a, tuple(tuple(row) for row in mat))


def lower_nodom(g, V, alpha, beta):
    """Non-adjacent multipliers, no domination either way."""
    a, b = alpha.vertex, beta.vertex
    # normalize: alpha fixes b, beta fixes a (inner adjustments)
    w, alpha1 = _fix_vertex(g, alpha, b)
    if w:
        F = lower_nodom(g, V, alpha1, beta)
        base = alpha.aut.apply_to_tuple(V)
        return insert_inner(g, F, base, inverse_word(w), side="right")
    w, beta1 = _fix_vertex(g, beta, a)
    if w:
        F = lower_nodom(g, V, alpha, beta1)
        base = alpha.aut.apply_to_tuple(V)
        return insert_inner(g, F, base, w, side="left")
    sa, sb = support(alpha), support(beta)
    common = sa & sb
    if not common:
        if not fixes_class_pointwise(alpha, g.adjdom_class(b)) or \
                not fixes_class_pointwise(beta, g.adjdom_class(a)):
            raise AssertionError("normalized pair still moves a multiplier "
                                 "class")
        if alpha.aut.compose(beta.aut) != beta.aut.compose(alpha.aut):
            raise AssertionError("disjoint-support pair does not commute")
        return [beta, alpha.invert()]
    for letter in sorted(common, key=g.letter_key):
        c = letter[0]
        if c in g.dom(a):
            if c not in g.dom(b):
                raise AssertionError("intersection letter dominated on one "
                                     "side only")
            key = ("r", c) if letter[1] > 0 else ("l", c)
        else:
            key = ("Y", g.component_of(a, c))
            if g.component_of(b, c) != key[1]:
                raise AssertionError("component mismatch in the support "
                                     "intersection")
        alpha_c = _zero_class_rows(g, a, alpha.aut, [key])
        beta_c = _zero_class_rows(g, b, beta.aut, [key])
        if alpha_c.aut.apply_to_tuple(V).length < V.length:
            F = lower_nodom(g, V, alpha_c, beta)
            step = compose_gw(alpha_c, alpha.invert())
            return [step] + F
        if beta_c.aut.apply_to_tuple(V).length < V.length:
            Fsw = lower_nodom(g, V, beta_c, alpha)
            step = compose_gw(beta_c, beta.invert())
            return invert_lowering([step] + Fsw)
    raise AssertionError("no shortening replacement in the support "
                         "intersection")


# -- one-sided domination -----------------------------------------------------

def lower_asymmetric(g, V, alpha, beta):
    """b dominates a non-adjacently, a does not dominate b."""
    a = alpha.vertex
    if g.adjdom_class(a) != frozenset({a}):
        raise AssertionError("dominated multiplier class is not a "
                             "singleton")
    if not is_long_range(alpha):
        raise AssertionError("dominated-side element is not long-range")
    facts = classic_factor_list(alpha)
    facts = long_range_peak_reduce(g, facts, V, cls=g.adjdom_class(a))
    return _asym_rec(g, V, alpha, facts, beta, 0)


def _asym_rec(g, V, alpha, facts, beta, depth):
    if depth > ASYM_LOOP_BUDGET:
        raise BudgetError.exceeded("_asym_rec depth", depth,
                                   ASYM_LOOP_BUDGET)
    a = alpha.vertex
    b = beta.vertex
    facts = [f for f in facts if not f.aut.is_identity()]
    if not facts:
        return [beta]
    # peel a leading run of inner factors in one step
    i = 0
    while i < len(facts) and facts[i].vertex is not None and \
            inner_witness(g, a, facts[i].aut) is not None:
        i += 1
    if i:
        inner_part = compose_factors(g, facts[:i])
        rest = facts[i:]
        witness = inner_witness(g, a, inner_part)
        if not rest:
            # alpha is inner: beta*alpha^-1 = (beta iota^-1 beta^-1) beta
            if beta.aut.apply_to_tuple(V).length >= V.length:
                raise AssertionError("inner-side peak without a strict "
                                     "shortening")
            conj = beta.aut.apply_to_word(inverse_word(witness))
            inner = conjugation_letter_factors(g, reduce_word(g, conj))
            return [beta] + inner
        alpha_red = GenWhitehead(compose_factors(g, rest), a)
        F = _asym_rec(g, V, alpha_red, rest, beta, depth + 1)
        conj = beta.aut.apply_to_word(inverse_word(witness))
        base = alpha_red.aut.apply_to_tuple(V)
        return insert_inner(g, F, base, reduce_word(g, conj), side="left")
    # normalize alpha to fix b
    w, fixed = _fix_vertex(g, alpha, b)
    if w:
        facts = list(facts) + conjugation_letter_factors(
            g, inverse_word(w))
        # the appended inner letters multiply the composition by iota^-1 on
        # the left, matching the new alpha; lowering of the new pair is a
        # lowering of the old one after one exact inner insertion
        F = _asym_rec(g, V, fixed, facts, beta, depth + 1)
        base = fixed.aut.apply_to_tuple(V)
        return insert_inner(g, F, base, inverse_word(w), side="right")
    alpha1 = facts[0]
    alpha2 = GenWhitehead(alpha.aut.compose(alpha1.aut.invert()), a)
    rest = facts[1:]
    la1 = alpha1.aut.apply_to_tuple(V).length
    if la1 < V.length:
        F1 = _asym_leaf(g, V, alpha1, beta)
        out = [] if alpha2.aut.is_identity() else [alpha2.invert()]
        return out + F1
    # flat first step: the whole alpha keeps the length
    F1 = _asym_leaf(g, V, alpha1, beta)
    if not F1:
        # beta equals alpha1
        return [] if alpha2.aut.is_identity() else [alpha2.invert()]
    delta1 = F1[0]
    rest1 = F1[1:]
    aV = alpha.aut.apply_to_tuple(V)
    a1V = alpha1.aut.apply_to_tuple(V)
    if delta1.vertex is not None and \
            is_in_whset(delta1.aut, a) and is_long_range(delta1):
        psi = GenWhitehead(delta1.aut.compose(alpha2.aut.invert()), a)
        G = long_range_peak_reduce(g, classic_factor_list(psi), aV,
                                   cls=g.adjdom_class(a))
        return G + rest1
    # delta1 may be recorded as a permutation or under another vertex of
    # [b]; the recursion reads the group of [b] off the vertex b
    if not is_in_whset(delta1.aut, b):
        raise AssertionError("factor is not in the expected Whitehead "
                             "group")
    beta1 = GenWhitehead(delta1.aut, b, delta1.classic)
    F2 = _asym_rec(g, a1V, alpha2, rest, beta1, depth + 1)
    return F2 + rest1


def _asym_leaf(g, V, alpha1, beta):
    """Lowering of (V, alpha1, beta) for alpha1 a single classic move or a
    permutation."""
    if alpha1.vertex is None:
        return _perm_lower(g, V, alpha1, beta)
    w, fixed = _fix_vertex(g, alpha1, beta.vertex)
    F = _asym_base_loop(g, V, fixed, beta)
    if not w:
        return F
    base = fixed.aut.apply_to_tuple(V)
    return insert_inner(g, F, base, inverse_word(w), side="right")


def _classic_info(wh):
    info = classify_classic(wh)
    if info is None:
        raise AssertionError("expected a classic long-range automorphism")
    return info


def _asym_base_loop(g, V, alpha, beta):
    """The iterative loop for a classic alpha (multiplier a^eps) fixing the
    dominating class, against a general beta."""
    a = alpha.vertex
    b = beta.vertex
    m, sa = _classic_info(alpha)
    if m[1] < 0:
        # mirror through the inversion of a and recurse once
        rho = inversion(g, a)
        alpha_m = GenWhitehead(rho.compose(alpha.aut).compose(rho), a)
        beta_m = GenWhitehead(rho.compose(beta.aut).compose(rho), b)
        Vm = rho.apply_to_tuple(V)
        F = _asym_base_loop(g, Vm, alpha_m, beta_m)
        return [GenWhitehead(rho.compose(f.aut).compose(rho), f.vertex)
                for f in F]

    # split beta into long-range and short-range parts through the matrix
    long_cols = [key for key in za_basis(g, b)[len(g.adjdom_class(b)):]
                 if not (key[0] == "r" and key[1] in g.star(b))]
    beta_s = _zero_class_rows(g, b, beta.aut, long_cols)
    beta_l = GenWhitehead(beta.aut.compose(beta_s.aut.invert()), b)
    if any(len(beta_l.aut.images[x]) != 1 for x in g.star(b)):
        raise AssertionError("long-range part still moves the star")
    if alpha.aut.compose(beta_s.aut) != beta_s.aut.compose(alpha.aut):
        raise AssertionError("short-range part does not commute")

    wit0 = inner_witness(g, b, beta_l.aut)
    if wit0 is not None:
        # beta is inner * short-range: beta alpha^-1 equals
        # alpha^-1 (alpha iota alpha^-1) beta_s, whose intermediates stay
        # strictly below the peak height
        conj_word = reduce_word(g, alpha.aut.apply_to_word(wit0))
        inner = conjugation_letter_factors(g, conj_word)
        return [beta_s] + inner + [alpha.invert()]

    W1 = beta_s.aut.apply_to_tuple(V)
    alpha_p = alpha
    beta_p = beta_l
    beta_pp = beta_s
    alpha_pp = GenWhitehead(identity_automorphism(g), a)
    state = {"W1": W1, "beta_p": beta_p, "beta_pp": beta_pp}

    def conjugate_into_b(delta):
        """alpha' delta alpha'^-1 when it both lands in the target
        Whitehead group and satisfies the length-transfer law on the
        current tuple, else None.  Pulling such a delta across alpha'
        preserves the loop's product exactly and keeps the loop's peak
        invariant: the length drop of alpha' is carried over unchanged."""
        aut = alpha_p.aut.compose(delta.aut).compose(alpha_p.aut.invert())
        if not is_in_whset(aut, b):
            return None
        gamma = GenWhitehead(aut, b)
        W1 = state["W1"]
        lhs = W1.length - delta.aut.apply_to_tuple(W1).length
        rhs = alpha_p.aut.apply_to_tuple(W1).length - \
            gamma.aut.compose(alpha_p.aut).apply_to_tuple(W1).length
        if lhs != rhs:
            return None
        return gamma

    def merge(delta, gamma):
        state["beta_p"] = GenWhitehead(
            state["beta_p"].aut.compose(delta.aut.invert()), b)
        state["beta_pp"] = compose_gw(gamma, state["beta_pp"])
        state["W1"] = delta.aut.apply_to_tuple(state["W1"])

    bfacts = None
    steps = 0
    while state["W1"].length >= V.length:
        steps += 1
        if steps > ASYM_LOOP_BUDGET:
            raise BudgetError.exceeded("_asym_base_loop steps", steps,
                                       ASYM_LOOP_BUDGET)
        W1 = state["W1"]
        beta_p = state["beta_p"]
        beta_pp = state["beta_pp"]
        if inner_witness(g, b, beta_p.aut) is not None:
            raise AssertionError("inner remainder at full height")
        if bfacts is None:
            bfacts = long_range_peak_reduce(
                g, classic_factor_list(beta_p), W1,
                cls=g.adjdom_class(b), include_perms=False)
        beta0 = bfacts[0]
        m0, s0 = _classic_info(beta0)
        if beta0.aut.apply_to_tuple(W1).length > W1.length or \
                alpha_p.aut.apply_to_tuple(W1).length > W1.length:
            raise AssertionError("loop invariant lost: not a peak")
        sa_p = support(alpha_p)
        a_letters = {(a, 1), (a, -1)}
        if not (sa_p & s0) and not (a_letters & s0):
            gamma = conjugate_into_b(beta0)
            if gamma is None:
                raise AssertionError("disjoint merge conjugate escaped the "
                                     "target group")
            merge(beta0, gamma)
            bfacts = bfacts[1:] or None
            continue
        if sa_p <= s0 and a_letters <= s0:
            comp = complement_classic(g, beta0)
            gamma = conjugate_into_b(comp)
            if gamma is None:
                raise AssertionError("complement merge conjugate escaped "
                                     "the target group")
            merge(comp, gamma)
            bfacts = None
            continue
        if (a, 1) not in s0:
            beta0 = complement_classic(g, beta0)
            m0, s0 = beta0.classic
        alpha1, beta1 = shorter_factors(g, W1, alpha_p, beta0)
        candidates = []
        if beta1.aut.apply_to_tuple(W1).length < W1.length:
            candidates.append(beta1)
        if (a, -1) in beta1.classic[1]:
            trimmed = classic_whitehead(
                g, beta1.classic[0], beta1.classic[1] - {(a, -1)})
            if trimmed.aut.apply_to_tuple(W1).length < W1.length:
                candidates.append(trimmed)
        done = False
        for cand in candidates:
            gamma = conjugate_into_b(cand)
            if gamma is not None:
                merge(cand, gamma)
                bfacts = None
                done = True
                break
        if done:
            continue
        if alpha1.aut.apply_to_tuple(W1).length < W1.length and \
                alpha1.aut != alpha_p.aut:
            K = alpha_p.aut.compose(alpha1.aut.invert())
            if K.compose(beta_pp.aut) != beta_pp.aut.compose(K):
                raise AssertionError("leftover does not commute with the "
                                     "short part")
            alpha_pp = GenWhitehead(alpha_pp.aut.compose(K), a)
            alpha_p = alpha1
            continue
        raise BudgetError("no admissible shorter-factor replacement")
    W1 = state["W1"]
    beta_p = state["beta_p"]
    beta_pp = state["beta_pp"]

    out = []
    if not alpha_pp.aut.is_identity():
        out.append(alpha_pp.invert())
    if not beta_pp.aut.is_identity():
        out.append(beta_pp)
    out.append(alpha_p.invert())
    if not beta_p.aut.is_identity():
        out.append(beta_p)
    return [f for f in out if not f.aut.is_identity()]


# -- the public driver --------------------------------------------------------

def omega_factorization(g, aut: Automorphism):
    """A one-element factorization when the automorphism is itself a
    generalized Whitehead element."""
    try:
        return [retag(aut)]
    except InputError:
        raise InputError("automorphism is not a single generalized Whitehead "
                         "element; supply a factorization") from None


def peak_reduce(g, factors, W: ClassTuple, budget=None) -> Factorization:
    """Peak-reduce a factorized automorphism with respect to W: the output
    composes to the same automorphism and its length profile strictly
    decreases, stays constant, then strictly increases.  ``budget`` caps
    the peaks lowered (None: ``REWRITE_BUDGET``)."""
    factors = list(factors)
    original = compose_factors(g, factors)

    def lower(V, alpha, beta):
        return lower_peak(g, V, alpha, beta)

    result = rewrite_loop(g, factors, W, lower, budget)
    if compose_factors(g, result.factors) != original:
        raise AssertionError("peak reduction changed the automorphism")
    if not result.is_unimodal():
        raise AssertionError("peak reduction did not reach a unimodal "
                             "profile")
    return result
