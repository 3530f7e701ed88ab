"""Hand-written syllable decompositions for the tests."""

from raagaut.errors import InputError
from raagaut.syllables import Decomposition, Syllable


def decomposition_from_words(g, a, classes_of_syllable_words) -> Decomposition:
    """Build a decomposition from explicit syllable words, one list per
    class; linear syllables share endpoints with their cyclic successor."""
    star = g.star(a)
    cls_set = g.adjdom_class(a)
    cls_order = sorted(cls_set, key=g.index.get)
    sylls = []
    blocks = []
    for words in classes_of_syllable_words:
        start = len(sylls)
        first = tuple(words[0])
        cyclic = all(gen in star for gen, _ in first)
        if cyclic:
            if len(words) != 1:
                raise InputError("a cyclic syllable must sit alone")
            exps = [0] * len(cls_order)
            u = []
            for gen, s in first:
                if gen in cls_set:
                    exps[cls_order.index(gen)] += s
                else:
                    u.append((gen, s))
            sylls.append(Syllable(None, None, exps, u))
            blocks.append((start, 1, True))
            continue
        for word in words:
            word = tuple(word)
            left, right = word[0], word[-1]
            if left[0] in star or right[0] in star:
                raise InputError("syllable endpoints must lie outside the "
                                 "star")
            exps = [0] * len(cls_order)
            u = []
            for gen, s in word[1:-1]:
                if gen not in star:
                    raise InputError("syllable middle must lie in the star")
                if gen in cls_set:
                    exps[cls_order.index(gen)] += s
                else:
                    u.append((gen, s))
            sylls.append(Syllable(left, right, exps, u))
        blocks.append((start, len(words), False))
    return Decomposition(g, a, sylls, blocks)
