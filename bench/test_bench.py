"""The benchmark's own tests: ``python3 -m pytest bench``."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import raag  # noqa: E402
import smoke  # noqa: E402


def test_smoke_metric_names_and_corrupted_certificates():
    assert smoke.run_smoke(seed=2) == 0


def test_oracle_conjugacy_and_reduction():
    G = raag.SPLIT
    w = raag.parse_word("a b c d a b c d")
    u = raag.parse_word("c a^-1")
    conj = raag.reduce(G, raag.inverse(u) + w[3:] + w[:3] + u)
    assert raag.conj_key(G, conj) == raag.conj_key(G, w)
    assert raag.reduce(G, raag.parse_word("a c a^-1")) == \
        raag.parse_word("a c a^-1")
    assert raag.reduce(G, raag.parse_word("a b a^-1")) == \
        raag.parse_word("b")
    assert raag.class_length(G, raag.parse_word("c a b a^-1 c^-1")) == 1


def test_oracle_generators_are_automorphisms():
    for G in raag.GRAPHS.values():
        for x in raag.laurence_generators(G) + raag.symmetries(G)[:8]:
            assert x.is_valid()
            assert x.compose(x.invert()).is_identity()


def test_abelian_invariants():
    assert raag.abelian_invariants([[2, 0], [0, 3]], 2) == ((2, 3), 0)
    assert raag.abelian_invariants([[4, 6], [6, 4]], 2) == ((2, 2, 5), 0)
    assert raag.abelian_invariants([], 2) == ((), 2)
