"""The graph layer: per-vertex edge maps, the spanning tree and its walks,
Schreier's lemma and the coset tracer, checked against edge-scan references
and plain folds; and the Schreier component builder, checked against the
graph on every residue."""

import random
from math import lcm

import pytest

from raagaut.apps import build_delta, build_Z
from raagaut.aut import Automorphism, identity_automorphism
from raagaut.core import class_tuple, parse_word
from raagaut.errors import InputError
from raagaut.linalg import (BlockMatrix, LabeledGraph, gd_stabilizer,
                            gq_normal_form, invert_pword, schreier_g1_in_gd,
                            target_lcd)

from .oracles import (all_residue_schreier, edge_scan_bfs_tree,
                      edge_scan_component, residue_component)
from .test_linalg import unimodular


def seeded_generators(seed, n, k, d):
    """Stabilizer generators of a seeded matrix whose normal form has
    denominator d, so the Schreier graph has d^(n*k) residues in all; and
    that denominator."""
    rng = random.Random(seed)
    P = unimodular(rng, n)
    top = [[(P[i][j] if j < n else 0) + d * rng.randint(-2, 2)
            for j in range(k)] for i in range(n)]
    rows = top + [[d * int(i == j) for j in range(k)] for i in range(k)]
    N, Q = gq_normal_form(rows, n, k)
    dd = lcm(target_lcd(N), Q.denominator())
    _, pres = gd_stabilizer(N, n, k, dd)
    return pres.generators, dd


EXAMPLE_STARTS = (((0,), (0,)), ((1,), (0,)))


def example_generators():
    return gd_stabilizer(((0,), (0,), (2,)), 2, 1, 2)[1].generators


def example_schreier(start):
    return schreier_g1_in_gd(example_generators(), 2, 1, 2, start)


SCHREIER_CASES = [(1, 1, 4), (2, 1, 9), (3, 1, 16), (4, 1, 25),
                  (5, 2, 2), (6, 2, 3), (7, 2, 4)]


def reference_components(gens, n, k, d):
    """(start, keys, edges) for one start per component of the all-residue
    reference graph: its last residue."""
    keys, edges = all_residue_schreier(gens, n, k, d)
    left = set(keys)
    for key in reversed(keys):
        if key in left:
            comp_keys, comp_edges = residue_component(keys, edges, key)
            yield key, comp_keys, comp_edges
            left -= set(comp_keys)


def assert_matches_reference(graph, keys, edges):
    """Same vertex numbering, payloads and edge list as the component
    copied out of the all-residue graph."""
    assert list(graph.vindex.items()) == [(key, v)
                                          for v, key in enumerate(keys)]
    assert graph.payloads == keys
    assert graph.edges == edges


def assert_matches_edge_scan(graph):
    """Same component and same spanning tree, in the same BFS order, from
    one vertex of every component."""
    left = set(range(graph.n_vertices()))
    while left:
        v = max(left)
        comp = graph.component(v)
        assert comp == edge_scan_component(graph.edges, v)
        assert list(graph.bfs_tree(v).items()) == \
            list(edge_scan_bfs_tree(graph.edges, v).items())
        left -= comp


def test_example_schreier_matches_edge_scan():
    for start in EXAMPLE_STARTS:
        assert_matches_edge_scan(example_schreier(start))


@pytest.mark.parametrize("seed,k,d", SCHREIER_CASES)
def test_seeded_schreier_matches_edge_scan(seed, k, d):
    gens, dd = seeded_generators(seed, 2, k, d)
    total = 0
    for start, keys, _ in reference_components(gens, 2, k, dd):
        graph = schreier_g1_in_gd(gens, 2, k, dd, start)
        assert graph.n_vertices() == len(keys)
        assert_matches_edge_scan(graph)
        total += len(keys)
    assert total == d ** (2 * k)


def test_example_schreier_matches_all_residues():
    gens = example_generators()
    keys, edges = all_residue_schreier(gens, 2, 1, 2)
    assert len(keys) == 4
    for start in EXAMPLE_STARTS:
        assert_matches_reference(example_schreier(start),
                                 *residue_component(keys, edges, start))


@pytest.mark.parametrize("seed,k,d", SCHREIER_CASES)
def test_seeded_schreier_matches_all_residues(seed, k, d):
    gens, dd = seeded_generators(seed, 2, k, d)
    for start, keys, edges in reference_components(gens, 2, k, dd):
        assert_matches_reference(schreier_g1_in_gd(gens, 2, k, dd, start),
                                 keys, edges)


def test_orbit_graphs_match_edge_scan(f2, split):
    assert_matches_edge_scan(build_delta(split, class_tuple(split, [
        parse_word("a d")])))
    Z = build_Z(f2, class_tuple(f2, [parse_word("a")]))
    assert_matches_edge_scan(Z.graph)


def test_tree_elements_equal_plain_fold():
    gens, dd = seeded_generators(4, 2, 1, 25)
    start = ((24,), (24,))
    graph = schreier_g1_in_gd(gens, 2, 1, dd, start)
    base = graph.vindex[start]
    parent = graph.bfs_tree(base)
    assert len(parent) == graph.n_vertices() == 600
    letter = lambda p, fwd: p if fwd else p.inv()  # noqa: E731
    mul = BlockMatrix.mul
    ident = BlockMatrix.identity(2, 1)
    tree = graph.tree_elements(parent, letter, mul, ident)
    assert list(tree) == list(parent)
    for v in parent:
        path = graph.tree_path(parent, v)
        assert tree[v] == graph.path_element(path, letter, mul, ident)
        # the path leaves the base and ends at v
        end = base
        for idx, fwd in path:
            s, d, _, _ = graph.edges[idx]
            assert end == (s if fwd else d)
            end = d if fwd else s
        assert end == v


def matrix_ops(n, k):
    """(letter, mul, inv, identity) for edges carrying block matrices."""
    return (lambda p, fwd: p if fwd else p.inv(), BlockMatrix.mul,
            BlockMatrix.inv, BlockMatrix.identity(n, k))


def aut_ops(g, aut_of):
    """The same for edges whose payload ``aut_of`` turns into an
    automorphism."""
    return (lambda p, fwd: aut_of(p) if fwd else aut_of(p).invert(),
            Automorphism.compose, Automorphism.invert,
            identity_automorphism(g))


def schreier_case(name, f2, split):
    """(graph, base, letter, mul, inv, identity) of a named test graph."""
    if name == "example":
        start = ((1,), (0,))
        graph = example_schreier(start)
        return (graph, graph.vindex[start]) + matrix_ops(2, 1)
    if name == "seeded600":
        gens, dd = seeded_generators(4, 2, 1, 25)
        start = ((24,), (24,))
        graph = schreier_g1_in_gd(gens, 2, 1, dd, start)
        return (graph, graph.vindex[start]) + matrix_ops(2, 1)
    if name == "delta":
        graph = build_delta(split, class_tuple(split, [parse_word("a d")]),
                            with_stabilizers=True)
        return (graph, 0) + aut_ops(split, lambda aut: aut)
    graph = build_Z(f2, class_tuple(f2, [parse_word("a")])).graph
    return (graph, 0) + aut_ops(f2, lambda wh: wh.aut)


@pytest.mark.parametrize("name", ["example", "seeded600", "delta", "Z"])
def test_schreier_generators_equal_plain_fold(name, f2, split):
    graph, base, letter, mul, inv, ident = schreier_case(name, f2, split)
    parent, loops = graph.schreier_generators(base, letter, mul, inv, ident)
    assert parent == graph.bfs_tree(base)
    assert len(loops) == len(graph.edges) - graph.n_vertices() + 1
    assert [idx for idx, _ in loops] == sorted(idx for idx, _ in loops)
    for idx, elem in loops:
        s, d, _, _ = graph.edges[idx]
        back = [(e, not fwd) for e, fwd in reversed(graph.tree_path(parent,
                                                                    d))]
        loop = graph.tree_path(parent, s) + [(idx, True)] + back
        assert elem == graph.path_element(loop, letter, mul, ident)


def test_schreier_generators_reject_disconnected_graph():
    graph = LabeledGraph()
    for key in "uv":
        graph.add_vertex(key)
    graph.add_edge(0, 0, "x", 1)
    with pytest.raises(AssertionError, match="not connected"):
        graph.schreier_generators(0, lambda p, fwd: p if fwd else -p,
                                  lambda x, y: x + y, lambda x: -x, 0)


def test_path_word_traces_base_to_vertex():
    graph = example_schreier(((1,), (0,)))
    base = graph.vindex[((1,), (0,))]
    parent = graph.bfs_tree(base)
    for v in parent:
        word = graph.path_word(parent, v)
        assert graph.trace(base, word, {}) == ((), v)
        assert graph.trace(v, invert_pword(word), {}) == ((), base)


def test_trace_rewrites_over_named_edges():
    graph = LabeledGraph()
    for key in "uv":
        graph.add_vertex(key)
    graph.add_edge(0, 1, "x", None)
    graph.add_edge(1, 0, "x", None)
    graph.add_edge(0, 0, "y", None)
    names = {1: "g", 2: "h"}
    # the walk reads the word from the right: x, x, then y
    assert graph.trace(0, (("y", 1), ("x", 1), ("x", 1)), names) == \
        ((("h", 1), ("g", 1)), 0)
    assert graph.trace(0, (("x", -1),), names) == ((("g", -1),), 1)
    with pytest.raises(KeyError):
        graph.trace(1, (("y", 1),), names)


def test_add_edge_rejects_repeated_label():
    graph = LabeledGraph()
    for key in "uvw":
        graph.add_vertex(key)
    graph.add_edge(0, 1, "x", None)
    with pytest.raises(InputError):
        graph.add_edge(0, 2, "x", None)   # second x out of u
    with pytest.raises(InputError):
        graph.add_edge(2, 1, "x", None)   # second x into v
    graph.add_edge(1, 0, "x", None)
    graph.add_edge(2, 2, "x", None)
    assert len(graph.edges) == 3
    assert graph.out[0] == {"x": 0} and graph.inc[1] == {"x": 0}
