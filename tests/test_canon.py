import random
from itertools import combinations

import pytest

from hamclass.canon import (
    are_isomorphic,
    canonical_form,
    canonical_graph6,
    marked_code,
    refine,
)
from hamclass.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    parse_graph6,
    path_graph,
    petersen,
)
from util import brute_orbits, min_perm_code, random_graph, refinement_cell_index, relabel


def test_refine_splits_by_degree_first():
    g = path_graph(4)
    cells = refine(g.adj, [tuple(range(4))])
    assert cells == [(0, 3), (1, 2)]


def test_refine_regular_graph_stays_whole():
    g = cycle_graph(5)
    assert refine(g.adj, [tuple(range(5))]) == [tuple(range(5))]


def test_canonical_form_is_valid_relabeling():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        form = canonical_form(g)
        h = Graph(g.n, form)
        assert h.edge_count() == g.edge_count()
        assert sorted(r.bit_count() for r in form) == sorted(
            r.bit_count() for r in g.adj
        )
        assert min_perm_code(h) == min_perm_code(g)


def test_relabeling_invariance():
    rng = random.Random(9)
    for _ in range(80):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_relabeling_invariance_petersen():
    g = petersen()
    rng = random.Random(17)
    for _ in range(5):
        perm = list(range(10))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_distinguishes_isomorphism_classes_order_4():
    # all 2^6 labeled graphs on 4 vertices fall into 11 classes
    seen = {}
    for bits_ in range(64):
        edges = [e for i, e in enumerate(combinations(range(4), 2)) if bits_ >> i & 1]
        g = Graph.from_edges(4, edges)
        seen.setdefault(canonical_form(g), set()).add(min_perm_code(g))
    assert len(seen) == 11
    # each package class contains exactly one brute-force class
    assert all(len(v) == 1 for v in seen.values())


def test_distinguishes_isomorphism_classes_order_5():
    seen = {}
    for bits_ in range(1 << 10):
        edges = [e for i, e in enumerate(combinations(range(5), 2)) if bits_ >> i & 1]
        g = Graph.from_edges(5, edges)
        seen.setdefault(canonical_form(g), set()).add(min_perm_code(g))
    assert len(seen) == 34
    assert all(len(v) == 1 for v in seen.values())


def test_complete_graph_is_cheap_despite_huge_group():
    form = canonical_form(complete_graph(10))
    assert Graph(10, form).edge_count() == 45


def test_are_isomorphic():
    assert are_isomorphic(cycle_graph(5), relabel(cycle_graph(5), [3, 0, 4, 1, 2]))
    assert not are_isomorphic(cycle_graph(6), path_graph(6))
    assert not are_isomorphic(cycle_graph(6), cycle_graph(5))
    assert are_isomorphic(petersen(), parse_graph6(canonical_graph6(petersen())))


def test_marked_code_separates_orbits():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.random())
        orbit_of = {}
        for i, orb in enumerate(brute_orbits(g)):
            for v in orb:
                orbit_of[v] = i
        codes = [marked_code(g, v) for v in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                same = orbit_of[u] == orbit_of[v]
                assert (codes[u] == codes[v]) == same


def test_marked_code_vertex_transitive():
    g = petersen()
    codes = {marked_code(g, v) for v in range(10)}
    assert len(codes) == 1
    p4 = path_graph(4)
    assert marked_code(p4, 0) == marked_code(p4, 3)
    assert marked_code(p4, 1) == marked_code(p4, 2)
    assert marked_code(p4, 0) != marked_code(p4, 1)


def test_refinement_cell_index():
    p4 = path_graph(4)
    # ends have smaller degree, so their cell comes first
    assert refinement_cell_index(p4, 0) == 0
    assert refinement_cell_index(p4, 1) == 1
    with pytest.raises(ValueError):
        refinement_cell_index(p4, 7)
    with pytest.raises(ValueError):
        marked_code(p4, -1)
