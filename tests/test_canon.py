import random
from itertools import combinations

import pytest

from hamclass.canon import (
    _search,
    automorphism_generators,
    canonical_form,
    marked_code,
    refine,
)
from hamclass.graphs import Graph, parse_graph6, petersen
from util import (
    are_isomorphic,
    brute_automorphisms,
    brute_isomorphism,
    brute_orbits,
    canonical_graph6,
    complete_graph,
    cycle_graph,
    generated_group,
    min_perm_code,
    path_graph,
    random_graph,
    refine_reference,
    refinement_cell_index,
    relabel,
)


def test_refine_splits_by_degree_first():
    g = path_graph(4)
    cells = refine(g.adj, [tuple(range(4))])
    assert cells == [(0, 3), (1, 2)]


def test_refine_regular_graph_stays_whole():
    g = cycle_graph(5)
    assert refine(g.adj, [tuple(range(5))]) == [tuple(range(5))]


def test_refine_matches_reference():
    rng = random.Random(41)
    for _ in range(5000):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.random())
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        cells = [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        assert refine(g.adj, cells) == refine_reference(g.adj, cells)


def test_watched_refine_matches_reference():
    # the watch rejects exactly when the full refinement puts a tie of v
    # before v, and otherwise changes nothing
    rng = random.Random(43)
    rejected = 0
    for _ in range(5000):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.random())
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n // 3)))
        cells = [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        home = rng.choice([cell for cell in cells if len(cell) > 1] or cells)
        v = rng.choice(home)
        ties = sum(1 << u for u in home if u != v and rng.random() < 0.5)
        want = refine_reference(g.adj, cells)
        pos = {u: i for i, cell in enumerate(want) for u in cell}
        got = refine(g.adj, cells, (v, ties))
        if any(pos[u] < pos[v] for u in range(n) if ties >> u & 1):
            assert got is None
            rejected += 1
        else:
            assert got == want
    assert rejected > 500


def test_refine_from_degree_cells_matches_unit_start():
    # the unit partition's first split gives the cells of equal degree, in
    # ascending degree and label, and a tie of v has v's degree; so both
    # starts end alike, watched or not (generate._is_canonical starts from
    # the degree cells)
    rng = random.Random(47)
    rejected = 0
    for _ in range(3000):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        degree = [row.bit_count() for row in g.adj]
        cells = [
            tuple(u for u in range(n) if degree[u] == d) for d in sorted(set(degree))
        ]
        v = rng.randrange(n)
        ties = sum(1 << u for u in range(n) if u != v and degree[u] == degree[v] and rng.random() < 0.6)
        unit = [tuple(range(n))]
        assert refine(g.adj, cells) == refine(g.adj, unit)
        got = refine(g.adj, cells, (v, ties))
        assert got == refine(g.adj, unit, (v, ties))
        rejected += got is None
    assert rejected > 300


def test_recorded_automorphisms_generate_the_group(corpus):
    for n in range(1, 8):
        for g in corpus[n]:
            assert generated_group(automorphism_generators(g), n) == set(brute_automorphisms(g))


def test_marked_search_automorphisms_generate_the_stabiliser(corpus):
    for n in range(2, 7):
        for g in corpus[n]:
            autos = brute_automorphisms(g)
            for x in range(n):
                others = tuple(v for v in range(n) if v != x)
                gens = _search(n, g.adj, [(x,), others])[1]
                assert generated_group(gens, n) == {p for p in autos if p[x] == x}


def test_bounded_search_meets_the_bound_exactly_when_the_marked_code_does(corpus):
    # a search from u bounded by x's marked code stops at a leaf reaching
    # it exactly when u's marked code does; a leaf equal to it maps onto
    # x's best leaf by an automorphism carrying u onto x
    met_equal = 0
    for n in range(2, 7):
        for g in corpus[n]:
            autos = set(brute_automorphisms(g))
            for x in range(n):
                code, _, best = _search(n, g.adj, [(x,), tuple(v for v in range(n) if v != x)])
                assert code == marked_code(g, x)
                for u in range(n):
                    others = tuple(v for v in range(n) if v != u)
                    met, _, order = _search(n, g.adj, [(u,), others], code)
                    if marked_code(g, u) < code:
                        assert met is None and order is None
                        continue
                    assert met >= code and order[0] == u
                    position = [0] * n
                    for i, a in enumerate(order):
                        position[a] = i
                    assert Graph(n, met) == relabel(g, position)
                    if met == code:
                        gamma = [0] * n
                        for a, b in zip(order, best):
                            gamma[a] = b
                        assert tuple(gamma) in autos and gamma[u] == x
                        met_equal += 1
    assert met_equal


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
        perm = brute_isomorphism(g, h)
        assert perm is not None and relabel(g, list(perm)) == h


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
