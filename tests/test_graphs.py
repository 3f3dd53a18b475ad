import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamclass.graphs import (
    Graph,
    Graph6Error,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_profile,
    induced_subgraph,
    is_connected,
    parse_graph6,
    path_graph,
    petersen,
    vertex_connectivity,
    write_graph6,
)
from util import (
    brute_connectivity,
    is_induced_path,
    random_graph,
    ref_graph6_decode,
    ref_graph6_encode,
)


def test_graph_invariants_rejected():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(65, tuple([0] * 65))
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # loop at 0
    with pytest.raises(ValueError):
        Graph(2, (0b110, 0b001))  # bit above n-1


def test_from_edges_petersen_shape():
    g = petersen()
    assert g.n == 10
    assert all(g.degree(v) == 3 for v in range(10))
    assert g.edge_count() == 15


# graph6 expectations frozen from the reference codec


def test_parse_known_record_star():
    # reference decode of "D?{" gives the 5-vertex star centered at 4
    n, edges = ref_graph6_decode("D?{")
    assert n == 5 and edges == {(0, 4), (1, 4), (2, 4), (3, 4)}
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == sorted(edges)
    assert write_graph6(g) == "D?{"


def test_single_vertex_roundtrip():
    g = parse_graph6("@")
    assert g.n == 1 and g.adj == (0,)
    assert write_graph6(g) == "@"


def test_header_is_stripped():
    g = parse_graph6(">>graph6<<D?{")
    assert g.n == 5


def test_bytes_accepted():
    assert parse_graph6(b"D?{").n == 5


def test_reference_codec_agreement_small():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        rec = ref_graph6_encode(n, set(g.edges()))
        assert write_graph6(g) == rec
        assert parse_graph6(rec).adj == g.adj


def test_long_form_orders_63_64():
    rng = random.Random(11)
    for n in (63, 64):
        g = random_graph(rng, n, 0.2)
        rec = write_graph6(g)
        assert rec.startswith("~")
        assert rec == ref_graph6_encode(n, set(g.edges()))
        back = parse_graph6(rec)
        assert back.n == n and back.adj == g.adj


def test_malformed_records_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("?")  # order 0
    with pytest.raises(Graph6Error):
        parse_graph6("D?")  # truncated body
    with pytest.raises(Graph6Error):
        parse_graph6("D?{{")  # trailing bytes
    with pytest.raises(Graph6Error):
        parse_graph6("D?}")  # stray padding bit
    with pytest.raises(Graph6Error):
        parse_graph6("D\x1f{")  # byte below 63
    with pytest.raises(Graph6Error):
        parse_graph6("~??@" + "?" * 326)  # non-minimal long form (n=1)
    with pytest.raises(Graph6Error):
        parse_graph6("~~????")  # 8-byte prefix


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.randoms(use_true_random=False))
def test_roundtrip_random(n, rnd):
    g = random_graph(rnd, n, 0.4)
    assert parse_graph6(write_graph6(g)).adj == g.adj


def test_degree_profile_examples():
    assert degree_profile(petersen()) == degree_profile(petersen())
    prof = degree_profile(petersen())
    assert prof.min_degree == prof.max_degree == 3
    assert prof.degree_sequence == (3,) * 10
    p4 = path_graph(4)
    assert degree_profile(p4).degree_sequence == (1, 1, 2, 2)


def test_petersen_minus_vertex_degrees():
    g = petersen()
    h = induced_subgraph(g, [v for v in range(10) if v != 0])
    assert degree_profile(h).degree_sequence == (2, 2, 2, 3, 3, 3, 3, 3, 3)


def test_connectivity_examples():
    assert vertex_connectivity(petersen()) == 3
    assert vertex_connectivity(complete_graph(5)) == 4
    assert vertex_connectivity(path_graph(4)) == 1
    assert vertex_connectivity(cycle_graph(6)) == 2
    assert vertex_connectivity(complete_bipartite(3, 5)) == 3
    two_parts = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert vertex_connectivity(two_parts) == 0
    with pytest.raises(ValueError):
        vertex_connectivity(Graph(1, (0,)))


def test_connectivity_against_brute_force():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.random())
        want = brute_connectivity(g)
        assert vertex_connectivity(g) == want


def test_connectivity_monotone_under_edge_addition():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, 0.4)
        non_edges = [
            (u, v) for u, v in combinations(range(n), 2) if not g.adj[u] >> v & 1
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        g2 = Graph.from_edges(n, g.edges() + [(u, v)])
        assert vertex_connectivity(g2) >= vertex_connectivity(g)


def test_induced_subgraph_relabels_in_order():
    g = path_graph(5)
    h = induced_subgraph(g, [4, 0, 1])
    # kept vertices 0,1,4 become 0,1,2; only the 0-1 edge survives
    assert h.n == 3
    assert sorted(h.edges()) == [(0, 1)]
    with pytest.raises(ValueError):
        induced_subgraph(g, [])
    with pytest.raises(ValueError):
        induced_subgraph(g, [9])


def test_is_induced_path():
    c6 = cycle_graph(6)
    assert is_induced_path(c6, [0, 1, 2, 3])
    assert is_induced_path(c6, [5, 0, 1])
    # non-adjacent consecutive pair
    assert not is_induced_path(c6, [0, 2, 4])
    # cycle closure makes the whole C6 non-induced as a path
    assert not is_induced_path(c6, [0, 1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        is_induced_path(c6, [0, 1, 0])
    with pytest.raises(ValueError):
        is_induced_path(c6, [0, 9])


def test_is_connected():
    assert is_connected(petersen())
    assert not is_connected(Graph.from_edges(3, [(0, 1)]))
    assert is_connected(Graph(1, (0,)))
