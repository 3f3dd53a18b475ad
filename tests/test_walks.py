import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamclass.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    path_graph,
    petersen,
)
from hamclass.walks import (
    CycleWitness,
    PathWitness,
    WitnessError,
    check_witness,
    circumference,
    detour_order,
    extend_cycle,
    hamilton_cycle,
    hamilton_path,
    is_cycle_in,
    is_path_in,
    longest_induced_path_from,
)
from util import (
    brute_longest_cycle,
    circumference_dp_oracle,
    brute_longest_induced_path_from,
    brute_longest_path,
    random_graph,
)


def test_witness_predicates():
    c5 = cycle_graph(5)
    assert is_cycle_in(c5, (0, 1, 2, 3, 4))
    assert is_cycle_in(c5, (2, 1, 0, 4, 3))
    assert not is_cycle_in(c5, (0, 1, 2))  # chord 2-0 missing
    assert not is_cycle_in(c5, (0, 1))  # too short
    assert not is_cycle_in(c5, (0, 1, 1, 2, 3))  # repeat
    assert is_path_in(c5, (3, 4, 0, 1))
    assert not is_path_in(c5, (0, 2, 4))
    check_witness(c5, CycleWitness((0, 1, 2, 3, 4)))
    with pytest.raises(WitnessError):
        check_witness(c5, PathWitness((0, 2)))


def test_hamilton_cycle_basic():
    for n in range(3, 8):
        w = hamilton_cycle(cycle_graph(n))
        assert w is not None and w.order == n
        check_witness(cycle_graph(n), w)
    assert hamilton_cycle(path_graph(5)) is None
    assert hamilton_cycle(complete_graph(2)) is None
    assert hamilton_cycle(Graph.from_edges(4, [(0, 1), (2, 3)])) is None
    # unbalanced bipartite graphs have no spanning cycle
    assert hamilton_cycle(complete_bipartite(2, 3)) is None
    w = hamilton_cycle(complete_bipartite(3, 3))
    assert w is not None and w.order == 6


def test_hamilton_cycle_petersen():
    assert hamilton_cycle(petersen()) is None


def test_hamilton_path_basic():
    assert hamilton_path(Graph(1, (0,))) is not None
    w = hamilton_path(path_graph(6))
    assert w is not None and w.vertices in ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0))
    assert hamilton_path(Graph.from_edges(3, [(0, 1)])) is None
    # star K_{1,3} has three leaves, no spanning path
    assert hamilton_path(Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])) is None


def test_hamilton_path_petersen():
    g = petersen()
    w = hamilton_path(g)
    assert w is not None and w.order == 10
    check_witness(g, w)


def test_circumference_fixtures():
    assert circumference(path_graph(4)) == (0, None)
    n, w = circumference(petersen())
    assert n == 9
    assert w is not None and w.order == 9
    check_witness(petersen(), w)
    n, w = circumference(complete_graph(5))
    assert n == 5 and w is not None


def test_circumference_matches_dp_oracle():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.random())
        want = circumference_dp_oracle(g)
        got, w = circumference(g)
        assert got == want
        if w is not None:
            check_witness(g, w)
            assert w.order == got


def test_circumference_matches_brute_force():
    rng = random.Random(37)
    for _ in range(80):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        assert circumference(g)[0] == brute_longest_cycle(g)


def test_dp_oracle_fixtures():
    assert circumference_dp_oracle(petersen()) == 9
    assert circumference_dp_oracle(cycle_graph(12)) == 12
    assert circumference_dp_oracle(path_graph(3)) == 0
    with pytest.raises(ValueError):
        circumference_dp_oracle(complete_graph(21))


def test_detour_order_fixtures():
    n, w = detour_order(petersen())
    assert n == 10
    check_witness(petersen(), w)
    assert detour_order(path_graph(7))[0] == 7
    assert detour_order(Graph(1, (0,)))[0] == 1
    # two triangles sharing nothing: longest path stays inside one part
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert detour_order(g)[0] == 3


def test_detour_matches_brute_force():
    rng = random.Random(41)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        n, w = detour_order(g)
        assert n == brute_longest_path(g)
        check_witness(g, w)
        assert w.order == n


def test_longest_induced_path_fixtures():
    # ascending search from 0 on C6 walks around almost the whole cycle
    w = longest_induced_path_from(cycle_graph(6), 0)
    assert w.vertices == (0, 1, 2, 3, 4)
    w = longest_induced_path_from(path_graph(3), 1)
    assert w.vertices == (1, 0)
    w = longest_induced_path_from(complete_graph(5), 2)
    assert w.order == 2
    # stop_at truncates the search as soon as the target order is reached
    w = longest_induced_path_from(cycle_graph(6), 0, stop_at=3)
    assert w.order == 3


def test_longest_induced_path_matches_brute_force():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.random())
        v = rng.randrange(n)
        w = longest_induced_path_from(g, v)
        assert w.vertices[0] == v
        assert w.order == brute_longest_induced_path_from(g, v)


def test_extend_cycle():
    k4 = complete_graph(4)
    bigger = extend_cycle(k4, CycleWitness((0, 1, 2)))
    assert bigger is not None and bigger.order == 4
    check_witness(k4, bigger)
    # spanning cycles cannot grow
    assert extend_cycle(k4, bigger) is None
    # any 9-cycle of the Petersen graph is stuck: a spanning extension
    # would be a Hamilton cycle
    g = petersen()
    _, w = circumference(g)
    assert w is not None and extend_cycle(g, w) is None
    with pytest.raises(WitnessError):
        extend_cycle(k4, CycleWitness((0, 1)))


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 9), st.randoms(use_true_random=False))
def test_circumference_monotone_under_deletion(n, rnd):
    g = random_graph(rnd, n, 0.5)
    whole = circumference(g)[0]
    v = rnd.randrange(n)
    h = induced_subgraph(g, [u for u in range(n) if u != v])
    assert circumference(h)[0] <= whole


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 9), st.randoms(use_true_random=False))
def test_detour_bounds_circumference(n, rnd):
    # any cycle of order m yields a path of order m
    g = random_graph(rnd, n, 0.5)
    c = circumference(g)[0]
    p = detour_order(g)[0]
    assert p >= c or c == 0
