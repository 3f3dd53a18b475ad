import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamclass import walks
from hamclass.graphs import (
    Graph,
    bits,
    induced_subgraph,
    petersen,
    write_graph6,
)
from hamclass.membership import ClassKind, ClassParams, membership
from hamclass.walks import (
    CycleWitness,
    PathWitness,
    WitnessError,
    _seed_cycle,
    check_witness,
    circumference,
    detour_order,
    hamilton_cycle,
    hamilton_path,
    is_cycle_in,
    is_path_in,
    longest_induced_path_from,
)
from util import (
    brute_longest_cycle,
    circumference_dp_oracle,
    circumference_reference,
    brute_longest_induced_path_from,
    clique_theta,
    complete_bipartite,
    complete_graph,
    coxeter_graph,
    cycle_graph,
    detour_order_reference,
    brute_longest_path,
    flower_snark,
    generalized_petersen,
    hamilton_cycle_reference,
    hamilton_path_reference,
    is_induced_path,
    path_graph,
    random_graph,
    random_relabel,
    relabel,
    seed_cycle_reference,
    code_calls,
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


# n -> (count, sha256 of one line per connected graph of order n, sorted by
# graph6): the witness of every solver, pinned so that a faster search must
# return the very walks the branch and bound returned before it
PINNED_WITNESSES = {
    6: (112, "661bec073f2edec09ea7ad054ab1d88a6ee4b2fdba71cd76ee28a30a96a96374"),
    7: (853, "6d8ec793a0bad31665d890dec100adec7ac0bfa1bb4cbff982da4146b7b94177"),
}


def _vertices(w):
    return None if w is None else w.vertices


@pytest.mark.parametrize("n", sorted(PINNED_WITNESSES))
def test_pinned_witnesses(corpus, n):
    lines = []
    for g in sorted(corpus[n], key=write_graph6):
        c, cw = circumference(g)
        d, dw = detour_order(g)
        fields = (c, _vertices(cw), d, dw.vertices, _vertices(hamilton_cycle(g)), _vertices(hamilton_path(g)))
        lines.append(" ".join([write_graph6(g), *map(repr, fields)]))
    count, digest = PINNED_WITNESSES[n]
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


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
    assert w.vertices == (0, 1, 2)
    # including before the first step
    w = longest_induced_path_from(cycle_graph(6), 0, stop_at=1)
    assert w.vertices == (0,)
    with pytest.raises(ValueError):
        longest_induced_path_from(petersen(), 10)


def test_longest_induced_path_matches_brute_force():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.random())
        v = rng.randrange(n)
        w = longest_induced_path_from(g, v)
        assert w.vertices[0] == v
        assert w.order == brute_longest_induced_path_from(g, v)
        for stop in range(1, n + 1):
            short = longest_induced_path_from(g, v, stop_at=stop)
            assert short.vertices[0] == v and is_induced_path(g, short.vertices)
            assert short.order == min(stop, w.order)


def test_seed_cycle():
    # the first DFS cycle of K4 is the triangle 0-1-2, which grows to span
    k4 = complete_graph(4)
    seed = _seed_cycle(k4)
    assert seed is not None and seed.order == 4
    check_witness(k4, seed)
    # the Petersen graph's seed reaches 9 vertices and is stuck there: a
    # spanning extension would be a Hamilton cycle
    g = petersen()
    seed = _seed_cycle(g)
    assert seed is not None and seed.order == 9
    check_witness(g, seed)
    assert seed_cycle_reference(g) == seed
    assert _seed_cycle(path_graph(5)) is None


def test_seed_cycle_matches_reference(corpus):
    # one sweep over the edges gives the cycle that restarting the
    # exhaustive detour search from edge 0 after every insertion gives;
    # 1,022 of the 2,000 random graphs are not 2-connected and 557 not
    # connected, so outside regions that cannot reach b are common
    for n in range(1, 9):
        for g in corpus[n]:
            assert _seed_cycle(g) == seed_cycle_reference(g), write_graph6(g)
    rng = random.Random(97)
    for _ in range(2000):
        n = rng.randint(9, 16)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        assert _seed_cycle(g) == seed_cycle_reference(g), write_graph6(g)


def _corpus_and_random(corpus, seed, top):
    """Every connected graph of order <= 8, then 3,000 seeded random graphs
    of order 1..top, disconnected ones included."""
    for n in range(1, 9):
        yield from corpus[n]
    rng = random.Random(seed)
    for _ in range(3000):
        n = rng.randint(1, top)
        yield random_graph(rng, n, rng.uniform(0.1, 0.6))


def _hypohamiltonian_relabellings(rng):
    """GP(11,2), GP(17,2), J5, J7 and Coxeter, each relabelled twice: each
    is non-Hamiltonian and each vertex-deleted subgraph is Hamiltonian."""
    named = [
        generalized_petersen(11, 2),
        generalized_petersen(17, 2),
        flower_snark(5),
        flower_snark(7),
        coxeter_graph(),
    ]
    for h in named:
        for _ in range(2):
            yield random_relabel(h, rng)


def _deletions(g):
    return [induced_subgraph(g, g.vertex_mask ^ (1 << v)) for v in range(g.n)]


def _spanning_agree(g):
    assert hamilton_cycle(g) == hamilton_cycle_reference(g), write_graph6(g)
    assert hamilton_path(g) == hamilton_path_reference(g), write_graph6(g)


def test_hamilton_solvers_match_reference(corpus):
    # the carried weak and short sets must prune exactly where a rescan of
    # every unused vertex prunes, so the witnesses (and None) are the ones
    # the rescanning solvers return
    for g in _corpus_and_random(corpus, 113, 18):
        _spanning_agree(g)


def test_hamilton_solvers_match_reference_on_hypohamiltonian_graphs():
    # exhaustive refutations beside deep successful searches
    for g in _hypohamiltonian_relabellings(random.Random(127)):
        assert hamilton_cycle(g) is None
        _spanning_agree(g)
        for sub in _deletions(g):
            _spanning_agree(sub)


def test_hamilton_solvers_match_reference_on_two_vertex_deletions():
    # 325 of these 466 remainders have no Hamilton cycle, and every one has
    # a Hamilton path; the two searches cut 2,463 steps that would split
    # the unused vertices
    rng = random.Random(173)
    for h in (petersen(), generalized_petersen(11, 2), flower_snark(5)):
        g = random_relabel(h, rng)
        for a, b in combinations(range(g.n), 2):
            _spanning_agree(induced_subgraph(g, g.vertex_mask ^ (1 << a) ^ (1 << b)))


def _hub_relabellings(g, rng, count):
    """`count` relabellings of g, each with a vertex of largest degree at 0
    and the other vertices, so also the neighbours of 0, in a fresh order."""
    hub = max(range(g.n), key=lambda v: g.adj[v].bit_count())
    others = [v for v in range(g.n) if v != hub]
    for _ in range(count):
        rng.shuffle(others)
        perm = [0] * g.n
        for label, v in enumerate(others, 1):
            perm[v] = label
        yield relabel(g, perm)


def test_hamilton_solvers_match_reference_on_small_refutations(corpus):
    # a cycle may close only through a neighbour of 0 above its first step,
    # and a path may end only above its start; each branch this cuts must
    # be one whose reverse an earlier, failed branch already searched. The
    # 5,474 connected graphs of order <= 8 that lack a Hamilton cycle or
    # path (the count pins the selection), two orders of the neighbours of
    # 0 each
    rng = random.Random(181)
    refutations = 0
    for n in range(1, 9):
        for h in corpus[n]:
            if hamilton_cycle(h) is not None and hamilton_path(h) is not None:
                continue
            refutations += 1
            for g in _hub_relabellings(h, rng, 2):
                _spanning_agree(g)
    assert refutations == 5474


def test_hamilton_solvers_match_reference_on_bipartite_graphs():
    # a 2-colouring with unequal sides refutes a Hamilton cycle, and one
    # whose sides differ by two or more refutes a Hamilton path; the
    # solvers ask it once their first branch has failed, so the witnesses
    # (and None) stay those of the references
    for a in range(1, 7):
        for b in range(a, 13 - a):
            _spanning_agree(complete_bipartite(a, b))
    rng = random.Random(191)
    for _ in range(400):
        n = rng.randint(2, 10)
        a = rng.randint(1, n - 1)
        p = rng.uniform(0.3, 1.0)
        edges = [(x, y) for x in range(a) for y in range(a, n) if rng.random() < p]
        _spanning_agree(random_relabel(Graph.from_edges(n, edges), rng))


def _relabelled(walk, keep):
    """A walk of induced_subgraph(g, keep), in the labels of g."""
    if walk is None:
        return None
    labels = list(bits(keep))
    return type(walk)(tuple(labels[i] for i in walk.vertices))


def _masks_agree(g, keep):
    sub = induced_subgraph(g, keep)
    assert hamilton_cycle(g, keep) == _relabelled(hamilton_cycle(sub), keep), (write_graph6(g), keep)
    assert hamilton_path(g, keep) == _relabelled(hamilton_path(sub), keep), (write_graph6(g), keep)


def test_spanning_masks_match_induced_subgraphs(corpus):
    # the search reads only the rows of the kept vertices, and relabelling
    # them in label order keeps the ascending search order, so the walks are
    # those of the induced subgraphs; every 1- and 2-vertex deletion of the
    # connected graphs of order <= 7
    for n in range(2, 8):
        for g in corpus[n]:
            for k in (1, 2):
                for drop in combinations(range(n), k):
                    if k < n:
                        _masks_agree(g, g.vertex_mask ^ sum(1 << v for v in drop))


def test_spanning_masks_match_induced_subgraphs_on_random_graphs():
    # disconnected graphs and disconnected kept sets included
    rng = random.Random(211)
    for _ in range(600):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.uniform(0.1, 0.7))
        for _ in range(3):
            keep = rng.randrange(1, 1 << n)
            _masks_agree(g, keep)


def test_spanning_masks_edge_cases():
    g = petersen()
    for v in range(g.n):
        # a single kept vertex is a path and no cycle
        assert hamilton_path(g, 1 << v) == PathWitness((v,))
        assert hamilton_cycle(g, 1 << v) is None
    for a, b in combinations(range(g.n), 2):
        # two kept vertices are a path when adjacent, never a cycle
        keep = 1 << a | 1 << b
        assert hamilton_path(g, keep) == (PathWitness((a, b)) if g.adj[a] >> b & 1 else None)
        assert hamilton_cycle(g, keep) is None
    for h in (Graph(1, (0,)), complete_graph(2), cycle_graph(5), petersen(), generalized_petersen(11, 2)):
        assert hamilton_cycle(h, h.vertex_mask) == hamilton_cycle(h)
        assert hamilton_path(h, h.vertex_mask) == hamilton_path(h)
    # an empty set or a vertex outside the graph is refused, as
    # induced_subgraph refuses it
    for keep in (0, 1 << g.n, g.vertex_mask | 1 << g.n):
        with pytest.raises(ValueError):
            induced_subgraph(g, keep)
        with pytest.raises(ValueError):
            hamilton_cycle(g, keep)
        with pytest.raises(ValueError):
            hamilton_path(g, keep)
    for solver in (hamilton_cycle, hamilton_path):
        with pytest.raises(ValueError):
            solver(g, -1)


def _first_cycle_agrees(g, keep):
    want = _relabelled(hamilton_cycle_reference(induced_subgraph(g, keep)), keep)
    assert hamilton_cycle(g, keep) == want, (write_graph6(g), keep)


def test_edge_search_finds_the_first_cycle(corpus):
    # the edge search returns the first Hamilton cycle itself, or None:
    # every connected graph of order <= 8 with every 1- and 2-vertex
    # deletion (the count pins the selection)
    cases = 0
    for n in range(1, 9):
        for g in corpus[n]:
            full = g.vertex_mask
            for k in range(min(3, n)):
                for drop in combinations(range(n), k):
                    _first_cycle_agrees(g, full ^ sum(1 << v for v in drop))
                    cases += 1
    assert cases == 438950


def test_edge_search_finds_the_first_cycle_on_random_graphs():
    # disconnected graphs and kept sets included; each graph is asked
    # whole and on a mask of random size, one or two vertices included
    rng = random.Random(223)
    for _ in range(3000):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        _first_cycle_agrees(g, g.vertex_mask)
        _first_cycle_agrees(g, sum(1 << v for v in rng.sample(range(n), rng.randint(1, n))))


def test_edge_search_finds_the_first_cycle_on_heavy_graphs():
    # the heavy graphs of the certify benchmark, 8 relabellings each: the
    # edge search refutes each graph and finds the first cycle of each
    # deletion
    heavy = (
        petersen(),
        generalized_petersen(11, 2),
        generalized_petersen(17, 2),
        flower_snark(5),
        flower_snark(7),
        coxeter_graph(),
    )
    for h in heavy:
        for s in range(8):
            g = random_relabel(h, random.Random(s))
            _first_cycle_agrees(g, g.vertex_mask)
            for v in range(g.n):
                _first_cycle_agrees(g, g.vertex_mask ^ (1 << v))


def test_colour_gap_refutes_before_the_edge_search():
    # the edge search has no parity argument (K_{6,7} takes it 85,679
    # nodes), so an unbalanced bipartite graph must never reach it
    rng = random.Random(227)
    for a, b in ((3, 5), (5, 7), (6, 7)):
        for _ in range(2):
            g = random_relabel(complete_bipartite(a, b), rng)
            calls = code_calls(lambda: hamilton_cycle(g), walks)
            assert hamilton_cycle(g) is None
            assert calls["_edge_search"] == calls["branch"] == 0, calls


def _longest_agree(g):
    assert circumference(g) == circumference_reference(g), write_graph6(g)
    assert detour_order(g) == detour_order_reference(g), write_graph6(g)


def test_longest_walks_match_reference(corpus):
    # asking the spanning solvers first, then capping the branch and bound
    # at n - 1, returns the value and witness of the climb to n - 1 and its
    # handoff
    for g in _corpus_and_random(corpus, 149, 15):
        _longest_agree(g)


def test_longest_walks_match_reference_on_hypohamiltonian_graphs():
    # the whole graph is refuted by the spanning solver and then climbs to
    # n - 1; each deletion is answered by the spanning solver alone
    for g in _hypohamiltonian_relabellings(random.Random(151)):
        _longest_agree(g)
        for sub in _deletions(g):
            _longest_agree(sub)


# calls of the search nodes `extend` (the spanning path search), `grow`
# (the branch and bound) and `branch` (the edge search that answers the
# Hamilton cycle question), summed over the relabellings by random.Random(s)
# for s = 0..3: circumference, then Γ(·;1) membership (which asks the
# Hamilton-cycle question of G and of each deletion, and climbs to n - 1
# only when G - 0 has no Hamilton cycle). A prune that goes missing leaves
# every witness as it was, so only these counts notice it; a change that
# moves one says so, with the old and new counts. No cycle question runs
# `extend`, so its columns read 0. A member's deletions prove its length,
# so its membership `grow` column reads 0. On the cubic graphs the degree
# rules leave the edge search's connectivity rule nothing to cut;
# `theta_k4` and `theta_k5` (three K4s or K5s between two hubs, not
# members, not 1-tough) are the rows where it cuts, and where G - 0 fails,
# so membership climbs as circumference does.
CYCLE_WORK = {
    "petersen": (petersen, 0, 28, 20, 0, 0, 60),
    "gp11_2": (lambda: generalized_petersen(11, 2), 0, 165, 130, 0, 0, 406),
    "gp17_2": (lambda: generalized_petersen(17, 2), 0, 2684, 436, 0, 0, 1153),
    "coxeter": (coxeter_graph, 0, 928, 380, 0, 0, 892),
    "j5": (lambda: flower_snark(5), 0, 329, 128, 0, 0, 342),
    "j7": (lambda: flower_snark(7), 0, 3102, 470, 0, 0, 988),
    "theta_k4": (lambda: clique_theta(3, 4), 0, 1766, 46, 0, 1766, 54),
    "theta_k5": (lambda: clique_theta(3, 5), 0, 14356, 578, 0, 14356, 851),
}
# `extend` and `grow` on the same relabellings: detour_order, where the
# 2-colouring refutes the spanning path and the branch and bound climbs to
# n - 1, then Π(·;1) membership, which climbs as detour_order does only
# where G - 0 has no Hamilton path either (0 on the smaller side)
PATH_WORK = {
    "k3_5": (lambda: complete_bipartite(3, 5), 392, 244, 545, 223),
    "k5_7": (lambda: complete_bipartite(5, 7), 191568, 327248, 218933, 327226),
}


def _relabellings(make):
    h = make()
    return [random_relabel(h, random.Random(s)) for s in range(4)]


@pytest.mark.parametrize("name", sorted(CYCLE_WORK))
def test_cycle_work_is_pinned(name):
    make, *want = CYCLE_WORK[name]
    params = ClassParams(1, ClassKind.GAMMA)
    longest = Counter()
    decided = Counter()
    for g in _relabellings(make):
        longest += code_calls(lambda: circumference(g), walks)
        decided += code_calls(lambda: membership(g, params), walks)
    got = [longest[node] for node in ("extend", "grow", "branch")]
    got += [decided[node] for node in ("extend", "grow", "branch")]
    assert got == want


@pytest.mark.parametrize("name", sorted(PATH_WORK))
def test_path_work_is_pinned(name):
    make, *want = PATH_WORK[name]
    params = ClassParams(1, ClassKind.PI)
    longest = Counter()
    decided = Counter()
    for g in _relabellings(make):
        longest += code_calls(lambda: detour_order(g), walks)
        decided += code_calls(lambda: membership(g, params), walks)
    got = [longest[node] for node in ("extend", "grow")]
    got += [decided[node] for node in ("extend", "grow")]
    assert got == want


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
