import hashlib
import pickle
from collections import Counter
from itertools import combinations
from math import comb, factorial

import pytest

import hamclass.canon
import hamclass.generate
from hamclass.canon import canonical_form, marked_code
from hamclass.generate import Node, _children, _orbit, generate_connected, subtree_roots
from hamclass.graphs import (
    Graph,
    closure_mask,
    degree_profile,
    induced_subgraph,
    is_connected,
    trusted_graph,
    write_graph6,
)
from util import (
    _canonical_code_reference,
    _children_reference,
    _noncutvertices,
    automorphism_count,
    brute_automorphisms,
    brute_orbits,
    code_calls,
    generate_connected_reference,
    generated_group,
    min_perm_code,
)

# connected graph counts by order, long since settled
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def exhaustive_connected_classes(n: int) -> set[tuple[int, ...]]:
    """Ground truth by brute force: every labeled graph, deduped by the
    minimum relabeled code. Only sane through n = 5."""
    pairs = list(combinations(range(n), 2))
    out = set()
    for bits_ in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if bits_ >> i & 1]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            out.add(min_perm_code(g))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matches_exhaustive_enumeration(n):
    got = [min_perm_code(g) for g in generate_connected(n)]
    assert len(got) == len(set(got))
    assert set(got) == exhaustive_connected_classes(n)


@pytest.mark.parametrize("n", [6, 7])
def test_counts_and_distinctness(n):
    forms = set()
    for g in generate_connected(n):
        assert g.n == n
        assert is_connected(g)
        forms.add(canonical_form(g))
    assert len(forms) == CONNECTED_COUNTS[n]


def test_labeled_count_identity_order_7():
    # sum over classes of 7!/|Aut| must equal the labeled connected count,
    # which the standard subtraction recurrence supplies independently
    total = [0, 1]
    for n in range(2, 8):
        t = 1 << comb(n, 2)
        for k in range(1, n):
            t -= comb(n - 1, k - 1) * total[k] * (1 << comb(n - k, 2))
        total.append(t)
    got = sum(factorial(7) // automorphism_count(g) for g in generate_connected(7))
    assert got == total[7]


def test_degree_ceiling(corpus):
    full = {canonical_form(g) for g in generate_connected(6) if degree_profile(g).max_degree <= 3}
    capped = {canonical_form(g) for g in generate_connected(6, max_degree=3)}
    assert capped == full
    for n in range(1, 9):
        profiled = [(canonical_form(g), degree_profile(g)) for g in corpus[n]]
        windows = ((1, 2), (0, 3), (2, 3), (3, 3), (3, 4), (4, 4), (3, None), (4, None), (n - 1, None))
        for lo, hi in windows:
            window = [canonical_form(g) for g in generate_connected(n, max_degree=hi, min_degree=lo)]
            assert len(window) == len(set(window))
            assert set(window) == {
                form
                for form, prof in profiled
                if prof.min_degree >= lo and (hi is None or prof.max_degree <= hi)
            }
    for g in generate_connected(7, max_degree=2):
        prof = degree_profile(g)
        assert prof.max_degree <= 2
    # connected graphs with all degrees at most 2 are paths and cycles
    assert sum(1 for _ in generate_connected(7, max_degree=2)) == 2



# (n, min_degree, max_degree) -> (count, sha256 of the sorted graph6 lines):
# pins which representative each class gets, not only how many there are
PINNED_REPRESENTATIVES = {
    (7, 0, None): (853, "31577469daebbef6c9c208fed2cf939ec3a06cc21b96eb74794efc8d3851d321"),
    (8, 0, None): (11117, "8a41de1c403e29b117b93892cfa2f50749bc9cbb18a9897ee75adf8b696853d3"),
    (9, 3, 4): (631, "ba374d709a056992ba793ef09721f7f098c5b81cc93a973a26b63b0799a92cc3"),
    (10, 3, 3): (19, "8eadba533508c5860c2a4c1990c304132cc141d5a1c6c0b94d1c9bfc2a06f22e"),
    (10, 4, 4): (59, "ea150ed00909db6d96677436a95bacbf00804161a54ef5da852312b5b00bba58"),
}


@pytest.mark.parametrize("n, lo, hi", list(PINNED_REPRESENTATIVES))
def test_pinned_representatives(corpus, n, lo, hi):
    if (lo, hi) == (0, None):
        graphs = corpus[n]
    else:
        graphs = generate_connected(n, max_degree=hi, min_degree=lo)
    lines = sorted(write_graph6(g) for g in graphs)
    count, digest = PINNED_REPRESENTATIVES[n, lo, hi]
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

# windows where the degree-deficit budget prunes: (9, 4, 4) and (8, 3, 3)
ORACLE_CASES = [(n, 0, None) for n in range(1, 9)] + [(9, 3, 4), (10, 3, 3), (9, 4, 4), (8, 3, 3)]


@pytest.mark.parametrize("n, lo, hi", ORACLE_CASES)
def test_matches_seen_dedupe_oracle(corpus, n, lo, hi):
    if (lo, hi) == (0, None):
        graphs = corpus[n]
    else:
        graphs = generate_connected(n, max_degree=hi, min_degree=lo)
    expected = [write_graph6(g) for g in generate_connected_reference(n, max_degree=hi, min_degree=lo)]
    assert [write_graph6(g) for g in graphs] == expected
    # the subtrees below the split-level roots, grown one by one, give the
    # same sequence: each graph once, in depth-first order, also from roots
    # that went through pickle as they do to a pool worker
    roots = list(subtree_roots(n, max_degree=hi, min_degree=lo))
    assert {root.graph.n for root in roots} == {max(1, n - 3)}
    for shipped in (roots, [pickle.loads(pickle.dumps(root)) for root in roots]):
        sharded = [
            write_graph6(g)
            for root in shipped
            for g in generate_connected(n, max_degree=hi, min_degree=lo, root=root)
        ]
        assert sharded == expected


@pytest.mark.parametrize("n, lo, hi", [(n, 0, None) for n in range(2, 8)] + [(9, 3, 4), (10, 3, 3)])
def test_is_canonical_matches_reference(monkeypatch, n, lo, hi):
    # every child the tree tries is handed its own non-cutvertex mask; the
    # fast test keeps it exactly when the reference finds its newest vertex
    # in the canonical orbit, and a group it returns, leaf or not, is
    # Aut(child) (checked in full up to order 6, by its orbits at order 7)
    is_canonical = hamclass.generate._is_canonical
    tried = []

    def recording(child, noncut):
        assert noncut == _noncutvertices(child)
        kept, gens = is_canonical(child, noncut)
        tried.append((child, kept, gens))
        return kept, gens

    monkeypatch.setattr(hamclass.generate, "_is_canonical", recording)
    count = sum(1 for _ in generate_connected(n, max_degree=hi, min_degree=lo))
    assert count == (CONNECTED_COUNTS[n] if hi is None else PINNED_REPRESENTATIVES[n, lo, hi][0])
    grouped = 0
    for child, kept, gens in tried:
        assert kept == (_canonical_code_reference(child) is not None)
        if gens is not None:
            assert kept
            grouped += 1
            if child.n <= 6:
                assert generated_group(gens, child.n) == set(brute_automorphisms(child))
            elif child.n == 7:
                orbits = {frozenset(_orbit(1 << v, gens)) for v in range(child.n)}
                assert orbits == {frozenset(1 << v for v in o) for o in brute_orbits(child)}
    assert grouped or n < 4


@pytest.mark.parametrize("n, lo, hi", [(n, 0, None) for n in range(2, 8)] + [(9, 3, 4), (10, 3, 3)])
def test_handed_down_group_is_the_automorphism_group(monkeypatch, n, lo, hi):
    # every kept node with children to grow, and every subtree root, gets
    # generators of all of its automorphisms: none at the one-vertex root,
    # by the tie search of _is_canonical, or by _stabiliser from its
    # parent's group
    grow = hamclass.generate._grow
    handed = []

    def recording(node, order, max_degree, min_degree, stop=None):
        if node.graph.n < order:
            handed.append((node.graph, node.gens))
        return grow(node, order, max_degree, min_degree, stop)

    monkeypatch.setattr(hamclass.generate, "_grow", recording)
    count = sum(1 for _ in generate_connected(n, max_degree=hi, min_degree=lo))
    assert count == (CONNECTED_COUNTS[n] if hi is None else PINNED_REPRESENTATIVES[n, lo, hi][0])
    symmetric = 0
    for graph, gens in handed:
        group = generated_group(gens, graph.n)
        assert group == set(brute_automorphisms(graph))
        symmetric += len(group) > 1
    assert symmetric or n < 4


def deficit(g: Graph, floor: int) -> int:
    return sum(max(0, floor - row.bit_count()) for row in g.adj)


@pytest.mark.parametrize(
    "n, lo, hi", [(n, 0, None) for n in range(2, 9)] + [(9, 3, 4), (10, 3, 3), (10, 4, 4)]
)
def test_handed_down_mask_and_deficit(monkeypatch, corpus, n, lo, hi):
    # every node grown, subtree roots included, carries the non-cutvertex
    # mask and the degree deficit that its own graph gives
    grow = hamclass.generate._grow
    nodes = []

    def recording(node, order, max_degree, min_degree, stop=None):
        nodes.append(node)
        return grow(node, order, max_degree, min_degree, stop)

    monkeypatch.setattr(hamclass.generate, "_grow", recording)
    count = sum(1 for _ in generate_connected(n, max_degree=hi, min_degree=lo))
    assert count == (len(corpus[n]) if hi is None else PINNED_REPRESENTATIVES[n, lo, hi][0])
    assert {node.graph.n for node in nodes} == set(range(1, n))
    for node in nodes:
        assert node.noncut == _noncutvertices(node.graph)
        assert node.deficit == deficit(node.graph, lo)


@pytest.mark.parametrize("n, lo, hi", [(7, 0, None), (8, 3, 3), (9, 4, 4), (9, 3, 4), (10, 3, 3), (10, 4, 4)])
def test_budget_decisions_match_the_row_sum(monkeypatch, n, lo, hi):
    # a child goes on to the canonicity test exactly when the deficit
    # summed over its rows fits the budget of the n - m vertices to come
    children = hamclass.generate._children
    is_canonical = hamclass.generate._is_canonical
    tried = []
    tested = set()

    def recording_children(parent, *args):
        for child in children(parent, *args):
            tried.append(child)
            yield child

    def recording_is_canonical(child, noncut):
        tested.add(id(child))
        return is_canonical(child, noncut)

    monkeypatch.setattr(hamclass.generate, "_children", recording_children)
    monkeypatch.setattr(hamclass.generate, "_is_canonical", recording_is_canonical)
    sum(1 for _ in generate_connected(n, max_degree=hi, min_degree=lo))
    dropped = 0
    for child in tried:
        budget = (n - child.n) * (n - 1 if hi is None else hi)
        fits = deficit(child, lo) <= budget
        assert (id(child) in tested) == fits
        dropped += not fits
    assert dropped or lo == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_labelled_count_of_every_window(n):
    # the sum over the classes of n!/|Aut| is the number of labelled
    # connected graphs with every degree in the window, here counted over
    # all 2^C(n, 2) labelled graphs
    pairs = list(combinations(range(n), 2))
    labelled = Counter()
    for edges in range(1 << len(pairs)):
        g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if edges >> i & 1])
        if is_connected(g):
            degrees = [row.bit_count() for row in g.adj]
            labelled[min(degrees), max(degrees)] += 1
    for lo in range(n + 1):
        for hi in (None, *range(n)):
            got = sum(
                factorial(n) // automorphism_count(g)
                for g in generate_connected(n, max_degree=hi, min_degree=lo)
            )
            assert got == sum(
                count
                for (least, most), count in labelled.items()
                if least >= lo and (hi is None or most <= hi)
            ), (lo, hi)


def test_degree_skip_drops_only_noncanonical_children(corpus):
    # with no group to dedupe by, _children leaves out exactly the
    # attachment sets the degree skip rejects; the reference must reject
    # each of them too
    skipped = 0
    for m in range(1, 7):
        for parent in corpus[m]:
            noncut = _noncutvertices(parent)
            assert noncut == sum(
                1 << u
                for u in range(m)
                if m == 1 or is_connected(induced_subgraph(parent, [x for x in range(m) if x != u]))
            )
            for hi, floor in ((None, 0), (4, 1), (3, 2)):
                fast = {child.adj[-1] for child in _children(parent, hi, floor, [], noncut)}
                for child in _children_reference(parent, hi, floor):
                    if child.adj[-1] in fast:
                        fast.discard(child.adj[-1])
                    else:
                        skipped += 1
                        assert _canonical_code_reference(child) is None
                assert not fast
    assert skipped


def test_subtree_roots():
    # one root, the one-vertex graph, up to order 4
    for n in range(1, 5):
        assert list(subtree_roots(n)) == [Node(Graph(1, (0,)), [], 1, 0)]
    assert list(subtree_roots(3, min_degree=2)) == [Node(Graph(1, (0,)), [], 1, 2)]
    assert list(subtree_roots(1, min_degree=1)) == []
    # without a window the roots for order 7 are the connected graphs of
    # order 4
    assert len(list(subtree_roots(7))) == CONNECTED_COUNTS[4]
    assert len(list(subtree_roots(10, max_degree=3, min_degree=3))) == 64
    with pytest.raises(ValueError):
        list(subtree_roots(11))


@pytest.mark.parametrize(
    "n, lo, hi", [(n, 0, None) for n in range(5, 11)] + [(9, 3, 4), (10, 3, 3), (10, 4, 4), (10, 3, 4)]
)
def test_subtree_roots_carry_their_group(n, lo, hi):
    # each root's generators generate its automorphism group (checked in
    # full up to order 6, by its orbits at order 7), and its mask and
    # deficit are its own graph's
    roots = list(subtree_roots(n, max_degree=hi, min_degree=lo))
    assert roots
    for graph, gens, noncut, carried in roots:
        assert graph.n == n - 3
        assert noncut == _noncutvertices(graph)
        assert carried == deficit(graph, lo)
        if graph.n <= 6:
            assert generated_group(gens, graph.n) == set(brute_automorphisms(graph))
        else:
            orbits = {frozenset(_orbit(1 << v, gens)) for v in range(graph.n)}
            assert orbits == {frozenset(1 << v for v in o) for o in brute_orbits(graph)}


# connected regular graphs: cubic (OEIS A002851) and 4-regular (A006820)
REGULAR_COUNTS = {(3, 8): 5, (3, 10): 19, (4, 9): 16, (4, 10): 59}


# calls of _is_canonical, trusted_graph (the children built), refine,
# marked_code, _stabiliser, _bounded (the tie searches that stop at a leaf
# reaching v's marked code) and closure_mask while generating order n with
# every degree in [lo, hi]: a lost prune or orbit test moves them, not the
# output. marked_code reads 0 because the tie searches find v's code
# themselves; a call that comes back shows there. closure_mask counts the
# cut closures that build each child's non-cutvertex mask from its
# parent's, one per parent cutvertex for every child within the deficit
# budget whose newest vertex is not pendant; a pendant one needs none
GENERATOR_WORK = {
    (7, 0, None): (1361, 1361, 3402, 0, 62, 382, 229),
    (9, 3, 4): (4284, 4492, 8211, 0, 826, 898, 798),
    (10, 3, 3): (592, 850, 1938, 0, 197, 317, 344),
    (10, 4, 4): (3152, 4614, 8665, 0, 980, 1408, 373),
}


@pytest.mark.parametrize("n, lo, hi", GENERATOR_WORK)
def test_generator_work_is_pinned(n, lo, hi):
    calls = code_calls(
        lambda: sum(1 for _ in generate_connected(n, min_degree=lo, max_degree=hi)),
        hamclass.generate,
        hamclass.canon,
        trusted_graph,
        closure_mask,
    )
    names = ("_is_canonical", "trusted_graph", "refine", "marked_code", "_stabiliser", "_bounded", "closure_mask")
    assert tuple(calls[name] for name in names) == GENERATOR_WORK[n, lo, hi]


@pytest.mark.parametrize("degree, n", sorted(REGULAR_COUNTS))
def test_regular_counts(degree, n):
    forms = set()
    for g in generate_connected(n, max_degree=degree, min_degree=degree):
        assert all(g.degree(v) == degree for v in range(n))
        forms.add(canonical_form(g))
    assert len(forms) == REGULAR_COUNTS[degree, n]


def test_degenerate_arguments():
    assert [g.n for g in generate_connected(1)] == [1]
    assert list(generate_connected(2, max_degree=0)) == []
    assert len(list(generate_connected(1, max_degree=0))) == 1
    with pytest.raises(ValueError):
        list(generate_connected(0))
    with pytest.raises(ValueError):
        list(generate_connected(11))
    with pytest.raises(ValueError):
        list(generate_connected(3, max_degree=-1))
    with pytest.raises(ValueError):
        list(generate_connected(3, min_degree=-1))
    assert list(generate_connected(1, min_degree=1)) == []
    assert list(generate_connected(4, min_degree=4)) == []
    assert len(list(generate_connected(4, min_degree=3))) == 1
    assert list(generate_connected(5, max_degree=2, min_degree=3)) == []
    # a parent vertex already at the ceiling but below the relaxed floor
    # leaves no child at all; the degree-deficit budget drops every other
    # such parent, so only the one-vertex root under a zero ceiling is one
    assert list(generate_connected(2, max_degree=0, min_degree=1)) == []
    assert marked_code(Graph(1, (0,)), 0) == (0,)
