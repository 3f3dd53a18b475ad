import hashlib
from itertools import combinations
from math import comb, factorial

import pytest

from hamclass.canon import canonical_form
from hamclass.generate import generate_connected
from hamclass.graphs import Graph, degree_profile, is_connected, write_graph6
from util import automorphism_count, min_perm_code

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

# connected regular graphs: cubic (OEIS A002851) and 4-regular (A006820)
REGULAR_COUNTS = {(3, 8): 5, (3, 10): 19, (4, 9): 16, (4, 10): 59}


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
