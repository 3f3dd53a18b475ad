import random
from fractions import Fraction
from itertools import combinations

import pytest

from hamclass.graphs import Graph, petersen
from hamclass.membership import (
    BAD_DELETION_SET,
    DEFAULT_RULES,
    RULE_ORDER,
    WRONG_LENGTH,
    ClassKind,
    ClassParams,
    connectivity_requirement,
    degree_ceilings,
    degree_window,
    emptiness_threshold,
    membership,
    parameter_emptiness,
    required_connectivity,
    theorem_max_degree,
    violated_rules,
)
from hamclass.walks import check_witness, is_cycle_in, is_path_in
from util import (
    brute_longest_induced_path_from,
    check_induced_path_property,
    clique_theta,
    complete_bipartite,
    complete_graph,
    coxeter_graph,
    cycle_graph,
    degree_ceilings_reference,
    degree_window_reference,
    flower_snark,
    generalized_petersen,
    hypohamiltonian_direct,
    hypotraceable_direct,
    is_hypohamiltonian,
    is_hypotraceable,
    membership_reference,
    path_graph,
    random_connected_graph,
    random_graph,
    random_relabel,
    violated_rules_reference,
)

GAMMA = ClassKind.GAMMA
PI = ClassKind.PI


def test_petersen_is_gamma_member_at_level_1():
    v = membership(petersen(), ClassParams(1, GAMMA), collect_walks=True)
    assert v.member and v.reason is None
    assert v.found_length == 9
    assert v.deletion_walks is not None and len(v.deletion_walks) == 10
    g = petersen()
    for i, walk in enumerate(v.deletion_walks):
        check_witness(g, walk)
        assert len(walk.vertices) == 9
        assert i not in walk.vertices


def test_complete_graph_refuted_by_length():
    v = membership(complete_graph(5), ClassParams(1, GAMMA))
    assert not v.member
    assert v.reason == WRONG_LENGTH and v.found_length == 5
    assert v.witness is not None and is_cycle_in(complete_graph(5), v.witness.vertices)


def test_cycle_refuted_by_length_before_deletion_sets():
    v = membership(cycle_graph(6), ClassParams(1, GAMMA))
    assert v.reason == WRONG_LENGTH and v.found_length == 6


def test_gamma_bad_deletion_set():
    # C5 with a pendant at 0: circumference 5 = n-1, but deleting 0
    # strands the pendant, and (0,) is lexicographically first
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    v = membership(g, ClassParams(1, GAMMA))
    assert not v.member
    assert v.reason == BAD_DELETION_SET
    assert v.bad_set == (0,)


def test_pi_refutations():
    v = membership(complete_graph(4), ClassParams(1, PI))
    assert v.reason == WRONG_LENGTH and v.found_length == 4
    v = membership(cycle_graph(5), ClassParams(1, PI))
    assert v.reason == WRONG_LENGTH and v.found_length == 5
    v = membership(petersen(), ClassParams(1, PI))
    assert v.reason == WRONG_LENGTH and v.found_length == 10
    assert v.witness is not None and is_path_in(petersen(), v.witness.vertices)


def test_claw_fails_on_center_deletion():
    claw = Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    v = membership(claw, ClassParams(1, PI))
    assert not v.member
    assert v.reason == BAD_DELETION_SET and v.bad_set == (3,)
    assert not is_hypotraceable(claw)


def _level_one_agrees(g):
    # the certificate fields, deletion walks included, for both classes
    for kind in (GAMMA, PI):
        params = ClassParams(1, kind)
        if g.n - 1 < (3 if kind is GAMMA else 1):
            continue
        got = membership(g, params, collect_walks=True)
        assert got == membership_reference(g, params, collect_walks=True), (kind, g.adj)


def test_level_one_matches_longest_walk_first(corpus):
    # at k = 1 the deletion loop proves the length n - 1; every verdict,
    # bad set, length, witness and deletion walk must be the one that
    # running the longest walk first gives
    for n in range(1, 9):
        for g in corpus[n]:
            _level_one_agrees(g)
    rng = random.Random(233)
    for _ in range(3000):
        n = rng.randint(1, 14)
        _level_one_agrees(random_graph(rng, n, rng.uniform(0.1, 0.6)))


def test_level_one_matches_longest_walk_first_on_heavy_graphs():
    # members, and single-edge deletions, whose bad set comes after a pass
    # or whose G - 0 already fails
    heavy = (
        petersen(),
        generalized_petersen(11, 2),
        generalized_petersen(17, 2),
        flower_snark(5),
        flower_snark(7),
        coxeter_graph(),
    )
    rng = random.Random(239)
    for h in heavy:
        for _ in range(4):
            _level_one_agrees(random_relabel(h, rng))
        edges = random_relabel(h, rng).edges()
        for e in edges:
            _level_one_agrees(Graph.from_edges(h.n, [f for f in edges if f != e]))


def test_level_one_branches():
    # one graph per branch of the k = 1 decider
    pendant = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    gp = generalized_petersen(11, 2, drop=[(0, 1)])
    cases = [
        # G - 0 fails and c(G) = n - 1: the climb gives the bad set (0,)
        (pendant, GAMMA, BAD_DELETION_SET, None, (0,)),
        (complete_bipartite(3, 5), PI, BAD_DELETION_SET, None, (0,)),
        # G - 0 fails and the climb stops short of n - 1
        (complete_bipartite(3, 5), GAMMA, WRONG_LENGTH, 6, None),
        (clique_theta(3, 4), GAMMA, WRONG_LENGTH, 10, None),
        # G - 0 passes and a later deletion fails
        (gp, GAMMA, BAD_DELETION_SET, None, (2,)),
        # no seed cycle
        (path_graph(5), GAMMA, WRONG_LENGTH, 0, None),
    ]
    for g, kind, reason, length, bad in cases:
        params = ClassParams(1, kind)
        got = membership(g, params, collect_walks=True)
        assert (got.reason, got.found_length, got.bad_set) == (reason, length, bad), g.adj
        assert got == membership_reference(g, params, collect_walks=True)


def test_membership_dispatch():
    assert membership(petersen(), ClassParams(1, GAMMA)).member
    assert not membership(petersen(), ClassParams(1, PI)).member


def test_preconditions():
    with pytest.raises(ValueError):
        membership(complete_graph(4), ClassParams(2, GAMMA))  # n-k = 2 < 3
    with pytest.raises(ValueError):
        membership(complete_graph(4), ClassParams(4, PI))  # n-k = 0
    with pytest.raises(ValueError):
        membership(petersen(), ClassParams(0, GAMMA))
    with pytest.raises(ValueError):
        ClassParams(0, GAMMA)
    # boundary cases that must not raise
    assert not membership(complete_graph(4), ClassParams(3, PI)).member
    assert not membership(cycle_graph(4), ClassParams(1, GAMMA)).member


def test_hypohamiltonian_helpers_agree():
    assert is_hypohamiltonian(petersen())
    assert hypohamiltonian_direct(petersen())
    assert not is_hypohamiltonian(complete_graph(5))
    assert not is_hypohamiltonian(path_graph(3))
    rng = random.Random(61)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(4, 7), 0.3 + 0.6 * rng.random())
        assert is_hypohamiltonian(g) == hypohamiltonian_direct(g)
        assert is_hypotraceable(g) == hypotraceable_direct(g)


def test_induced_path_property():
    assert check_induced_path_property(complete_graph(5), 2) == 0
    assert check_induced_path_property(cycle_graph(7), 2) is None
    assert check_induced_path_property(petersen(), 2) is None
    with pytest.raises(ValueError):
        check_induced_path_property(petersen(), 1)


def test_induced_path_property_matches_brute_force():
    g = petersen()
    per_vertex = [brute_longest_induced_path_from(g, v) for v in range(10)]
    for k in (2, 4, 6):
        want = next((v for v in range(10) if per_vertex[v] < k + 1), None)
        assert check_induced_path_property(g, k) == want


def test_connectivity_requirement():
    assert connectivity_requirement(petersen(), ClassParams(1, GAMMA))
    assert not connectivity_requirement(cycle_graph(5), ClassParams(1, GAMMA))
    assert connectivity_requirement(complete_graph(6), ClassParams(4, PI))
    assert not connectivity_requirement(Graph(1, (0,)), ClassParams(1, GAMMA))
    assert required_connectivity(ClassParams(3, GAMMA)) == 5
    assert required_connectivity(ClassParams(3, PI)) == 4


def test_theorem_max_degree_values():
    assert theorem_max_degree(10, ClassParams(1, GAMMA)) == 5
    assert theorem_max_degree(19, ClassParams(2, GAMMA)) == 8
    assert theorem_max_degree(20, ClassParams(3, PI)) == Fraction(11, 2)
    assert isinstance(theorem_max_degree(7, ClassParams(2, GAMMA)), Fraction)
    with pytest.raises(ValueError):
        theorem_max_degree(0, ClassParams(1, GAMMA))


def test_emptiness_threshold_values():
    assert emptiness_threshold(ClassParams(2, GAMMA)) == 11
    assert emptiness_threshold(ClassParams(2, PI)) == 10
    assert emptiness_threshold(ClassParams(3, GAMMA)) == 18


def test_parameter_emptiness_matches_threshold():
    for kind in (GAMMA, PI):
        for k in range(1, 21):
            params = ClassParams(k, kind)
            cut = emptiness_threshold(params)
            for n in range(1, cut + 10):
                assert parameter_emptiness(n, params) == (n < cut)


def test_violated_rules_examples():
    g1 = ClassParams(1, GAMMA)
    assert set(violated_rules(petersen(), g1, DEFAULT_RULES)) == set()
    assert theorem_max_degree(10, g1) == 5
    assert required_connectivity(g1) == 3
    assert set(violated_rules(petersen(), g1, frozenset(RULE_ORDER))) == set()

    violated = set(violated_rules(complete_graph(7), ClassParams(2, GAMMA), DEFAULT_RULES))
    assert violated == {"order_threshold", "max_degree"}
    assert emptiness_threshold(ClassParams(2, GAMMA)) == 11

    violated = set(violated_rules(cycle_graph(10), ClassParams(2, GAMMA), DEFAULT_RULES))
    assert "order_threshold" in violated
    assert "min_degree" in violated


RULE_SETS = [frozenset(c) for size in range(len(RULE_ORDER) + 1) for c in combinations(RULE_ORDER, size)]


def test_rule_constants_match_uncached_recomputation():
    # every order 1..30, level 1..4, class and subset of the rules, asked
    # from a cleared cache and again from the filled one
    degree_ceilings.cache_clear()
    grid = [
        (n, ClassParams(k, kind), rules)
        for n in range(1, 31)
        for k in range(1, 5)
        for kind in (GAMMA, PI)
        for rules in RULE_SETS
    ]
    for _ in range(2):
        for n, params, rules in grid:
            ceilings = degree_ceilings(n, params, rules)
            assert isinstance(ceilings, tuple)
            assert list(ceilings) == degree_ceilings_reference(n, params, rules)
            assert degree_window(n, params, rules) == degree_window_reference(n, params, rules)
    assert degree_ceilings.cache_info().misses == len(grid)


def test_violated_rules_match_reference(corpus):
    # the same rules in the same order: every subset of the rules up to
    # order 6, the default and the full set up to order 8, k = 1..3
    params = [ClassParams(k, kind) for k in (1, 2, 3) for kind in (GAMMA, PI)]
    for n in range(1, 9):
        rule_sets = RULE_SETS if n <= 6 else [DEFAULT_RULES, frozenset(RULE_ORDER)]
        for g in corpus[n]:
            for p in params:
                for rules in rule_sets:
                    assert list(violated_rules(g, p, rules)) == violated_rules_reference(g, p, rules)
    # a plain set of rules is still taken, though the constants are cached
    g = corpus[6][0]
    assert list(violated_rules(g, params[0], set(RULE_ORDER))) == list(violated_rules(g, params[0], frozenset(RULE_ORDER)))
    assert degree_window(12, params[0], set(RULE_ORDER)) == degree_window(12, params[0], frozenset(RULE_ORDER))


def test_violated_rules_holton_sheehan_gate():
    # a 4-regular graph of order 10 passes the theorem ceiling (4 <= 5)
    # but not the classical one (4 > 3); the rule stays quiet unless asked
    g = Graph.from_edges(
        10, [(i, (i + d) % 10) for i in range(10) for d in (1, 2)]
    )
    base = set(violated_rules(g, ClassParams(1, GAMMA), DEFAULT_RULES))
    assert "holton_sheehan" not in base
    assert "max_degree" not in base
    strict = set(violated_rules(g, ClassParams(1, GAMMA), frozenset(RULE_ORDER)))
    assert "holton_sheehan" in strict
    # the rule is specific to the cycle class at k=1
    pi_violated = set(violated_rules(g, ClassParams(1, PI), frozenset(RULE_ORDER)))
    assert "holton_sheehan" not in pi_violated


def test_rule_vocabulary():
    assert RULE_ORDER == (
        "order_threshold",
        "min_degree",
        "max_degree",
        "holton_sheehan",
        "connectivity",
    )
    assert DEFAULT_RULES == frozenset(RULE_ORDER) - {"holton_sheehan"}
