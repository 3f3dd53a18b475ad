import random
from fractions import Fraction

import pytest

from hamclass.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen,
)
from hamclass.membership import (
    BAD_DELETION_SET,
    DEFAULT_RULES,
    RULE_ORDER,
    WRONG_LENGTH,
    ClassKind,
    ClassParams,
    bound_pipeline,
    check_induced_path_property,
    connectivity_requirement,
    emptiness_threshold,
    gamma_membership,
    is_hypohamiltonian,
    is_hypotraceable,
    membership,
    parameter_emptiness,
    pi_membership,
    required_connectivity,
    theorem_max_degree,
)
from hamclass.walks import check_witness, is_cycle_in, is_path_in
from util import (
    brute_longest_induced_path_from,
    hypohamiltonian_direct,
    hypotraceable_direct,
    random_connected_graph,
)

GAMMA = ClassKind.GAMMA
PI = ClassKind.PI


def test_petersen_is_gamma_member_at_level_1():
    v = gamma_membership(petersen(), 1, collect_walks=True)
    assert v.member and v.reason is None
    assert v.found_length == 9
    assert v.deletion_walks is not None and len(v.deletion_walks) == 10
    g = petersen()
    for i, walk in enumerate(v.deletion_walks):
        check_witness(g, walk)
        assert len(walk.vertices) == 9
        assert i not in walk.vertices


def test_complete_graph_refuted_by_length():
    v = gamma_membership(complete_graph(5), 1)
    assert not v.member
    assert v.reason == WRONG_LENGTH and v.found_length == 5
    assert v.witness is not None and is_cycle_in(complete_graph(5), v.witness.vertices)


def test_cycle_refuted_by_length_before_deletion_sets():
    v = gamma_membership(cycle_graph(6), 1)
    assert v.reason == WRONG_LENGTH and v.found_length == 6


def test_gamma_bad_deletion_set():
    # C5 with a pendant at 0: circumference 5 = n-1, but deleting 0
    # strands the pendant, and (0,) is lexicographically first
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    v = gamma_membership(g, 1)
    assert not v.member
    assert v.reason == BAD_DELETION_SET
    assert v.bad_set == (0,)


def test_pi_refutations():
    v = pi_membership(complete_graph(4), 1)
    assert v.reason == WRONG_LENGTH and v.found_length == 4
    v = pi_membership(cycle_graph(5), 1)
    assert v.reason == WRONG_LENGTH and v.found_length == 5
    v = pi_membership(petersen(), 1)
    assert v.reason == WRONG_LENGTH and v.found_length == 10
    assert v.witness is not None and is_path_in(petersen(), v.witness.vertices)


def test_claw_fails_on_center_deletion():
    claw = Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    v = pi_membership(claw, 1)
    assert not v.member
    assert v.reason == BAD_DELETION_SET and v.bad_set == (3,)
    assert not is_hypotraceable(claw)


def test_membership_dispatch():
    assert membership(petersen(), ClassParams(1, GAMMA)).member
    assert not membership(petersen(), ClassParams(1, PI)).member


def test_preconditions():
    with pytest.raises(ValueError):
        gamma_membership(complete_graph(4), 2)  # n-k = 2 < 3
    with pytest.raises(ValueError):
        pi_membership(complete_graph(4), 4)  # n-k = 0
    with pytest.raises(ValueError):
        gamma_membership(petersen(), 0)
    with pytest.raises(ValueError):
        ClassParams(0, GAMMA)
    # boundary cases that must not raise
    assert not pi_membership(complete_graph(4), 3).member
    assert not gamma_membership(cycle_graph(4), 1).member


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


def test_bound_pipeline_examples():
    rep = bound_pipeline(petersen(), ClassParams(1, GAMMA))
    assert rep.violated == frozenset()
    assert rep.max_degree_allowed == 5
    assert rep.min_degree_required == 3
    rep = bound_pipeline(petersen(), ClassParams(1, GAMMA), holton_sheehan=True)
    assert rep.violated == frozenset()

    rep = bound_pipeline(complete_graph(7), ClassParams(2, GAMMA))
    assert rep.violated == frozenset({"order_threshold", "max_degree"})
    assert rep.order_threshold == 11

    rep = bound_pipeline(cycle_graph(10), ClassParams(2, GAMMA))
    assert "order_threshold" in rep.violated
    assert "min_degree" in rep.violated


def test_bound_pipeline_holton_sheehan_gate():
    # a 4-regular graph of order 10 passes the theorem ceiling (4 <= 5)
    # but not the classical one (4 > 3); the rule stays quiet unless asked
    g = Graph.from_edges(
        10, [(i, (i + d) % 10) for i in range(10) for d in (1, 2)]
    )
    base = bound_pipeline(g, ClassParams(1, GAMMA))
    assert "holton_sheehan" not in base.violated
    assert "max_degree" not in base.violated
    strict = bound_pipeline(g, ClassParams(1, GAMMA), holton_sheehan=True)
    assert "holton_sheehan" in strict.violated
    # the flag is specific to the cycle class at k=1
    pi_rep = bound_pipeline(g, ClassParams(1, PI), holton_sheehan=True)
    assert "holton_sheehan" not in pi_rep.violated


def test_rule_vocabulary():
    assert RULE_ORDER == (
        "order_threshold",
        "min_degree",
        "max_degree",
        "holton_sheehan",
        "connectivity",
    )
    assert DEFAULT_RULES == frozenset(RULE_ORDER) - {"holton_sheehan"}
