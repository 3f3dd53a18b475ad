"""Labelling invariance of the solvers, the decider, the prune rules and
the canonical form.

Whether a spanning walk exists, the circumference, the detour order, a
membership verdict, the vertex connectivity, the set of prune rules a
graph violates and the canonical form are properties of the isomorphism
class, so no relabelling may change them. Witnesses are label-dependent
and are not compared. Every relabelled graph's certificate must also
replay, and a stream scan of the generator's own window output, each
graph relabelled, must report what the generator scan reports.
"""

import random

from hamclass.canon import canonical_form
from hamclass.generate import generate_connected
from hamclass.graphs import parse_graph6, petersen, vertex_connectivity, write_graph6
from hamclass.membership import (
    DEFAULT_RULES,
    RULE_ORDER,
    ClassKind,
    ClassParams,
    degree_window,
    membership,
    violated_rules,
)
from hamclass.search import SOURCE_STREAM, ScanSpec, certify, scan, verify_certificate
from hamclass.walks import circumference, detour_order, hamilton_cycle, hamilton_path
from util import coxeter_graph, flower_snark, generalized_petersen, random_graph, random_relabel

PARAMS = (
    ClassParams(1, ClassKind.GAMMA),
    ClassParams(1, ClassKind.PI),
    ClassParams(2, ClassKind.GAMMA),
)
RULE_PARAMS = tuple(ClassParams(k, kind) for kind in ClassKind for k in (1, 2))
RULE_SETS = (DEFAULT_RULES, frozenset(RULE_ORDER))


def _floor(g):
    """Connectivity, unbounded and capped at 3 and 4, and the violated rules."""
    return (
        vertex_connectivity(g),
        vertex_connectivity(g, at_most=3),
        vertex_connectivity(g, at_most=4),
        tuple(
            frozenset(violated_rules(g, params, rules))
            for params in RULE_PARAMS
            for rules in RULE_SETS
        ),
    )


def _invariants(g):
    verdicts = tuple(membership(g, params) for params in PARAMS)
    return (
        hamilton_cycle(g) is not None,
        hamilton_path(g) is not None,
        circumference(g)[0],
        detour_order(g)[0],
        tuple((v.member, v.reason, v.found_length) for v in verdicts),
        _floor(g),
    )


def _check_relabellings(h, rng, times):
    want = _invariants(h)
    for _ in range(times):
        g = random_relabel(h, rng)
        assert _invariants(g) == want
        for params in PARAMS:
            assert verify_certificate(certify(g, params))
    return want


def test_relabelling_keeps_values_of_hypohamiltonian_graphs():
    rng = random.Random(131)
    for h in (generalized_petersen(11, 2), flower_snark(5), coxeter_graph()):
        n = h.n
        want = _check_relabellings(h, rng, 3)
        # non-Hamiltonian, traceable, a member of the cycle class at k = 1
        assert want[:4] == (False, True, n - 1, n)
        assert want[4][0] == (True, None, n - 1)
        # cubic and 3-connected
        assert want[5][:3] == (3, 3, 3)


def test_relabelling_keeps_floor_of_small_connected_graphs():
    rng = random.Random(139)
    values = set()
    for n in range(2, 8):
        for h in generate_connected(n):
            want = _floor(h)
            assert _floor(random_relabel(h, rng)) == want
            values.add(want[0])
    assert values == {1, 2, 3, 4, 5, 6}


def test_relabelling_keeps_values_of_random_graphs():
    # 39 of the 150 graphs are disconnected and 79 Hamiltonian; each class
    # refutes some by length and some by a bad deletion set, and every
    # prune rule fires on some
    rng = random.Random(137)
    reasons = set()
    fired = set()
    for _ in range(150):
        n = rng.randint(9, 16)
        want = _check_relabellings(random_graph(rng, n, rng.uniform(0.15, 0.6)), rng, 2)
        reasons.update((params, reason) for params, (_, reason, _) in zip(PARAMS, want[4]))
        fired.update(*want[5][3])
    assert fired == set(RULE_ORDER)
    assert reasons == {(p, r) for p in PARAMS for r in ("wrong_length", "bad_deletion_set")}


def test_relabelling_keeps_canonical_form_and_walk_orders_of_order_8(corpus):
    rng = random.Random(157)
    for h in corpus[8]:
        g = random_relabel(h, rng)
        assert canonical_form(g) == canonical_form(h)
        assert circumference(g)[0] == circumference(h)[0]
        assert detour_order(g)[0] == detour_order(h)[0]


def test_stream_scan_of_relabelled_window_matches_generator_scan():
    # Γ(9;1) with default rules: 631 graphs in the [3, 4] window, 85 of
    # them pruned by connectivity; Γ(10;1) with all rules: the 19 cubic
    # graphs, 5 pruned, and the Petersen graph the one member
    rng = random.Random(163)
    gamma1 = ClassParams(1, ClassKind.GAMMA)
    cases = (
        (ScanSpec(9, gamma1), 631, {"connectivity": 85}, []),
        (ScanSpec(10, gamma1, prune_rules=frozenset(RULE_ORDER)), 19, {"connectivity": 5}, [petersen()]),
    )
    for spec, examined, fired, members in cases:
        floor, cap = degree_window(spec.n, spec.params, spec.prune_rules)
        window = generate_connected(spec.n, max_degree=cap, min_degree=floor)
        records = [write_graph6(random_relabel(g, rng)) for g in window]
        want = scan(spec)
        got = scan(ScanSpec(spec.n, spec.params, SOURCE_STREAM, spec.prune_rules), records)
        assert want.total_examined == got.total_examined == len(records) == examined
        assert want.pruned_per_rule == got.pruned_per_rule
        assert {r: c for r, c in got.pruned_per_rule.items() if c} == fired
        assert want.fully_decided == got.fully_decided == examined - sum(fired.values())
        assert got.skipped_records == 0
        forms = [
            sorted(canonical_form(parse_graph6(text)) for text in report.members_found)
            for report in (want, got)
        ]
        assert forms[0] == forms[1] == sorted(canonical_form(h) for h in members)
