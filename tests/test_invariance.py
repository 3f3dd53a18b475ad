"""Labelling invariance of the solvers and the decider.

Whether a spanning walk exists, the circumference, the detour order and
a membership verdict are properties of the isomorphism class, so no
relabelling may change them. Witnesses are label-dependent and are not
compared. Every relabelled graph's certificate must also replay.
"""

import random

from hamclass.membership import ClassKind, ClassParams, membership
from hamclass.search import certify, verify_certificate
from hamclass.walks import circumference, detour_order, hamilton_cycle, hamilton_path
from util import coxeter_graph, flower_snark, generalized_petersen, random_graph, random_relabel

PARAMS = (
    ClassParams(1, ClassKind.GAMMA),
    ClassParams(1, ClassKind.PI),
    ClassParams(2, ClassKind.GAMMA),
)


def _invariants(g):
    verdicts = tuple(membership(g, params) for params in PARAMS)
    return (
        hamilton_cycle(g) is not None,
        hamilton_path(g) is not None,
        circumference(g)[0],
        detour_order(g)[0],
        tuple((v.member, v.reason, v.found_length) for v in verdicts),
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


def test_relabelling_keeps_values_of_random_graphs():
    # 39 of the 150 graphs are disconnected and 79 Hamiltonian; each class
    # refutes some by length and some by a bad deletion set
    rng = random.Random(137)
    reasons = set()
    for _ in range(150):
        n = rng.randint(9, 16)
        want = _check_relabellings(random_graph(rng, n, rng.uniform(0.15, 0.6)), rng, 2)
        reasons.update((params, reason) for params, (_, reason, _) in zip(PARAMS, want[4]))
    assert reasons == {(p, r) for p in PARAMS for r in ("wrong_length", "bad_deletion_set")}
