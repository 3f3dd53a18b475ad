"""End-to-end acceptance sweep.

One test per shipped guarantee, each printing a single PASS/FAIL line
with its wall time so a full run reads as a checklist: the order-10
census, the parameter-only emptiness window, degree-bound conformance
on the exhaustive small corpus, agreement of the two longest-cycle
solvers, the counting-claim contrapositive over attachment configs,
connectivity and induced-path consequences for every member seen, the
format round-trips, and soundness of the prune rules.
"""

import random
import time

import pytest

from hamclass.attachment import ConfigError, build_config, verify_gamma_claim, verify_pi_claims
from hamclass.canon import canonical_form
from hamclass.generate import generate_connected
from hamclass.graphs import degree_profile, parse_graph6, petersen, write_graph6
from hamclass.membership import (
    RULE_ORDER,
    ClassKind,
    ClassParams,
    check_induced_path_property,
    connectivity_requirement,
    emptiness_threshold,
    gamma_membership,
    parameter_emptiness,
    pi_membership,
    required_connectivity,
    theorem_max_degree,
)
from hamclass.search import ScanSpec, certify, parse_certificate, scan, verify_certificate
from hamclass.walks import (
    WitnessError,
    check_witness,
    circumference,
    detour_order,
)
from util import (
    circumference_dp_oracle,
    random_connected_graph,
    random_graph,
    sparse_attachment_graph,
)

GAMMA = ClassKind.GAMMA
PI = ClassKind.PI
GAMMA1 = ClassParams(1, GAMMA)
ALL_RULES = frozenset(RULE_ORDER)


def announce(capsys, num, label, failures, t0, budget):
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        failures.append(f"took {elapsed:.0f}s against a {budget:.0f}s budget")
    with capsys.disabled():
        verdict = "FAIL" if failures else "PASS"
        print(f"acceptance {num} {label}: {verdict} ({elapsed:.1f}s)", flush=True)
    assert not failures, "; ".join(failures[:8])


@pytest.fixture(scope="session")
def corpus():
    return {n: list(generate_connected(n)) for n in range(1, 9)}


@pytest.fixture(scope="session")
def members_seen():
    return []


def _smallest_order(params: ClassParams) -> int:
    # spanning-cycle targets start at 3 vertices, path targets at 1
    return params.k + (3 if params.kind is GAMMA else 1)


def test_1_hypohamiltonian_census(capsys, members_seen):
    t0 = time.perf_counter()
    failures = []
    with_ceiling = {n: scan(ScanSpec(n, GAMMA1, prune_rules=ALL_RULES)) for n in range(4, 11)}
    for n in range(4, 10):
        if with_ceiling[n].members_found:
            failures.append(f"unexpected member at order {n}")
        plain = scan(ScanSpec(n, GAMMA1))
        if plain.members_found != with_ceiling[n].members_found:
            failures.append(f"order {n} census changes when the classical ceiling is dropped")
    found = with_ceiling[10].members_found
    if len(found) != 1:
        failures.append(f"order 10 yielded {len(found)} members instead of 1")
    elif canonical_form(parse_graph6(found[0])) != canonical_form(petersen()):
        failures.append("the order-10 member is not the Petersen graph")
    else:
        members_seen.append((parse_graph6(found[0]), GAMMA1))
    announce(capsys, 1, "hypohamiltonian census to order 10", failures, t0, 1800)


def test_2_parameter_emptiness_window(capsys):
    t0 = time.perf_counter()
    failures = []
    for kind in (GAMMA, PI):
        for k in range(2, 21):
            params = ClassParams(k, kind)
            threshold = emptiness_threshold(params)
            expected = k * k + 2 * k + (3 if kind is GAMMA else 2)
            if threshold != expected:
                failures.append(f"threshold({kind.value}, k={k}) = {threshold} != {expected}")
            floor = required_connectivity(params)
            for n in range(1, threshold):
                if not theorem_max_degree(n, params) < floor:
                    failures.append(f"no degree contradiction at n={n}, k={k}, {kind.value}")
                if not parameter_emptiness(n, params):
                    failures.append(f"emptiness not flagged at n={n}, k={k}, {kind.value}")
    announce(capsys, 2, "parameter-only emptiness below threshold", failures, t0, 1.0)


def test_3_degree_bounds_on_corpus(capsys, corpus, members_seen):
    t0 = time.perf_counter()
    failures = []
    for kind in (GAMMA, PI):
        for k in (1, 2):
            params = ClassParams(k, kind)
            decide = gamma_membership if kind is GAMMA else pi_membership
            numerator = 1 - k * k if kind is GAMMA else -k * k
            for n in range(_smallest_order(params), 9):
                for g in corpus[n]:
                    if not decide(g, k).member:
                        continue
                    members_seen.append((g, params))
                    if 2 * degree_profile(g).max_degree > n + numerator:
                        failures.append(f"member at n={n}, k={k}, {kind.value} beats the degree cap")
                    if k == 2:
                        failures.append(f"k=2 member at n={n} breaks the emptiness window")
    announce(capsys, 3, "degree bounds over the full order-8 corpus", failures, t0, 600)


def test_4_longest_cycle_solver_agreement(capsys, corpus):
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 8):
        for g in corpus[n]:
            if circumference(g)[0] != circumference_dp_oracle(g):
                failures.append(f"solver split on {write_graph6(g)}")
    rng = random.Random(140918)
    for _ in range(500):
        g = random_connected_graph(rng, rng.randint(8, 14), rng.uniform(0.2, 0.75))
        if circumference(g)[0] != circumference_dp_oracle(g):
            failures.append(f"solver split on {write_graph6(g)}")
    announce(capsys, 4, "branch-and-bound matches the subset oracle", failures, t0, 300)


def test_5_counting_claim_contrapositive(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(77331)
    configs = []
    attempts = 0
    while len(configs) < 100 and attempts < 2000:
        attempts += 1
        n = rng.randint(6, 12)
        k = rng.choice((2, 3))
        kind = rng.choice((GAMMA, PI))
        g = random_connected_graph(rng, n, rng.uniform(0.3, 0.8))
        try:
            configs.append(build_config(g, k, kind))
        except ConfigError:
            continue
    for m, cuts, kind in [
        (9, (0, 3, 6), GAMMA),
        (10, (0, 4, 7), GAMMA),
        (10, (2, 5, 7), PI),
        (9, (2, 4, 6), PI),
    ]:
        configs.append(build_config(sparse_attachment_graph(m, cuts, kind), 2, kind, u1=0))
    if len(configs) < 100:
        failures.append(f"only assembled {len(configs)} configs")
    violated_count = 0
    for cfg in configs:
        g = cfg.graph
        target = g.n - cfg.k
        if cfg.kind is GAMMA:
            report, exact = verify_gamma_claim(cfg), circumference(g)[0]
        else:
            report, exact = verify_pi_claims(cfg), detour_order(g)[0]
        violated = not all(rec.satisfied for rec in report.per_index)
        if violated:
            violated_count += 1
            if report.improvement is None:
                failures.append(f"no improvement walk for a violated gap on {write_graph6(g)}")
            else:
                try:
                    check_witness(g, report.improvement)
                except WitnessError as exc:
                    failures.append(f"bad improvement walk on {write_graph6(g)}: {exc}")
                if report.improvement.order < target + 1:
                    failures.append(f"improvement too short on {write_graph6(g)}")
            if exact <= target:
                failures.append(f"exact solver refutes the improvement on {write_graph6(g)}")
        elif exact == target and report.improvement is not None:
            failures.append(f"clean config improved anyway on {write_graph6(g)}")
        if exact == target and violated:
            failures.append(f"gap below its bound at exact target on {write_graph6(g)}")
    if violated_count < 10:
        failures.append(f"only {violated_count} violated configs in the corpus")
    announce(capsys, 5, "violated gap bounds always yield longer walks", failures, t0, 600)


def test_6_member_consequences(capsys, members_seen):
    t0 = time.perf_counter()
    failures = []
    if not members_seen:
        failures.append("no members were registered by the earlier sweeps")
    for g, params in members_seen:
        if not connectivity_requirement(g, params):
            failures.append(f"member {write_graph6(g)} misses the connectivity floor")
        if params.k >= 2 and check_induced_path_property(g, params.k) is not None:
            failures.append(f"member {write_graph6(g)} carries a long induced path")
    announce(capsys, 6, "members meet connectivity and path consequences", failures, t0, 60)


def test_7_format_roundtrips(capsys, corpus):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(96321)
    randoms = [random_graph(rng, rng.randint(1, 64), rng.random()) for _ in range(1000)]
    for g in (g for n in range(1, 8) for g in corpus[n]):
        if parse_graph6(write_graph6(g)) != g:
            failures.append(f"graph6 round trip broke on {write_graph6(g)}")
    for g in randoms:
        if parse_graph6(write_graph6(g)) != g:
            failures.append(f"graph6 round trip broke on {write_graph6(g)}")
    params_grid = [ClassParams(k, kind) for k in (1, 2) for kind in (GAMMA, PI)]
    for n in range(1, 8):
        for g in corpus[n]:
            for params in params_grid:
                if n < _smallest_order(params):
                    continue
                cert = certify(g, params)
                if parse_certificate(cert.to_json()) != cert:
                    failures.append(f"certificate text round trip broke on {cert.to_json()}")
                if not verify_certificate(cert):
                    failures.append(f"fresh certificate rejected: {cert.to_json()}")
    announce(capsys, 7, "graph6 and certificate round trips", failures, t0, 600)


def test_8_prune_rules_never_drop_members(capsys, corpus):
    t0 = time.perf_counter()
    failures = []
    for kind in (GAMMA, PI):
        for k in (1, 2):
            params = ClassParams(k, kind)
            for n in range(_smallest_order(params), 9):
                lines = [write_graph6(g) for g in corpus[n]]
                on = scan(ScanSpec(n, params, source="stream", prune_rules=ALL_RULES), lines)
                off = scan(ScanSpec(n, params, source="stream", prune_rules=frozenset()), lines)
                if on.members_found != off.members_found:
                    failures.append(f"pruning changed the members at n={n}, k={k}, {kind.value}")
                if not (on.total_examined == off.total_examined == len(lines)):
                    failures.append(f"scan lost records at n={n}, k={k}, {kind.value}")
    announce(capsys, 8, "prune rules agree with exhaustive decisions", failures, t0, 600)
