"""Tests for the benchmark's own code: builders, gates and metric names.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import multiprocessing
import os
import random
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from hamclass import ClassKind, ClassParams, CertificateError, certify, parse_graph6
from hamclass import verify_certificate
from perfbench import builders, gates
from perfbench.harness import END_TO_END, per_layer_units
from perfbench.reference import Speedometers
from perfbench.run import stop_children
from perfbench.workloads import Certify

ROOT = Path(__file__).resolve().parents[2]
PETERSEN = builders.graph6(10, builders.generalized_petersen(5, 2))


def census_report(**overrides):
    report = {
        "total_examined": 12207,
        "pruned_per_rule": {"order_threshold": 0, "min_degree": 11576, "max_degree": 0,
                            "connectivity": 85},
        "fully_decided": 546,
        "members_found": [],
    }
    report.update(overrides)
    return report


N9 = gates.CensusExpect("n9_default", "none", 546, 85)
N10 = gates.CensusExpect("n10_all_rules", "petersen")


def test_builders_are_deterministic_per_seed():
    assert builders.certify_records(5) == builders.certify_records(5)
    assert builders.certify_records(5) != builders.certify_records(6)
    per_kind = {builders.PLAIN: 6, builders.MIN_DEGREE: 2, builders.CONNECTIVITY: 2}
    for n in builders.STREAM_ORDERS:
        assert builders.stream_records(5, n, per_kind) == builders.stream_records(5, n, per_kind)
        assert builders.stream_records(5, n, per_kind) != builders.stream_records(6, n, per_kind)


def test_certify_passes_relabel_only_the_heavy_records():
    first, second = builders.certify_records(4, bulk=30, passes=2)
    assert len(first) == len(second) == 30 + 18
    for a, b in zip(first, second):
        assert (a.kind, a.k, a.verdict, a.reason, a.found_length, a.heavy) == (
            b.kind, b.k, b.verdict, b.reason, b.found_length, b.heavy)
        assert a.heavy or a.graph6 == b.graph6
    assert any(a.graph6 != b.graph6 for a, b in zip(first, second))


def test_named_graphs_have_their_order_size_and_girth():
    for g in builders.named_graphs():
        builders.check_named(g)
    petersen = builders.named_graphs()[0]
    with pytest.raises(ValueError):
        builders.check_named(replace(petersen, edges=petersen.edges[:-1]))
    with pytest.raises(ValueError):
        builders.check_named(replace(petersen, girth=4))


def test_graph6_matches_the_program_codec():
    rng = random.Random(3)
    for rec in builders.certify_records(3, bulk=30)[0]:
        g = parse_graph6(rec.graph6)
        n, edges = builders.decode_graph6(rec.graph6)
        assert (g.n, sorted(g.edges())) == (n, sorted(edges))
    n, edges = 24, builders.add_chords(24, builders.square_cycle(24), 5, rng)
    assert sorted(parse_graph6(builders.graph6(n, edges)).edges()) == sorted(
        builders._norm(u, v) for u, v in edges
    )


def test_stream_records_carry_their_planted_degrees():
    per_kind = {builders.PLAIN: 20, builders.MIN_DEGREE: 10, builders.CONNECTIVITY: 10}
    for n in builders.STREAM_ORDERS:
        for g6, kind in builders.stream_records(1, n, per_kind):
            deg = builders.degrees(*builders.decode_graph6(g6))
            assert max(deg) <= n // 2
            assert (min(deg) == 2) == (kind == builders.MIN_DEGREE)


def test_petersen_is_recognised_under_relabelling():
    rng = random.Random(1)
    relabelled = builders.relabel(10, builders.generalized_petersen(5, 2), rng)
    assert builders.is_petersen(builders.graph6(10, relabelled))
    assert not builders.is_petersen(builders.graph6(10, builders.square_cycle(10)))


def test_census_gate_passes_the_known_answers():
    assert gates.census_problems(N9, census_report()) == []
    n10 = census_report(total_examined=1733, fully_decided=14, members_found=[PETERSEN],
                        pruned_per_rule={"min_degree": 1714, "connectivity": 5})
    assert gates.census_problems(N10, n10) == []


def test_census_gate_flags_wrong_members():
    assert gates.census_problems(N9, census_report(members_found=[PETERSEN]))
    other = builders.graph6(10, builders.square_cycle(10))
    n10 = census_report(total_examined=1733, fully_decided=14,
                        pruned_per_rule={"min_degree": 1714, "connectivity": 5})
    for members in ([], [other], [PETERSEN, PETERSEN]):
        assert gates.census_problems(N10, {**n10, "members_found": members})


def test_census_gate_flags_broken_accounting_and_counts():
    assert gates.census_problems(N9, census_report(total_examined=12208))
    assert gates.census_problems(N9, census_report(total_examined=12208, fully_decided=547))
    # total_examined and min_degree may move as long as the identity holds
    moved = census_report(total_examined=631,
                          pruned_per_rule={"min_degree": 0, "connectivity": 85})
    assert gates.census_problems(N9, moved) == []


def test_stream_gate_flags_counts_off_the_plant():
    planted = {"decided": 5, "min_degree": 2, "connectivity": 1}
    good = {"total_examined": 8, "fully_decided": 5, "members_found": [],
            "pruned_per_rule": {"order_threshold": 0, "min_degree": 2, "max_degree": 0,
                                "connectivity": 1}}
    assert gates.stream_problems("s", good, planted) == []
    shifted = {**good, "pruned_per_rule": {**good["pruned_per_rule"], "min_degree": 3,
                                           "connectivity": 0}}
    assert gates.stream_problems("s", shifted, planted)
    assert gates.stream_problems("s", {**good, "members_found": [PETERSEN]}, planted)
    assert gates.stream_problems("s", {**good, "total_examined": 9}, planted)


def test_certify_gate_flags_a_tampered_certificate():
    rec = builders.CertRecord(PETERSEN, "gamma", 1, "member", None, 9, True)
    cert = certify(parse_graph6(PETERSEN), ClassParams(1, ClassKind.GAMMA))
    assert gates.cert_problems(rec, cert, cert, verify_certificate(cert)) == []
    bad = gates.tamper(cert, random.Random(0))
    assert bad != cert
    assert gates.cert_problems(rec, bad, bad, verify_certificate(bad))
    assert gates.tamper_problems("p", verify_certificate, CertificateError, bad) == []
    assert gates.tamper_problems("p", lambda c: True, CertificateError, bad)


def test_certify_gate_flags_a_wrong_verdict():
    rec = builders.CertRecord(PETERSEN, "gamma", 2, "refuted", "wrong_length", 9, True)
    cert = certify(parse_graph6(PETERSEN), ClassParams(2, ClassKind.GAMMA))
    assert gates.cert_problems(rec, cert, cert, True) == []
    assert gates.cert_problems(replace(rec, found_length=10), cert, cert, True)
    assert gates.cert_problems(rec, cert, replace(cert, found_length=10), True)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == {"census", "certify", "stream_scan"}


def test_speedometers_sample_and_stop():
    cpus = sorted(os.sched_getaffinity(0))[:1]
    with Speedometers(cpus) as speed:
        start = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    assert all(not proc.is_alive() for _, proc, _ in speed._running)
    assert len(speed.samples[cpus[0]]) >= 2
    assert 0 < speed.unit_seconds(cpus, start, end) < 0.05


def test_certify_parallel_pass_reuses_one_pool_and_stops_it(tmp_path):
    wl = Certify(3)
    wl.setup(SimpleNamespace(membership=sys.modules["hamclass.membership"]), tmp_path)
    light = [job for job in wl.jobs[0] if not job[0].heavy][:4]
    petersen = [job for job in wl.jobs[0] if job[0].heavy and job[0].graph6[0] == "I"]
    wl.jobs = [light + petersen] * len(wl.jobs)
    with wl.parallel(2):
        pool = wl.pool
        for rnd in range(2):
            outcomes = wl.run_pass(None, rnd, 2, lambda: None)
            assert [problems for _, _, problems in outcomes] == [[]] * 7
        assert wl.pool is pool
    assert wl.pool is None
    assert multiprocessing.active_children() == []


def test_stop_children_ends_the_resource_tracker_too():
    from multiprocessing import resource_tracker

    with Speedometers(sorted(os.sched_getaffinity(0))[:1]):
        pass
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    stop_children()
    assert tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
