import dataclasses
import hashlib
import json
import logging
import os
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import Executor, Future

import pytest

import hamclass.search as search
from hamclass.generate import generate_connected, subtree_roots
from hamclass.graphs import Graph, petersen, write_graph6
from hamclass.membership import (
    DEFAULT_RULES,
    RULE_ORDER,
    ClassKind,
    ClassParams,
    degree_window,
    violated_rules,
)
from hamclass.search import (
    Certificate,
    CertificateError,
    EmptinessReport,
    ScanSpec,
    certify,
    first_violated_rule,
    parse_certificate,
    scan,
    verify_certificate,
)
from util import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    generalized_petersen,
    rule_reference,
)

G1 = ClassParams(1, ClassKind.GAMMA)
P1 = ClassParams(1, ClassKind.PI)


class InlineExecutor(Executor):
    """Stands in for ProcessPoolExecutor: runs each task when it is
    submitted, in this process, and starts no process."""

    future_type = Future

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = []

    def submit(self, fn, /, *args, **kwargs):
        self.tasks.append(fn)
        future = self.future_type()
        future.set_result(fn(*args, **kwargs))
        return future


def strip(report):
    return dataclasses.replace(report, wall_seconds=0.0)


def test_scanspec_validation():
    ScanSpec(11, G1, source="stream")
    with pytest.raises(ValueError, match="gen or stream"):
        ScanSpec(5, G1, source="file")
    with pytest.raises(ValueError, match="order 11"):
        ScanSpec(11, G1, source="gen")
    with pytest.raises(ValueError, match="unknown prune rules"):
        ScanSpec(5, G1, prune_rules=frozenset({"girth"}))
    with pytest.raises(ValueError, match="no room"):
        ScanSpec(3, G1)
    with pytest.raises(ValueError, match="no room"):
        ScanSpec(4, ClassParams(4, ClassKind.PI))


def test_scan_rules_off_decides_everything():
    report = scan(ScanSpec(6, G1, prune_rules=frozenset()))
    assert report.total_examined == 112
    assert report.pruned_per_rule == {}
    assert report.fully_decided == 112
    assert report.members_found == ()


def test_scan_gen_respects_rule_order_and_counts():
    report = scan(ScanSpec(7, G1))
    assert list(report.pruned_per_rule) == [r for r in RULE_ORDER if r in DEFAULT_RULES]
    assert report.total_examined == sum(report.pruned_per_rule.values()) + report.fully_decided
    assert report.members_found == ()
    # the degree ceiling runs inside the generator, so its rule never fires
    assert report.pruned_per_rule["max_degree"] == 0
    assert report.total_examined < 853


def test_scan_threshold_prunes_whole_order():
    report = scan(ScanSpec(10, ClassParams(2, ClassKind.GAMMA)))
    assert report.total_examined == 1733
    assert report.pruned_per_rule["order_threshold"] == 1733
    assert report.fully_decided == 0
    assert report.members_found == ()


def test_scan_gen_window_falls_back_to_ceilings():
    # empty window (floor 3 above ceiling 2): ceiling-only generation, as
    # before the floor was pushed, so P5 and C5 reach the min_degree rule
    report = scan(ScanSpec(5, G1))
    assert report.total_examined == report.pruned_per_rule["min_degree"] == 2
    # the order threshold claims the whole order, so no floor may thin it
    rules = frozenset({"order_threshold", "min_degree"})
    report = scan(ScanSpec(7, ClassParams(2, ClassKind.GAMMA), prune_rules=rules))
    assert report.pruned_per_rule == {"order_threshold": 853, "min_degree": 0}


def test_scan_stream_attribution():
    lines = [
        write_graph6(petersen()),
        write_graph6(cycle_graph(10)),
        write_graph6(complete_graph(10)),
        write_graph6(complete_bipartite(5, 5)),
    ]
    report = scan(ScanSpec(10, G1, source="stream"), lines)
    assert report.total_examined == 4
    assert report.pruned_per_rule["min_degree"] == 1
    assert report.pruned_per_rule["max_degree"] == 1
    assert report.fully_decided == 2
    assert report.members_found == (write_graph6(petersen()),)


def test_unit_tally_counts_each_graph_once():
    k5s = [(s + i, s + j) for s in (0, 5) for i in range(5) for j in range(i + 1, 5)]
    wheel = [(0, v) for v in range(1, 10)] + [(v, v % 9 + 1) for v in range(1, 10)]
    graphs = [
        petersen(),  # decided, a member
        cycle_graph(10),  # min_degree
        Graph.from_edges(10, k5s + [(0, 5), (1, 6)]),  # connectivity
        complete_bipartite(5, 5),  # decided, Hamiltonian
        Graph.from_edges(10, wheel),  # max_degree: the hub has degree 9
    ]
    tally, members = search._decide_chunk(graphs, G1, DEFAULT_RULES)
    assert isinstance(tally, Counter)
    assert tally == {"decided": 2, "min_degree": 1, "connectivity": 1, "max_degree": 1}
    assert members == ["I?LRCecq?"]
    tally, members = search._decide_chunk(graphs, G1, frozenset())
    assert tally == {"decided": 5}
    assert members == ["I?LRCecq?"]


def test_scan_stream_skips_bad_records(caplog):
    lines = [
        ">>graph6<<",
        write_graph6(petersen()),
        "!!not-a-record",
        "",
        write_graph6(cycle_graph(4)),
    ]
    with caplog.at_level(logging.WARNING, logger="hamclass.search"):
        report = scan(ScanSpec(10, G1, source="stream"), lines)
    assert report.total_examined == 1
    assert report.members_found == (write_graph6(petersen()),)
    assert sum("skipped" in rec.message for rec in caplog.records) >= 2


def test_scan_stream_requires_input():
    with pytest.raises(ValueError, match="needs an input stream"):
        scan(ScanSpec(10, G1, source="stream"))


def test_scan_deterministic_and_parallel_agree():
    spec = ScanSpec(6, G1)
    a = scan(spec)
    b = scan(spec)
    c = scan(spec, workers=2)
    assert strip(a) == strip(b) == strip(c)


def test_scan_one_chunk_starts_no_pool(monkeypatch):
    # one unit, whatever the worker count: a stream of one chunk, and a
    # generator scan whose tree has one subtree root (orders up to 4)
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-unit scan started a process pool")

    lines = [write_graph6(petersen()), write_graph6(cycle_graph(10))] * 100
    stream_spec = ScanSpec(10, G1, source="stream")
    gen_spec = ScanSpec(4, G1, prune_rules=frozenset())
    assert len(list(subtree_roots(4))) == 1
    serial = [scan(stream_spec, lines), scan(gen_spec)]
    assert serial[1].total_examined == 6
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
    parallel = [scan(stream_spec, lines, workers=2), scan(gen_spec, workers=2)]
    assert list(map(strip, parallel)) == list(map(strip, serial))


def test_parallel_scan_reads_stream_boundedly(monkeypatch):
    # Executor.map submits every chunk before it yields a result, which
    # would read the whole stream first; at most 2 x workers may be in flight
    workers, chunks = 2, 12
    read = 0
    taken = []

    def stream():
        nonlocal read
        for _ in range(chunks * 256):
            read += 1
            yield write_graph6(cycle_graph(5))

    class RecordingFuture(Future):
        def result(self, timeout=None):
            taken.append(read)
            return super().result(timeout)

    class RecordingExecutor(InlineExecutor):
        future_type = RecordingFuture

    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingExecutor)
    report = scan(ScanSpec(5, G1, source="stream"), stream(), workers=workers)
    assert report.total_examined == chunks * 256
    assert report.pruned_per_rule["min_degree"] == chunks * 256
    assert len(taken) == chunks
    assert taken[0] <= (2 * workers + 1) * 256


def report_line(report):
    spec = report.spec
    return json.dumps(
        [
            spec.n,
            spec.params.kind.value,
            spec.params.k,
            sorted(spec.prune_rules),
            report.total_examined,
            report.pruned_per_rule,
            report.fully_decided,
            list(report.members_found),
            report.skipped_records,
        ]
    )


def scan_grid():
    """Generator scans of orders 4-9, both classes, k in {1, 2}, default and
    all rules, and the census scan of order 10 with all rules."""
    for n in range(4, 10):
        for kind in ClassKind:
            for k in (1, 2):
                for rules in (DEFAULT_RULES, frozenset(RULE_ORDER)):
                    try:
                        yield ScanSpec(n, ClassParams(k, kind), prune_rules=rules)
                    except ValueError:
                        continue  # no room for a walk of the target length
    yield ScanSpec(10, G1, prune_rules=frozenset(RULE_ORDER))


# (count, sha256 of the report lines) of `scan_grid`, recorded before the
# generator was split into subtrees
SCAN_GRID_DIGEST = (47, "6278dea028291b2f31ee3ab4d63210fcdcc1aa46b75b5b2a1e4bdfdc084a2ce3")


def test_sharded_scan_grid_pinned(monkeypatch):
    pools = []

    def executor(max_workers):
        pools.append(InlineExecutor(max_workers))
        return pools[-1]

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "ProcessPoolExecutor", executor)
    lines = []
    for spec in scan_grid():
        sharded = scan(spec, workers=2)
        if spec.n <= 8:
            assert strip(scan(spec)) == strip(sharded)
        lines.append(report_line(sharded))
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == SCAN_GRID_DIGEST
    # every pool received subtree tasks, never chunks of generated graphs
    assert pools and all(pool.tasks and set(pool.tasks) == {search._decide_subtrees} for pool in pools)


def test_sharded_scan_real_pool_agrees():
    for spec in (ScanSpec(9, G1), ScanSpec(10, G1, prune_rules=frozenset(RULE_ORDER))):
        assert strip(scan(spec, workers=2)) == strip(scan(spec))


def test_generator_scan_holds_boundedly_many_subtrees(monkeypatch):
    # units of four roots are submitted as they are read, so before the i-th
    # result is taken ceil((roots read) / 4) - i units are in flight: at most
    # 2 x workers units, and at most 8 x workers roots read ahead of the
    # results
    workers = 2
    read = 0
    taken = []
    real_roots = search.subtree_roots

    def roots(*args, **kwargs):
        nonlocal read
        for root in real_roots(*args, **kwargs):
            read += 1
            yield root

    class RecordingFuture(Future):
        def result(self, timeout=None):
            taken.append(read)
            return super().result(timeout)

    class RecordingExecutor(InlineExecutor):
        future_type = RecordingFuture

    spec = ScanSpec(9, ClassParams(2, ClassKind.GAMMA))
    serial = scan(spec)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    monkeypatch.setattr(search, "subtree_roots", roots)
    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingExecutor)
    assert strip(scan(spec, workers=workers)) == strip(serial)
    assert read == 29 and len(taken) == 8
    assert max(-(-r // 4) - i for i, r in enumerate(taken)) == 2 * workers
    assert max(r - 4 * i for i, r in enumerate(taken)) == 8 * workers


def test_long_unit_does_not_hold_back_the_rest(monkeypatch):
    # the first unit's report is held back until every other unit (29
    # subtree roots, four a unit) has been submitted; a loop taking reports
    # in submission order would stall at 2 x workers in flight, and the
    # timer releases it after 5 s
    workers, units = 2, 8
    held = Future()
    released = []

    def release(by, result):
        if not held.done():
            released.append(by)
            held.set_result(result)

    class HoldFirstExecutor(InlineExecutor):
        def submit(self, fn, /, *args, **kwargs):
            if self.tasks:
                future = super().submit(fn, *args, **kwargs)
                if len(self.tasks) == units:
                    release("last submit", self.first)
                return future
            self.tasks.append(fn)
            self.first = fn(*args, **kwargs)
            self.timer = threading.Timer(5, release, ("timer", self.first))
            self.timer.start()
            return held

    pools = []

    def executor(max_workers):
        pools.append(HoldFirstExecutor(max_workers))
        return pools[-1]

    spec = ScanSpec(9, ClassParams(2, ClassKind.GAMMA))
    serial = scan(spec)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    monkeypatch.setattr(search, "ProcessPoolExecutor", executor)
    try:
        assert strip(scan(spec, workers=workers)) == strip(serial)
    finally:
        pools[0].timer.cancel()
    assert len(pools[0].tasks) == units
    assert released == ["last submit"]


def test_pool_size_capped_by_cpu_count(monkeypatch):
    sizes = []

    def executor(max_workers):
        sizes.append(max_workers)
        return InlineExecutor(max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(search, "ProcessPoolExecutor", executor)
    spec = ScanSpec(8, G1)  # 21 subtree roots, six units
    lines = [write_graph6(cycle_graph(5))] * 600
    stream_spec = ScanSpec(5, G1, source="stream")
    for workers in (2, 3, 5000):
        scan(spec, workers=workers)
        scan(stream_spec, lines, workers=workers)
    assert sizes == [2, 2, 3, 3, 3, 3]
    # without a known CPU count one process is all there is: no pool
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    scan(spec, workers=5000)
    assert sizes == [2, 2, 3, 3, 3, 3]


def order_10_lines(records):
    """`records` order-10 stream records: Petersen (decided, a member) and
    C_10 (pruned on min_degree) in turn."""
    pair = [write_graph6(petersen()), write_graph6(cycle_graph(10))]
    return (pair * records)[:records]


def test_two_unit_scan_starts_no_pool(monkeypatch):
    # a two-chunk stream and a generator scan whose tree has two subtree
    # roots run in this process whatever the worker count
    pools = []

    def executor(max_workers):
        pools.append(InlineExecutor(max_workers))
        return pools[-1]

    lines = order_10_lines(512)
    stream_spec = ScanSpec(10, G1, source="stream")
    gen_spec = ScanSpec(6, G1, prune_rules=frozenset())
    assert len(list(subtree_roots(6))) == 2
    serial = [scan(stream_spec, lines), scan(gen_spec)]
    assert serial[0].total_examined == 512 and serial[1].total_examined == 112
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(search, "ProcessPoolExecutor", executor)
    for workers in (2, 4):
        parallel = [scan(stream_spec, lines, workers=workers), scan(gen_spec, workers=workers)]
        assert list(map(strip, parallel)) == list(map(strip, serial))
    assert pools == []


def test_three_unit_scan_starts_a_pool(monkeypatch):
    pools = []

    def executor(max_workers):
        pools.append(InlineExecutor(max_workers))
        return pools[-1]

    stream_spec = ScanSpec(10, G1, source="stream")
    gen_spec = ScanSpec(8, G1)  # 21 subtree roots, six units
    streams = [order_10_lines(513), order_10_lines(768)]
    serial = [scan(stream_spec, lines) for lines in streams] + [scan(gen_spec)]
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(search, "ProcessPoolExecutor", executor)
    parallel = [scan(stream_spec, lines, workers=2) for lines in streams] + [scan(gen_spec, workers=2)]
    assert list(map(strip, parallel)) == list(map(strip, serial))
    assert [len(pool.tasks) for pool in pools] == [3, 3, 6]


def test_census_units_are_four_consecutive_roots(monkeypatch):
    # the two census scans send 20 and 16 units of at most four roots each,
    # and the units read in turn are the subtree roots in depth-first order
    units = []

    class RecordingExecutor(InlineExecutor):
        def submit(self, fn, /, *args, **kwargs):
            units.append(args[0])
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingExecutor)
    for spec, count in ((ScanSpec(9, G1), 20), (ScanSpec(10, G1, prune_rules=frozenset(RULE_ORDER)), 16)):
        units.clear()
        scan(spec, workers=2)
        floor, cap = degree_window(spec.n, spec.params, spec.prune_rules)
        assert len(units) == count and all(1 <= len(unit) <= 4 for unit in units)
        assert [root for unit in units for root in unit] == list(
            subtree_roots(spec.n, max_degree=cap, min_degree=floor)
        )


def test_stream_scan_real_pool_agrees_at_the_threshold(caplog):
    # streams of 2, 3 and 4 chunks, each with one malformed record: below,
    # at and above the three units from which a scan starts a pool
    spec = ScanSpec(10, G1, source="stream")
    for chunks in (2, 3, 4):
        lines = order_10_lines(chunks * 256)
        lines.insert(300, "!!not-a-record")
        runs = []
        for workers in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hamclass.search"):
                report = scan(spec, lines, workers=workers)
            runs.append((strip(report), [rec.getMessage() for rec in caplog.records]))
        serial, notices = runs[0]
        assert serial.total_examined == chunks * 256 and serial.skipped_records == 1
        assert notices == ["record 301 skipped: byte 33 outside graph6 range"]
        assert runs[1] == runs[0]


def test_prune_soundness_small():
    for params in (G1, P1):
        on = scan(ScanSpec(7, params, prune_rules=frozenset(RULE_ORDER)))
        off = scan(ScanSpec(7, params, prune_rules=frozenset()))
        assert on.members_found == off.members_found == ()


def test_first_violated_rule_respects_flags():
    g = cycle_graph(10)
    assert first_violated_rule(g, G1, DEFAULT_RULES) == "min_degree"
    assert first_violated_rule(g, G1, frozenset()) is None
    assert first_violated_rule(g, G1, frozenset({"connectivity"})) == "connectivity"
    assert first_violated_rule(petersen(), G1, DEFAULT_RULES) is None
    # classical ceiling fires on Petersen only when opted in: 2*3 > 10-4 is false
    assert first_violated_rule(petersen(), G1, frozenset(RULE_ORDER)) is None
    four_reg = Graph.from_edges(10, [(i, (i + j) % 10) for i in range(10) for j in (1, 2)])
    assert first_violated_rule(four_reg, G1, frozenset(RULE_ORDER)) == "holton_sheehan"
    assert first_violated_rule(four_reg, G1, DEFAULT_RULES) is None


@pytest.fixture(scope="module")
def connected_to_order_7():
    return {n: list(generate_connected(n)) for n in range(1, 8)}


def test_first_violated_rule_matches_reference(connected_to_order_7):
    rule_sets = [DEFAULT_RULES, frozenset(RULE_ORDER)] + [frozenset({r}) for r in RULE_ORDER]
    for graphs in connected_to_order_7.values():
        for g in graphs:
            for kind in ClassKind:
                for k in (1, 2):
                    params = ClassParams(k, kind)
                    expected = rule_reference(g, params, RULE_ORDER)
                    for rules in rule_sets:
                        violated = list(violated_rules(g, params, rules))
                        assert violated == [r for r in RULE_ORDER if r in expected & rules]
                        first = violated[0] if violated else None
                        assert first_violated_rule(g, params, rules) == first


def test_stream_scan_serial_and_parallel_agree(connected_to_order_7):
    lines = [write_graph6(g) for g in connected_to_order_7[7]]
    lines.insert(100, "!!not-a-record")
    spec = ScanSpec(7, G1, source="stream")
    serial = scan(spec, lines, workers=1)
    parallel = scan(spec, lines, workers=2)
    assert serial.total_examined == 853 and serial.skipped_records == 1
    assert strip(serial) == strip(parallel)


def test_certify_petersen_member():
    cert = certify(petersen(), G1)
    assert cert.verdict == "member"
    assert cert.reason is None
    assert cert.found_length == 9
    assert cert.witness_set is None
    assert len(cert.witness_walks) == 10
    for drop, walk in enumerate(cert.witness_walks):
        assert len(walk) == 9 and drop not in walk
    assert verify_certificate(cert)
    # without walks the member is re-decided
    assert verify_certificate(certify(petersen(), G1, include_walks=False))


def test_certify_refutations():
    k5 = certify(complete_graph(5), G1)
    assert k5.verdict == "refuted" and k5.reason == "wrong_length"
    assert k5.found_length == 5
    assert k5.witness_walks is not None and len(k5.witness_walks[0]) == 5
    assert verify_certificate(k5)

    c6 = certify(cycle_graph(6), P1)
    assert c6.reason == "wrong_length" and c6.found_length == 6
    assert verify_certificate(c6)

    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    cert = certify(star, P1)
    assert cert.reason == "bad_deletion_set"
    assert cert.witness_set == (0,)
    assert cert.found_length is None and cert.witness_walks is None
    assert verify_certificate(cert)


def test_certificate_roundtrip_corpus():
    for g in generate_connected(5):
        for params in (G1, P1, ClassParams(2, ClassKind.GAMMA), ClassParams(2, ClassKind.PI)):
            full = certify(g, params)
            assert parse_certificate(full.to_json()) == full
            assert verify_certificate(full)
            bare = certify(g, params, include_walks=False)
            assert verify_certificate(bare)


# GP(5,2) and GP(11,2) are hypohamiltonian (Bondy 1972: GP(6t+5, 2)),
# GP(7,2), GP(9,2) and GP(13,2) Hamiltonian, and GP(11,2) minus the edge
# {0,1} refutes by a bad deletion set: members, wrong_length and
# bad_deletion_set certificates up to order 26, pinned by the sha256 of
# their JSON lines in this order
PINNED_GP_GRAPHS = ((5, ()), (7, ()), (9, ()), (11, ()), (11, ((0, 1),)), (13, ()))
PINNED_GP_DIGEST = "f517a4a757ff5be170cc3b95b6dd3f38d7cb8d78e885e71bad1635406083d948"


def test_pinned_generalized_petersen_certificates():
    lines = []
    for m, drop in PINNED_GP_GRAPHS:
        g = generalized_petersen(m, 2, drop)
        for params in (G1, ClassParams(2, ClassKind.GAMMA), P1):
            cert = certify(g, params)
            assert verify_certificate(cert)
            lines.append(cert.to_json())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_GP_DIGEST


def test_fabricated_member_certificate_rejected():
    k5 = complete_graph(5)
    walks = []
    for drop in range(5):
        walks.append(tuple(v for v in range(5) if v != drop))
    cert = Certificate(write_graph6(k5), ClassKind.GAMMA, 1, "member", None, 4, None, tuple(walks))
    # every per-deletion walk replays fine; only the exact length check can say no
    assert not verify_certificate(cert)
    # nor can a walkless claim pass: it is re-decided
    assert not verify_certificate(dataclasses.replace(cert, witness_walks=None))


def test_member_replay_counts_walks_in_bounded_memory():
    # C11 plus 11 isolated vertices at k = 11 has C(22, 11) = 705,432
    # deletion sets; a certificate of under 200 bytes claims them all
    g = Graph.from_edges(22, [(i, (i + 1) % 11) for i in range(11)])
    line = json.dumps(
        {
            "graph6": write_graph6(g),
            "class": "gamma",
            "k": 11,
            "verdict": "member",
            "reason": None,
            "found_length": 11,
            "witness_set": None,
            "witness_walks": [],
        }
    )
    assert len(line) < 200
    cert = parse_certificate(line)
    tracemalloc.start()
    try:
        assert not verify_certificate(cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tampered_certificates_fail():
    cert = certify(petersen(), G1)
    walks = list(cert.witness_walks)
    walks[0] = (0,) + walks[0][1:]
    assert not verify_certificate(dataclasses.replace(cert, witness_walks=tuple(walks)))
    assert not verify_certificate(dataclasses.replace(cert, verdict="refuted"))
    assert not verify_certificate(dataclasses.replace(cert, found_length=8))
    # certify never writes a member without its length, with or without walks
    assert not verify_certificate(dataclasses.replace(cert, found_length=None))
    bare = certify(petersen(), G1, include_walks=False)
    assert verify_certificate(bare)
    assert not verify_certificate(dataclasses.replace(bare, found_length=None))
    assert not verify_certificate(dataclasses.replace(cert, reason="wrong_length"))
    assert not verify_certificate(dataclasses.replace(cert, witness_set=(0,)))
    # 10 - 8 leaves 2 vertices, too few for a cycle; a path needs at least 1
    assert not verify_certificate(dataclasses.replace(cert, k=8))
    assert not verify_certificate(dataclasses.replace(cert, kind=ClassKind.PI, k=10))

    k5 = certify(complete_graph(5), G1)
    assert not verify_certificate(dataclasses.replace(k5, found_length=4))
    assert not verify_certificate(dataclasses.replace(k5, reason="bad_deletion_set"))
    assert not verify_certificate(dataclasses.replace(k5, witness_walks=k5.witness_walks * 2))

    # C6 as a cycle-class record: its Hamilton cycle is too long for k = 1
    c6 = certify(cycle_graph(6), G1)
    assert c6.reason == "wrong_length" and c6.witness_walks == ((0, 1, 2, 3, 4, 5),)
    assert verify_certificate(c6)
    assert not verify_certificate(dataclasses.replace(c6, witness_walks=((0, 2, 4, 1, 3, 5),)))

    star = certify(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), P1)
    assert not verify_certificate(dataclasses.replace(star, witness_set=(1,)))
    assert not verify_certificate(dataclasses.replace(star, witness_set=(0, 0)))
    assert not verify_certificate(dataclasses.replace(star, witness_set=(9,)))


def _member_walk_variants(walk, n):
    """The walk with its first vertex out of range, negative, or repeating
    the second; the length and the vertices it leaves out are kept."""
    rest = walk[1:]
    return [(n,) + rest, (-1,) + rest, (walk[1],) + rest]


def test_member_walk_with_bad_vertices_fails():
    # Petersen: every walk is disjoint from its one-vertex deletion set and
    # has the target length, so the cycle check is what rejects it
    cert = certify(petersen(), G1)
    walks = cert.witness_walks
    for bad in _member_walk_variants(walks[0], 10):
        assert 0 not in bad and len(bad) == 9
        assert not verify_certificate(dataclasses.replace(cert, witness_walks=(bad,) + walks[1:]))

    # the star K_{1,3} has detour order 3 = n - 1, so only the path check
    # on the first per-deletion walk (the one that leaves out vertex 0)
    # can reject a fabricated path member
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    others = ((2, 0, 3), (1, 0, 3), (1, 0, 2))
    for bad in _member_walk_variants((1, 2, 3), 4):
        assert 0 not in bad and len(bad) == 3
        cert = Certificate(write_graph6(star), ClassKind.PI, 1, "member", None, 3, None, (bad,) + others)
        assert not verify_certificate(cert)


class _SearchReached(Exception):
    pass


def test_member_walks_are_checked_before_the_exact_search(monkeypatch):
    # a forged walk is rejected without the proof that Petersen has no
    # Hamilton cycle, since the verdict is a conjunction of the checks
    cert = certify(petersen(), G1)
    walks = cert.witness_walks

    def reached(g, keep=None):
        raise _SearchReached

    for solver in ("circumference", "detour_order", "hamilton_cycle", "hamilton_path"):
        monkeypatch.setattr(search, solver, reached)
    with pytest.raises(_SearchReached):
        verify_certificate(cert)
    for i in (0, 4, 9):
        # out of range, negative, repeated, and the deleted vertex itself
        for bad in _member_walk_variants(walks[i], 10) + [(i,) + walks[i][1:]]:
            forged = walks[:i] + (bad,) + walks[i + 1 :]
            assert not verify_certificate(dataclasses.replace(cert, witness_walks=forged))


def test_parse_certificate_format_errors():
    good = certify(complete_graph(5), G1).to_json()
    assert parse_certificate(good) == certify(complete_graph(5), G1)
    obj = json.loads(good)

    def broken(**changes):
        d = dict(obj)
        d.update(changes)
        return json.dumps(d)

    for bad in [
        "not json at all",
        "[1,2,3]",
        json.dumps({key: val for key, val in obj.items() if key != "k"}),
        broken(extra=1),
        broken(k=True),
        broken(k=0),
        broken(**{"class": "delta"}),
        broken(verdict="maybe"),
        broken(reason="because"),
        broken(found_length="5"),
        broken(witness_set="abc"),
        broken(witness_walks=[[1, "a"]]),
        broken(graph6=7),
    ]:
        with pytest.raises(CertificateError):
            parse_certificate(bad)

    # JSON true and false, and floats even when integral, are no integers
    refuted = json.loads(certify(cycle_graph(6), G1).to_json())
    assert refuted["found_length"] == 6 and refuted["witness_walks"]
    for not_int in (True, False, 1.0, 2.5):
        for field, value in (
            ("k", not_int),
            ("found_length", not_int),
            ("witness_set", [0, not_int]),
            ("witness_walks", [[0, not_int]]),
            ("witness_walks", [[0, 1], [not_int]]),
        ):
            with pytest.raises(CertificateError):
                parse_certificate(json.dumps({**refuted, field: value}))

    with pytest.raises(CertificateError, match="does not parse"):
        verify_certificate(dataclasses.replace(certify(complete_graph(5), G1), graph6="!!"))


def test_report_shape():
    report = scan(ScanSpec(5, G1))
    assert isinstance(report, EmptinessReport)
    assert report.spec.n == 5
    assert report.wall_seconds >= 0.0
    assert report.total_examined == sum(report.pruned_per_rule.values()) + report.fully_decided
