import dataclasses
import json
import logging
from concurrent.futures import Executor, Future

import pytest

import hamclass.search as search
from hamclass.generate import generate_connected
from hamclass.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    petersen,
    write_graph6,
)
from hamclass.membership import DEFAULT_RULES, RULE_ORDER, ClassKind, ClassParams, bound_pipeline
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

G1 = ClassParams(1, ClassKind.GAMMA)
P1 = ClassParams(1, ClassKind.PI)


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
    strip = lambda r: dataclasses.replace(r, wall_seconds=0.0)
    assert strip(a) == strip(b) == strip(c)


def test_scan_one_chunk_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk scan started a process pool")

    spec = ScanSpec(10, G1, prune_rules=frozenset(RULE_ORDER))
    serial = scan(spec)
    assert serial.total_examined <= 256
    monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
    strip = lambda r: dataclasses.replace(r, wall_seconds=0.0)
    assert strip(scan(spec, workers=2)) == strip(serial)



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

    class InlineExecutor(Executor):
        def __init__(self, max_workers):
            pass

        def submit(self, fn, /, *args, **kwargs):
            future = RecordingFuture()
            future.set_result(fn(*args, **kwargs))
            return future

    monkeypatch.setattr(search, "ProcessPoolExecutor", InlineExecutor)
    report = scan(ScanSpec(5, G1, source="stream"), stream(), workers=workers)
    assert report.total_examined == chunks * 256
    assert report.pruned_per_rule["min_degree"] == chunks * 256
    assert len(taken) == chunks
    assert taken[0] <= (2 * workers + 1) * 256

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


def test_first_violated_rule_matches_bound_pipeline(connected_to_order_7):
    for graphs in connected_to_order_7.values():
        for g in graphs:
            for kind in ClassKind:
                for k in (1, 2):
                    params = ClassParams(k, kind)
                    for hs, rules in ((False, DEFAULT_RULES), (True, frozenset(RULE_ORDER))):
                        violated = bound_pipeline(g, params, holton_sheehan=hs).violated
                        first = next((r for r in RULE_ORDER if r in violated), None)
                        assert first_violated_rule(g, params, rules) == first


def test_stream_scan_serial_and_parallel_agree(connected_to_order_7):
    lines = [write_graph6(g) for g in connected_to_order_7[7]]
    lines.insert(100, "!!not-a-record")
    spec = ScanSpec(7, G1, source="stream")
    serial = scan(spec, lines, workers=1)
    parallel = scan(spec, lines, workers=2)
    assert serial.total_examined == 853 and serial.skipped_records == 1
    strip = lambda r: dataclasses.replace(r, wall_seconds=0.0)
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


def test_fabricated_member_certificate_rejected():
    k5 = complete_graph(5)
    walks = []
    for drop in range(5):
        walks.append(tuple(v for v in range(5) if v != drop))
    cert = Certificate(write_graph6(k5), ClassKind.GAMMA, 1, "member", None, 4, None, tuple(walks))
    # every per-deletion walk replays fine; only the exact length check can say no
    assert not verify_certificate(cert)


def test_tampered_certificates_fail():
    cert = certify(petersen(), G1)
    walks = list(cert.witness_walks)
    walks[0] = (0,) + walks[0][1:]
    assert not verify_certificate(dataclasses.replace(cert, witness_walks=tuple(walks)))
    assert not verify_certificate(dataclasses.replace(cert, verdict="refuted"))
    assert not verify_certificate(dataclasses.replace(cert, found_length=8))

    k5 = certify(complete_graph(5), G1)
    assert not verify_certificate(dataclasses.replace(k5, found_length=4))
    assert not verify_certificate(dataclasses.replace(k5, reason="bad_deletion_set"))

    star = certify(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), P1)
    assert not verify_certificate(dataclasses.replace(star, witness_set=(1,)))
    assert not verify_certificate(dataclasses.replace(star, witness_set=(0, 0)))
    assert not verify_certificate(dataclasses.replace(star, witness_set=(9,)))


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

    with pytest.raises(CertificateError, match="does not parse"):
        verify_certificate(dataclasses.replace(certify(complete_graph(5), G1), graph6="!!"))


def test_report_shape():
    report = scan(ScanSpec(5, G1))
    assert isinstance(report, EmptinessReport)
    assert report.spec.n == 5
    assert report.wall_seconds >= 0.0
    assert report.total_examined == sum(report.pruned_per_rule.values()) + report.fully_decided
