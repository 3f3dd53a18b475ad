import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamclass.attachment import (
    AttachmentConfig,
    ClaimIndexRecord,
    ConfigError,
    build_config,
    improvement_candidates,
    verify_claims,
)
from hamclass.graphs import Graph, petersen
from hamclass.membership import ClassKind
from hamclass.walks import (
    PathWitness,
    check_witness,
    circumference,
    detour_order,
)
from util import (
    complete_graph,
    consecutive_neighbor_check,
    cycle_graph,
    random_connected_graph,
    sparse_attachment_graph,
)

GAMMA = ClassKind.GAMMA
PI = ClassKind.PI


def circulant_c8_12() -> Graph:
    edges = []
    for i in range(8):
        edges.append((i, (i + 1) % 8))
        edges.append((i, (i + 2) % 8))
    return Graph.from_edges(8, edges)


def pi_fixture() -> Graph:
    spine = [(i, i + 1) for i in range(2, 9)]
    return Graph.from_edges(10, [(0, 1), (0, 4), (0, 5), (1, 4), (1, 7)] + spine)


def test_build_k5_order2():
    cfg = build_config(complete_graph(5), 2, GAMMA)
    assert cfg.path_p.vertices == (0, 1)
    assert cfg.spine.vertices == (2, 3, 4)
    assert cfg.attach_points == (2, 3, 4)
    assert cfg.eps == (1, 1, 1)
    assert cfg.d_pprime == (1, 1, 1)
    assert cfg.min_max_indices == ((1, 2), (1, 2), (1, 2))
    assert cfg.segments == ((), (), ())
    assert cfg.r == (0, 0, 0)
    assert cfg.k == 2 and cfg.kind is GAMMA and cfg.u1 == 0


def test_build_circulant_fixture():
    g = circulant_c8_12()
    cfg = build_config(g, 2, GAMMA)
    assert cfg.path_p.vertices == (0, 1)
    assert cfg.spine.vertices == (2, 3, 5, 7, 6, 4)
    assert cfg.attach_points == (2, 3, 7)
    assert cfg.eps == (1, 0, 1)
    assert cfg.d_pprime == (1, 1, 1)
    assert cfg.min_max_indices == ((1, 2), (2, 2), (1, 2))
    assert cfg.segments == ((), (5,), (6, 4))
    assert cfg.r == (0, 0, 1)

    report = verify_claims(cfg)
    bounds = [rec.required_bound for rec in report.per_index]
    assert bounds == [Fraction(3, 2), Fraction(3, 2), Fraction(4)]
    assert [rec.satisfied for rec in report.per_index] == [False, False, False]
    assert report.improvement is not None
    assert report.improvement.order == 8
    assert circumference(g)[0] == 8


def test_build_petersen_k1_degenerate():
    g = petersen()
    cfg = build_config(g, 1, GAMMA)
    assert cfg.path_p.vertices == (0,)
    assert len(cfg.spine.vertices) == 9
    assert sorted(cfg.attach_points) == [7, 8, 9]
    assert cfg.eps == (1, 1, 1)
    assert cfg.d_pprime == (0, 0, 0)
    assert cfg.min_max_indices == ((1, 1), (1, 1), (1, 1))
    assert sum(cfg.r) == 0
    assert sum(len(q) for q in cfg.segments) == 6

    report = verify_claims(cfg)
    assert report.per_index == ()
    assert report.improvement is None
    assert consecutive_neighbor_check(cfg) is None


def test_consecutive_insertion_in_k5():
    cfg = build_config(complete_graph(5), 1, GAMMA)
    assert cfg.spine.vertices == (1, 2, 3, 4)
    cyc = consecutive_neighbor_check(cfg)
    assert cyc is not None and cyc.order == 5
    assert cyc.vertices == (1, 0, 2, 3, 4)


def test_path_spine_insertion():
    cfg = build_config(pi_fixture(), 2, PI, u1=0)
    walk = consecutive_neighbor_check(cfg)
    # the head sees spine neighbours 4 and 5 and slots in between them
    assert isinstance(walk, PathWitness)
    assert walk.vertices == (2, 3, 4, 0, 5, 6, 7, 8, 9)
    assert walk.order == len(cfg.spine.vertices) + 1

    spine = [(i, i + 1) for i in range(2, 9)]
    apart = Graph.from_edges(10, [(0, 1), (0, 4), (0, 7), (1, 4), (1, 7)] + spine)
    cfg = build_config(apart, 2, PI, u1=0)
    assert cfg.attach_points == (4, 7)
    assert consecutive_neighbor_check(cfg) is None


def test_build_errors():
    with pytest.raises(ConfigError, match="induced path"):
        build_config(complete_graph(5), 3, GAMMA)
    with pytest.raises(ConfigError, match="spanning cycle"):
        build_config(cycle_graph(6), 2, GAMMA)
    with pytest.raises(ConfigError, match="endpoint"):
        build_config(cycle_graph(6), 1, PI)
    with pytest.raises(ConfigError, match="whole graph"):
        build_config(complete_graph(2), 2, GAMMA)
    with pytest.raises(ValueError, match="positive"):
        build_config(petersen(), 0, GAMMA)
    with pytest.raises(ValueError, match="ClassKind"):
        build_config(petersen(), 1, "gamma")
    with pytest.raises(ValueError, match="outside"):
        build_config(petersen(), 1, GAMMA, u1=10)

    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(ConfigError):
        build_config(star, 1, GAMMA)


def test_build_attach_floor():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 5)])
    with pytest.raises(ConfigError, match="attach points"):
        build_config(g, 2, GAMMA, u1=0)
    h = Graph.from_edges(5, [(0, 1), (1, 3), (2, 3), (3, 4)])
    with pytest.raises(ConfigError, match="attach points"):
        build_config(h, 2, PI, u1=0)


def test_build_is_deterministic():
    for g, k, kind in [
        (petersen(), 1, GAMMA),
        (complete_graph(6), 2, GAMMA),
        (circulant_c8_12(), 2, GAMMA),
        (pi_fixture(), 2, PI),
    ]:
        a = build_config(g, k, kind) if kind is GAMMA else build_config(g, k, kind, u1=0)
        b = build_config(g, k, kind) if kind is GAMMA else build_config(g, k, kind, u1=0)
        assert a == b


def test_k6_every_gap_violated():
    g = complete_graph(6)
    cfg = build_config(g, 2, GAMMA)
    report = verify_claims(cfg)
    assert len(report.per_index) == 4
    for rec in report.per_index:
        assert rec.segment_size == 0
        assert rec.required_bound == 2
        assert not rec.satisfied
    assert report.improvement is not None and report.improvement.order == 6
    assert report.edge_count_pprime_spine == 4
    assert report.edge_count_lower_bound == 3
    assert not report.degree_chain_holds

    cyc = consecutive_neighbor_check(cfg)
    assert cyc is not None and cyc.vertices == (2, 0, 3, 4, 5)


def test_pi_fixture_claims():
    g = pi_fixture()
    cfg = build_config(g, 2, PI, u1=0)
    assert cfg.path_p.vertices == (0, 1)
    assert cfg.spine.vertices == tuple(range(2, 10))
    assert cfg.attach_points == (4, 7)
    assert cfg.eps == (1, 0)
    assert cfg.d_pprime == (1, 1)
    assert cfg.min_max_indices == ((1, 2), (2, 2))
    assert cfg.segments == ((2, 3), (5, 6), (8, 9))
    assert cfg.r == (0, 1, 0)

    hand = AttachmentConfig(
        g,
        PathWitness((0, 1)),
        PathWitness(tuple(range(2, 10))),
        (4, 7),
        (1, 0),
        (1, 1),
        ((2, 3), (5, 6), (8, 9)),
        (0, 1, 0),
        ((1, 2), (2, 2)),
    )
    assert cfg == hand

    report = verify_claims(cfg)
    assert report.per_index == (
        ClaimIndexRecord(0, 2, Fraction(2), True),
        ClaimIndexRecord(1, 2, Fraction(7, 2), False),
        ClaimIndexRecord(2, 2, Fraction(3, 2), True),
    )
    assert report.improvement is not None and report.improvement.order == 10
    assert detour_order(g)[0] == 10
    assert report.edge_count_pprime_spine == 2
    assert report.edge_count_lower_bound == 2
    assert not report.degree_chain_holds


def test_post_init_rejects_malformed():
    g = pi_fixture()
    spine = PathWitness(tuple(range(2, 10)))
    with pytest.raises(ValueError, match="disagree on s"):
        AttachmentConfig(
            g, PathWitness((0, 1)), spine, (4, 7), (1,), (1, 1),
            ((2, 3), (5, 6), (8, 9)), (0, 1, 0), ((1, 2), (2, 2)),
        )
    with pytest.raises(ValueError, match="segment count"):
        AttachmentConfig(
            g, PathWitness((0, 1)), spine, (4, 7), (1, 0), (1, 1),
            ((2, 3), (5, 6)), (0, 1), ((1, 2), (2, 2)),
        )
    with pytest.raises(ValueError, match="cover the spine"):
        AttachmentConfig(
            g, PathWitness((0, 1)), spine, (4, 7), (1, 0), (1, 1),
            ((2, 3), (5,), (8, 9)), (0, 1, 0), ((1, 2), (2, 2)),
        )


def test_kind_and_index_guards():
    """One index guard serves both spine kinds: s gaps on a cycle, s + 1
    segments on a path."""
    gcfg = build_config(complete_graph(6), 2, GAMMA)
    pcfg = build_config(pi_fixture(), 2, PI, u1=0)
    with pytest.raises(ValueError, match="index"):
        improvement_candidates(gcfg, 4)
    with pytest.raises(ValueError, match="index"):
        improvement_candidates(pcfg, 3)
    with pytest.raises(ValueError, match="index"):
        improvement_candidates(pcfg, -1)


# sha256 over repr((report, candidates of every segment, insertion cycle))
# for every config of every connected graph of order 1..7, k in 1..3 and
# both classes, with the number of configs built. The insertion walk is
# pinned for cycle spines; test_path_spine_insertion covers path spines.
CLAIMS_PIN = ("d7354913eb9f054f4c17bbd0a3b252be7b1b1abad8cad142b04dd135d9956360", 316)


def test_claims_pinned(corpus):
    digest = hashlib.sha256()
    built = 0
    for n in range(1, 8):
        for g in corpus[n]:
            for k in (1, 2, 3):
                for kind in (GAMMA, PI):
                    try:
                        cfg = build_config(g, k, kind)
                    except ConfigError:
                        continue
                    built += 1
                    report = verify_claims(cfg)
                    cands = [improvement_candidates(cfg, j) for j in range(len(cfg.segments))]
                    insertion = consecutive_neighbor_check(cfg) if kind is GAMMA else None
                    digest.update(repr((report, cands, insertion)).encode() + b"\n")
    assert (digest.hexdigest(), built) == CLAIMS_PIN


def head_degree_identity(cfg: AttachmentConfig) -> bool:
    base = 1 if cfg.k >= 2 else 0
    return cfg.graph.degree(cfg.u1) == base + sum(cfg.r) + sum(cfg.eps)


def pprime_spine_edges(cfg: AttachmentConfig) -> int:
    spine = set(cfg.spine.vertices)
    total = 0
    for u in cfg.path_p.vertices[1:]:
        total += sum(1 for v in cfg.graph.neighbors(u) if v in spine)
    return total


def test_accounting_identities_on_random_corpus():
    rng = random.Random(1723)
    built = 0
    violated = 0
    while built < 60:
        n = rng.randrange(6, 12)
        g = random_connected_graph(rng, n, 0.35 + 0.55 * rng.random())
        k = rng.choice((2, 2, 3))
        kind = rng.choice((GAMMA, PI))
        try:
            cfg = build_config(g, k, kind)
        except ConfigError:
            continue
        built += 1
        assert head_degree_identity(cfg)
        report = verify_claims(cfg)
        assert report.edge_count_pprime_spine == pprime_spine_edges(cfg)
        for rec in report.per_index:
            assert rec.satisfied == (rec.segment_size >= rec.required_bound)
        target = g.n - k
        exact = circumference(g)[0] if kind is GAMMA else detour_order(g)[0]
        if report.improvement is not None:
            violated += 1
            check_witness(g, report.improvement)
            assert report.improvement.order > target
            assert exact > target
        if exact == target:
            assert all(rec.satisfied for rec in report.per_index)
    assert violated >= 10


def test_sparse_attachment_family_is_clean():
    cases = [
        (9, (0, 3, 6), GAMMA),
        (10, (0, 4, 7), GAMMA),
        (10, (2, 5, 7), PI),
        (9, (2, 4, 6), PI),
    ]
    for m, cuts, kind in cases:
        g = sparse_attachment_graph(m, cuts, kind)
        cfg = build_config(g, 2, kind, u1=0)
        report = verify_claims(cfg)
        assert all(rec.satisfied for rec in report.per_index)
        assert report.improvement is None
        exact = circumference(g)[0] if kind is GAMMA else detour_order(g)[0]
        assert exact == m == g.n - 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_gamma_violation_always_yields_longer_cycle(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 10)
    g = random_connected_graph(rng, n, 0.4 + 0.5 * rng.random())
    try:
        cfg = build_config(g, 2, GAMMA)
    except ConfigError:
        return
    report = verify_claims(cfg)
    if any(not rec.satisfied for rec in report.per_index):
        assert report.improvement is not None
        check_witness(g, report.improvement)
        assert circumference(g)[0] >= report.improvement.order > n - 2
