import os
import random
import re
import subprocess
import sys
import threading
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamclass import graphs
from hamclass.generate import generate_connected
from hamclass.graphs import (
    Graph,
    Graph6Error,
    closure_mask,
    degree_profile,
    induced_subgraph,
    is_connected,
    joined,
    parse_graph6,
    petersen,
    vertex_connectivity,
    write_graph6,
)
from util import (
    brute_connectivity,
    code_calls,
    complete_bipartite,
    complete_graph,
    connectivity_below_reference,
    cycle_graph,
    is_induced_path,
    path_graph,
    random_connected_graph,
    random_graph,
    random_relabel,
    ref_graph6_decode,
    ref_graph6_encode,
)


def test_graph_invariants_rejected():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(65, tuple([0] * 65))
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # loop at 0
    with pytest.raises(ValueError):
        Graph(2, (0b110, 0b001))  # bit above n-1
    with pytest.raises(ValueError, match="adjacency row count does not match order"):
        Graph(3, (0, 0))
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph.from_edges(3, [(1, 1)])
    for edge, text in (((0, 3), "edge (0,3) outside 0..2"), ((-1, 0), "edge (-1,0) outside 0..2")):
        with pytest.raises(ValueError, match=re.escape(text)):
            Graph.from_edges(3, [edge])


def test_from_edges_petersen_shape():
    g = petersen()
    assert g.n == 10
    assert all(g.degree(v) == 3 for v in range(10))
    assert g.edge_count() == 15


# graph6 expectations frozen from the reference codec


def test_parse_known_record_star():
    # reference decode of "D?{" gives the 5-vertex star centered at 4
    n, edges = ref_graph6_decode("D?{")
    assert n == 5 and edges == {(0, 4), (1, 4), (2, 4), (3, 4)}
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == sorted(edges)
    assert write_graph6(g) == "D?{"


def test_single_vertex_roundtrip():
    g = parse_graph6("@")
    assert g.n == 1 and g.adj == (0,)
    assert write_graph6(g) == "@"


def test_header_is_stripped():
    g = parse_graph6(">>graph6<<D?{")
    assert g.n == 5


def test_bytes_accepted():
    assert parse_graph6(b"D?{").n == 5


def test_reference_codec_agreement_small():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        rec = ref_graph6_encode(n, set(g.edges()))
        assert write_graph6(g) == rec
        assert parse_graph6(rec).adj == g.adj


def test_long_form_orders_63_64():
    rng = random.Random(11)
    for n in (63, 64):
        g = random_graph(rng, n, 0.2)
        rec = write_graph6(g)
        assert rec.startswith("~")
        assert rec == ref_graph6_encode(n, set(g.edges()))
        back = parse_graph6(rec)
        assert back.n == n and back.adj == g.adj


# Each malformed record with the text of its Graph6Error, frozen from the
# codec that decoded one vertex pair at a time. After each record come one
# with a non-ASCII character in the body (or in place of it) and a bytes
# record that is not ASCII. The checks run in a fixed order: the order
# prefix, the length, the first bad byte, the padding.
MALFORMED = [
    ("", "empty record"),
    ("\xe9", "byte 233 outside graph6 range"),
    (b"\xff", "record is not ascii"),
    ("?", "order 0 not supported"),  # order 0
    ("?\xe9", "order 0 not supported"),
    (b"?\xff", "record is not ascii"),
    ("D?", "expected 2 edge bytes for order 5, got 1"),  # truncated body
    ("D\xe9", "expected 2 edge bytes for order 5, got 1"),
    (b"D?\xff", "record is not ascii"),
    ("D?{{", "expected 2 edge bytes for order 5, got 3"),  # trailing bytes
    ("D?{\xe9", "expected 2 edge bytes for order 5, got 3"),
    (b"D?{{\xff", "record is not ascii"),
    ("D?}", "set bit in padding"),  # stray padding bit
    ("D?\u20ac", "byte 8364 outside graph6 range"),
    (b"D?}\xff", "record is not ascii"),
    ("D\x1f{", "byte 31 outside graph6 range"),  # byte below 63
    ("D\x1f\xe9", "byte 31 outside graph6 range"),
    (b"D\x1f{\xff", "record is not ascii"),
    ("~??@" + "?" * 326, "non-minimal length prefix"),  # n=1 in long form
    ("~??@" + "?" * 325 + "\xe9", "non-minimal length prefix"),
    (b"~??@" + b"?" * 326 + b"\xff", "record is not ascii"),
    ("~~????", "8-byte length prefix implies order above 64"),
    ("~~???\xe9", "8-byte length prefix implies order above 64"),
    (b"~~????\xff", "record is not ascii"),
    ("D\xe9{", "byte 233 outside graph6 range"),
    ("D?\x7f", "byte 127 outside graph6 range"),
    ("~?\xe9", "truncated long-form length prefix"),
    ("~?!@", "byte 33 outside graph6 range"),  # bad byte in the long-form prefix
    ("~?@@", "order 65 above supported maximum 64"),
    (b"D?}", "set bit in padding"),
]


def test_malformed_records_rejected():
    for record, text in MALFORMED:
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(record)
        assert str(exc.value) == text, record


def test_codec_matches_reference_at_every_order():
    # every order the codec supports, sparse and dense, both ways
    rng = random.Random(167)
    for n in range(1, 65):
        for p in (0.05, 0.5, 0.95):
            g = random_graph(rng, n, p)
            rec = ref_graph6_encode(n, set(g.edges()))
            assert write_graph6(g) == rec
            h = parse_graph6(rec)
            assert (h.n, set(h.edges())) == ref_graph6_decode(rec)


def test_parse_graph6_equals_checked_graph():
    # the decoder skips the Graph checks, so every record must decode to
    # what the checked constructor accepts and to the graph it encodes
    rng = random.Random(157)
    for n in range(1, 65):
        for _ in range(3):
            g = random_graph(rng, n, rng.random())
            h = parse_graph6(ref_graph6_encode(n, set(g.edges())))
            assert h == Graph(h.n, h.adj) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.randoms(use_true_random=False))
def test_roundtrip_random(n, rnd):
    g = random_graph(rnd, n, 0.4)
    assert parse_graph6(write_graph6(g)).adj == g.adj


def test_every_padding_bit_is_refused():
    # each order's padding is the low 6 * nbytes - nbits bits of its last
    # digit; order 1 has no digits and so no padding
    rng = random.Random(173)
    for n in range(1, 65):
        nbits = n * (n - 1) // 2
        nbytes = (nbits + 5) // 6
        rec = write_graph6(random_graph(rng, n, 0.5))
        for b in range(6 * nbytes - nbits):
            stray = rec[:-1] + chr(ord(rec[-1]) + (1 << b))
            with pytest.raises(Graph6Error, match="^set bit in padding$"):
                parse_graph6(stray)


@pytest.fixture
def cleared_tables():
    """The decoder's digit tables as a fresh import leaves them: none built."""
    graphs._digit_tables.cache_clear()
    graphs._order_decoder.cache_clear()
    yield
    graphs._digit_tables.cache_clear()
    graphs._order_decoder.cache_clear()


def test_tables_grow_to_the_largest_order_in_any_order(cleared_tables):
    # the tables are shared by every order: a large order first builds
    # tables that a smaller one then reuses, and a larger one adds to them
    rng = random.Random(179)
    for n in (34, 10, 64, 2, 63, 17):
        for p in (0.1, 0.5, 0.9):
            rec = write_graph6(random_graph(rng, n, p))
            h = parse_graph6(rec)
            assert (h.n, set(h.edges())) == ref_graph6_decode(rec)


def test_tables_built_by_two_threads_at_once(cleared_tables):
    rng = random.Random(181)
    records = {n: [write_graph6(random_graph(rng, n, p)) for p in (0.1, 0.5, 0.9)] for n in (40, 64)}
    start = threading.Barrier(len(records))
    got = {}

    def decode(n):
        start.wait()
        got[n] = [parse_graph6(rec) for rec in records[n]]

    threads = [threading.Thread(target=decode, args=(n,)) for n in records]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(got) == sorted(records)
    for n, recs in records.items():
        assert [(h.n, set(h.edges())) for h in got[n]] == list(map(ref_graph6_decode, recs))


def test_tables_are_built_only_when_parsed():
    # in a fresh process: importing builds no table, and order-12 records
    # (66 pairs, 11 digits) build exactly the tables of digits 0..10
    src = str(Path(graphs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = """
import hamclass
from hamclass import graphs
sizes = [graphs._digit_tables.cache_info().currsize, graphs._order_decoder.cache_info().currsize]
for rec in ("KzKWWKB?[@wB", "K??????????w", "K~~~~~~~~~~w"):
    graphs.parse_graph6(rec)
print(sizes, graphs._digit_tables.cache_info().currsize)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] 11"


def test_degree_profile_examples():
    assert degree_profile(petersen()) == degree_profile(petersen())
    prof = degree_profile(petersen())
    assert prof.min_degree == prof.max_degree == 3
    assert prof.degree_sequence == (3,) * 10
    p4 = path_graph(4)
    assert degree_profile(p4).degree_sequence == (1, 1, 2, 2)


def test_petersen_minus_vertex_degrees():
    g = petersen()
    h = induced_subgraph(g, [v for v in range(10) if v != 0])
    assert degree_profile(h).degree_sequence == (2, 2, 2, 3, 3, 3, 3, 3, 3)


def test_connectivity_examples():
    assert vertex_connectivity(petersen()) == 3
    assert vertex_connectivity(complete_graph(5)) == 4
    assert vertex_connectivity(path_graph(4)) == 1
    assert vertex_connectivity(cycle_graph(6)) == 2
    assert vertex_connectivity(complete_bipartite(3, 5)) == 3
    two_parts = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert vertex_connectivity(two_parts) == 0
    with pytest.raises(ValueError):
        vertex_connectivity(Graph(1, (0,)))


def test_connectivity_against_brute_force():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.random())
        want = brute_connectivity(g)
        assert vertex_connectivity(g) == want
        for t in range(n + 1):
            assert vertex_connectivity(g, at_most=t) == min(want, t)
    for n in range(2, 8):
        for g in generate_connected(n):
            want = brute_connectivity(g)
            assert vertex_connectivity(g) == want
            for t in range(n + 1):
                assert vertex_connectivity(g, at_most=t) == min(want, t)
    with pytest.raises(ValueError):
        vertex_connectivity(petersen(), at_most=-1)


def _joined_circulants(a: int, b: int, s: int, rng: random.Random) -> Graph:
    """C_a(1,2) on 0..a-1 and C_b(1,2) on a..a+b-1, joined only through the
    s vertices after them, each adjacent to three vertices of either side.

    Both circulants are 4-connected, so for s < 4 the joining vertices are
    the only cut of s vertices and no smaller cut exists.
    """
    edges = []
    for start, m in ((0, a), (a, b)):
        edges += [(start + i, start + (i + d) % m) for i in range(m) for d in (1, 2)]
        for x in range(a + b, a + b + s):
            edges += [(x, start + v) for v in rng.sample(range(m), 3)]
    return Graph.from_edges(a + b + s, edges)


def test_connectivity_below_matches_reference():
    # the reference tries one closure per cut; min(reference at 6, t) is
    # min(connectivity, t) for every t <= 6. Dense graphs above order 16
    # make the reference try every cut, so fewer of them are drawn.
    rng = random.Random(151)
    graphs = [
        random_graph(rng, n, rng.random())
        for n in range(2, 25)
        for _ in range(12 if n <= 16 else 4)
    ]
    for s in (2, 3):
        for _ in range(6):
            a, b = rng.randint(5, 10), rng.randint(5, 10)
            graphs.append(random_relabel(_joined_circulants(a, b, s, rng), rng))
    # the cut is the last vertices, so its lane is the last of the last,
    # partial block of its size (C(n, 2) and C(n, 3) are not multiples of
    # the block width)
    planted = [_joined_circulants(30, n - 30 - s, s, rng) for n, s in ((63, 2), (64, 2), (64, 3))]
    wants = []
    for g in graphs + planted:
        want = connectivity_below_reference(g, 6)
        wants.append(want)
        for t in range(7):
            assert vertex_connectivity(g, at_most=t) == min(want, t)
    assert set(wants) == {0, 1, 2, 3, 4, 5, 6}
    assert wants[-3:] == [2, 2, 3]


def _unpack(packed: int, width: int, count: int) -> list[int]:
    return [packed >> (i * width) & ((1 << width) - 1) for i in range(count)]


def test_lane_blocks_hold_every_cut_once_by_size(monkeypatch):
    # a width of 7 makes blocks start inside a size and straddle the size
    # boundaries; a complete graph has no cut, so its floor test builds
    # every block of (n, t)
    monkeypatch.setattr(graphs, "_LANE_BLOCK", 7)
    graphs._lane_blocks.cache_clear()
    try:
        for n in range(2, 10):
            full = (1 << n) - 1
            for t in range(n):
                assert vertex_connectivity(complete_graph(n), at_most=t) == t
                blocks, cuts = graphs._lane_blocks(n, t)
                assert next(cuts, None) is None
                got, sizes = [], []
                for rests, seeds, ones, block_sizes, seed_columns in blocks:
                    count = len(block_sizes)
                    assert 0 < count <= 7
                    lanes = _unpack(rests, n, count)
                    assert rests >> (count * n) == 0
                    lows = _unpack(seeds, n, count)
                    assert lows == [rest & -rest for rest in lanes]
                    assert _unpack(ones, n, count) == [1] * count
                    # each first-round column holds exactly the lanes
                    # seeded by its vertex, and every lane has one
                    seeders = [v for v, _ in seed_columns]
                    assert seeders == sorted({low.bit_length() - 1 for low in lows})
                    for v, col in seed_columns:
                        assert _unpack(col, n, count) == [int(low == 1 << v) for low in lows]
                    assert sum(col for _, col in seed_columns) == ones
                    assert list(block_sizes) == [n - rest.bit_count() for rest in lanes]
                    got += lanes
                    sizes += block_sizes
                assert [len(b[3]) for b in blocks[:-1]] == [7] * (len(blocks) - 1)
                want = [
                    full ^ sum(cut)
                    for size in range(t)
                    for cut in combinations([1 << v for v in range(n)], size)
                ]
                assert sorted(got) == sorted(want) and len(set(got)) == len(got), (n, t)
                assert sizes == sorted(sizes), (n, t)
    finally:
        graphs._lane_blocks.cache_clear()


def test_lane_blocks_are_built_only_when_reached(monkeypatch):
    # at width 7 the first block of (8, 3) holds the empty cut and the
    # single vertices 0..5, the second the vertices 6 and 7 and five pairs
    monkeypatch.setattr(graphs, "_LANE_BLOCK", 7)
    graphs._lane_blocks.cache_clear()
    try:
        blocks, _ = graphs._lane_blocks(8, 3)
        assert vertex_connectivity(path_graph(8), at_most=3) == 1
        assert len(blocks) == 1
        first = blocks[0]
        # vertex 6 is the only cut vertex, in the second block
        tailed = Graph.from_edges(8, [(i, j) for i in range(7) for j in range(i + 1, 7)] + [(6, 7)])
        assert vertex_connectivity(tailed, at_most=3) == 1
        assert len(blocks) == 2 and blocks[0] is first
        assert vertex_connectivity(path_graph(8), at_most=3) == 1
        assert len(blocks) == 2 and blocks[0] is first
    finally:
        graphs._lane_blocks.cache_clear()


def test_lane_blocks_are_built_once_per_order():
    # the floor test at t = 3 of C_n(1,2)-plus-chords records of orders 12,
    # 14 and 16: 1 + n + C(n, 2) cuts fit in one block, built by the first
    # record of each order and reused by the rest
    rng = random.Random(181)
    records = []
    for n in (12, 14, 16):
        ring = [(i, (i + d) % n) for i in range(n) for d in (1, 2)]
        chords = [p for p in combinations(range(n), 2) if p not in ring and p[::-1] not in ring]
        for _ in range(8):
            records.append(random_relabel(Graph.from_edges(n, ring + rng.sample(chords, n // 2)), rng))
    graphs._lane_blocks.cache_clear()
    try:
        calls = code_calls(lambda: [vertex_connectivity(g, at_most=3) for g in records], graphs)
    finally:
        graphs._lane_blocks.cache_clear()
    assert calls["_connectivity_below"] == len(records)
    assert calls["_lane_block"] == 3


def test_interrupted_lane_block_build_is_not_kept(monkeypatch):
    # a build that raises has taken its cuts from the stream, so the next
    # call must start (n, t) afresh rather than go on without them. Vertex
    # 1, in the first block, is the only cut vertex; every later pair
    # {1, x} with x > 1 cuts 0 off.
    monkeypatch.setattr(graphs, "_LANE_BLOCK", 7)
    graphs._lane_blocks.cache_clear()
    build = graphs._lane_block

    def interrupted(cuts, n):
        raise KeyboardInterrupt

    g = Graph.from_edges(8, [(i, j) for i in range(1, 8) for j in range(i + 1, 8)] + [(0, 1)])
    try:
        monkeypatch.setattr(graphs, "_lane_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            vertex_connectivity(g, at_most=3)
        monkeypatch.setattr(graphs, "_lane_block", build)
        assert vertex_connectivity(g, at_most=3) == 1
    finally:
        graphs._lane_blocks.cache_clear()


def test_connectivity_below_narrow_blocks_match_reference(monkeypatch):
    # all cut sizes share one packed closure and the answer is the size of
    # the lowest lane left cut apart, so every t <= 6 must agree with the
    # one-closure-per-cut reference when blocks of 7 lanes straddle the
    # size boundaries (test_connectivity_below_matches_reference runs the
    # full width); at orders 63 and 64, t = 3 takes 298 blocks
    monkeypatch.setattr(graphs, "_LANE_BLOCK", 7)
    graphs._lane_blocks.cache_clear()
    try:
        rng = random.Random(173)
        drawn = [random_graph(rng, n, rng.random()) for n in range(2, 21) for _ in range(6)]
        drawn += [random_connected_graph(rng, n, 0.25) for n in range(2, 21) for _ in range(2)]
        for g in drawn:
            for t in range(7):
                want = connectivity_below_reference(g, t)
                assert vertex_connectivity(g, at_most=t) == want, (write_graph6(g), t)
        for n, s in ((63, 2), (64, 2), (63, 1), (64, 0)):
            g = random_relabel(_joined_circulants(30, n - 30 - s, s, rng), rng)
            assert vertex_connectivity(g, at_most=3) == s
        c64 = Graph.from_edges(64, [(i, (i + d) % 64) for i in range(64) for d in (1, 2)])
        assert vertex_connectivity(c64, at_most=3) == 3
    finally:
        graphs._lane_blocks.cache_clear()


def test_connectivity_monotone_under_edge_addition():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, 0.4)
        non_edges = [
            (u, v) for u, v in combinations(range(n), 2) if not g.adj[u] >> v & 1
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        g2 = Graph.from_edges(n, g.edges() + [(u, v)])
        assert vertex_connectivity(g2) >= vertex_connectivity(g)


def test_induced_subgraph_relabels_in_order():
    g = path_graph(5)
    h = induced_subgraph(g, [4, 0, 1])
    # kept vertices 0,1,4 become 0,1,2; only the 0-1 edge survives
    assert h.n == 3
    assert sorted(h.edges()) == [(0, 1)]
    with pytest.raises(ValueError):
        induced_subgraph(g, [])
    with pytest.raises(ValueError):
        induced_subgraph(g, [9])
    with pytest.raises(ValueError):
        induced_subgraph(g, [-1, 0])


def test_induced_subgraph_refuses_masks_outside_the_graph(monkeypatch):
    # bits() of a negative mask never runs out of set bits, so a negative
    # mask must be refused before bits() sees it, not by running out of memory
    real_bits = graphs.bits

    def checked_bits(mask):
        assert mask >= 0, "bits() was given a negative mask"
        return real_bits(mask)

    monkeypatch.setattr(graphs, "bits", checked_bits)
    g = petersen()
    for keep in (-1, -(1 << g.n), 1 << g.n, g.vertex_mask | 1 << g.n):
        with pytest.raises(ValueError):
            induced_subgraph(g, keep)
    assert induced_subgraph(g, g.vertex_mask) == g


def test_induced_subgraph_equals_checked_graph():
    # the result skips the Graph checks, so it must be what the checked
    # constructor accepts and what the edges of g among the kept vertices give
    rng = random.Random(149)
    for _ in range(500):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.random())
        keep = sorted(rng.sample(range(n), rng.randint(1, n)))
        h = induced_subgraph(g, keep if rng.random() < 0.5 else sum(1 << v for v in keep))
        assert h == Graph(h.n, h.adj)
        index = {v: i for i, v in enumerate(keep)}
        edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
        assert h == Graph.from_edges(len(keep), edges)


def test_is_induced_path():
    c6 = cycle_graph(6)
    assert is_induced_path(c6, [0, 1, 2, 3])
    assert is_induced_path(c6, [5, 0, 1])
    # non-adjacent consecutive pair
    assert not is_induced_path(c6, [0, 2, 4])
    # cycle closure makes the whole C6 non-induced as a path
    assert not is_induced_path(c6, [0, 1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        is_induced_path(c6, [0, 1, 0])
    with pytest.raises(ValueError):
        is_induced_path(c6, [0, 9])


def test_is_connected():
    assert is_connected(petersen())
    assert not is_connected(Graph.from_edges(3, [(0, 1)]))
    assert is_connected(Graph(1, (0,)))


def test_joined_matches_closure():
    # the early-exit search answers what one closure from the lowest target
    # answers, for targets inside and outside `allowed`
    rng = random.Random(163)
    for _ in range(3000):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        allowed = rng.getrandbits(n)
        targets = rng.getrandbits(n) & (allowed if rng.random() < 0.7 else g.vertex_mask)
        want = closure_mask(g.adj, allowed, targets & -targets) & targets == targets
        assert joined(g.adj, allowed, targets) == want, (write_graph6(g), allowed, targets)


def test_joined_cases():
    # two triangles {0, 1, 2} and {3, 4, 5}
    adj = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).adj
    assert not joined(adj, 0, 0b1)
    assert joined(adj, 0, 0)
    assert joined(adj, 0b111111, 0)
    assert joined(adj, 0b111111, 0b1000)
    assert not joined(adj, 0b110111, 0b1000)
    assert joined(adj, 0b111111, 0b101)
    assert not joined(adj, 0b111111, 0b1001)
    # 0 and 2 are joined through 1 only
    assert not joined(path_graph(3).adj, 0b101, 0b101)
    assert joined(path_graph(3).adj, 0b111, 0b101)
    # a set is connected iff it is joined to itself
    g = petersen()
    assert joined(g.adj, g.vertex_mask, g.vertex_mask)
    rest = g.vertex_mask ^ g.adj[0]  # 0 without its neighbours is isolated
    assert not joined(g.adj, rest, rest)
    assert joined(g.adj, rest ^ 1, rest ^ 1)
