"""Small-graph primitives: bitmask adjacency, graph6 codec, connectivity.

Vertices are 0-indexed ints. Adjacency is stored as one int bitmask per
vertex, which keeps neighborhood intersections and subset tests cheap for
the exhaustive searches built on top. Orders up to 64 are supported so a
row always fits in a single machine word on CPython.

The graph6 codec leaves the bit packing to C string operations. Its
digits 63..126 are the base64 alphabet shifted, so one byte translation
and `binascii` turn a record body into bytes, and reversing the bits of
each byte and reading them little-endian puts the p-th vertex pair of the
column-major upper triangle at bit p of one integer. Column j, the pairs
(i, j) with i < j, is then one shift and mask: the row of j below the
diagonal. The rows above it are set with one step per edge. Writing runs
the same steps backwards. A record is checked in a fixed order, each with
its own message: the order prefix, the length, the first byte outside
63..126, and the padding bits.

The connectivity floor `vertex_connectivity(g, at_most=t)` tries every
cut of fewer than t vertices in one packed closure. The vertex set each
cut leaves sits in its own n-bit lane of one integer, lanes ordered by
cut size and, within a size, in the order `itertools.combinations`
gives, and one breadth-first search grows all lanes at once, n shifts
and multiplies per round whatever the lane count. A lane left with
unreached vertices is cut apart, so the smallest cut is the stored size
of the lowest such lane. Blocks of `_LANE_BLOCK` lanes bound the
integers. Each (n, t) keeps one cached sequence of blocks, taken in
order from one lazy stream of cuts: a block is built when a call first
reaches it, so none is built past the one that answers.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, count, islice
from typing import Iterable, Iterator

MAX_ORDER = 64

GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """A record that does not decode to a supported simple graph."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_ORDER:
            raise ValueError(f"order {self.n} outside supported range 1..{MAX_ORDER}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match order")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits at or above vertex {self.n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            for u in bits(row):
                out.append((v, v + 1 + u))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1


def trusted_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph built without the `__post_init__` checks.

    For callers whose rows are valid by construction (symmetric, loop-free,
    inside 0..n-1), such as the generator growing a checked parent by one
    vertex; the checks cost more than the rest of building a child.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


@dataclass(frozen=True)
class DegreeProfile:
    min_degree: int
    max_degree: int
    degree_sequence: tuple[int, ...]


def degree_profile(g: Graph) -> DegreeProfile:
    seq = tuple(sorted(row.bit_count() for row in g.adj))
    return DegreeProfile(seq[0], seq[-1], seq)


# ---------------------------------------------------------------------------
# graph6


def _parse_order(body: str) -> tuple[int, int]:
    """Return (order, number of prefix chars consumed)."""
    c0 = ord(body[0])
    if not 63 <= c0 <= 126:
        raise Graph6Error(f"byte {c0} outside graph6 range")
    if c0 != 126:
        n = c0 - 63
        if n == 0:
            raise Graph6Error("order 0 not supported")
        return n, 1
    # long form: '~' then three 6-bit digits (orders 63..258047); we cap at 64
    if len(body) < 4:
        raise Graph6Error("truncated long-form length prefix")
    if ord(body[1]) == 126:
        raise Graph6Error("8-byte length prefix implies order above 64")
    n = 0
    for ch in body[1:4]:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} outside graph6 range")
        n = n << 6 | (c - 63)
    if n < 63:
        raise Graph6Error("non-minimal length prefix")
    if n > MAX_ORDER:
        raise Graph6Error(f"order {n} above supported maximum {MAX_ORDER}")
    return n, 4


# graph6 digits are the bytes 63..126 holding the values 0..63, in the
# order of the base64 alphabet, so binascii does the 6-bit packing
_GRAPH6_DIGITS = bytes(range(63, 127))
_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6_DIGITS, _BASE64_DIGITS)
_TO_GRAPH6 = bytes.maketrans(_BASE64_DIGITS, _GRAPH6_DIGITS)
# each byte with its bits in reverse order
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def parse_graph6(record: str | bytes) -> Graph:
    """Decode one graph6 record, with or without the >>graph6<< header."""
    if isinstance(record, bytes):
        try:
            record = record.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6Error("record is not ascii") from exc
    record = record.strip()
    if record.startswith(GRAPH6_HEADER):
        record = record[len(GRAPH6_HEADER):]
    if not record:
        raise Graph6Error("empty record")
    n, used = _parse_order(record)
    body = record[used:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise Graph6Error(f"expected {nbytes} edge bytes for order {n}, got {len(body)}")
    digits = body.encode("ascii") if body.isascii() else None
    if digits is None or digits.translate(None, _GRAPH6_DIGITS):
        # the first character outside 63..126, in record order
        c = next(ord(ch) for ch in body if not 63 <= ord(ch) <= 126)
        raise Graph6Error(f"byte {c} outside graph6 range")
    # base64 takes groups of four digits; the zero digits added run past
    # the padding, so they are checked with it
    raw = a2b_base64(digits.translate(_TO_BASE64) + b"A" * (-nbytes % 4))
    # bit p is the p-th pair of the column-major upper triangle
    pairs = int.from_bytes(raw.translate(_REVERSED_BITS), "little")
    if pairs >> nbits:
        raise Graph6Error("set bit in padding")
    # column j, the row of j below the diagonal, starts at bit j(j-1)/2
    rows = [0] * n
    for j in range(1, n):
        low = pairs >> (j * (j - 1) // 2) & ((1 << j) - 1)
        rows[j] = low
        bit = 1 << j
        while low:
            i = low & -low
            rows[i.bit_length() - 1] |= bit
            low ^= i
    # _parse_order bounds n, and each pair sets both of its bits, never
    # one on the diagonal
    return trusted_graph(n, tuple(rows))


def write_graph6(g: Graph) -> str:
    """Encode to the minimal-length graph6 record (no header, no newline)."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    else:
        prefix = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    # the steps of parse_graph6 backwards, in whole base64 groups
    pairs = 0
    for j in range(1, n):
        pairs |= (g.adj[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    nbytes = (n * (n - 1) // 2 + 5) // 6
    raw = pairs.to_bytes(-(-nbytes // 4) * 3, "little").translate(_REVERSED_BITS)
    body = b2a_base64(raw, newline=False)[:nbytes].translate(_TO_GRAPH6)
    return prefix + body.decode("ascii")


# ---------------------------------------------------------------------------
# connectivity and subgraphs


def closure_mask(adj: tuple[int, ...] | list[int], allowed: int, seeds: int) -> int:
    """Vertices of `allowed` reachable from the seed set through `allowed`."""
    seen = seeds & allowed
    frontier = seen
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & allowed & ~seen
        seen |= frontier
    return seen


def joined(adj: tuple[int, ...] | list[int], allowed: int, targets: int) -> bool:
    """Whether every target is reachable from the lowest one through `allowed`.

    Equal to `closure_mask(adj, allowed, targets & -targets) & targets ==
    targets`, but the search stops as soon as it has seen every target, so
    targets close together cost a few neighbourhoods, not a pass over
    `allowed`. `joined(adj, s, s)` says whether `s` induces a connected graph.
    """
    seen = targets & -targets & allowed
    frontier = seen
    while targets & ~seen:
        if not frontier:
            return False
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & allowed & ~seen
        seen |= frontier
    return True


def is_connected(g: Graph) -> bool:
    return joined(g.adj, g.vertex_mask, g.vertex_mask)


def _disjoint_paths(g: Graph, s: int, t: int, cutoff: int) -> int:
    """Max internally vertex-disjoint s-t paths, stopping early at cutoff.

    Unit-capacity flow on the split digraph: node 2v is v-in, 2v+1 is v-out,
    interior arcs carry capacity 1 so each augmenting unit claims a vertex.
    """
    cap: dict[tuple[int, int], int] = {}
    nbr: dict[int, list[int]] = {}

    def add(u: int, v: int) -> None:
        if (u, v) not in cap:
            cap[(u, v)] = 0
            cap[(v, u)] = 0
            nbr.setdefault(u, []).append(v)
            nbr.setdefault(v, []).append(u)
        cap[(u, v)] += 1

    for v in range(g.n):
        if v != s and v != t:
            add(2 * v, 2 * v + 1)
    for u, v in g.edges():
        add(2 * u + 1, 2 * v)
        add(2 * v + 1, 2 * u)
    src, snk = 2 * s + 1, 2 * t
    flow = 0
    while flow < cutoff:
        prev = {src: -1}
        queue = [src]
        while queue and snk not in prev:
            nxt = []
            for x in queue:
                for y in nbr.get(x, ()):
                    if y not in prev and cap[(x, y)] > 0:
                        prev[y] = x
                        nxt.append(y)
            queue = nxt
        if snk not in prev:
            break
        y = snk
        while y != src:
            x = prev[y]
            cap[(x, y)] -= 1
            cap[(y, x)] += 1
            y = x
        flow += 1
    return flow


def vertex_connectivity(g: Graph, at_most: int | None = None) -> int:
    """Exact vertex connectivity; n-1 for complete graphs, 0 if disconnected.

    With at_most = t the answer is min(connectivity, t), found by trying
    every vertex set of fewer than t vertices as a cut, all in one packed
    closure (see the module docstring). That is far cheaper than flows
    when t is small and the question is only whether a connectivity floor
    is met.
    """
    n = g.n
    if n < 2:
        raise ValueError("connectivity needs at least 2 vertices")
    if at_most is not None:
        if at_most < 0:
            raise ValueError("negative connectivity cap")
        return _connectivity_below(g, at_most)
    if not is_connected(g):
        return 0
    # a complete graph has no non-adjacent pair and keeps n - 1; in a
    # connected graph every pair has a path, so no flow is 0
    best = n - 1
    for s in range(n):
        for t in range(s + 1, n):
            if g.adj[s] >> t & 1:
                continue
            best = min(best, _disjoint_paths(g, s, t, best))
    return best


# Cuts tested by one packed closure. Wider blocks mean fewer, longer
# integer operations. At n = 64, widths from 256 to 2048 ran level and an
# unblocked pack was up to twice as slow. The width also bounds each
# block: at n = 64 one is three 8 kB integers and 1 kB of sizes. The
# cache keeps at most ceil(sum of C(n, s) for s < t / width) blocks per
# (n, t), and only those some call has reached: at n = 64, t = 3 is 3
# blocks and t = 4 is 43.
_LANE_BLOCK = 1024


@lru_cache(maxsize=None)
def _lane_blocks(n: int, t: int) -> tuple[list[tuple[int, int, int, bytes]], Iterator[tuple[int, ...]]]:
    """The blocks of (n, t) built so far, and the cuts not yet in a block.

    The cuts of fewer than t of the n vertices, each a tuple of vertex
    bits, run by size and, within a size, in the order `combinations`
    gives. `_connectivity_below` takes `_LANE_BLOCK` of them for each
    block when a call first reaches it.
    """
    vertex_bits = [1 << v for v in range(n)]
    return [], chain.from_iterable(combinations(vertex_bits, s) for s in range(t))


def _lane_block(cuts: list[tuple[int, ...]], n: int) -> tuple[int, int, int, bytes]:
    """(rests, seeds, ones, sizes) for one block of cuts.

    Lane i holds bits i*n .. i*n + n-1: of `rests`, the vertices cut i
    leaves; of `seeds`, the lowest of them; of `ones`, bit 0 only.
    `sizes[i]` is the size of cut i.
    """
    full = (1 << n) - 1
    rests = [full ^ sum(cut) for cut in cuts]
    return (
        _pack(rests, n),
        _pack([rest & -rest for rest in rests], n),
        _pack([1] * len(cuts), n),
        bytes(map(len, cuts)),
    )


def _pack(values: list[int], width: int) -> int:
    """values[i] << (i * width), summed pairwise so no shift is quadratic."""
    while len(values) > 1:
        pairs = zip(values[::2], values[1::2] + [0])
        values = [lo | hi << width for lo, hi in pairs]
        width *= 2
    return values[0]


def _connectivity_below(g: Graph, t: int) -> int:
    """min(connectivity, t): the size of the smallest cut of fewer than t
    vertices, or min(t, n-1) when there is none."""
    adj, n = g.adj, g.n
    # a cut leaves at least two vertices, so it has at most n-2
    t = min(t, n - 1)
    blocks, cuts = _lane_blocks(n, t)
    for block in count():
        if block == len(blocks):
            chunk = list(islice(cuts, _LANE_BLOCK))
            if not chunk:
                return t
            try:
                blocks.append(_lane_block(chunk, n))
            except BaseException:
                # the chunk's cuts are spent, so (n, t) must start afresh
                _lane_blocks.cache_clear()
                raise
        rests, frontier, ones, sizes = blocks[block]
        # the vertices of each lane's rest that its closure has not
        # reached; a lane that ends with any left is cut apart
        unseen = rests ^ frontier
        while frontier:
            grown = 0
            for v in range(n):
                col = frontier >> v & ones
                if col:
                    # row v lands in every lane whose frontier holds v;
                    # adj[v] < 2**n, so no lane carries into the next
                    grown |= col * adj[v]
            frontier = grown & unseen
            unseen ^= frontier
        if unseen:
            # lanes run by size, so the lowest cut-apart lane is a
            # smallest cut
            return sizes[((unseen & -unseen).bit_length() - 1) // n]


def induced_subgraph(g: Graph, keep: Iterable[int] | int) -> Graph:
    """Induced subgraph on `keep`, relabeled to 0..|keep|-1 in label order."""
    if isinstance(keep, int):
        if keep < 0:
            # bits() of a negative mask never runs out of set bits
            raise ValueError(f"negative vertex mask {keep}")
        keep_list = list(bits(keep))
    else:
        keep_list = sorted(set(keep))
    if not keep_list:
        raise ValueError("empty vertex set")
    if keep_list[0] < 0 or keep_list[-1] >= g.n:
        raise ValueError("vertex outside graph")
    index = {v: i for i, v in enumerate(keep_list)}
    rows = []
    for v in keep_list:
        row = 0
        for u in bits(g.adj[v]):
            i = index.get(u)
            if i is not None:
                row |= 1 << i
        rows.append(row)
    # rows copied from a checked graph stay symmetric and loop-free
    return trusted_graph(len(keep_list), tuple(rows))


# ---------------------------------------------------------------------------
# the named construction the README example and the benchmark use


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set, pairs adjacent iff disjoint."""
    pairs = list(combinations(range(5), 2))
    edges = []
    for i, p in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            if not set(p) & set(pairs[j]):
                edges.append((i, j))
    return Graph.from_edges(10, edges)
