"""Small-graph primitives: bitmask adjacency, graph6 codec, connectivity.

Vertices are 0-indexed ints. Adjacency is stored as one int bitmask per
vertex, which keeps neighborhood intersections and subset tests cheap for
the exhaustive searches built on top. Orders up to 64 are supported so a
row always fits in a single machine word on CPython.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

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
    rows = [0] * n
    pos = 0
    for ch in body:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} outside graph6 range")
        group = c - 63
        for shift in range(5, -1, -1):
            bit = group >> shift & 1
            if pos < nbits:
                if bit:
                    # column-major upper triangle: bit index pos covers pair (i, j)
                    j, i = _pair_at(pos)
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            elif bit:
                raise Graph6Error("set bit in padding")
            pos += 1
    return Graph(n, tuple(rows))


def _pair_at(pos: int) -> tuple[int, int]:
    # inverse of pos = j*(j-1)/2 + i with 0 <= i < j
    j = int(((8 * pos + 1) ** 0.5 + 1) / 2)
    while j * (j - 1) // 2 > pos:
        j -= 1
    while (j + 1) * j // 2 <= pos:
        j += 1
    return j, pos - j * (j - 1) // 2


def write_graph6(g: Graph) -> str:
    """Encode to the minimal-length graph6 record (no header, no newline)."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    else:
        prefix = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    out = [prefix]
    group = 0
    nfilled = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            group = group << 1 | (col >> i & 1)
            nfilled += 1
            if nfilled == 6:
                out.append(chr(group + 63))
                group = 0
                nfilled = 0
    if nfilled:
        group <<= 6 - nfilled
        out.append(chr(group + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# connectivity and subgraphs


def closure_mask(adj: tuple[int, ...] | list[int], allowed: int, seeds: int) -> int:
    """Vertices of `allowed` reachable from the seed set through `allowed`."""
    seen = seeds & allowed
    frontier = seen
    while frontier:
        grown = 0
        for v in bits(frontier):
            grown |= adj[v]
        frontier = grown & allowed & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    reach = closure_mask(g.adj, g.vertex_mask, 1)
    return reach == g.vertex_mask


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


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity; n-1 for complete graphs, 0 if disconnected."""
    n = g.n
    if n < 2:
        raise ValueError("connectivity needs at least 2 vertices")
    if not is_connected(g):
        return 0
    full = g.vertex_mask
    if all(g.adj[v] == full ^ (1 << v) for v in range(n)):
        return n - 1
    best = n - 1
    for s in range(n):
        for t in range(s + 1, n):
            if g.adj[s] >> t & 1:
                continue
            best = min(best, _disjoint_paths(g, s, t, best))
            if best == 0:
                return 0
    return best


def induced_subgraph(g: Graph, keep: Iterable[int] | int) -> Graph:
    """Induced subgraph on `keep`, relabeled to 0..|keep|-1 in label order."""
    if isinstance(keep, int):
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
    return Graph(len(keep_list), tuple(rows))


# ---------------------------------------------------------------------------
# named constructions used across tests and docs


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set, pairs adjacent iff disjoint."""
    pairs = list(combinations(range(5), 2))
    edges = []
    for i, p in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            if not set(p) & set(pairs[j]):
                edges.append((i, j))
    return Graph.from_edges(10, edges)
