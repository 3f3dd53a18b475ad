"""Seeded input builders whose expected answers are known by construction.

Nothing here imports hamclass: every graph is built from its formula as an
edge list, encoded with the local graph6 writer, and paired with the
verdict the construction guarantees. A builder given the same seed returns
the same records.

The facts the expectations rest on:

* C_n(1,2) (the square of the n-cycle) contains the Hamilton cycle
  0, 1, ..., n-1 and is 4-connected for n >= 6. Adding edges keeps both.
  Its longest cycle and longest path therefore have n vertices, so every
  class test at k >= 1 refutes it as `wrong_length` with length n.
* GP(6t+5, 2) is hypohamiltonian (Bondy 1972), as are the flower snarks
  J_k for odd k >= 5 (Fiorini 1983) and the Coxeter graph. For such a
  graph H of order n:
    - at k = 1 it is a member with longest cycle n-1;
    - at k = 2 its longest cycle, n-1, misses the target n-2, so it is
      refuted as `wrong_length` with length n-1;
    - H - e for an edge e = uv keeps a cycle of length n-1 (the Hamilton
      cycle of H - v avoids e), but deleting a third neighbour w of u
      leaves u with degree 1, so it is refuted as `bad_deletion_set`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

Edges = list[tuple[int, int]]

WRONG_LENGTH = "wrong_length"
BAD_DELETION_SET = "bad_deletion_set"


# ---------------------------------------------------------------------------
# graph6 and edge-list helpers


def graph6(n: int, edges: Edges) -> str:
    """Minimal graph6 record of a simple graph on 0..n-1 (n <= 62)."""
    if not 1 <= n <= 62:
        raise ValueError(f"order {n} outside 1..62")
    adj = set()
    for u, v in edges:
        adj.add((min(u, v), max(u, v)))
    out = [chr(n + 63)]
    group = nfilled = 0
    for j in range(1, n):
        for i in range(j):
            group = group << 1 | ((i, j) in adj)
            nfilled += 1
            if nfilled == 6:
                out.append(chr(group + 63))
                group = nfilled = 0
    if nfilled:
        out.append(chr((group << (6 - nfilled)) + 63))
    return "".join(out)


def decode_graph6(record: str) -> tuple[int, Edges]:
    """Order and edge list of a short-form graph6 record (n <= 62)."""
    n = ord(record[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"unsupported graph6 order byte {record[0]!r}")
    body = "".join(format(ord(ch) - 63, "06b") for ch in record[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(body) < len(pairs):
        raise ValueError("truncated graph6 record")
    return n, [p for p, bit in zip(pairs, body) if bit == "1"]


def is_petersen(record: str) -> bool:
    """The Petersen graph is the only cubic graph of order 10 and girth 5."""
    n, edges = decode_graph6(record)
    return n == 10 and set(degrees(n, edges)) == {3} and girth(n, edges) == 5


def degrees(n: int, edges: Edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def girth(n: int, edges: Edges) -> int:
    """Length of a shortest cycle, by breadth-first search from each vertex."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    best = n + 1
    for s in range(n):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        for x in queue:
            for y in nbrs[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def relabel(n: int, edges: Edges, rng: random.Random) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# named hypohamiltonian graphs


def generalized_petersen(n: int, k: int) -> Edges:
    """GP(n,k): outer cycle u_i = i, spokes to v_i = n+i, inner v_i ~ v_{i+k}."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return edges


def flower_snark(k: int) -> Edges:
    """J_k: stars a_i-{b_i,c_i,d_i}, the b-cycle, and the c..d cycle of length 2k."""
    a, b, c, d = 0, k, 2 * k, 3 * k
    edges = []
    for i in range(k):
        edges += [(a + i, b + i), (a + i, c + i), (a + i, d + i)]
        edges.append((b + i, b + (i + 1) % k))
    ring = [c + i for i in range(k)] + [d + i for i in range(k)]
    edges += [(ring[i], ring[(i + 1) % (2 * k)]) for i in range(2 * k)]
    return edges


def coxeter() -> Edges:
    """Heptagons a (step 1), b (step 2), c (step 3), each d_i joined to a_i, b_i, c_i."""
    a, b, c, d = 0, 7, 14, 21
    edges = []
    for i in range(7):
        edges.append((a + i, a + (i + 1) % 7))
        edges.append((b + i, b + (i + 2) % 7))
        edges.append((c + i, c + (i + 3) % 7))
        edges += [(d + i, a + i), (d + i, b + i), (d + i, c + i)]
    return edges


@dataclass(frozen=True)
class Named:
    name: str
    n: int
    edges: Edges
    girth: int


def named_graphs() -> list[Named]:
    """The six heavy hypohamiltonian graphs, each with its known girth."""
    return [
        Named("petersen", 10, generalized_petersen(5, 2), 5),
        Named("gp11_2", 22, generalized_petersen(11, 2), 5),
        Named("gp17_2", 34, generalized_petersen(17, 2), 5),
        Named("j5", 20, flower_snark(5), 5),
        Named("j7", 28, flower_snark(7), 6),
        Named("coxeter", 28, coxeter(), 7),
    ]


def check_named(g: Named) -> None:
    """Raise ValueError unless g has its stated order, 3n/2 edges, is cubic and has its girth."""
    if len({_norm(u, v) for u, v in g.edges}) != len(g.edges):
        raise ValueError(f"{g.name}: repeated edge")
    if len(g.edges) != 3 * g.n // 2:
        raise ValueError(f"{g.name}: {len(g.edges)} edges, expected {3 * g.n // 2}")
    if any(u == v or not (0 <= u < g.n and 0 <= v < g.n) for u, v in g.edges):
        raise ValueError(f"{g.name}: edge outside 0..{g.n - 1}")
    if set(degrees(g.n, g.edges)) != {3}:
        raise ValueError(f"{g.name}: not cubic")
    if girth(g.n, g.edges) != g.girth:
        raise ValueError(f"{g.name}: girth {girth(g.n, g.edges)}, expected {g.girth}")


# ---------------------------------------------------------------------------
# C_n(1,2) with chords


def square_cycle(n: int) -> Edges:
    return [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]


def add_chords(
    n: int, edges: Edges, count: int, rng: random.Random, *, ceiling: int | None = None,
    avoid: frozenset[int] = frozenset(),
) -> Edges:
    """Add up to `count` seeded non-edges, keeping every degree <= ceiling."""
    present = {_norm(u, v) for u, v in edges}
    deg = degrees(n, edges)
    free = [
        p for p in combinations(range(n), 2)
        if p not in present and not (set(p) & avoid)
    ]
    rng.shuffle(free)
    out = list(edges)
    for u, v in free:
        if count == 0:
            break
        if ceiling is not None and (deg[u] >= ceiling or deg[v] >= ceiling):
            continue
        out.append((u, v))
        deg[u] += 1
        deg[v] += 1
        count -= 1
    return out


# ---------------------------------------------------------------------------
# certify records


@dataclass(frozen=True)
class CertRecord:
    """One `check` request and the certificate fields it must produce."""

    graph6: str
    kind: str
    k: int
    verdict: str
    reason: str | None
    found_length: int | None
    heavy: bool


BULK_CHECKS = (("gamma", 1), ("pi", 1), ("gamma", 2))


def _heavy_records(rng: random.Random) -> list[CertRecord]:
    out = []
    for g in named_graphs():
        check_named(g)
        n = g.n
        out.append(CertRecord(graph6(n, relabel(n, g.edges, rng)), "gamma", 1, "member", None, n - 1, True))
        out.append(CertRecord(
            graph6(n, relabel(n, g.edges, rng)), "gamma", 2, "refuted", WRONG_LENGTH, n - 1, True
        ))
        cut = list(g.edges)
        del cut[rng.randrange(len(cut))]
        out.append(CertRecord(
            graph6(n, relabel(n, cut, rng)), "gamma", 1, "refuted", BAD_DELETION_SET, None, True
        ))
    return out


def certify_records(seed: int, bulk: int = 600, passes: int = 1) -> list[list[CertRecord]]:
    """Record lists for `passes` passes: the same light records, fresh heavy relabellings.

    Each bulk graph is C_n(1,2) plus chords for a seeded order n in 10..24,
    checked for one of BULK_CHECKS. The heavy part holds each named graph
    three times: as a gamma k=1 member, as a gamma k=2 wrong_length record,
    and as H - e for a seeded edge e. Solver times on the heavy graphs swing
    by a factor of two between labellings, so every pass relabels them anew;
    a record keeps its position, so position i is the same check on the same
    graph in every pass.
    """
    rng = random.Random(seed)
    light = []
    for i in range(bulk):
        n = rng.randint(10, 24)
        edges = add_chords(n, square_cycle(n), rng.randint(1, n // 2), rng)
        kind, k = BULK_CHECKS[i % len(BULK_CHECKS)]
        g6 = graph6(n, relabel(n, edges, rng))
        light.append(CertRecord(g6, kind, k, "refuted", WRONG_LENGTH, n, False))
    heavy = [_heavy_records(rng) for _ in range(passes)]
    order = list(range(bulk + len(heavy[0])))
    rng.shuffle(order)
    return [[(light + h)[i] for i in order] for h in heavy]


# ---------------------------------------------------------------------------
# stream records

STREAM_ORDERS = (12, 14, 16)
PLAIN, MIN_DEGREE, CONNECTIVITY = "decided", "min_degree", "connectivity"


def _plain(n: int, rng: random.Random) -> Edges:
    return add_chords(n, square_cycle(n), rng.randint(1, n // 2), rng, ceiling=n // 2)


def _degree_two(n: int, rng: random.Random) -> Edges:
    """C_n(1,2) without the two chords at vertex 0, which keeps degree 2."""
    base = [e for e in square_cycle(n) if e not in ((0, 2), (n - 2, 0))]
    return add_chords(
        n, base, rng.randint(1, n // 2), rng, ceiling=n // 2, avoid=frozenset((0,))
    )


def _two_cut(n: int, rng: random.Random) -> Edges:
    """Two copies of C_m(1,2) joined only through cut vertices x and y.

    Every vertex keeps degree between 4 and 6, so min_degree and
    max_degree pass for n >= 12, while {x, y} separates the blocks.
    """
    a = rng.randint(5, n - 7)
    b = n - 2 - a
    x, y = n - 2, n - 1
    edges = square_cycle(a) + [(a + u, a + v) for u, v in square_cycle(b)]
    for cut in (x, y):
        edges += [(cut, v) for v in rng.sample(range(a), 2)]
        edges += [(cut, a + v) for v in rng.sample(range(b), 2)]
    return edges


_STREAM_BUILDERS = {PLAIN: _plain, MIN_DEGREE: _degree_two, CONNECTIVITY: _two_cut}


def stream_records(seed: int, n: int, per_kind: dict[str, int]) -> list[tuple[str, str]]:
    """(graph6, planted outcome) pairs of order n, shuffled by seed."""
    rng = random.Random(seed * 1000 + n)
    out = []
    for kind, count in per_kind.items():
        for _ in range(count):
            out.append((graph6(n, relabel(n, _STREAM_BUILDERS[kind](n, rng), rng)), kind))
    rng.shuffle(out)
    return out
