"""Independent reference implementations the tests check the package against.

Everything here is written from the format/definition directly, sharing no
code path with the package: string-of-bits graph6, subset brute force for
connectivity, plain recursion for longest walks.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Iterable

from hamclass.canon import refine
from hamclass.graphs import Graph, bits, induced_subgraph
from hamclass.membership import ClassKind
from hamclass.walks import hamilton_cycle, hamilton_path


def ref_graph6_encode(n: int, edges: set[tuple[int, int]]) -> str:
    """Reference graph6 encoder working on explicit bit strings."""
    if n <= 62:
        prefix = chr(n + 63)
    else:
        b = format(n, "018b")
        prefix = "~" + "".join(chr(int(b[i : i + 6], 2) + 63) for i in (0, 6, 12))
    bitstr = ""
    for j in range(1, n):
        for i in range(j):
            bitstr += "1" if (i, j) in edges or (j, i) in edges else "0"
    while len(bitstr) % 6:
        bitstr += "0"
    body = "".join(chr(int(bitstr[i : i + 6], 2) + 63) for i in range(0, len(bitstr), 6))
    return prefix + body


def ref_graph6_decode(record: str) -> tuple[int, set[tuple[int, int]]]:
    if record[0] == "~":
        n = int("".join(format(ord(c) - 63, "06b") for c in record[1:4]), 2)
        body = record[4:]
    else:
        n = ord(record[0]) - 63
        body = record[1:]
    bitstr = "".join(format(ord(c) - 63, "06b") for c in body)
    edges = set()
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bitstr[pos] == "1":
                edges.add((i, j))
            pos += 1
    return n, edges


def brute_connectivity(g: Graph) -> int:
    """Smallest separating set by exhaustive subsets; n-1 when none exists."""

    def connected_after(removed: set[int]) -> bool:
        left = [v for v in range(g.n) if v not in removed]
        if not left:
            return True
        seen = {left[0]}
        stack = [left[0]]
        while stack:
            v = stack.pop()
            for u in range(g.n):
                if u in removed or u in seen:
                    continue
                if g.adj[v] >> u & 1:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(left)

    for size in range(g.n - 1):
        for cut in combinations(range(g.n), size):
            if not connected_after(set(cut)):
                return size
    return g.n - 1


def brute_longest_cycle(g: Graph) -> int:
    best = 0

    def grow(path: list[int], used: set[int]) -> None:
        nonlocal best
        u = path[-1]
        if len(path) >= 3 and g.adj[u] >> path[0] & 1:
            best = max(best, len(path))
        for w in range(g.n):
            if w not in used and g.adj[u] >> w & 1 and w > path[0]:
                path.append(w)
                used.add(w)
                grow(path, used)
                used.discard(w)
                path.pop()

    for a in range(g.n):
        grow([a], {a})
    return best


def brute_longest_path(g: Graph) -> int:
    best = 1

    def grow(path: list[int], used: set[int]) -> None:
        nonlocal best
        best = max(best, len(path))
        u = path[-1]
        for w in range(g.n):
            if w not in used and g.adj[u] >> w & 1:
                path.append(w)
                used.add(w)
                grow(path, used)
                used.discard(w)
                path.pop()

    for s in range(g.n):
        grow([s], {s})
    return best


def brute_longest_induced_path_from(g: Graph, v: int) -> int:
    best = 1

    def induced(seq: list[int]) -> bool:
        for i, a in enumerate(seq):
            for j in range(i + 1, len(seq)):
                if bool(g.adj[a] >> seq[j] & 1) != (j == i + 1):
                    return False
        return True

    def grow(seq: list[int]) -> None:
        nonlocal best
        if induced(seq):
            best = max(best, len(seq))
            for w in range(g.n):
                if w not in seq and g.adj[seq[-1]] >> w & 1:
                    grow(seq + [w])

    grow([v])
    return best


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    from hamclass.graphs import is_connected

    for _ in range(10000):
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g
    raise RuntimeError(f"connectivity too unlikely at n={n}, p={p}")


def automorphism_count(g: Graph) -> int:
    """Backtracking count of adjacency-preserving bijections."""
    n = g.n
    deg = [g.adj[v].bit_count() for v in range(n)]
    image = [-1] * n
    used = [False] * n
    total = 0

    def place(v: int) -> None:
        nonlocal total
        if v == n:
            total += 1
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            ok = True
            for u in range(v):
                if bool(g.adj[v] >> u & 1) != bool(g.adj[w] >> image[u] & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                place(v + 1)
                used[w] = False
        image[v] = -1

    place(0)
    return total


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving bijections, by raw backtracking."""
    n = g.n
    deg = [g.adj[v].bit_count() for v in range(n)]
    image = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def place(v: int) -> None:
        if v == n:
            found.append(tuple(image))
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            ok = True
            for u in range(v):
                if bool(g.adj[v] >> u & 1) != bool(g.adj[w] >> image[u] & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                place(v + 1)
                used[w] = False
        image[v] = -1

    place(0)
    return found


def brute_orbits(g: Graph) -> list[set[int]]:
    """Vertex orbits under the full automorphism group."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in brute_automorphisms(g):
        for v, w in enumerate(perm):
            parent[find(v)] = find(w)
    groups: dict[int, set[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def relabel(g: Graph, perm: list[int]) -> Graph:
    """perm[v] = new name of old vertex v."""
    rows = [0] * g.n
    for u, v in g.edges():
        rows[perm[u]] |= 1 << perm[v]
        rows[perm[v]] |= 1 << perm[u]
    return Graph(g.n, tuple(rows))


def min_perm_code(g: Graph) -> tuple[int, ...]:
    """Smallest relabeled row tuple over all permutations. Independent
    canonical form for tiny orders only."""
    best = None
    for perm in permutations(range(g.n)):
        rows = [0] * g.n
        for u, v in g.edges():
            rows[perm[u]] |= 1 << perm[v]
            rows[perm[v]] |= 1 << perm[u]
        code = tuple(rows)
        if best is None or code < best:
            best = code
    assert best is not None
    return best


def sparse_attachment_graph(m: int, cuts: tuple[int, ...], kind: ClassKind) -> Graph:
    """Order-2 path hung off a spine of m vertices at well-separated spots.

    Gap segments are long enough to beat every counting bound, so these
    hosts have longest walk exactly m and their configs audit clean.
    """
    spine = list(range(2, m + 2))
    edges = [(0, 1)]
    for i in range(m - 1):
        edges.append((spine[i], spine[i + 1]))
    if kind is ClassKind.GAMMA:
        edges.append((spine[-1], spine[0]))
    edges.extend((1, spine[p]) for p in cuts)
    return Graph.from_edges(m + 2, edges)


def hypohamiltonian_direct(g: Graph) -> bool:
    """Textbook definition, deliberately not sharing the decider's code
    path: non-Hamiltonian, every single deletion Hamiltonian."""
    if g.n < 4 or hamilton_cycle(g) is not None:
        return False
    full = g.vertex_mask
    return all(
        hamilton_cycle(induced_subgraph(g, full ^ (1 << v))) is not None
        for v in range(g.n)
    )


def hypotraceable_direct(g: Graph) -> bool:
    if g.n < 4 or hamilton_path(g) is not None:
        return False
    full = g.vertex_mask
    return all(
        hamilton_path(induced_subgraph(g, full ^ (1 << v))) is not None
        for v in range(g.n)
    )


def refinement_cell_index(g: Graph, x: int) -> int:
    """Position of x's cell in the refined uniform partition."""
    cells = refine(g.adj, [tuple(range(g.n))])
    for i, cell in enumerate(cells):
        if x in cell:
            return i
    raise ValueError(f"vertex {x} outside graph")


def is_induced_path(g: Graph, seq: Iterable[int]) -> bool:
    """True when seq is an induced path of g (consecutive edges, no chords)."""
    vs = list(seq)
    if len(set(vs)) != len(vs):
        raise ValueError("repeated vertex in sequence")
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside graph")
    for i, v in enumerate(vs):
        for j in range(i + 1, len(vs)):
            edge = bool(g.adj[v] >> vs[j] & 1)
            if edge != (j == i + 1):
                return False
    return True


def circumference_dp_oracle(g: Graph) -> int:
    """Independent subset DP over (vertex set, endpoint) states.

    Cycles close at the minimum-label vertex of their support, so each
    subset is charged to a single anchor and no cycle is counted from two
    rotations. Exponential in n; hard cap at 20 vertices.
    """
    n = g.n
    if n > 20:
        raise ValueError("oracle capped at 20 vertices")
    adj = g.adj
    ends = [0] * (1 << n)
    for v in range(n):
        ends[1 << v] = 1 << v
    best = 0
    for mask in range(1, 1 << n):
        reach = ends[mask]
        if not reach:
            continue
        anchor_bit = mask & -mask
        anchor = anchor_bit.bit_length() - 1
        size = mask.bit_count()
        if size >= 3 and reach & adj[anchor] and size > best:
            best = size
        above = ~((anchor_bit << 1) - 1)
        for v in bits(reach):
            grow = adj[v] & ~mask & above
            for w in bits(grow):
                ends[mask | (1 << w)] |= 1 << w
    return best
