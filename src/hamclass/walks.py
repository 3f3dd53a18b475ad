"""Exact longest-cycle and longest-path machinery.

All searches are deterministic: candidate vertices are explored in
ascending label order and incumbents are replaced only by strictly longer
walks, so a fixed graph always yields the same witness. The intended scale
is the exhaustive small-order searches used by the class deciders; nothing
here is meant for graphs much beyond 20 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits, closure_mask, mask_of


class WitnessError(ValueError):
    """A walk that fails its structural invariants against the host graph."""


@dataclass(frozen=True)
class CycleWitness:
    vertices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class PathWitness:
    vertices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.vertices)


def is_cycle_in(g: Graph, vertices: tuple[int, ...]) -> bool:
    """Independent validity check: distinct vertices, every hop an edge."""
    k = len(vertices)
    if k < 3 or len(set(vertices)) != k:
        return False
    if any(not 0 <= v < g.n for v in vertices):
        return False
    return all(g.adj[vertices[i]] >> vertices[(i + 1) % k] & 1 for i in range(k))


def is_path_in(g: Graph, vertices: tuple[int, ...]) -> bool:
    k = len(vertices)
    if k < 1 or len(set(vertices)) != k:
        return False
    if any(not 0 <= v < g.n for v in vertices):
        return False
    return all(g.adj[vertices[i]] >> vertices[i + 1] & 1 for i in range(k - 1))


def check_witness(g: Graph, w: CycleWitness | PathWitness) -> None:
    ok = is_cycle_in(g, w.vertices) if isinstance(w, CycleWitness) else is_path_in(g, w.vertices)
    if not ok:
        raise WitnessError(f"invalid witness {w.vertices}")


# ---------------------------------------------------------------------------
# Hamilton cycle / path


def hamilton_cycle(g: Graph) -> CycleWitness | None:
    """First Hamilton cycle in ascending search order, or None."""
    n = g.n
    adj = g.adj
    if n < 3:
        return None
    if any(row.bit_count() < 2 for row in adj):
        return None
    full = g.vertex_mask
    if closure_mask(adj, full, 1) != full:
        return None
    # both edges of a degree-2 vertex are mandatory; three mandatory edges
    # at one vertex kill the graph before any search
    forced = [adj[v] if adj[v].bit_count() == 2 else 0 for v in range(n)]
    for v in range(n):
        for u in bits(adj[v]):
            if forced[u] >> v & 1:
                forced[v] |= 1 << u
    if any(row.bit_count() > 2 for row in forced):
        return None

    path = [0]

    def extend(u: int, used: int) -> tuple[int, ...] | None:
        # a completed cycle satisfies every forced edge automatically, so the
        # forced set only prunes, it never needs a final check
        if len(path) == n:
            return tuple(path) if adj[u] & 1 else None
        unused = full & ~used
        cands = adj[u] & unused
        must = forced[u] & unused
        if used == 1:
            # at the root both forced edges may still be pending: one as the
            # first path edge, the other as the closing edge
            if must.bit_count() == 2:
                cands &= must
        elif must:
            if must.bit_count() > 1:
                return None
            cands &= must
        if not cands:
            return None
        if closure_mask(adj, unused, cands) != unused:
            return None
        if not adj[0] & unused:
            return None
        for w in bits(cands):
            avail_ok = True
            rest = unused & ~(1 << w)
            for x in bits(rest):
                if (adj[x] & (rest | (1 << w) | 1)).bit_count() < 2:
                    avail_ok = False
                    break
            if not avail_ok:
                continue
            path.append(w)
            got = extend(w, used | (1 << w))
            if got is not None:
                return got
            path.pop()
        return None

    found = extend(0, 1)
    return CycleWitness(found) if found is not None else None


def hamilton_path(g: Graph) -> PathWitness | None:
    n = g.n
    adj = g.adj
    if n == 1:
        return PathWitness((0,))
    full = g.vertex_mask
    if closure_mask(adj, full, 1) != full:
        return None
    if sum(1 for row in adj if row.bit_count() <= 1) > 2:
        return None

    path: list[int] = []

    def extend(u: int, used: int) -> tuple[int, ...] | None:
        if len(path) == n:
            return tuple(path)
        unused = full & ~used
        cands = adj[u] & unused
        if not cands:
            return None
        if closure_mask(adj, unused, cands) != unused:
            return None
        short = 0
        for x in bits(unused):
            a = (adj[x] & (unused | (1 << u))).bit_count()
            if a == 0:
                return None
            if a == 1:
                short += 1
                if short > 1:
                    return None
        for w in bits(cands):
            path.append(w)
            got = extend(w, used | (1 << w))
            if got is not None:
                return got
            path.pop()
        return None

    for s in range(n):
        path[:] = [s]
        got = extend(s, 1 << s)
        if got is not None:
            return PathWitness(got)
    return None


# ---------------------------------------------------------------------------
# exact longest walks, branch and bound


def _seed_cycle(g: Graph) -> CycleWitness | None:
    """Deterministic cheap cycle: first DFS back-edge, then greedy extension."""
    n = g.n
    adj = g.adj
    parent = [-1] * n
    color = [0] * n  # 0 unseen, 1 on the active DFS chain, 2 finished
    cyc: tuple[int, ...] | None = None

    def dfs(v: int) -> None:
        nonlocal cyc
        color[v] = 1
        for u in bits(adj[v]):
            if cyc is not None:
                return
            if color[u] == 0:
                parent[u] = v
                dfs(u)
            elif color[u] == 1 and u != parent[v]:
                # u is an active ancestor, so the parent chain reaches it
                walk = [v]
                x = v
                while x != u:
                    x = parent[x]
                    walk.append(x)
                cyc = tuple(reversed(walk))
                return
        color[v] = 2

    for root in range(n):
        if color[root] == 0 and cyc is None:
            dfs(root)
    if cyc is None:
        return None
    seed = CycleWitness(cyc)
    while True:
        longer = extend_cycle(g, seed)
        if longer is None:
            return seed
        seed = longer


def circumference(g: Graph) -> tuple[int, CycleWitness | None]:
    """Exact circumference with a witness; (0, None) for acyclic graphs."""
    n = g.n
    adj = g.adj
    seed = _seed_cycle(g)
    if seed is None:
        return 0, None
    best = seed.order
    best_cyc = seed.vertices
    if best == n:
        return best, CycleWitness(best_cyc)
    full = g.vertex_mask
    path: list[int] = []

    def grow(a: int, u: int, used: int, allowed: int) -> None:
        nonlocal best, best_cyc
        plen = len(path)
        if plen >= 3 and adj[u] >> a & 1 and plen > best:
            best = plen
            best_cyc = tuple(path)
        avail = allowed & ~used
        cands = adj[u] & avail
        if not cands:
            return
        reach = closure_mask(adj, avail, cands)
        if plen + reach.bit_count() <= best:
            return
        if not adj[a] & reach:
            return
        for w in bits(cands):
            path.append(w)
            grow(a, w, used | (1 << w), allowed)
            path.pop()

    for a in range(n):
        if n - a <= best:
            break
        allowed = full & ~((1 << a) - 1)
        path[:] = [a]
        grow(a, a, 1 << a, allowed)
        if best == n:
            break
    return best, CycleWitness(best_cyc)


def detour_order(g: Graph) -> tuple[int, PathWitness]:
    """Exact longest-path order with a witness (order 1 for edgeless graphs)."""
    n = g.n
    adj = g.adj
    best = 1
    best_path: tuple[int, ...] = (0,)
    full = g.vertex_mask
    path: list[int] = []

    def grow(u: int, used: int) -> None:
        nonlocal best, best_path
        plen = len(path)
        if plen > best:
            best = plen
            best_path = tuple(path)
        if best == n:
            return
        avail = full & ~used
        cands = adj[u] & avail
        if not cands:
            return
        reach = closure_mask(adj, avail, cands)
        if plen + reach.bit_count() <= best:
            return
        for w in bits(cands):
            path.append(w)
            grow(w, used | (1 << w))
            path.pop()
            if best == n:
                return

    for s in range(n):
        if best == n:
            break
        path[:] = [s]
        grow(s, 1 << s)
    return best, PathWitness(best_path)


def longest_induced_path_from(g: Graph, v: int, stop_at: int | None = None) -> PathWitness:
    """Longest induced path with endpoint v.

    Ties break to the lexicographically smallest vertex sequence, which the
    ascending depth-first order yields for free: the first path found at a
    given order is the smallest one. `stop_at` returns early once a path of
    that order appears (predicate use).
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside graph")
    adj = g.adj
    best: tuple[int, ...] = (v,)
    path = [v]

    def grow(last: int, blocked: int) -> bool:
        nonlocal best
        if len(path) > len(best):
            best = tuple(path)
            if stop_at is not None and len(best) >= stop_at:
                return True
        # extending past `last` forbids all later adjacency to the interior
        nxt = adj[last] & ~blocked
        for w in bits(nxt):
            path.append(w)
            if grow(w, blocked | adj[last] | (1 << w)):
                return True
            path.pop()
        return False

    grow(v, 1 << v)
    return PathWitness(best)


def extend_cycle(g: Graph, cyc: CycleWitness) -> CycleWitness | None:
    """One strictly longer cycle via an outside detour, or None.

    For each cycle edge in order, the first ascending outside path joining
    its endpoints replaces it. Single-vertex insertion is the length-1 case.
    Cheap incumbent improver, not an exact step.
    """
    if not is_cycle_in(g, cyc.vertices):
        raise WitnessError(f"not a cycle of the host graph: {cyc.vertices}")
    n = g.n
    adj = g.adj
    cmask = mask_of(cyc.vertices)
    outside = g.vertex_mask & ~cmask
    if not outside:
        return None
    L = len(cyc.vertices)
    for i in range(L):
        a = cyc.vertices[i]
        b = cyc.vertices[(i + 1) % L]
        detour: list[int] = []

        def dig(u: int, seen: int) -> bool:
            if adj[u] >> b & 1:
                return True
            for w in bits(adj[u] & outside & ~seen):
                detour.append(w)
                if dig(w, seen | (1 << w)):
                    return True
                detour.pop()
            return False

        for w0 in bits(adj[a] & outside):
            detour[:] = [w0]
            if dig(w0, 1 << w0):
                new = cyc.vertices[: i + 1] + tuple(detour) + cyc.vertices[i + 1 :]
                return CycleWitness(new)
    return None

