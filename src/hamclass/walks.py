"""Exact longest-cycle and longest-path machinery.

All searches are deterministic: candidate vertices are explored in
ascending label order and incumbents are replaced only by strictly longer
walks, so a fixed graph always yields the same witness. The intended scale
is the exhaustive small-order searches used by the class deciders; nothing
here is meant for graphs much beyond 20 vertices.

`circumference` and `detour_order` decide the spanning question first
and return the first of these that applies:

- a spanning seed cycle (`circumference` only), as it is;
- the walk `hamilton_cycle` / `hamilton_path` finds: the lexicographically
  first Hamilton sequence, from vertex 0 for cycles and over ascending
  start vertices for paths;
- otherwise the incumbent of a branch and bound that prunes only by reach
  and starts from the seed cycle (from the single vertex 0 for paths). It
  visits walks in lexicographic order, cycles by ascending least vertex,
  and keeps the first walk longer than every earlier one. No spanning walk
  exists, so it stops as soon as its incumbent has n - 1 vertices.

One search answers both Hamilton questions. `_spanning_path(adj, verts,
ends, gap)` returns the lexicographically first Hamilton path of the
graph on `verts` that runs from a vertex of `ends` to a higher one. A
Hamilton path of G is one with `verts` and `ends` both every vertex. A
Hamilton cycle 0, a, ..., c is vertex 0 and then a Hamilton path of
G - 0 from a to c, two neighbours of 0, so `hamilton_cycle` asks for a
path of G - 0 whose ends are neighbours of 0 and puts 0 in front.
Putting 0 in front keeps the lexicographic order, so the first such path
gives the first cycle.

The search tries the starts in ascending order, and under start s only
the `allowed` vertices, the ends above s, may end the path. A path from s
that ends at e < s reverses into a path from e, and start e has already
failed. The highest end has no end above it, so it is not tried. The
first Hamilton path ends above its start, since otherwise its reverse
would come first; the first Hamilton cycle has a < c for the same reason.

Every other rule cuts only branches that have no completion at all.
- A vertex of `verts` with at most one neighbour in `verts` can only end
  the path, so more than two of them, or one that is not in `ends`,
  answer None before any search; the others are the first `short` set.
- `short` holds the unused vertices with at most one unused neighbour.
  A vertex's count changes only when a neighbour is used, so the set is
  carried down the search, and each node recounts only the unused
  neighbours of its end u. When a node is entered, the carried counts
  still include u: a short vertex then has at most one neighbour among
  the unused vertices and u, so it can only be the last vertex. Two of
  them, or one that is not allowed, end the branch.
- An unused neighbour of u with at most one unused neighbour that is not
  allowed cannot be last, so it needs u as its other neighbour on the
  path: it must come next, and two of them end the branch.
- The path must end at an allowed vertex, so a node needs an unused one.
  The last unused vertex is then allowed, and the leaf checks nothing.
- The rest of a Hamilton path is a spanning path of the unused vertices,
  so they must induce a connected graph. That holds at a start s when
  `verts` is connected and the neighbours of s are joined without s. A
  step to w keeps it iff the unused neighbours of w lie in one component
  of the unused vertices without w, since every other unused vertex
  reached w through one of them. So only a w with two or more unused
  neighbours needs a test, and `joined` stops as soon as it has seen them
  all. No node runs a full reach closure, and every node short of a leaf
  has a step: the unused vertices stay connected and include a
  neighbour of the end.
- A Hamilton path alternates between the sides of a 2-colouring, so the
  sides of a bipartite graph with a Hamilton path differ by at most one,
  and those of one with a Hamilton cycle not at all. `gap` is that bound
  for the whole graph: 1 for paths, 0 for cycles. The test runs only
  once the first start has failed, so a graph whose first start holds a
  walk pays nothing for it.

The search visits branches in lexicographic order and cuts none that
holds a walk it is asked for, so it returns the first such walk, or
None, whatever it prunes: no witness depends on the rules.

The branch and bound starts from a seed cycle: the first DFS cycle,
grown by outside detours in one sweep over its edges. For an edge (a, b)
the detour walks greedily from a, always to the smallest outside
neighbour from which an outside neighbour of b is still reachable through
unused outside vertices. Some such step exists until b is adjacent, so
the walk never needs to backtrack, and it is the first detour of the
ascending depth-first search. Reach is symmetric, so a candidate step can
still reach an outside neighbour of b iff its component among the unused
outside vertices holds one. `_first_toward` tries the candidates in
ascending order, stops each search at the first such neighbour it meets,
and drops every candidate of a component that holds none at once; so it
returns the smallest candidate that one closure from b's outside
neighbours would allow, without growing that closure. A found detour is
inserted and the sweep tries edge i again, now (a, d1); otherwise it
moves on to edge i + 1. Whether a first step exists depends only on the
outside set, and can only become false as that set shrinks, so an edge
with no detour never gets one later. The sweep thus gives the cycle that
restarting from edge 0 after every insertion gives, and with it every
witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits, closure_mask, joined, mask_of


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


def _colour_gap(adj: tuple[int, ...], full: int) -> int:
    """How many more vertices one side of the 2-colouring of a connected
    graph has than the other, or 0 when the graph has no 2-colouring."""
    sides = [1, 0]
    seen = frontier = 1
    colour = 0
    while frontier:
        grown = 0
        for x in bits(frontier):
            grown |= adj[x]
        colour ^= 1
        frontier = grown & full & ~seen
        seen |= frontier
        sides[colour] |= frontier
    # breadth-first layers alternate sides, so an odd cycle shows as an
    # edge inside one side
    if any(adj[x] & side for side in sides for x in bits(side)):
        return 0
    return abs(sides[0].bit_count() - sides[1].bit_count())


def _spanning_path(adj: tuple[int, ...], verts: int, ends: int, gap: int) -> tuple[int, ...] | None:
    """First Hamilton path of the graph on `verts` that runs from a vertex
    of `ends` to a higher one, in ascending search order, or None. The
    2-colouring of the whole graph `adj` may have sides that differ by at
    most `gap`. The rules are argued in the module docstring.
    """
    low = verts & mask_of(v for v, row in enumerate(adj) if (row & verts).bit_count() <= 1)
    if low.bit_count() > 2 or low & ~ends or not joined(adj, verts, verts):
        return None

    path: list[int] = []

    def extend(u: int, unused: int, short: int) -> tuple[int, ...] | None:
        if not unused:
            return tuple(path)
        if short & (short - 1) or short & ~allowed or not allowed & unused:
            return None
        cands = adj[u] & unused
        nbrs = cands
        while nbrs:
            x = nbrs & -nbrs
            nbrs ^= x
            if (adj[x.bit_length() - 1] & unused).bit_count() <= 1:
                short |= x
        forced = short & ~allowed
        if forced:
            if forced & (forced - 1):
                return None
            cands = forced
        while cands:
            bit = cands & -cands
            cands ^= bit
            w = bit.bit_length() - 1
            rest = unused ^ bit
            nbrs = adj[w] & rest
            if nbrs & (nbrs - 1) and not joined(adj, rest, nbrs):
                continue
            path.append(w)
            got = extend(w, rest, short & ~bit)
            if got is not None:
                return got
            path.pop()
        return None

    # each start leaves the ends above it in `allowed`; the 2-colouring is
    # asked once, before the second start
    allowed = ends
    while allowed & (allowed - 1):
        if allowed == ends & (ends - 1) and _colour_gap(adj, (1 << len(adj)) - 1) > gap:
            return None
        bit = allowed & -allowed
        allowed ^= bit
        s = bit.bit_length() - 1
        rest = verts ^ bit
        if joined(adj, rest, adj[s] & rest):
            path[:] = [s]
            got = extend(s, rest, low & ~bit)
            if got is not None:
                return got
    return None


def hamilton_cycle(g: Graph) -> CycleWitness | None:
    """First Hamilton cycle in ascending search order, or None: vertex 0
    and the first Hamilton path of G - 0 between two neighbours of 0."""
    found = _spanning_path(g.adj, g.vertex_mask ^ 1, g.adj[0], 0)
    return None if found is None else CycleWitness((0, *found))


def hamilton_path(g: Graph) -> PathWitness | None:
    """First Hamilton path in ascending search order, or None."""
    if g.n == 1:
        return PathWitness((0,))
    found = _spanning_path(g.adj, g.vertex_mask, g.vertex_mask, 1)
    return None if found is None else PathWitness(found)


# ---------------------------------------------------------------------------
# exact longest walks, branch and bound


def _dfs_cycle(g: Graph) -> list[int] | None:
    """The cycle of the first DFS back edge. `chain` is the active DFS path,
    and a visited neighbour of v other than its parent is on it: had that
    neighbour finished, it would have visited v itself."""
    adj = g.adj
    seen = 0
    chain: list[int] = []

    def dfs(v: int, parent: int) -> list[int] | None:
        nonlocal seen
        seen |= 1 << v
        chain.append(v)
        for u in bits(adj[v]):
            if seen >> u & 1:
                if u != parent:
                    return chain[chain.index(u) :]
            elif (cyc := dfs(u, v)) is not None:
                return cyc
        chain.pop()
        return None

    for root in range(g.n):
        if not seen >> root & 1 and (cyc := dfs(root, -1)) is not None:
            return cyc
    return None


def _first_toward(adj: tuple[int, ...], free: int, cands: int, ends: int) -> int:
    """The lowest vertex of `cands` (inside `free`) from which a vertex of
    `ends` is reachable through `free`, as a bit, or 0 when there is none.

    Each candidate's search stops at the first end it meets. A search that
    meets none has found a whole component without an end, and every
    candidate in it is dropped at once.
    """
    while cands:
        low = cands & -cands
        seen = frontier = low
        while frontier and not seen & ends:
            grown = 0
            while frontier:
                x = frontier & -frontier
                grown |= adj[x.bit_length() - 1]
                frontier ^= x
            frontier = grown & free & ~seen
            seen |= frontier
        if seen & ends:
            return low
        cands &= ~seen
    return 0


def _seed_cycle(g: Graph) -> CycleWitness | None:
    """The first DFS cycle, grown by outside detours in one sweep over its
    edges (see the module docstring)."""
    cyc = _dfs_cycle(g)
    if cyc is None:
        return None
    adj = g.adj
    outside = g.vertex_mask & ~mask_of(cyc)
    i = 0
    while outside and i < len(cyc):
        a, b = cyc[i], cyc[(i + 1) % len(cyc)]
        ends = adj[b] & outside if adj[a] & outside else 0
        detour: list[int] = []
        u, free = a, outside
        # only a first step can fail (see the module docstring)
        while ends and (low := _first_toward(adj, free, adj[u] & free, ends)):
            u = low.bit_length() - 1
            detour.append(u)
            free ^= low
            if adj[u] >> b & 1:
                cyc[i + 1 : i + 1] = detour
                outside = free
                break
        else:
            i += 1
    return CycleWitness(tuple(cyc))


def circumference(g: Graph) -> tuple[int, CycleWitness | None]:
    """Exact circumference with a witness; (0, None) for acyclic graphs.

    A spanning seed cycle is the answer, then a cycle `hamilton_cycle`
    finds; otherwise branch and bound from the seed stops at n - 1.
    """
    n = g.n
    adj = g.adj
    seed = _seed_cycle(g)
    if seed is None:
        return 0, None
    spanning = seed if seed.order == n else hamilton_cycle(g)
    if spanning is not None:
        return n, spanning
    best = seed.order
    best_cyc = seed.vertices
    full = g.vertex_mask
    path: list[int] = []

    def grow(a: int, u: int, used: int) -> bool:
        """Search below `path`; True once the incumbent has n - 1 vertices."""
        nonlocal best, best_cyc
        plen = len(path)
        if plen >= 3 and adj[u] >> a & 1 and plen > best:
            best = plen
            best_cyc = tuple(path)
            if best == n - 1:
                return True
        avail = full & ~used
        cands = adj[u] & avail
        if cands:
            reach = closure_mask(adj, avail, cands)
            if plen + reach.bit_count() > best and adj[a] & reach:
                for w in bits(cands):
                    path.append(w)
                    if grow(a, w, used | (1 << w)):
                        return True
                    path.pop()
        return False

    for a in range(n):
        if best == n - 1 or n - a <= best:
            break
        path[:] = [a]
        # a cycle rooted at a has no vertex below a
        grow(a, a, (2 << a) - 1)
    return best, CycleWitness(best_cyc)


def detour_order(g: Graph) -> tuple[int, PathWitness]:
    """Exact longest-path order with a witness (order 1 for edgeless graphs).

    A path `hamilton_path` finds is the answer; otherwise branch and bound
    stops at n - 1.
    """
    n = g.n
    spanning = hamilton_path(g)
    if spanning is not None:
        return n, spanning
    adj = g.adj
    best = 1
    best_path: tuple[int, ...] = (0,)
    full = g.vertex_mask
    path: list[int] = []

    def grow(u: int, used: int) -> bool:
        """Search below `path`; True once the incumbent has n - 1 vertices."""
        nonlocal best, best_path
        plen = len(path)
        if plen > best:
            best = plen
            best_path = tuple(path)
            if best == n - 1:
                return True
        avail = full & ~used
        cands = adj[u] & avail
        if cands and plen + closure_mask(adj, avail, cands).bit_count() > best:
            for w in bits(cands):
                path.append(w)
                if grow(w, used | (1 << w)):
                    return True
                path.pop()
        return False

    for s in range(n):
        path[:] = [s]
        if grow(s, 1 << s):
            break
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
