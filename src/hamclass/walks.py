"""Exact longest-cycle and longest-path machinery.

All searches are deterministic: candidate vertices are explored in
ascending label order and incumbents are replaced only by strictly longer
walks, so a fixed graph always yields the same witness. The intended scale
is the exhaustive small-order searches used by the class deciders; nothing
here is meant for graphs much beyond 20 vertices.

`circumference` and `detour_order` decide the spanning question first,
each with the solver built for it, and return the first of these that
applies:

- a spanning seed cycle (`circumference` only), as it is;
- the walk `hamilton_cycle` / `hamilton_path` finds: the lexicographically
  first Hamilton sequence, from vertex 0 for cycles and over ascending
  start vertices for paths;
- otherwise the incumbent of a branch and bound that prunes only by reach
  and starts from the seed cycle (from the single vertex 0 for paths). It
  visits walks in lexicographic order, cycles by ascending least vertex,
  and keeps the first walk longer than every earlier one. No spanning walk
  exists, so it stops as soon as its incumbent has n - 1 vertices.

The Hamilton solvers prune harder, by vertices short of free neighbours.
`hamilton_cycle` needs no separate pass for the edges forced at a degree-2
vertex: once a neighbour of it other than vertex 0 is on the path, that
vertex is short and must come next.

Both Hamilton solvers carry their set of short vertices down the search.
A vertex's count of free neighbours changes only when a neighbour stops
being free, so a step recounts only the neighbours of that vertex. The
carried set is the one a rescan of every unused vertex would give at each
node, so every prune tests the same predicate and no witness can change.

Both Hamilton solvers also break the direction symmetry. Each returns the
lexicographically first Hamilton sequence, so when it tries a branch,
every earlier branch has failed, and so has every walk whose reverse
starts in one of them.
- A cycle 0, a, ..., c with c < a reverses into 0, c, ..., a. So under
  the first step a, only the `closers`, the neighbours of 0 above a, may
  end the cycle. The leaf asks for a closer, a node needs a free closer,
  and the weak count credits 0 only to closers. The last neighbour of 0
  has no closer, so its branch is not tried.
- A path from s that ends at e < s reverses into a path from e. So the
  end must lie above s: a short vertex below s ends the branch, and the
  last start is not tried.

The first Hamilton cycle has a < c and the first Hamilton path ends above
its start, so each is still found, and no witness changes. The carried
weak set is still the one a rescan under the closer-restricted count
gives: counts change only when a vertex is used, and once at the root
step, where the neighbours of 0 that are not closers lose 0 and are
recounted.

Both Hamilton solvers also keep the unused vertices inducing a connected
graph. The rest of a spanning walk is a spanning path of them, so nothing
is lost. It holds at the root when G - 0 is connected (cycles), or when G
is connected and the neighbours of the start s are joined in G - s
(paths). A step to w keeps it iff the unused neighbours of w lie in one
component of the unused vertices without w, since every other unused
vertex reached w through one of them. So only a w with two or more unused
neighbours needs a test, and `joined` stops as soon as it has seen them
all. Under the invariant every unused vertex is reachable from the unused
neighbours of the end, so no node runs a full reach closure, and every
node below a leaf has a step: the unused vertices stay connected and
include a neighbour of the end. Each branch
a failed test cuts has no spanning completion, so the search visits a
subset of the nodes a per-node closure test visits, in the same order,
and returns the same witness, or None.

A Hamilton walk alternates between the sides of a 2-colouring, so a
bipartite graph whose sides differ in size has no Hamilton cycle, and
one whose sides differ by two or more has no Hamilton path. Each solver
asks this only after its first root branch (cycles) or first start
(paths) has failed, so a graph whose first branch holds a walk pays
nothing for it, and the answer is None either way.

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


def hamilton_cycle(g: Graph) -> CycleWitness | None:
    """First Hamilton cycle in ascending search order, or None.

    The root loops over the first step 0 -> a. A cycle 0, a, ..., c with
    c < a reverses into 0, c, ..., a, which the earlier branch 0 -> c
    would have found, so only the `closers`, the neighbours of 0 above a,
    may end the cycle. The last neighbour of 0 has none and is not tried.

    `weak` holds the unused vertices with fewer than two neighbours among
    the unused vertices and, for a closer, 0. Such a vertex must come
    next, since later it would need two, so two of them end the branch. A
    step to w takes w out of the counted set, so only the unused
    neighbours of w change; at the root step the neighbours of 0 that are
    not closers change too, since they lose 0.

    The unused vertices induce a connected graph at every node, since the
    rest of the cycle is a spanning path of them: G - 0 must be connected,
    and a step to w keeps them connected iff the unused neighbours of w
    are joined without it (every other unused vertex reached w through one
    of them). A step that would split them has no spanning completion and
    is not taken, so no full reach closure runs at a node and no witness
    changes.

    Once the first branch has failed, a 2-colouring with unequal sides
    refutes the rest at once.
    """
    n = g.n
    adj = g.adj
    if n < 3:
        return None
    if any(row.bit_count() < 2 for row in adj):
        return None
    full = g.vertex_mask
    if not joined(adj, full ^ 1, full ^ 1):
        return None

    path = [0]
    closers = 0
    # the rows the weak count reads: 0 stays only in the rows of closers
    rows = list(adj)

    def extend(u: int, used: int, weak: int) -> tuple[int, ...] | None:
        if len(path) == n:
            return tuple(path) if closers >> u & 1 else None
        if weak & (weak - 1):
            return None
        unused = full & ~used
        cands = adj[u] & unused
        if not closers & unused:
            return None
        if weak:
            cands &= weak
        while cands:
            low = cands & -cands
            cands ^= low
            w = low.bit_length() - 1
            rest = unused ^ low
            nbrs = adj[w] & rest
            if nbrs & (nbrs - 1) and not joined(adj, rest, nbrs):
                continue
            counted = rest | 1
            below = weak & ~low
            while nbrs:
                x = nbrs & -nbrs
                nbrs ^= x
                if (rows[x.bit_length() - 1] & counted).bit_count() < 2:
                    below |= x
            path.append(w)
            got = extend(w, used | low, below)
            if got is not None:
                return got
            path.pop()
        return None

    for i, a in enumerate(bits(adj[0])):
        low = 1 << a
        closers = adj[0] & ~((low << 1) - 1)
        if not closers:
            break
        if i == 1 and _colour_gap(adj, full):
            return None
        rest = full ^ 1 ^ low
        if joined(adj, rest, adj[a] & rest):
            # every degree is at least 2, so only the neighbours of a and
            # the earlier first steps, which lost 0, can be weak
            check = (adj[a] | adj[0] & ~closers) & rest
            counted = rest | 1
            weak = 0
            while check:
                x = check & -check
                check ^= x
                if (rows[x.bit_length() - 1] & counted).bit_count() < 2:
                    weak |= x
            path[1:] = [a]
            found = extend(a, 1 | low, weak)
            if found is not None:
                return CycleWitness(found)
        # a closes no cycle of a later branch
        rows[a] ^= 1
    return None


def hamilton_path(g: Graph) -> PathWitness | None:
    """First Hamilton path in ascending search order, or None.

    `short` holds the unused vertices with at most one neighbour among the
    unused vertices and the end u. Such a vertex can only end the path, so
    two of them end the branch. A step from u takes u out of the counted
    set, so only the unused neighbours of u change, the same for every
    step from u.

    The end must lie above the start s: a path that ends at e < s reverses
    into a path from e, and start e has already failed. So a short vertex
    below s ends the branch, and the last start is not tried.

    The unused vertices induce a connected graph at every node, since the
    rest of the path is a spanning path of them: G must be connected and
    the neighbours of a start s joined in G - s, and a step to w keeps them
    connected iff the unused neighbours of w are joined without it. A step
    that would split them has no spanning completion and is not taken. So
    an unused vertex with no neighbour among the unused vertices and u is
    the only unused vertex, and u has no step.

    Once the first start has failed, a 2-colouring whose sides differ by
    two or more refutes the rest at once.
    """
    n = g.n
    adj = g.adj
    if n == 1:
        return PathWitness((0,))
    full = g.vertex_mask
    if not joined(adj, full, full):
        return None
    # vertices of degree 1 can only be ends of the path
    ends = mask_of(v for v in range(n) if adj[v].bit_count() <= 1)
    if ends.bit_count() > 2:
        return None

    path: list[int] = []
    below = 0

    def extend(u: int, used: int, short: int) -> tuple[int, ...] | None:
        if len(path) == n:
            return tuple(path) if u > path[0] else None
        if short & (short - 1) or short & below:
            return None
        unused = full & ~used
        cands = adj[u] & unused
        nbrs = cands
        while nbrs:
            x = nbrs & -nbrs
            nbrs ^= x
            if (adj[x.bit_length() - 1] & unused).bit_count() <= 1:
                short |= x
        while cands:
            low = cands & -cands
            cands ^= low
            w = low.bit_length() - 1
            rest = unused ^ low
            nbrs = adj[w] & rest
            if nbrs & (nbrs - 1) and not joined(adj, rest, nbrs):
                continue
            path.append(w)
            got = extend(w, used | low, short & ~low)
            if got is not None:
                return got
            path.pop()
        return None

    for s in range(n - 1):
        if s == 1 and _colour_gap(adj, full) > 1:
            return None
        bit = 1 << s
        if not joined(adj, full ^ bit, adj[s]):
            continue
        below = bit - 1
        path[:] = [s]
        got = extend(s, bit, ends & ~bit)
        if got is not None:
            return PathWitness(got)
    return None


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
