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
  first Hamilton sequence, from vertex 0 towards the lower of its two
  neighbours for cycles and over ascending start vertices for paths;
- otherwise the incumbent of `_longest`, the one branch and bound for
  both walks, which prunes only by reach. It starts from the seed cycle
  (from the single vertex 0 for paths), visits walks in lexicographic
  order, cycles by ascending least vertex, and keeps the first walk
  longer than every earlier one. No spanning walk exists, so it stops as
  soon as its incumbent has n - 1 vertices.

The two walks differ in `_longest` only where they may close. A path
closes at any vertex. A cycle rooted at a closes at a neighbour of a and
uses no vertex below a, so its subtree needs a neighbour of a within
reach, and the roots stop once n - a is no longer than the incumbent.

Both Hamilton questions are asked on the graph G[keep] that a vertex
mask `keep` induces (all of G by default). Every row a search reads is
masked to `keep`, and relabelling `keep` in label order keeps the
ascending order, so the walk is the one `induced_subgraph(g, keep)`
gives, in the labels of G.

`_spanning_path(adj, keep)` returns the lexicographically first Hamilton
path. It tries the starts in ascending order, and under start s only the
`allowed` vertices, those above s, may end the path. A path from s that
ends at e < s reverses into a path from e, and start e has already
failed. The highest vertex has none above it, so it is not tried. The
first Hamilton path ends above its start, since otherwise its reverse
would come first.

Every other rule cuts only branches that have no completion at all.
- A vertex with at most one neighbour in `keep` can only end the path, so
  more than two of them answer None before any search; the others are
  the first `short` set.
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
  `keep` is connected and the neighbours of s are joined without s. A
  step to w keeps it iff the unused neighbours of w lie in one component
  of the unused vertices without w, since every other unused vertex
  reached w through one of them. So only a w with two or more unused
  neighbours needs a test, and `joined` stops as soon as it has seen them
  all. No node runs a full reach closure, and every node short of a leaf
  has a step: the unused vertices stay connected and include a
  neighbour of the end.
- A Hamilton path alternates between the sides of a 2-colouring, so the
  sides of a bipartite graph with a Hamilton path differ by at most one.
  The search tests this bound only once the first start has failed, so a
  graph whose first start holds a path pays nothing for it.

The search visits branches in lexicographic order and cuts none that
holds a path, so it returns the first one, or None, whatever it prunes:
no witness depends on the rules.

`hamilton_cycle` reads a cycle from the least kept vertex a towards the
lower of a's two neighbours, and returns the first in that order. A
Hamilton cycle alternates between the sides of a 2-colouring, so a
bipartite graph whose sides differ has none. Otherwise `_edge_search`
branches on edges under degree constraints (Vandegriend & Culberson,
JAIR 9, 1998; Eppstein, JGAA 11, 2007). Its state holds the edges still
available and the edges chosen; the chosen edges form paths. Each rule
either cuts a state whose available edges hold no Hamilton cycle through
all its chosen edges, or deletes or chooses an edge that no such cycle
uses or every one does: a vertex with fewer than two available edges has
none; a vertex with two chosen edges uses no other, and one with exactly
two available edges uses both; a chosen edge that joins two paths makes
their far ends x and y the ends of one path, and the edge xy would close
it into a cycle, which is a Hamilton cycle only as the n-th edge, so xy
goes before that; and a Hamilton cycle connects every vertex, so the
available graph must stay connected, which after some deletions from a
connected graph holds iff the ends of the deleted edges lie in one
component. Propagation starts only from the vertices whose edges the
branch changed.

The search branches only where every cycle of its state shares a prefix.
- At a: with two chosen edges, v1 is the lower of their other ends. With
  one chosen edge a-x and a free edge below x, or with no chosen edge, a
  branches on its lowest free edge aw: choose it, else delete it. With
  one chosen edge a-x and no free edge below x, v1 = x.
- Once v1 is known, every cycle of the state begins a, v1, ..., e along
  the chosen edges, and the end e needs one more edge: choose e's lowest
  free edge ew, which deletes its other free edges, else delete it.
In both places the first branch holds exactly the cycles of the state
whose next vertex is w, and the second the cycles whose next vertex is
higher; propagation drops no cycle and reorders none. So depth-first
order is ascending order. A state whose n - 1 chosen edges form a path
with an available closing edge holds that one cycle, read from a, so the
first cycle the search meets is the first Hamilton cycle: every witness,
and every None, is what a vertex-by-vertex search from a gives. The
2-colouring goes first because the edge search has no parity argument:
on K_{6,7} it takes 85,679 nodes.

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


def is_path_in(g: Graph, vertices: tuple[int, ...]) -> bool:
    """Independent validity check: distinct vertices, every hop an edge."""
    k = len(vertices)
    if k < 1 or len(set(vertices)) != k:
        return False
    if any(not 0 <= v < g.n for v in vertices):
        return False
    return all(g.adj[vertices[i]] >> vertices[i + 1] & 1 for i in range(k - 1))


def is_cycle_in(g: Graph, vertices: tuple[int, ...]) -> bool:
    """A path of at least 3 vertices whose ends are adjacent."""
    k = len(vertices)
    return k >= 3 and is_path_in(g, vertices) and g.adj[vertices[-1]] >> vertices[0] & 1 == 1


def check_witness(g: Graph, w: CycleWitness | PathWitness) -> None:
    ok = is_cycle_in(g, w.vertices) if isinstance(w, CycleWitness) else is_path_in(g, w.vertices)
    if not ok:
        raise WitnessError(f"invalid witness {w.vertices}")


# ---------------------------------------------------------------------------
# Hamilton cycle / path


def _colour_gap(adj: tuple[int, ...], keep: int) -> int:
    """How many more vertices one side of the 2-colouring of the connected
    graph on `keep` has than the other, or 0 when it has no 2-colouring.
    On a disconnected graph it reads the component of the lowest vertex;
    such a graph has no spanning walk, so a nonzero answer is still right."""
    seen = frontier = keep & -keep
    sides = [seen, 0]
    colour = 0
    while frontier:
        grown = 0
        for x in bits(frontier):
            grown |= adj[x]
        colour ^= 1
        frontier = grown & keep & ~seen
        seen |= frontier
        sides[colour] |= frontier
    # breadth-first layers alternate sides, so an odd cycle shows as an
    # edge inside one side
    if any(adj[x] & side for side in sides for x in bits(side)):
        return 0
    return abs(sides[0].bit_count() - sides[1].bit_count())


def _spanning_path(adj: tuple[int, ...], keep: int) -> tuple[int, ...] | None:
    """First Hamilton path of the graph on `keep` in ascending search order,
    or None. The rules are argued in the module docstring."""
    low = keep & mask_of(v for v, row in enumerate(adj) if (row & keep).bit_count() <= 1)
    if low.bit_count() > 2 or not joined(adj, keep, keep):
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

    # each start leaves the vertices above it in `allowed`; the 2-colouring
    # is asked once, before the second start
    allowed = keep
    while allowed & (allowed - 1):
        if allowed == keep & (keep - 1) and _colour_gap(adj, keep) > 1:
            return None
        bit = allowed & -allowed
        allowed ^= bit
        s = bit.bit_length() - 1
        rest = keep ^ bit
        if joined(adj, rest, adj[s] & rest):
            path[:] = [s]
            got = extend(s, rest, low & ~bit)
            if got is not None:
                return got
    return None


def _edge_search(adj: tuple[int, ...], keep: int) -> tuple[int, ...] | None:
    """First Hamilton cycle of the graph on `keep` in ascending order, read
    from its least vertex a towards the lower of a's two neighbours, or
    None, by branching on edges under degree constraints (module docstring).

    State: `avail[v]` and `chosen[v]` are the available and chosen edges of
    v as neighbour masks, and `far[v]` is the far end of the chosen path
    that v ends (v itself while v has no chosen edge). A search call may
    change the lists it is given; the first branch of a node gets copies.
    """
    n = keep.bit_count()
    if n < 3:
        return None
    a = (keep & -keep).bit_length() - 1

    def join(avail: list[int], chosen: list[int], far: list[int], v: int, w: int, early: bool) -> int:
        """Choose the edge vw between the path ends v and w. The edge xy
        between the ends of the joined path would close it: returns x and y
        as a mask when xy is available (0 otherwise), and deletes xy when
        `early`, since a cycle closed before the n-th edge is not Hamilton."""
        x, y = far[v], far[w]
        chosen[v] |= 1 << w
        chosen[w] |= 1 << v
        far[x], far[y] = y, x
        if not avail[x] >> y & 1 or (x, y) == (v, w):
            return 0
        if early:
            avail[x] ^= 1 << y
            avail[y] ^= 1 << x
        return 1 << x | 1 << y

    def settle(avail: list[int], chosen: list[int], far: list[int], edges: int, todo: int) -> int:
        """Apply the rules from the vertices of `todo`, whose edges just
        changed. Returns the chosen edge count, -1 when the state holds no
        Hamilton cycle, or n when its chosen edges close one."""
        cut = todo
        while todo:
            bit = todo & -todo
            todo ^= bit
            v = bit.bit_length() - 1
            av = avail[v]
            c = chosen[v]
            rest = av & (av - 1)
            if not rest:
                return -1
            if av == c:
                continue
            if c & (c - 1):
                # two chosen edges: the others go
                drop = av ^ c
                avail[v] = c
                todo |= drop
                cut |= drop | bit
                while drop:
                    low = drop & -drop
                    drop ^= low
                    avail[low.bit_length() - 1] ^= bit
            elif not rest & (rest - 1):
                # two available edges: both are chosen
                new = av ^ c
                while new:
                    low = new & -new
                    new ^= low
                    w = low.bit_length() - 1
                    cw = chosen[w]
                    if cw & (cw - 1) or not avail[v] & low:
                        return -1
                    edges += 1
                    shut = join(avail, chosen, far, v, w, edges < n - 1)
                    if edges == n - 1:
                        return n if shut else -1
                    todo |= low | shut
                    cut |= shut
        # the graph was connected before these deletions, so it still is iff
        # their ends lie in one component
        return edges if joined(avail, keep, cut) else -1

    def delete(
        avail: list[int], chosen: list[int], far: list[int], edges: int, v: int, drop: int
    ) -> tuple[int, ...] | None:
        """The first Hamilton cycle left once the edges from v to `drop` go."""
        avail[v] ^= drop
        bit = 1 << v
        for w in bits(drop):
            avail[w] ^= bit
        return first(avail, chosen, far, settle(avail, chosen, far, edges, drop | bit))

    def first(avail: list[int], chosen: list[int], far: list[int], edges: int) -> tuple[int, ...] | None:
        """The first Hamilton cycle of a state that `settle` left at `edges`."""
        if edges < 0:
            return None
        if edges < n:
            return branch(avail, chosen, far, edges)
        # the chosen path and its closing edge: an end steps over it
        c = chosen[a]
        if not c & (c - 1):
            c |= 1 << far[a]
        walk = [a]
        prev, v = a, (c & -c).bit_length() - 1
        while v != a:
            walk.append(v)
            nxt = chosen[v] & ~(1 << prev)
            prev, v = v, nxt.bit_length() - 1 if nxt else far[v]
        return tuple(walk)

    def branch(avail: list[int], chosen: list[int], far: list[int], edges: int) -> tuple[int, ...] | None:
        """The first Hamilton cycle of a settled state that has closed none."""
        c = chosen[a]
        free = avail[a] ^ c
        low = free & -free
        if not c:
            # a's lowest edge: choose it, else delete it. It is not the
            # (n - 1)-th edge: a has three available edges or more, and had
            # the other vertices one chosen path, only its ends would remain
            took, far2, avail2 = chosen[:], far[:], avail[:]
            shut = join(avail2, took, far2, a, low.bit_length() - 1, True)
            got = first(avail2, took, far2, settle(avail2, took, far2, edges + 1, 1 << a | low | shut))
            return got or delete(avail, chosen, far, edges, a, low)
        v = a
        if c & (c - 1) or low > c:
            # every cycle of the state begins a, v1, ..., e along the chosen
            # edges, v1 the lower chosen neighbour of a: branch at e
            prev, v = a, (c & -c).bit_length() - 1
            while nxt := chosen[v] & ~(1 << prev):
                prev, v = v, nxt.bit_length() - 1
            free = avail[v] ^ chosen[v]
            low = free & -free
        # v needs one more edge: choosing its lowest free one deletes the
        # others
        return delete(avail[:], chosen[:], far[:], edges, v, free ^ low) or delete(
            avail, chosen, far, edges, v, low
        )

    avail = [row & keep for row in adj]
    chosen = [0] * len(adj)
    far = list(range(len(adj)))
    # settling from every vertex ends with the test that the graph is
    # connected
    return first(avail, chosen, far, settle(avail, chosen, far, 0, keep))


def _kept(g: Graph, keep: int | None) -> int:
    if keep is None:
        return g.vertex_mask
    if not keep or keep & ~g.vertex_mask:
        raise ValueError(f"vertex mask {keep:#x} is empty or outside the graph")
    return keep


def hamilton_cycle(g: Graph, keep: int | None = None) -> CycleWitness | None:
    """First Hamilton cycle of the graph on the vertex mask `keep` (all of
    G by default) in ascending order from its least vertex, or None: the
    2-colouring refutes first, then the edge search answers."""
    keep = _kept(g, keep)
    found = None if _colour_gap(g.adj, keep) else _edge_search(g.adj, keep)
    return None if found is None else CycleWitness(found)


def hamilton_path(g: Graph, keep: int | None = None) -> PathWitness | None:
    """First Hamilton path of the graph on the vertex mask `keep` (all of G
    by default) in ascending search order, or None."""
    keep = _kept(g, keep)
    if not keep & (keep - 1):
        return PathWitness((keep.bit_length() - 1,))
    found = _spanning_path(g.adj, keep)
    return None if found is None else PathWitness(found)


# ---------------------------------------------------------------------------
# exact longest walks, branch and bound


def _dfs_cycle(g: Graph) -> list[int] | None:
    """The cycle of the first DFS back edge. `chain` is the active DFS path
    and `todo[i]` the neighbours chain[i] has still to try, its parent
    left out. A visited one is on the chain: had it finished, it would
    have visited chain[i] itself."""
    adj = g.adj
    seen = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        chain = [root]
        todo = [adj[root]]
        while chain:
            rest = todo[-1]
            if not rest:
                chain.pop()
                todo.pop()
                continue
            low = rest & -rest
            todo[-1] = rest ^ low
            u = low.bit_length() - 1
            if seen & low:
                return chain[chain.index(u) :]
            seen |= low
            todo.append(adj[u] ^ 1 << chain[-1])
            chain.append(u)
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


def _longest(
    g: Graph, best: int, best_walk: tuple[int, ...], cycle: bool
) -> tuple[int, tuple[int, ...]]:
    """Branch and bound over the cycles (`cycle`) or paths of G from the
    incumbent `best_walk` of `best` vertices, up to n - 1 (module docstring)."""
    n = g.n
    adj = g.adj
    full = g.vertex_mask
    path: list[int] = []

    def grow(u: int, used: int) -> bool:
        """Search below `path`; True once the incumbent has n - 1 vertices."""
        nonlocal best, best_walk
        plen = len(path)
        if closing >> u & 1 and plen > best:
            best = plen
            best_walk = tuple(path)
            if best == n - 1:
                return True
        avail = full & ~used
        cands = adj[u] & avail
        if cands:
            reach = closure_mask(adj, avail, cands)
            if plen + reach.bit_count() > best and closing & reach:
                for w in bits(cands):
                    path.append(w)
                    if grow(w, used | (1 << w)):
                        return True
                    path.pop()
        return False

    for a in range(n):
        if best == n - 1 or cycle and n - a <= best:
            break
        path[:] = [a]
        closing = adj[a] if cycle else full
        grow(a, (2 << a) - 1 if cycle else 1 << a)
    return best, best_walk


def circumference(g: Graph) -> tuple[int, CycleWitness | None]:
    """Exact circumference with a witness; (0, None) for acyclic graphs.

    A spanning seed cycle is the answer, then a cycle `hamilton_cycle`
    finds; otherwise branch and bound from the seed stops at n - 1.
    """
    seed = _seed_cycle(g)
    if seed is None:
        return 0, None
    spanning = seed if seed.order == g.n else hamilton_cycle(g)
    if spanning is not None:
        return g.n, spanning
    best, walk = _longest(g, seed.order, seed.vertices, True)
    return best, CycleWitness(walk)


def detour_order(g: Graph) -> tuple[int, PathWitness]:
    """Exact longest-path order with a witness (order 1 for edgeless graphs).

    A path `hamilton_path` finds is the answer; otherwise branch and bound
    from the single vertex 0 stops at n - 1.
    """
    spanning = hamilton_path(g)
    if spanning is not None:
        return g.n, spanning
    best, walk = _longest(g, 1, (0,), False)
    return best, PathWitness(walk)


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
