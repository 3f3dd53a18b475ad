"""Independent reference implementations the tests check the package against.

Everything here is written from the format/definition directly, sharing no
code path with the package: string-of-bits graph6, subset brute force for
connectivity, plain recursion for longest walks.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from itertools import combinations, permutations
from types import ModuleType
from typing import Callable, Iterable, Iterator

from hamclass.attachment import AttachmentConfig, _first_insertion
from hamclass.canon import canonical_form, marked_code
from hamclass.graphs import (
    Graph,
    bits,
    closure_mask,
    induced_subgraph,
    mask_of,
    trusted_graph,
    write_graph6,
)
from hamclass.membership import (
    BAD_DELETION_SET,
    WRONG_LENGTH,
    ClassKind,
    ClassParams,
    MembershipVerdict,
    membership,
    target_length,
)
from hamclass.walks import (
    CycleWitness,
    PathWitness,
    WitnessError,
    check_witness,
    circumference,
    detour_order,
    hamilton_cycle,
    hamilton_path,
    is_cycle_in,
    longest_induced_path_from,
)


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


def connectivity_below_reference(g: Graph, t: int) -> int:
    """min(connectivity, t) by one `closure_mask` per candidate cut: the
    unpacked form of `vertex_connectivity(g, at_most=t)`, which tests its
    cuts side by side in one packed closure per block."""
    adj, full, n = g.adj, g.vertex_mask, g.n
    # a cut leaves at least two vertices, so it has at most n-2
    for size in range(min(t, n - 1)):
        for cut in combinations([1 << v for v in range(n)], size):
            rest = full ^ sum(cut)
            if closure_mask(adj, rest, rest & -rest) != rest:
                return size
    return min(t, n - 1)


def rule_reference(g: Graph, params: ClassParams, rules: Iterable[str]) -> set[str]:
    """The enabled prune rules g violates, each from its definition:
    degrees counted off the rows, connectivity by brute force, and the
    closed-form order threshold and degree ceilings."""
    n, k = g.n, params.k
    gamma = params.kind is ClassKind.GAMMA
    degrees = [row.bit_count() for row in g.adj]
    need = k + 2 if gamma else k + 1
    # a member's maximum degree is at most half of this
    twice_ceiling = n - k * k + 1 if gamma else n - k * k
    threshold = k * k + 2 * k + 3 if gamma else k * k + 2 * k + 2
    fails = {
        "order_threshold": k >= 2 and n < threshold,
        "min_degree": min(degrees) < need,
        "max_degree": 2 * max(degrees) > twice_ceiling,
        "holton_sheehan": gamma and k == 1 and 2 * max(degrees) > n - 4,
        "connectivity": brute_connectivity(g) < need,
    }
    return {rule for rule in rules if fails[rule]}


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


def clique_theta(blobs: int, size: int) -> Graph:
    """Hubs 0 and 1 and `blobs` copies of K_size; hub h is joined to vertex
    h of each copy. Removing the two hubs leaves `blobs` components, so for
    three or more there is no Hamilton cycle."""
    edges = []
    for b in range(blobs):
        first = 2 + b * size
        edges += [(first + i, first + j) for i, j in combinations(range(size), 2)]
        edges += [(0, first), (1, first + 1)]
    return Graph.from_edges(2 + blobs * size, edges)


def generalized_petersen(m: int, s: int, drop: Iterable[tuple[int, int]] = ()) -> Graph:
    """GP(m, s): outer vertex i, inner vertex m+i, minus the edges in `drop`."""
    edges = set()
    for i in range(m):
        for u, v in ((i, (i + 1) % m), (i, m + i), (m + i, m + (i + s) % m)):
            edges.add((min(u, v), max(u, v)))
    edges -= {(min(u, v), max(u, v)) for u, v in drop}
    return Graph.from_edges(2 * m, edges)


def flower_snark(k: int) -> Graph:
    """J_k: stars a_i-{b_i, c_i, d_i}, the b-cycle, and the c..d cycle of
    length 2k. Hypohamiltonian for odd k >= 5 (Fiorini 1983)."""
    a, b, c, d = 0, k, 2 * k, 3 * k
    edges = []
    for i in range(k):
        edges += [(a + i, b + i), (a + i, c + i), (a + i, d + i)]
        edges.append((b + i, b + (i + 1) % k))
    ring = [c + i for i in range(k)] + [d + i for i in range(k)]
    edges += [(ring[i], ring[(i + 1) % (2 * k)]) for i in range(2 * k)]
    return Graph.from_edges(4 * k, edges)


def coxeter_graph() -> Graph:
    """Heptagons a (step 1), b (step 2), c (step 3), each d_i joined to
    a_i, b_i and c_i: cubic, girth 7, hypohamiltonian."""
    a, b, c, d = 0, 7, 14, 21
    edges = []
    for i in range(7):
        edges.append((a + i, a + (i + 1) % 7))
        edges.append((b + i, b + (i + 2) % 7))
        edges.append((c + i, c + (i + 3) % 7))
        edges += [(d + i, a + i), (d + i, b + i), (d + i, c + i)]
    return Graph.from_edges(28, edges)


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


def generated_group(gens: list[list[int]], n: int) -> set[tuple[int, ...]]:
    """Every element of the permutation group on range(n) that gens generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        perm = frontier.pop()
        for gamma in gens:
            image = tuple(gamma[v] for v in perm)
            if image not in group:
                group.add(image)
                frontier.append(image)
    return group


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


def random_relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


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


def brute_isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """First permutation, in lexicographic order, with perm[v] the vertex
    of h that vertex v of g maps to, carrying g onto h; None when the two
    are not isomorphic. Exhaustive, for tiny orders only."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    edges = list(g.edges())
    for perm in permutations(range(g.n)):
        if all(h.adj[perm[u]] >> perm[v] & 1 for u, v in edges):
            return perm
    return None


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


def refine_reference(adj: tuple[int, ...], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Equitable refinement as first written: after every split, rescan
    every splitter from the first, and build each part by a comprehension."""
    cells = list(cells)
    i = 0
    while i < len(cells):
        smask = mask_of(cells[i])
        split_at = -1
        for j, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            counts = sorted({(adj[v] & smask).bit_count() for v in cell})
            if len(counts) > 1:
                parts = [
                    tuple(v for v in cell if (adj[v] & smask).bit_count() == c)
                    for c in counts
                ]
                cells[j : j + 1] = parts
                split_at = j
                break
        if split_at < 0:
            i += 1
        else:
            i = 0
    return cells


def _canonical_code_reference(child: Graph) -> tuple[int, ...] | None:
    """Marked code of the newest vertex when it lies in the canonical
    orbit (least degree, then refined cell, then marked code among
    non-cutvertices), else None."""
    adj = child.adj
    v = child.n - 1
    dv = adj[v].bit_count()
    full = child.vertex_mask
    ties = []
    for u in range(v):
        du = adj[u].bit_count()
        if du > dv:
            continue
        rem = full ^ (1 << u)
        if closure_mask(adj, rem, rem & -rem) != rem:
            continue
        if du < dv:
            return None
        ties.append(u)
    if ties:
        cells = refine_reference(adj, [tuple(range(child.n))])
        pos = {u: i for i, cell in enumerate(cells) for u in cell}
        if any(pos[u] < pos[v] for u in ties):
            return None
        ties = [u for u in ties if pos[u] == pos[v]]
    code = marked_code(child, v)
    return code if all(code <= marked_code(child, u) for u in ties) else None


def _children_reference(parent: Graph, max_degree: int | None, floor: int) -> Iterator[Graph]:
    m = parent.n
    rows = parent.adj
    must = free = 0
    for u in range(m):
        d = rows[u].bit_count()
        if max_degree is not None and d >= max_degree:
            if d < floor:
                return
            continue
        if d < floor:
            must |= 1 << u
        else:
            free |= 1 << u
    high = m if max_degree is None else max_degree
    bit = 1 << m
    sub = 0
    while True:
        attach = must | sub
        if attach and floor <= attach.bit_count() <= high:
            yield trusted_graph(
                m + 1,
                tuple(row | bit if attach >> u & 1 else row for u, row in enumerate(rows))
                + (attach,),
            )
        sub = (sub - free) & free
        if not sub:
            return


def _grow_reference(
    graph: Graph, n: int, max_degree: int | None, min_degree: int
) -> Iterator[Graph]:
    if graph.n == n:
        yield graph
        return
    seen: set[tuple[int, ...]] = set()
    for child in _children_reference(graph, max_degree, min_degree - (n - graph.n - 1)):
        code = _canonical_code_reference(child)
        if code is not None and code not in seen:
            seen.add(code)
            yield from _grow_reference(child, n, max_degree, min_degree)


def generate_connected_reference(
    n: int, max_degree: int | None = None, min_degree: int = 0
) -> Iterator[Graph]:
    """The generator before orbit pruning: every attachment set is tried,
    and siblings are deduplicated by the newest vertex's marked code. Its
    output sequence, in order, is what `generate_connected` must emit.
    It shares `marked_code` and the graph helpers with the package, with
    `refine_reference` in place of `refine`."""
    if n > 1 or min_degree == 0:
        yield from _grow_reference(Graph(1, (0,)), n, max_degree, min_degree)


def refinement_cell_index(g: Graph, x: int) -> int:
    """Position of x's cell in the refined uniform partition."""
    cells = refine_reference(g.adj, [tuple(range(g.n))])
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


def extend_cycle_reference(g: Graph, cyc: CycleWitness) -> CycleWitness | None:
    """One strictly longer cycle via an outside detour, or None: for each
    cycle edge (a, b) in order, the first ascending outside path joining its
    ends replaces it. The detour search tries every simple path of the
    outside region, including regions that cannot reach b, where the
    package's greedy walk prunes by reach. `seed_cycle_reference` calls it
    from edge 0 again after every insertion."""
    if not is_cycle_in(g, cyc.vertices):
        raise WitnessError(f"not a cycle of the host graph: {cyc.vertices}")
    adj = g.adj
    outside = g.vertex_mask & ~mask_of(cyc.vertices)
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
                return CycleWitness(cyc.vertices[: i + 1] + tuple(detour) + cyc.vertices[i + 1 :])
    return None


def _dfs_cycle_reference(g: Graph) -> CycleWitness | None:
    """The first DFS back edge's cycle, found by colours and a walk up the
    parent chain."""
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
    return None if cyc is None else CycleWitness(cyc)


def seed_cycle_reference(g: Graph) -> CycleWitness | None:
    """`walks._seed_cycle` as it was before it became one sweep: the first
    DFS cycle, extended by `extend_cycle_reference`, which starts again
    from edge 0 every time, until no detour is left. Its cycle is what
    `_seed_cycle` must return."""
    seed = _dfs_cycle_reference(g)
    while seed is not None:
        longer = extend_cycle_reference(g, seed)
        if longer is None:
            return seed
        seed = longer
    return None


def hamilton_cycle_reference(g: Graph) -> CycleWitness | None:
    """`walks.hamilton_cycle` as it was before it carried its weak set
    down the search: every node recounts every unused vertex. Its witness
    is what `hamilton_cycle` must return."""
    n = g.n
    adj = g.adj
    if n < 3:
        return None
    if any(row.bit_count() < 2 for row in adj):
        return None
    full = g.vertex_mask
    if closure_mask(adj, full, 1) != full:
        return None

    path = [0]

    def extend(u: int, used: int) -> tuple[int, ...] | None:
        if len(path) == n:
            return tuple(path) if adj[u] & 1 else None
        unused = full & ~used
        cands = adj[u] & unused
        if not cands:
            return None
        if closure_mask(adj, unused, cands) != unused:
            return None
        if not adj[0] & unused:
            return None
        # an unused vertex with fewer than two neighbours among the unused
        # vertices and 0 must come next, since later it would need two; the
        # test is the same for every candidate w, so it runs once per node
        weak = 0
        for x in bits(unused):
            if (adj[x] & (unused | 1)).bit_count() < 2:
                weak |= 1 << x
        if weak:
            if weak.bit_count() > 1:
                return None
            cands &= weak
        for w in bits(cands):
            path.append(w)
            got = extend(w, used | (1 << w))
            if got is not None:
                return got
            path.pop()
        return None

    found = extend(0, 1)
    return CycleWitness(found) if found is not None else None


def hamilton_path_reference(g: Graph) -> PathWitness | None:
    """`walks.hamilton_path` as it was before it carried its short set
    down the search: every node recounts every unused vertex."""
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
        # a >= 1 for every x: the closure above reached x from u or over an
        # edge from another unused vertex
        short = 0
        for x in bits(unused):
            a = (adj[x] & (unused | (1 << u))).bit_count()
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


def circumference_reference(g: Graph) -> tuple[int, CycleWitness | None]:
    """`walks.circumference` as it was before it asked the spanning
    question first: branch and bound climbs to a cycle of n - 1 vertices,
    tries the step after it, and asks a Hamilton-cycle search only when
    that incumbent came from the seed or the search rooted at vertex 0.
    The spanning search is the rescanning reference, so no spanning code
    is shared with the package. Its result is what `circumference` must
    return."""
    n = g.n
    adj = g.adj
    seed = seed_cycle_reference(g)
    if seed is None:
        return 0, None
    best = seed.order
    best_cyc = seed.vertices
    if best == n:
        return best, CycleWitness(best_cyc)
    full = g.vertex_mask
    path: list[int] = []

    def grow(a: int, u: int, used: int, allowed: int) -> bool:
        nonlocal best, best_cyc
        plen = len(path)
        if plen >= 3 and adj[u] >> a & 1 and plen > best:
            best = plen
            best_cyc = tuple(path)
        avail = allowed & ~used
        cands = adj[u] & avail
        if cands:
            reach = closure_mask(adj, avail, cands)
            if plen + reach.bit_count() > best and adj[a] & reach:
                for w in bits(cands):
                    path.append(w)
                    if grow(a, w, used | (1 << w), allowed):
                        return True
                    path.pop()
        return best >= n - 1

    for a in range(n):
        if best >= n - 1 or n - a <= best:
            break
        allowed = full & ~((1 << a) - 1)
        path[:] = [a]
        if grow(a, a, 1 << a, allowed):
            break
    # every Hamilton cycle passes through vertex 0, so an incumbent of n - 1
    # reached after the search rooted at 0 is already final
    if best == n - 1 and a == 0:
        ham = hamilton_cycle_reference(g)
        if ham is not None:
            return n, ham
    return best, CycleWitness(best_cyc)


def detour_order_reference(g: Graph) -> tuple[int, PathWitness]:
    """`walks.detour_order` as it was before it asked the spanning
    question first: branch and bound climbs to a path of n - 1 vertices,
    tries the step after it, and only then asks the rescanning
    Hamilton-path reference. Its result is what `detour_order` must
    return."""
    n = g.n
    adj = g.adj
    best = 1
    best_path: tuple[int, ...] = (0,)
    full = g.vertex_mask
    path: list[int] = []

    def grow(u: int, used: int) -> bool:
        nonlocal best, best_path
        plen = len(path)
        if plen > best:
            best = plen
            best_path = tuple(path)
        avail = full & ~used
        cands = adj[u] & avail
        if cands and plen + closure_mask(adj, avail, cands).bit_count() > best:
            for w in bits(cands):
                path.append(w)
                if grow(w, used | (1 << w)):
                    return True
                path.pop()
        return best >= n - 1

    for s in range(n):
        path[:] = [s]
        if grow(s, 1 << s):
            break
    if best == n - 1:
        ham = hamilton_path_reference(g)
        if ham is not None:
            return n, ham
    return best, PathWitness(best_path)


# ---------------------------------------------------------------------------
# helpers only the tests call, built on the package's own deciders


def consecutive_neighbor_check(cfg: AttachmentConfig) -> CycleWitness | PathWitness | None:
    """Insertion walk through the path head, if two consecutive spine
    vertices admit it. Refutes any claim that the spine is longest."""
    verts = _first_insertion(cfg)
    if verts is None:
        return None
    w = type(cfg.spine)(verts)
    check_witness(cfg.graph, w)
    return w


def membership_reference(
    g: Graph, params: ClassParams, *, collect_walks: bool = False
) -> MembershipVerdict:
    """`membership` as it was before k = 1 left the length to the deletion
    loop: the longest walk first, then every deletion set in lexicographic
    order. Its verdict is what `membership` must return at every k."""
    target = target_length(g.n, params)
    if params.kind is ClassKind.GAMMA:
        longest, spanning = circumference, hamilton_cycle
    else:
        longest, spanning = detour_order, hamilton_path
    length, best = longest(g)
    if length != target:
        return MembershipVerdict(False, WRONG_LENGTH, length, None, best, None)
    walks = []
    for drop in combinations(range(g.n), params.k):
        walk = spanning(g, g.vertex_mask ^ mask_of(drop))
        if walk is None:
            return MembershipVerdict(False, BAD_DELETION_SET, None, drop, None, None)
        walks.append(walk)
    return MembershipVerdict(True, None, target, None, None, tuple(walks) if collect_walks else None)


def is_hypohamiltonian(g: Graph) -> bool:
    if g.n < 4:
        return False
    return membership(g, ClassParams(1, ClassKind.GAMMA)).member


def is_hypotraceable(g: Graph) -> bool:
    if g.n < 4:
        return False
    return membership(g, ClassParams(1, ClassKind.PI)).member


def check_induced_path_property(g: Graph, k: int) -> int | None:
    """Smallest vertex heading no induced path of order k+1, or None.

    Members with k >= 2 must have such a path from every vertex, so a
    returned vertex refutes membership.
    """
    if k < 2:
        raise ValueError("induced-path property applies for k >= 2")
    want = k + 1
    for v in range(g.n):
        if longest_induced_path_from(g, v, stop_at=want).order < want:
            return v
    return None


def canonical_graph6(g: Graph) -> str:
    return write_graph6(Graph(g.n, canonical_form(g)))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    return canonical_form(a) == canonical_form(b)


def code_calls(fn: Callable[[], object], *scopes: ModuleType | Callable) -> Counter[str]:
    """Calls that fn() makes of the code in `scopes`, by code name: of every
    function defined in a module scope, nested ones such as `extend` and
    `grow` included, and of each function scope itself.

    Counted from the `"call"` events of `sys.setprofile`, so the library
    pays nothing for it outside this helper.
    """
    calls: Counter[str] = Counter()
    files = {scope.__file__ for scope in scopes if isinstance(scope, ModuleType)}
    codes = {scope.__code__ for scope in scopes if not isinstance(scope, ModuleType)}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in files or code in codes:
                calls[code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls
