"""Isomorph-free generation of small connected graphs.

Depth-first orderly augmentation: a graph on m+1 vertices is produced
from its deletion parent, the graph left after removing one vertex of
the canonical orbit. Growing every connected parent by every attachment
subset, keeping a child only when its newest vertex v lands in that
orbit, and growing each kept child before its next sibling yields each
isomorphism class exactly once while holding one path of the tree.

Two kept children of one parent can still coincide (the parent's own
symmetries); a per-parent set of marked codes of v removes those. An
isomorphism between two kept siblings carries v into the other child's
canonical orbit, which holds its v too, so composing with an
automorphism gives one that fixes v: the marked codes agree. Children
of distinct parents never collide because the deletion parent is
determined up to isomorphism.

The canonical orbit is the set of non-cutvertices minimizing
(degree, refined cell position, marked canonical code); the first two
components are cheap and settle most candidates. Non-cutvertices keep
parents connected, and every connected graph has at least two of them,
so no class is orphaned.

An optional degree window [min_degree, max_degree] is applied while
augmenting. Deleting a vertex never raises a degree, so the parent of a
ceiling-respecting graph respects the ceiling too. Deleting a vertex
lowers each degree by at most 1, so the ancestor of order m of a graph
of order n with minimum degree d has minimum degree at least
d - (n - m); a child of order m is therefore kept only when every degree
reaches that relaxed floor. Both tests are properties of the isomorphism
class, so the truncated tree still reaches every class in the window
through the same canonical parents, and picks the same representatives,
as the full tree.
"""

from __future__ import annotations

from typing import Iterator

# canonical_form is not called here; it stays bound because
# perfbench/tracer.py wraps it in this module
from .canon import canonical_form, marked_code, refine
from .graphs import MAX_ORDER, Graph, closure_mask, trusted_graph

GENERATION_CAP = 10


def _canonical_code(child: Graph) -> tuple[int, ...] | None:
    """Marked code of the newest vertex when it lies in the canonical
    orbit, else None."""
    adj = child.adj
    v = child.n - 1
    dv = adj[v].bit_count()
    full = child.vertex_mask
    # the newest vertex is never a cutvertex (its parent is connected), so
    # only a non-cutvertex of degree at most dv can beat or tie it; the
    # closure runs only for those
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
        cells = refine(adj, [tuple(range(child.n))])
        pos = {u: i for i, cell in enumerate(cells) for u in cell}
        if any(pos[u] < pos[v] for u in ties):
            return None
        ties = [u for u in ties if pos[u] == pos[v]]
    code = marked_code(child, v)
    return code if all(code <= marked_code(child, u) for u in ties) else None


def _children(parent: Graph, max_degree: int | None, floor: int) -> Iterator[Graph]:
    """Children of parent, in ascending attachment order, whose degrees all
    lie in [floor, max_degree]."""
    m = parent.n
    rows = parent.adj
    # a parent vertex below the floor must gain the new edge; one at the
    # ceiling must not
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
        # the subsets of free in ascending order, each joined to must
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


def _grow(graph: Graph, n: int, max_degree: int | None, min_degree: int) -> Iterator[Graph]:
    """graph itself at order n, else the graphs of order n in the window
    that descend from it."""
    if graph.n == n:
        yield graph
        return
    seen: set[tuple[int, ...]] = set()
    for child in _children(graph, max_degree, min_degree - (n - graph.n - 1)):
        code = _canonical_code(child)
        if code is not None and code not in seen:
            seen.add(code)
            yield from _grow(child, n, max_degree, min_degree)


def generate_connected(
    n: int, *, max_degree: int | None = None, min_degree: int = 0
) -> Iterator[Graph]:
    """All connected graphs of order n, one per isomorphism class.

    Only graphs with every degree in [min_degree, max_degree] are kept,
    pruning during augmentation rather than filtering afterwards.
    """
    if not 1 <= n <= min(GENERATION_CAP, MAX_ORDER):
        raise ValueError(f"order {n} outside 1..{GENERATION_CAP}")
    if max_degree is not None and max_degree < 0:
        raise ValueError("negative degree ceiling")
    if min_degree < 0:
        raise ValueError("negative degree floor")
    # _children applies the window to every graph but the one-vertex root
    if n > 1 or min_degree == 0:
        yield from _grow(Graph(1, (0,)), n, max_degree, min_degree)
