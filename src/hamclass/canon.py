"""Canonical labeling by individualization-refinement.

Small-order workhorse for isomorphism tests and isomorph-free generation.
The canonical form of a graph is the lexicographically greatest relabeled
adjacency row tuple reachable from an equitable ordered partition; two
graphs are isomorphic iff their forms agree. Discovered automorphisms
prune the search, so near-regular graphs (complete graphs, circulants)
stay tractable despite their large groups.

Intended for the orders the generator handles (about a dozen vertices);
everything is exact at any order the Graph type accepts, just slower.
"""

from __future__ import annotations

from .graphs import Graph, bits, mask_of, write_graph6

Cells = list[tuple[int, ...]]


def refine(adj: tuple[int, ...], cells: Cells) -> Cells:
    """Equitable refinement of an ordered partition.

    Cells split by neighbor count into each splitter cell, subcells ordered
    by ascending count. Restarts from the first splitter after any split, so
    the result depends only on the partition structure, never on labels.
    """
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


def _relabeled_rows(adj: tuple[int, ...], order: list[int]) -> tuple[int, ...]:
    pos = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        m = 0
        for u in bits(adj[v]):
            m |= 1 << pos[u]
        rows.append(m)
    return tuple(rows)


def _search(n: int, adj: tuple[int, ...], cells: Cells) -> tuple[int, ...]:
    """Greatest leaf code over the individualization-refinement tree."""
    best: tuple[int, ...] | None = None
    best_order: list[int] | None = None
    autos: list[list[int]] = []
    base: list[int] = []

    def descend(cells: Cells) -> None:
        nonlocal best, best_order
        cells = refine(adj, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            code = _relabeled_rows(adj, order)
            if best is None or code > best:
                best = code
                best_order = order
            elif code == best:
                assert best_order is not None
                # two equal leaves differ by an automorphism of the graph
                gamma = [0] * n
                for i, v in enumerate(order):
                    gamma[v] = best_order[i]
                autos.append(gamma)
            return
        cell = cells[target]
        rest = cells[target + 1 :]
        head = cells[:target]
        explored = 0
        for v in cell:
            # skip v when a single recorded generator fixing the current base
            # pointwise carries it onto an explored sibling: the subtrees are
            # images of each other and yield the same leaf codes
            hit = False
            for gamma in autos:
                if any(gamma[b] != b for b in base):
                    continue
                w = gamma[v]
                while w != v:
                    if explored >> w & 1:
                        hit = True
                        break
                    w = gamma[w]
                if hit:
                    break
            if hit:
                continue
            explored |= 1 << v
            base.append(v)
            others = tuple(u for u in cell if u != v)
            descend(head + [(v,), others] + rest)
            base.pop()

    descend(cells)
    assert best is not None
    return best


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Adjacency rows of the canonical relabeling; equal iff isomorphic."""
    return _search(g.n, g.adj, [tuple(range(g.n))])


def canonical_graph6(g: Graph) -> str:
    return write_graph6(Graph(g.n, canonical_form(g)))


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    return canonical_form(a) == canonical_form(b)


def marked_code(g: Graph, x: int) -> tuple[int, ...]:
    """Canonical form of g with vertex x distinguished.

    Two marks give equal codes exactly when an automorphism carries one to
    the other, so this is a computable orbit invariant.
    """
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} outside graph")
    if g.n == 1:
        return (0,)
    others = tuple(v for v in range(g.n) if v != x)
    return _search(g.n, g.adj, [(x,), others])

