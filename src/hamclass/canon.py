"""Canonical labeling by individualization-refinement.

Small-order workhorse for isomorphism tests and isomorph-free generation.
The canonical form of a graph is the lexicographically greatest relabeled
adjacency row tuple reachable from an equitable ordered partition; two
graphs are isomorphic iff their forms agree. Discovered automorphisms
prune the search, so near-regular graphs (complete graphs, circulants)
stay tractable despite their large groups.

Two leaves with equal codes differ by an automorphism, which the search
records, and the recorded automorphisms generate the whole group A of
automorphisms that preserve the initial partition. A acts on the search
tree: refinement and the choice of target cell depend only on positions,
so an automorphism maps a node and its leaves to a node and leaves with
equal codes. Let R be the group the recorded ones generate. By induction
up the tree, when the search below a node returns, every leaf below it
has code at most the best so far, and each leaf equal to the best is
carried onto the best leaf by an element of R. At a leaf that element
is the recorded automorphism, or the identity when the leaf becomes the
best. A child skipped beside an explored sibling is the sibling's image
under a power of a recorded generator that fixes the base, so its leaves
are images of the sibling's leaves and the two elements compose. A later
rise of the best code leaves no old leaf equal to it, and later records
only enlarge R. At the root, an automorphism g carries the leaf whose
order is the best order mapped by g's inverse onto the best leaf, so g
lies in R.

A search bounded by a code c (`_search` with `bound`) stops at the first
leaf whose code is at least c, and meets one exactly when the greatest
leaf code is at least c. Until it stops it is the full search: it
explores each child in full before the next, and skips only a child
that a recorded automorphism carries onto an explored sibling, whose
subtree has the same leaf codes. So a search that never stops has met
every leaf code of the tree, all below c. The automorphisms it records
join leaves of equal codes, as in the full search. The generator
compares marked codes this way: a tie u whose search bounded by v's
marked code c meets no leaf has a smaller marked code. A leaf it stops
at with code c has, like the best leaf of v's search, the code of the
graph relabelled by its vertex order, which begins with the marked
vertex; so mapping the one order onto the other is an automorphism
carrying u onto v.

Intended for the orders the generator handles (about a dozen vertices);
everything is exact at any order the Graph type accepts, just slower.
"""

from __future__ import annotations

from .graphs import Graph, mask_of

Cells = list[tuple[int, ...]]


def refine(
    adj: tuple[int, ...],
    cells: Cells,
    watch: tuple[int, int] | None = None,
    *,
    uniform: set[tuple[int, ...]] | None = None,
) -> Cells | None:
    """Equitable refinement of an ordered partition.

    Cells split by neighbor count into each splitter cell, subcells ordered
    by ascending count. Restarts from the first splitter after any split, so
    the result depends only on the partition structure, never on labels.

    `watch` is a vertex v and a mask of vertices of v's cell, its ties.
    A split replaces a cell by its parts in place, so a part never moves
    relative to another once it has split off. The watched refinement
    therefore returns None as soon as a split puts a tie in a part before
    v's part, which is exactly when the unwatched refinement places a tie
    in an earlier cell than v; otherwise it returns the same cells.

    `uniform` holds cells already known to be uniform on every cell. A
    splitter uniform on every cell stays uniform on every part of a later
    split, so the restart skips it and the splits made are those made
    without the hint. Cells only shrink, so no part ever equals a tuple
    recorded before. On return `uniform` holds every cell.
    """
    if uniform is None:
        uniform = set()
    cells = list(cells)
    i = 0
    while i < len(cells):
        splitter = cells[i]
        if splitter in uniform:
            i += 1
            continue
        smask = mask_of(splitter)
        for j, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            c0 = (adj[cell[0]] & smask).bit_count()
            for v in cell:
                if (adj[v] & smask).bit_count() != c0:
                    break
            else:
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                c = (adj[v] & smask).bit_count()
                if c in groups:
                    groups[c].append(v)
                else:
                    groups[c] = [v]
            if watch is not None and watch[0] in cell:
                cv = (adj[watch[0]] & smask).bit_count()
                if any(c < cv and mask_of(part) & watch[1] for c, part in groups.items()):
                    return None
            cells[j : j + 1] = [tuple(groups[c]) for c in sorted(groups)]
            i = 0
            break
        else:
            uniform.add(splitter)
            i += 1
    return cells


def _relabeled_rows(adj: tuple[int, ...], order: list[int]) -> tuple[int, ...]:
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    rows = []
    for v in order:
        m = 0
        row = adj[v]
        while row:
            low = row & -row
            m |= 1 << pos[low.bit_length() - 1]
            row ^= low
        rows.append(m)
    return tuple(rows)


def _search(
    n: int, adj: tuple[int, ...], cells: Cells, bound: tuple[int, ...] | None = None
) -> tuple[tuple[int, ...] | None, list[list[int]], list[int] | None]:
    """Greatest leaf code over the individualization-refinement tree,
    automorphisms that generate the group preserving the initial cells,
    and the vertex order of the leaf with that code.

    With `bound`, the search stops at the first leaf whose code is at
    least `bound` and returns that leaf's code and order instead, or None
    for both when no leaf reaches `bound` (module docstring).
    """
    best: tuple[int, ...] | None = None
    best_order: list[int] | None = None
    autos: list[list[int]] = []
    base: list[int] = []
    met = False

    def descend(cells: Cells, uniform: set[tuple[int, ...]]) -> None:
        nonlocal best, best_order, met
        cells = refine(adj, cells, uniform=uniform)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            code = _relabeled_rows(adj, order)
            if bound is not None and code >= bound:
                best, best_order, met = code, order, True
            elif best is None or code > best:
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
            # every cell of an equitable partition stays uniform on the
            # two parts of the target
            descend(head + [(v,), others] + rest, set(uniform))
            base.pop()
            if met:
                return

    descend(cells, set())
    if bound is not None and not met:
        return None, autos, None
    return best, autos, best_order


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Adjacency rows of the canonical relabeling; equal iff isomorphic."""
    return _search(g.n, g.adj, [tuple(range(g.n))])[0]


def automorphism_generators(g: Graph) -> list[list[int]]:
    """Permutations (gamma[v] is the image of v) that generate Aut(g)."""
    return _search(g.n, g.adj, [tuple(range(g.n))])[1]


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
    return _search(g.n, g.adj, [(x,), others])[0]

