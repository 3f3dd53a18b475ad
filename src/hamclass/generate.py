"""Isomorph-free generation of small connected graphs.

Depth-first orderly augmentation: a graph on m+1 vertices is produced
from its deletion parent, the graph left after removing one vertex of
the canonical orbit. Growing every connected parent by every attachment
subset up to the parent's symmetries (below), keeping a child only when
its newest vertex v lands in that orbit, and growing each kept child before its next sibling yields each
isomorphism class exactly once while holding one path of the tree.

Two kept children of one parent are isomorphic exactly when their
attachment sets lie in one orbit of Aut(parent). An automorphism of the
parent carrying one set onto the other extends to an isomorphism that
fixes v. Conversely an isomorphism between two kept siblings carries v
into the other child's canonical orbit, which holds its v too, so
composing with an automorphism gives one that fixes v, and it restricts
to an automorphism of the parent that carries one attachment set onto
the other. Which parent vertices may or must take the new edge depends
only on degrees, so the candidate sets are a union of orbits, and
keeping v in the canonical orbit is a property of the orbit too.
`_children` therefore yields only the first candidate of each orbit,
which is its smallest integer mask, and the first kept sibling of each
class is the one it keeps. The orbits come from generators of all of
Aut(parent): a subtree root's come from one canonical search (see
`canon`), and any other parent's from its own tie searches or from
`_stabiliser` (below). Children of distinct parents never collide
because the deletion parent is determined up to isomorphism.

The canonical orbit is the set of non-cutvertices minimizing
(degree, refined cell position, marked canonical code); the first two
components are cheap and settle most candidates. Non-cutvertices keep
parents connected, and every connected graph has at least two of them,
so no class is orphaned.

A non-canonical child is rejected as early as each component allows.
Let A be the attachment set, so v has degree s = |A|.
- Degree skip, before the child is built. When s >= 2, every
  non-cutvertex u of the parent is still one in the child: the parent
  without u is connected, and v keeps a neighbour in it. In the child u
  has degree deg(u) + [u in A], and if that is below s, u beats v. With
  d the least degree of a parent non-cutvertex and L the ones of that
  degree, `_children` therefore skips A when s > d + 1, or when s = d + 1
  and L is not inside A. For s = 1 the test never fires: a connected
  parent of order 2 or more has d >= 1, and the one-vertex parent's vertex
  is in A. The skip is invariant under Aut(parent), and this is what keeps
  the output unchanged: an automorphism maps non-cutvertices onto
  non-cutvertices of the same degree, and A onto a set of the same size
  that holds the images of L exactly when A holds L. So the skip drops
  whole orbits, and the first candidate of every orbit it keeps is the
  one yielded before. An unattached non-cutvertex of degree s only ties
  v, and later components may still favour v, so it is not a reason to
  skip.
- Cut structure, from the parent. `_grow` finds the parent's
  non-cutvertices once. For s >= 2 they stay non-cutvertices (above); for
  s = 1 all but v's one neighbour do. A parent cutvertex becomes a
  non-cutvertex when A meets every component it separates. So
  `_is_canonical` runs a closure only for the parent's cutvertices, and
  for v's neighbour when s = 1.
- Watched refinement. A tie is a non-cutvertex of v's degree; a tie in an
  earlier refined cell than v rejects the child. A split replaces a cell
  by its parts in place, so once a tie is split off before v it stays
  before v, and `refine` with `watch` stops at that split.
- Ties settled by bounded searches. v is canonical when no tie u has
  marked_code(u) < marked_code(v) = c, and ties in one orbit of
  Aut(child) have equal marked codes. So the ties are compared lowest
  first, and after each comparison the orbit of u under the automorphisms
  known so far leaves the ties. A comparison is a search for u's marked
  code bounded by c: it stops at its first leaf whose code is at least c,
  and meets none exactly when marked_code(u) < c, which rejects the child
  (see `canon`).
- Aut(child) from the same searches, whenever ties survive refinement.
  The search for c from v alone gives generators of the stabiliser of v
  and the vertex order of a leaf with code c. A bounded search from u
  that stops at a leaf of code c gives a second vertex order with code c,
  and mapping the one order onto the other is an automorphism that
  carries u onto v; it joins the known automorphisms, so the rest of u's
  orbit leaves the ties with u. The orbit of v under Aut(child) lies in
  v's refined cell among the non-cutvertices of v's degree, so in the
  ties and v. Each tie of that orbit leaves with a compared tie u of the
  same orbit, and u has marked code c, which no leaf exceeds, so u's
  search stopped at a leaf of code c and carried u onto v. The known
  automorphisms therefore hold the stabiliser of v and are transitive
  on v's orbit, and by the orbit-stabiliser theorem they generate
  Aut(child). A kept child hands them down to its own `_grow`, which
  then needs no search of its own; a leaf, a child of the last order
  grown (n, or the split order of `subtree_roots`), has no children and
  drops them.
- A child with children to grow that was settled by degree or by its
  cell takes its group from its parent. `_is_canonical` returns no group
  for it exactly then, and then no other vertex ties v, so the canonical
  orbit is {v} and every automorphism of the child fixes v. Such an
  automorphism restricts to an automorphism of the parent that maps A
  onto itself, and each of those extends to the child by fixing v. So
  Aut(child) is the stabiliser of A in Aut(parent), with v fixed, and
  `_stabiliser` gets its generators from the parent's by Schreier's
  lemma. A subtree root, and the one-vertex root, has no parent group at
  hand and gets its group from `automorphism_generators`.

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

The floor also sets a budget. Every edge a vertex of the ancestor of
order m lacks below the floor goes to one of the n - m later vertices,
and each of those has at most max_degree edges (n - 1 without a
ceiling). A child of order m is therefore dropped when the sum over its
vertices of max(0, min_degree - degree) exceeds (n - m) * max_degree.
That sum is a property of the class as well, so the budget is sound for
the same reason as the relaxed floor.

`subtree_roots` cuts the tree at the fixed order max(1, n - 3), as
nauty's geng does with res/mod, so that the subtrees below its nodes can
be grown independently (by worker processes in a scan). Every node of
the tree has one parent, so each graph of order n has exactly one
ancestor at the split order, and the subtrees partition the output.
Whether a node is kept depends only on its own class and on the target
order n (the relaxed floor and the budget use n, not the split order),
so the roots are exactly the tree's nodes at that order, and growing
them in depth-first order emits the sequence of one depth-first walk of
the whole tree.
"""

from __future__ import annotations

from typing import Iterator

# canonical_form and marked_code are not called here; they stay bound
# because perfbench/tracer.py wraps them in this module
from .canon import _search, automorphism_generators, canonical_form, marked_code, refine
from .graphs import MAX_ORDER, Graph, bits, closure_mask, mask_of, trusted_graph

GENERATION_CAP = 10


def _noncutvertices(g: Graph) -> int:
    """Mask of the vertices whose removal leaves g connected."""
    adj = g.adj
    full = g.vertex_mask
    noncut = 0
    for u in range(g.n):
        rem = full ^ (1 << u)
        if closure_mask(adj, rem, rem & -rem) == rem:
            noncut |= 1 << u
    return noncut


def _is_canonical(child: Graph, noncut: int) -> tuple[bool, list[list[int]] | None]:
    """Whether the newest vertex lies in the canonical orbit, and, for a
    kept child whose ties survived refinement, generators of Aut(child)
    from the searches that settled them.

    `noncut` is the parent's non-cutvertex mask; the module docstring says
    why only the parent's cutvertices, and the one neighbour of a pendant
    newest vertex, need a closure here.
    """
    adj = child.adj
    n = child.n
    v = n - 1
    dv = adj[v].bit_count()
    full = child.vertex_mask
    # the newest vertex is never a cutvertex (its parent is connected), so
    # only a non-cutvertex of degree at most dv can beat or tie it; only
    # these vertices can differ from the parent in being one
    recheck = ~noncut | adj[v] if dv == 1 else ~noncut
    ties = 0
    for u in range(v):
        du = adj[u].bit_count()
        if du > dv:
            continue
        if recheck >> u & 1:
            rem = full ^ (1 << u)
            if closure_mask(adj, rem, rem & -rem) != rem:
                continue
        if du < dv:
            return False, None
        ties |= 1 << u
    if not ties:
        return True, None
    cells = refine(adj, [tuple(range(n))], (v, ties))
    if cells is None:
        return False, None
    ties &= mask_of(next(cell for cell in cells if v in cell))
    if not ties:
        return True, None
    # marked_code(child, v), generators of the stabiliser of v, and the
    # vertex order of a leaf with that code
    code, gens, best = _search(n, adj, [(v,), tuple(range(v))])
    while ties:
        u = (ties & -ties).bit_length() - 1
        met, order = _bounded(child, u, code)
        if met is None:
            return False, None
        if met == code:
            # the two leaves have equal codes, so mapping one vertex order
            # onto the other is an automorphism, and it carries u onto v
            gamma = [0] * n
            for x, y in zip(order, best):
                gamma[x] = y
            gens.append(gamma)
        # the orbits are sets of one-bit masks, so a sum is their union
        ties &= ~sum(_orbit(1 << u, gens))
    return True, gens


def _bounded(
    child: Graph, u: int, code: tuple[int, ...]
) -> tuple[tuple[int, ...] | None, list[int] | None]:
    """The code and vertex order of the first leaf of the search for
    marked_code(child, u) whose code is at least `code`; None for both
    when there is none, that is, when marked_code(child, u) < code."""
    others = tuple(x for x in range(child.n) if x != u)
    met, _, order = _search(child.n, child.adj, [(u,), others], code)
    return met, order


def _image(mask: int, gamma: list[int]) -> int:
    """The image of a vertex set under a permutation."""
    image = 0
    while mask:
        low = mask & -mask
        image |= 1 << gamma[low.bit_length() - 1]
        mask ^= low
    return image


def _orbit(mask: int, gens: list[list[int]]) -> set[int]:
    """The images of a vertex set under the group the permutations generate."""
    orbit = {mask}
    frontier = [mask]
    while frontier:
        s = frontier.pop()
        for gamma in gens:
            image = _image(s, gamma)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _stabiliser(gens: list[list[int]], attach: int) -> list[list[int]]:
    """Generators of the automorphisms of the child with a new vertex joined
    to `attach` that fix that vertex, from generators `gens` of Aut(parent).

    These are the parent's automorphisms that map `attach` onto itself, each
    extended to fix the new vertex. One walk of the orbit of `attach` keeps,
    for each set X met, a t_X carrying `attach` onto X; by Schreier's lemma
    the products t_{gamma(X)}^-1 gamma t_X generate the set stabiliser.
    """
    if not gens:
        return []
    m = len(gens[0])
    identity = list(range(m))
    transversal = {attach: identity}
    frontier = [attach]
    found: set[tuple[int, ...]] = set()
    while frontier:
        s = frontier.pop()
        t = transversal[s]
        for gamma in gens:
            image = _image(s, gamma)
            moved = [gamma[x] for x in t]
            back = transversal.get(image)
            if back is None:
                transversal[image] = moved
                frontier.append(image)
                continue
            inverse = [0] * m
            for x, y in enumerate(back):
                inverse[y] = x
            schreier = [inverse[y] for y in moved]
            if schreier != identity:
                found.add(tuple(schreier))
    return [[*perm, m] for perm in found]


def _children(
    parent: Graph,
    max_degree: int | None,
    floor: int,
    gens: list[list[int]],
    noncut: int,
) -> Iterator[Graph]:
    """Children of parent, in ascending attachment order, whose degrees all
    lie in [floor, max_degree], one per orbit of the group gens generate,
    leaving out the orbits the degree skip rejects (module docstring);
    `noncut` is the parent's non-cutvertex mask."""
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
    # the least degree of a parent non-cutvertex, and the vertices having it
    least = min(rows[u].bit_count() for u in bits(noncut))
    lows = mask_of(u for u in bits(noncut) if rows[u].bit_count() == least)
    bit = 1 << m
    covered: set[int] = set()
    sub = 0
    while True:
        # the subsets of free in ascending order, each joined to must, so
        # the first candidate met in an orbit is its smallest mask
        attach = must | sub
        size = attach.bit_count()
        if (
            attach
            and floor <= size <= high
            and (size <= least or size == least + 1 and not lows & ~attach)
            and attach not in covered
        ):
            if gens:
                covered |= _orbit(attach, gens)
            yield trusted_graph(
                m + 1,
                tuple(row | bit if attach >> u & 1 else row for u, row in enumerate(rows))
                + (attach,),
            )
        sub = (sub - free) & free
        if not sub:
            return


def _grow(
    graph: Graph,
    n: int,
    max_degree: int | None,
    min_degree: int,
    stop: int | None = None,
    gens: list[list[int]] | None = None,
) -> Iterator[Graph]:
    """graph itself at order `stop` (default n), else the nodes of that
    order below it in the tree whose window is that of order n. `gens`,
    when given, generate Aut(graph)."""
    last = n if stop is None else stop
    if graph.n == last:
        yield graph
        return
    m = graph.n + 1
    budget = (n - m) * (n - 1 if max_degree is None else max_degree)
    if gens is None:
        gens = automorphism_generators(graph)
    noncut = _noncutvertices(graph)
    for child in _children(graph, max_degree, min_degree - (n - m), gens, noncut):
        if min_degree and budget < sum(
            min_degree - d for d in map(int.bit_count, child.adj) if d < min_degree
        ):
            continue
        kept, child_gens = _is_canonical(child, noncut)
        if kept:
            if child_gens is None and m < last:
                child_gens = _stabiliser(gens, child.adj[-1])
            yield from _grow(child, n, max_degree, min_degree, stop, child_gens)


def subtree_roots(
    n: int, *, max_degree: int | None = None, min_degree: int = 0
) -> Iterator[Graph]:
    """The nodes of the augmentation tree for order n at order
    max(1, n - 3), in depth-first order, for `generate_connected(...,
    root=...)` to grow. They are yielded lazily; the one-vertex graph is
    the only root for n <= 4.
    """
    if not 1 <= n <= min(GENERATION_CAP, MAX_ORDER):
        raise ValueError(f"order {n} outside 1..{GENERATION_CAP}")
    if max_degree is not None and max_degree < 0:
        raise ValueError("negative degree ceiling")
    if min_degree < 0:
        raise ValueError("negative degree floor")
    # _children applies the window to every graph but the one-vertex root
    if n > 1 or min_degree == 0:
        yield from _grow(Graph(1, (0,)), n, max_degree, min_degree, max(1, n - 3))


def generate_connected(
    n: int, *, max_degree: int | None = None, min_degree: int = 0, root: Graph | None = None
) -> Iterator[Graph]:
    """All connected graphs of order n, one per isomorphism class.

    Only graphs with every degree in [min_degree, max_degree] are kept,
    pruning during augmentation rather than filtering afterwards. The
    graphs come subtree by subtree, below each of `subtree_roots`; with
    `root`, one of those roots for the same n and window, only the graphs
    of its subtree come.
    """
    roots = subtree_roots(n, max_degree=max_degree, min_degree=min_degree) if root is None else (root,)
    for node in roots:
        yield from _grow(node, n, max_degree, min_degree)
