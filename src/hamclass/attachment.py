"""Attachment configurations and the segment inequalities behind the
degree ceilings.

The ceiling proofs decompose a candidate graph into an induced path P
headed by a maximum-degree vertex, a spine spanning the rest (a cycle
for the cycle class, a path for the path class), the spine vertices
attached to P minus its head, and the gap segments between consecutive
attach points. Each gap must be at least as large as an expression in
the attachment data; a too-small gap lets the path be spliced into the
spine, producing a walk longer than the spine itself.

Everything here is evaluated on concrete graphs, member or not. The
claim checkers are conditional oracles: when an inequality fails they
must hand back a strictly longer walk, built by the same exchanges the
proofs use, and a missing improvement is treated as an implementation
bug rather than a soft failure.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, bits, induced_subgraph, mask_of
from .membership import ClassKind
from .walks import (
    CycleWitness,
    PathWitness,
    check_witness,
    hamilton_cycle,
    hamilton_path,
)


class ConfigError(ValueError):
    """The graph does not admit the requested decomposition."""


@dataclass(frozen=True)
class AttachmentConfig:
    """One proof decomposition, fully materialized.

    Per-attach-point tuples run in spine orientation order. For a path
    spine there is one more segment than attach points: the stretches
    before the first and after the last attach point are segments too,
    and carry the end-segment inequalities.
    """

    graph: Graph
    path_p: PathWitness
    spine: CycleWitness | PathWitness
    attach_points: tuple[int, ...]
    eps: tuple[int, ...]
    d_pprime: tuple[int, ...]
    segments: tuple[tuple[int, ...], ...]
    r: tuple[int, ...]
    min_max_indices: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        s = len(self.attach_points)
        if not len(self.eps) == len(self.d_pprime) == len(self.min_max_indices) == s:
            raise ValueError("per-attach-point fields disagree on s")
        want = s if isinstance(self.spine, CycleWitness) else s + 1
        if len(self.segments) != want or len(self.r) != want:
            raise ValueError("segment count does not fit the spine type")
        if sum(len(q) for q in self.segments) + s != len(self.spine.vertices):
            raise ValueError("segments plus attach points must cover the spine")

    @property
    def k(self) -> int:
        return len(self.path_p.vertices)

    @property
    def kind(self) -> ClassKind:
        return ClassKind.GAMMA if isinstance(self.spine, CycleWitness) else ClassKind.PI

    @property
    def u1(self) -> int:
        return self.path_p.vertices[0]


@dataclass(frozen=True)
class ClaimIndexRecord:
    index: int
    segment_size: int
    required_bound: Fraction
    satisfied: bool


@dataclass(frozen=True)
class ClaimReport:
    per_index: tuple[ClaimIndexRecord, ...]
    edge_count_pprime_spine: int
    edge_count_lower_bound: int
    degree_chain_holds: bool
    improvement: CycleWitness | PathWitness | None


def _induced_path_exact(g: Graph, start: int, k: int) -> tuple[int, ...] | None:
    """Lexicographically first induced path of exactly k vertices."""
    adj = g.adj
    path = [start]

    def grow(last: int, blocked: int) -> bool:
        if len(path) == k:
            return True
        for w in bits(adj[last] & ~blocked):
            path.append(w)
            if grow(w, blocked | adj[last] | (1 << w)):
                return True
            path.pop()
        return False

    return tuple(path) if grow(start, 1 << start) else None


def _canonical_cycle(verts: tuple[int, ...]) -> tuple[int, ...]:
    at = verts.index(min(verts))
    fwd = verts[at:] + verts[:at]
    rev = (fwd[0],) + fwd[1:][::-1]
    return min(fwd, rev)


def build_config(
    g: Graph, k: int, kind: ClassKind, u1: int | None = None
) -> AttachmentConfig:
    """Deterministic decomposition: smallest-label maximum-degree head
    unless one is supplied, lexicographically first induced path of order
    k, spanned remainder with canonical orientation.

    Raises ConfigError when the pieces do not exist (no induced path of
    the requested order, no spanning walk after removing it, too few
    attach points, or a path spine attached at an endpoint).
    """
    if not isinstance(kind, ClassKind):
        raise ValueError(f"kind must be a ClassKind, got {kind!r}")
    if k < 1:
        raise ValueError(f"path order k must be positive, got {k}")
    n = g.n
    if u1 is None:
        dmax = max(g.degree(v) for v in range(n))
        u1 = next(v for v in range(n) if g.degree(v) == dmax)
    elif not 0 <= u1 < n:
        raise ValueError(f"vertex {u1} outside graph")
    pverts = _induced_path_exact(g, u1, k)
    if pverts is None:
        raise ConfigError(f"no induced path of order {k} from vertex {u1}")
    rest = [v for v in range(n) if v not in set(pverts)]
    if not rest:
        raise ConfigError("path covers the whole graph, nothing left for a spine")
    sub = induced_subgraph(g, rest)
    spine: CycleWitness | PathWitness
    if kind is ClassKind.GAMMA:
        walk = hamilton_cycle(sub)
        if walk is None:
            raise ConfigError("graph minus the path has no spanning cycle")
        spine = CycleWitness(_canonical_cycle(tuple(rest[i] for i in walk.vertices)))
    else:
        pwalk = hamilton_path(sub)
        if pwalk is None:
            raise ConfigError("graph minus the path has no spanning path")
        orig = tuple(rest[i] for i in pwalk.vertices)
        spine = PathWitness(min(orig, orig[::-1]))

    # at k=1 the head itself plays the attachment role: there is no P'
    anchor = pverts[1:] if k >= 2 else pverts
    amask = mask_of(anchor)
    attach = tuple(v for v in spine.vertices if g.adj[v] & amask)
    s = len(attach)
    floor = k + 1 if kind is ClassKind.GAMMA else k
    if s < floor:
        raise ConfigError(f"only {s} attach points, need at least {floor}")
    if kind is ClassKind.PI and (
        spine.vertices[0] in attach or spine.vertices[-1] in attach
    ):
        raise ConfigError("path spine attached at an endpoint")

    u1row = g.adj[u1]
    pprime_mask = mask_of(pverts[1:])
    eps = tuple(1 if u1row >> v & 1 else 0 for v in attach)
    d_pprime = tuple((g.adj[v] & pprime_mask).bit_count() for v in attach)
    mm = []
    for v in attach:
        idx = [i + 1 for i, u in enumerate(pverts) if g.adj[v] >> u & 1]
        mm.append((idx[0], idx[-1]))

    ordered = spine.vertices
    pos = {v: i for i, v in enumerate(ordered)}
    if kind is ClassKind.GAMMA:
        segments = [_arc(ordered, pos[attach[j]], pos[attach[(j + 1) % s]]) for j in range(s)]
    else:
        cuts = [pos[v] for v in attach]
        segments = [ordered[: cuts[0]]]
        for j in range(1, s):
            segments.append(ordered[cuts[j - 1] + 1 : cuts[j]])
        segments.append(ordered[cuts[-1] + 1 :])
    r = tuple(sum(u1row >> v & 1 for v in seg) for seg in segments)
    return AttachmentConfig(
        g, PathWitness(pverts), spine, attach, eps, d_pprime,
        tuple(segments), r, tuple(mm),
    )


def _arc(cycle: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """The vertices strictly between positions i and j, forward around
    cycle (all but position i when i == j)."""
    L = len(cycle)
    return tuple(cycle[(i + 1 + t) % L] for t in range((j - i - 1) % L))


def _path_segment(path: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    # 1-based inclusive endpoints, traversed from i's side
    if i <= j:
        return path[i - 1 : j]
    return tuple(reversed(path[j - 1 : i]))


def _first_insertion(cfg: AttachmentConfig) -> tuple[int, ...] | None:
    spine = cfg.spine.vertices
    L = len(spine)
    row = cfg.graph.adj[cfg.u1]
    last = L if isinstance(cfg.spine, CycleWitness) else L - 1
    for i in range(last):
        if row >> spine[i] & 1 and row >> spine[(i + 1) % L] & 1:
            return spine[: i + 1] + (cfg.u1,) + spine[i + 1 :]
    return None


def consecutive_neighbor_check(cfg: AttachmentConfig) -> CycleWitness | None:
    """Insertion cycle through the path head, if two consecutive spine
    vertices admit it. Refutes any claim that the spine is longest."""
    if cfg.kind is not ClassKind.GAMMA:
        raise ValueError("insertion check applies to cycle spines only")
    verts = _first_insertion(cfg)
    if verts is None:
        return None
    w = CycleWitness(verts)
    check_witness(cfg.graph, w)
    return w


def _longer_than_spine(
    cfg: AttachmentConfig,
    raw: list[tuple[int, ...]],
    witness: type[CycleWitness] | type[PathWitness],
) -> list:
    """The raw exchange walks and the insertion walk, each validated as a
    `witness`, that are strictly longer than the spine."""
    ins = _first_insertion(cfg)
    if ins is not None:
        raw.append(ins)
    out = []
    for verts in raw:
        wit = witness(verts)
        check_witness(cfg.graph, wit)
        if wit.order > len(cfg.spine.vertices):
            out.append(wit)
    return out


def gamma_improvement_candidates(cfg: AttachmentConfig, index: int) -> list[CycleWitness]:
    """Exchange cycles for one gap of a cycle spine, already validated
    and filtered to those strictly longer than the spine.

    The proofs pick one exchange per case split; here every applicable
    exchange is materialized and the caller takes the best, so no
    without-loss-of-generality choice is baked in.
    """
    if cfg.kind is not ClassKind.GAMMA:
        raise ValueError("cycle exchanges need a cycle spine")
    s = len(cfg.attach_points)
    if not 0 <= index < s:
        raise ValueError(f"segment index {index} outside 0..{s - 1}")
    spine = cfg.spine.vertices
    pos = {v: i for i, v in enumerate(spine)}
    P = cfg.path_p.vertices
    nxt = (index + 1) % s
    a, b = cfg.attach_points[index], cfg.attach_points[nxt]
    ma, Ma = cfg.min_max_indices[index]
    mb, Mb = cfg.min_max_indices[nxt]

    raw: list[tuple[int, ...]] = []
    if a != b:
        outer = _arc(spine, pos[b], pos[a])
        raw.append((a,) + _path_segment(P, ma, Mb) + (b,) + outer)
        raw.append((b,) + _path_segment(P, mb, Ma) + (a,) + tuple(reversed(outer)))
    hits = [v for v in cfg.segments[index] if cfg.graph.adj[cfg.u1] >> v & 1]
    if hits:
        w, wlast = hits[0], hits[-1]
        raw.append((a,) + _path_segment(P, Ma, 1) + (w,) + _arc(spine, pos[w], pos[a]))
        raw.append(_path_segment(P, 1, Mb) + (b,) + _arc(spine, pos[b], pos[wlast]) + (wlast,))
    return _longer_than_spine(cfg, raw, CycleWitness)


def pi_improvement_candidates(cfg: AttachmentConfig, index: int) -> list[PathWitness]:
    """Exchange paths for one segment of a path spine (index 0 and s are
    the end segments), validated and filtered to order > spine."""
    if cfg.kind is not ClassKind.PI:
        raise ValueError("path exchanges need a path spine")
    s = len(cfg.attach_points)
    if not 0 <= index <= s:
        raise ValueError(f"segment index {index} outside 0..{s}")
    spine = cfg.spine.vertices
    pos = {v: i for i, v in enumerate(spine)}
    P = cfg.path_p.vertices
    hits = [v for v in cfg.segments[index] if cfg.graph.adj[cfg.u1] >> v & 1]
    raw: list[tuple[int, ...]] = []
    if index == 0:
        b = cfg.attach_points[0]
        mb, Mb = cfg.min_max_indices[0]
        suffix = spine[pos[b] :]
        raw.append(tuple(reversed(P[mb - 1 :])) + suffix)
        raw.append(P[:Mb] + suffix)
        if hits:
            raw.append(tuple(reversed(P)) + spine[pos[hits[0]] :])
            raw.append(spine[: pos[hits[-1]] + 1] + P[:Mb] + suffix)
    elif index == s:
        a = cfg.attach_points[s - 1]
        ma, Ma = cfg.min_max_indices[s - 1]
        prefix = spine[: pos[a] + 1]
        raw.append(prefix + P[ma - 1 :])
        raw.append(prefix + tuple(reversed(P[:Ma])))
        if hits:
            raw.append(spine[: pos[hits[-1]] + 1] + P)
            raw.append(prefix + tuple(reversed(P[:Ma])) + spine[pos[hits[0]] :])
    else:
        a, b = cfg.attach_points[index - 1], cfg.attach_points[index]
        ma, Ma = cfg.min_max_indices[index - 1]
        mb, Mb = cfg.min_max_indices[index]
        prefix = spine[: pos[a] + 1]
        suffix = spine[pos[b] :]
        raw.append(prefix + _path_segment(P, ma, Mb) + suffix)
        raw.append(prefix + _path_segment(P, Ma, mb) + suffix)
        if hits:
            raw.append(prefix + tuple(reversed(P[:Ma])) + spine[pos[hits[0]] :])
            raw.append(spine[: pos[hits[-1]] + 1] + P[:Mb] + suffix)
    return _longer_than_spine(cfg, raw, PathWitness)


def _chain_fields(cfg: AttachmentConfig) -> tuple[int, int, bool]:
    g = cfg.graph
    k = cfg.k
    n = g.n
    delta = max(row.bit_count() for row in g.adj)
    measured = sum(cfg.d_pprime)
    if cfg.kind is ClassKind.GAMMA:
        lower = k * k - k + 1
        holds = n - k - 2 * delta + 2 >= lower
    else:
        lower = k + (k - 2) * (k - 1)
        holds = n - 2 * k - 2 * delta + 2 >= lower
    return measured, lower, holds


def _verify_claims(
    cfg: AttachmentConfig,
    count: int,
    numerator: Callable[[int], int],
    candidates: Callable[[AttachmentConfig, int], list],
    what: str,
) -> ClaimReport:
    """Check segment j < count against numerator(j)/2 + 2 r_j; on a
    violation take the best exchange walk from candidates(cfg, j), which
    must beat the spine or something is broken."""
    measured, lower, holds = _chain_fields(cfg)
    if cfg.k == 1:
        return ClaimReport((), measured, lower, holds, None)
    records = []
    improvement = None
    for j in range(count):
        bound = Fraction(numerator(j), 2) + 2 * cfg.r[j]
        size = len(cfg.segments[j])
        ok = size >= bound
        records.append(ClaimIndexRecord(j, size, bound, ok))
        if not ok:
            cands = candidates(cfg, j)
            if not cands:
                raise RuntimeError(
                    f"{what} {j} is below its bound yet no exchange beat the spine"
                )
            best = max(cands, key=lambda w: w.order)
            if improvement is None or best.order > improvement.order:
                improvement = best
    return ClaimReport(tuple(records), measured, lower, holds, improvement)


def verify_gamma_claim(cfg: AttachmentConfig) -> ClaimReport:
    """Check every cyclic gap inequality; on violation return the best
    exchange cycle, which must beat the spine or something is broken."""
    if cfg.kind is not ClassKind.GAMMA:
        raise ValueError("gamma claims need a cycle spine")
    s = len(cfg.attach_points)
    d, eps = cfg.d_pprime, cfg.eps
    return _verify_claims(
        cfg, s, lambda j: d[j] + d[(j + 1) % s] + eps[j] + eps[(j + 1) % s],
        gamma_improvement_candidates, "gap",
    )


def verify_pi_claims(cfg: AttachmentConfig) -> ClaimReport:
    """Check the two end-segment inequalities and the interior ones."""
    if cfg.kind is not ClassKind.PI:
        raise ValueError("pi claims need a path spine")
    s = len(cfg.attach_points)
    d, eps, k = cfg.d_pprime, cfg.eps, cfg.k

    def numerator(j: int) -> int:
        if j == 0:
            return d[0] + k + eps[0]
        if j == s:
            return d[s - 1] + k + eps[s - 1]
        return d[j - 1] + d[j] + eps[j - 1] + eps[j]

    return _verify_claims(cfg, s + 1, numerator, pi_improvement_candidates, "segment")


def degree_chain_audit(cfg: AttachmentConfig) -> ClaimReport:
    """Re-derive the summation chain that turns the gap inequalities
    into the degree ceiling. A failing chain on an actual member means
    a bug somewhere: the proofs rule it out."""
    if cfg.k < 2:
        raise ValueError("degree chain is defined for k >= 2")
    measured, lower, holds = _chain_fields(cfg)
    return ClaimReport((), measured, lower, holds, None)
