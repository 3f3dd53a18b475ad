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

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, mask_of
from .membership import ClassKind, ClassParams, theorem_max_degree
from .walks import (
    CycleWitness,
    PathWitness,
    check_witness,
    hamilton_cycle,
    hamilton_path,
    longest_induced_path_from,
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
    pverts = longest_induced_path_from(g, u1, stop_at=k).vertices
    if len(pverts) < k:
        raise ConfigError(f"no induced path of order {k} from vertex {u1}")
    rest = g.vertex_mask & ~mask_of(pverts)
    if not rest:
        raise ConfigError("path covers the whole graph, nothing left for a spine")
    # the first Hamilton cycle starts at its least vertex and steps to the
    # smaller of that vertex's two neighbours on it, and the first Hamilton
    # path ends above its start: both come in canonical orientation
    spine: CycleWitness | PathWitness | None
    if kind is ClassKind.GAMMA:
        spine = hamilton_cycle(g, rest)
        if spine is None:
            raise ConfigError("graph minus the path has no spanning cycle")
    else:
        spine = hamilton_path(g, rest)
        if spine is None:
            raise ConfigError("graph minus the path has no spanning path")

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


def improvement_candidates(cfg: AttachmentConfig, index: int) -> list[CycleWitness | PathWitness]:
    """Exchange walks for one segment, validated as walks of the spine's
    type and filtered to those strictly longer than the spine. On a cycle
    spine segment j is the gap after attach point j; on a path spine
    segments 0 and s are the end segments.

    The proofs pick one exchange per case split; here every applicable
    exchange is materialized and the caller takes the best, so no
    without-loss-of-generality choice is baked in.
    """
    count = len(cfg.segments)
    if not 0 <= index < count:
        raise ValueError(f"segment index {index} outside 0..{count - 1}")
    spine = cfg.spine.vertices
    pos = {v: i for i, v in enumerate(spine)}
    P = cfg.path_p.vertices
    hits = [v for v in cfg.segments[index] if cfg.graph.adj[cfg.u1] >> v & 1]
    s = len(cfg.attach_points)
    raw: list[tuple[int, ...]] = []
    if cfg.kind is ClassKind.GAMMA:
        nxt = (index + 1) % s
        a, b = cfg.attach_points[index], cfg.attach_points[nxt]
        ma, Ma = cfg.min_max_indices[index]
        mb, Mb = cfg.min_max_indices[nxt]
        if a != b:
            outer = _arc(spine, pos[b], pos[a])
            raw.append((a,) + _path_segment(P, ma, Mb) + (b,) + outer)
            raw.append((b,) + _path_segment(P, mb, Ma) + (a,) + tuple(reversed(outer)))
        if hits:
            w, wlast = hits[0], hits[-1]
            raw.append((a,) + _path_segment(P, Ma, 1) + (w,) + _arc(spine, pos[w], pos[a]))
            raw.append(_path_segment(P, 1, Mb) + (b,) + _arc(spine, pos[b], pos[wlast]) + (wlast,))
    elif index == 0:
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
    ins = _first_insertion(cfg)
    if ins is not None:
        raw.append(ins)
    walks = [type(cfg.spine)(verts) for verts in raw]
    for wit in walks:
        check_witness(cfg.graph, wit)
    return [wit for wit in walks if wit.order > len(spine)]


def verify_claims(cfg: AttachmentConfig) -> ClaimReport:
    """Check every segment inequality, size >= numerator/2 + 2 r_j, where
    the numerator sums d and eps over the attach points bounding segment
    j and an end segment of a path spine counts k for its open side. On a
    violation take the best exchange walk, which must beat the spine or
    something is broken.

    The degree chain sums the gap inequalities into the class's degree
    ceiling, so it holds exactly when the maximum degree is within
    `theorem_max_degree`; failing it on an actual member means a bug.
    """
    g, k, kind = cfg.graph, cfg.k, cfg.kind
    measured = sum(cfg.d_pprime)
    lower = k * k - k + 1 if kind is ClassKind.GAMMA else k + (k - 2) * (k - 1)
    holds = max(row.bit_count() for row in g.adj) <= theorem_max_degree(g.n, ClassParams(k, kind))
    if k == 1:
        return ClaimReport((), measured, lower, holds, None)
    s = len(cfg.attach_points)
    d, eps = cfg.d_pprime, cfg.eps
    records = []
    improvement = None
    for j in range(len(cfg.segments)):
        if kind is ClassKind.GAMMA:
            sides: tuple[int, ...] = (j, (j + 1) % s)
        else:
            sides = tuple(i for i in (j - 1, j) if 0 <= i < s)
        numerator = sum(d[i] + eps[i] for i in sides) + k * (2 - len(sides))
        bound = Fraction(numerator, 2) + 2 * cfg.r[j]
        size = len(cfg.segments[j])
        ok = size >= bound
        records.append(ClaimIndexRecord(j, size, bound, ok))
        if not ok:
            cands = improvement_candidates(cfg, j)
            if not cands:
                raise RuntimeError(
                    f"segment {j} is below its bound yet no exchange beat the spine"
                )
            best = max(cands, key=lambda w: w.order)
            if improvement is None or best.order > improvement.order:
                improvement = best
    return ClaimReport(tuple(records), measured, lower, holds, improvement)
