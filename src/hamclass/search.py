"""Staged emptiness scans and replayable membership certificates.

A scan runs every graph of one order through a prune-then-decide
pipeline: parameter and degree rules first, a connectivity cut next,
and the exact membership decision only for the survivors. Graphs come
either from the internal isomorph-free generator (small orders) or
from an external graph6 stream. Reports are deterministic up to the
wall-clock field, so census results can be diffed between runs.

Certificates package one membership verdict together with enough
witness material that a verifier can replay it structurally, without
redoing the search that produced it.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, as_completed, wait
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import Callable, Iterable, Iterator, TextIO

from .generate import GENERATION_CAP, generate_connected, subtree_roots
# vertex_connectivity is called from .membership, and degree_profile and
# induced_subgraph are not called at all; they stay bound here because
# perfbench/tracer.py wraps them in this module
from .graphs import (
    GRAPH6_HEADER,
    Graph,
    Graph6Error,
    degree_profile,
    induced_subgraph,
    mask_of,
    parse_graph6,
    vertex_connectivity,
    write_graph6,
)
from .membership import (
    BAD_DELETION_SET,
    DEFAULT_RULES,
    RULE_ORDER,
    WRONG_LENGTH,
    ClassKind,
    ClassParams,
    degree_window,
    membership,
    target_length,
    violated_rules,
)
from .walks import (
    circumference,
    detour_order,
    hamilton_cycle,
    hamilton_path,
    is_cycle_in,
    is_path_in,
)

log = logging.getLogger(__name__)

SOURCE_GENERATOR = "gen"
SOURCE_STREAM = "stream"

# records per stream unit, and consecutive subtree roots per generator unit:
# a pool round trip costs about as much as a light subtree, and the tail of
# a scan then waits for at most one four-root unit
_CHUNK_RECORDS = 256
_UNIT_ROOTS = 4


class CertificateError(ValueError):
    """The record cannot even be read as a certificate."""


@dataclass(frozen=True)
class Certificate:
    graph6: str
    kind: ClassKind
    k: int
    verdict: str
    reason: str | None
    found_length: int | None
    witness_set: tuple[int, ...] | None
    witness_walks: tuple[tuple[int, ...], ...] | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "graph6": self.graph6,
                "class": self.kind.value,
                "k": self.k,
                "verdict": self.verdict,
                "reason": self.reason,
                "found_length": self.found_length,
                "witness_set": self.witness_set,
                "witness_walks": self.witness_walks,
            },
            separators=(",", ":"),
        )


_CERT_KEYS = frozenset(
    ("graph6", "class", "k", "verdict", "reason", "found_length", "witness_set", "witness_walks")
)


def _plain_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_certificate(line: str) -> Certificate:
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise CertificateError(f"not a certificate record: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != _CERT_KEYS:
        raise CertificateError("certificate fields missing or unknown")
    graph6 = obj["graph6"]
    if not isinstance(graph6, str):
        raise CertificateError("graph6 must be a string")
    try:
        kind = ClassKind(obj["class"])
    except ValueError as exc:
        raise CertificateError(f"unknown class {obj['class']!r}") from exc
    k = obj["k"]
    if not _plain_int(k) or k < 1:
        raise CertificateError("k must be a positive integer")
    verdict = obj["verdict"]
    if verdict not in ("member", "refuted"):
        raise CertificateError(f"unknown verdict {verdict!r}")
    reason = obj["reason"]
    if reason not in (None, WRONG_LENGTH, BAD_DELETION_SET):
        raise CertificateError(f"unknown reason {reason!r}")
    found = obj["found_length"]
    if found is not None and not _plain_int(found):
        raise CertificateError("found_length must be an integer or null")
    wset = obj["witness_set"]
    if wset is not None:
        if not isinstance(wset, list) or not all(_plain_int(v) for v in wset):
            raise CertificateError("witness_set must be a vertex array or null")
        wset = tuple(wset)
    walks = obj["witness_walks"]
    if walks is not None:
        bad = not isinstance(walks, list) or not all(
            isinstance(w, list) and all(_plain_int(v) for v in w) for w in walks
        )
        if bad:
            raise CertificateError("witness_walks must be an array of vertex arrays or null")
        walks = tuple(tuple(w) for w in walks)
    return Certificate(graph6, kind, k, verdict, reason, found, wset, walks)


def certify(g: Graph, params: ClassParams, *, include_walks: bool = True) -> Certificate:
    """Decide membership and package the verdict with its witnesses.

    Without walks a member certificate is a bare claim that verifiers
    must re-decide; with them (the default) verification replays the
    per-deletion walks structurally.
    """
    verdict = membership(g, params, collect_walks=include_walks)
    if verdict.member:
        walks = verdict.deletion_walks
    else:
        walks = None if verdict.witness is None else (verdict.witness,)
    return Certificate(
        write_graph6(g),
        params.kind,
        params.k,
        "member" if verdict.member else "refuted",
        verdict.reason,
        verdict.found_length,
        verdict.bad_set,
        None if walks is None else tuple(w.vertices for w in walks),
    )


def _walk_ok(g: Graph, kind: ClassKind, verts: tuple[int, ...]) -> bool:
    return is_cycle_in(g, verts) if kind is ClassKind.GAMMA else is_path_in(g, verts)


def verify_certificate(cert: Certificate) -> bool:
    """Replay a certificate against its embedded graph.

    Walk witnesses are validated structurally, a member's before its one
    exact search, so a bad walk costs no proof that no longer walk exists.
    That search is the longest-walk length: valid per-deletion walks alone
    cannot rule out a longer walk in the full graph (complete graphs would
    certify as members otherwise). At k = 1 the walks already show one of
    n - 1 vertices, so it is a Hamilton-cycle or Hamilton-path search
    alone. A member certificate must state the target as its
    length. Refuting deletion sets are re-searched, and a claimed length
    shorter than the target is re-derived, since no walk can witness an
    upper bound.
    """
    try:
        g = parse_graph6(cert.graph6)
    except Graph6Error as exc:
        raise CertificateError(f"embedded graph does not parse: {exc}") from exc
    kind, k = cert.kind, cert.k
    try:
        params = ClassParams(k, kind)
        target = target_length(g.n, params)
    except ValueError:
        return False
    longest = circumference if kind is ClassKind.GAMMA else detour_order
    spanning = hamilton_cycle if kind is ClassKind.GAMMA else hamilton_path

    if cert.verdict == "member":
        if cert.reason is not None or cert.witness_set is not None:
            return False
        if cert.found_length != target:
            return False
        if cert.witness_walks is None:
            return membership(g, params).member
        # check every walk before the exact search, and never hold the
        # deletion sets: there are C(n, k) of them, whatever the
        # certificate's size
        if len(cert.witness_walks) != comb(g.n, k):
            return False
        for drop, walk in zip(combinations(range(g.n), k), cert.witness_walks):
            if len(walk) != target or set(walk) & set(drop):
                return False
            if not _walk_ok(g, kind, walk):
                return False
        if k == 1:
            return spanning(g) is None
        return longest(g)[0] == target

    if cert.reason == WRONG_LENGTH:
        found = cert.found_length
        if found is None or found == target or cert.witness_set is not None:
            return False
        if cert.witness_walks is not None:
            if len(cert.witness_walks) != 1:
                return False
            walk = cert.witness_walks[0]
            if len(walk) != found or not _walk_ok(g, kind, walk):
                return False
            if found > target:
                return True
        return longest(g)[0] == found

    if cert.reason == BAD_DELETION_SET:
        if cert.found_length is not None or cert.witness_walks is not None:
            return False
        drop = cert.witness_set
        if drop is None or len(drop) != k or len(set(drop)) != k:
            return False
        if not all(0 <= v < g.n for v in drop):
            return False
        return spanning(g, g.vertex_mask ^ mask_of(drop)) is None

    return False


@dataclass(frozen=True)
class ScanSpec:
    n: int
    params: ClassParams
    source: str = SOURCE_GENERATOR
    prune_rules: frozenset[str] = DEFAULT_RULES

    def __post_init__(self) -> None:
        if self.source not in (SOURCE_GENERATOR, SOURCE_STREAM):
            raise ValueError(f"source must be gen or stream, got {self.source!r}")
        unknown = set(self.prune_rules) - set(RULE_ORDER)
        if unknown:
            raise ValueError(f"unknown prune rules {sorted(unknown)}")
        target_length(self.n, self.params)
        if (
            self.source == SOURCE_GENERATOR
            and self.n > GENERATION_CAP
            and not _starts_no_generation(self.n, *degree_window(self.n, self.params, self.prune_rules))
        ):
            raise ValueError(
                f"internal generation stops at order {GENERATION_CAP}; stream order {self.n} instead"
            )


def _starts_no_generation(n: int, floor: int, cap: int | None) -> bool:
    """Whether no graph of order n has every degree in [floor, cap]: the
    window is empty, or a single odd degree at odd order (handshake lemma).
    A generator scan of such a window examines nothing."""
    return cap is not None and (cap < 0 or floor == cap and n * floor % 2 == 1)


@dataclass(frozen=True)
class EmptinessReport:
    spec: ScanSpec
    total_examined: int
    pruned_per_rule: dict[str, int]
    fully_decided: int
    members_found: tuple[str, ...]
    wall_seconds: float
    skipped_records: int = 0


def first_violated_rule(g: Graph, params: ClassParams, rules: frozenset[str]) -> str | None:
    """The first rule of `violated_rules` g fails; it takes the attribution."""
    return next(violated_rules(g, params, rules), None)


class RecordReader:
    """The graph6 records of a text stream, under one skip policy.

    Iterating yields (line number, record text, graph). Blank lines are
    ignored and a ">>graph6<<" header is tolerated on the first line. A
    record that does not parse, that has another order than `order` when
    one is given, or that a consumer passes to `skip`, is logged with its
    line number and counted in `skipped`, and reading goes on.
    """

    def __init__(self, stream: Iterable[str], order: int | None = None) -> None:
        self.stream = stream
        self.order = order
        self.skipped = 0

    def skip(self, lineno: int, reason: object) -> None:
        self.skipped += 1
        log.warning("record %d skipped: %s", lineno, reason)

    def __iter__(self) -> Iterator[tuple[int, str, Graph]]:
        for lineno, raw in enumerate(self.stream, 1):
            text = raw.strip()
            if lineno == 1 and text.startswith(GRAPH6_HEADER):
                text = text[len(GRAPH6_HEADER) :].strip()
            if not text:
                continue
            try:
                g = parse_graph6(text)
            except Graph6Error as exc:
                self.skip(lineno, exc)
                continue
            if self.order is not None and g.n != self.order:
                self.skip(lineno, f"order {g.n} in an order-{self.order} scan")
                continue
            yield lineno, text, g


def _decide_chunk(
    graphs: Iterable[Graph], params: ClassParams, rules: frozenset[str]
) -> tuple[Counter[str], list[str]]:
    """One unit's report: a tally of each graph under the rule that pruned
    it or under "decided", and the graph6 records of the members, in order."""
    tally: Counter[str] = Counter()
    members = []
    for g in graphs:
        rule = first_violated_rule(g, params, rules)
        tally[rule or "decided"] += 1
        if rule is None and membership(g, params).member:
            members.append(write_graph6(g))
    return tally, members


def _decide_subtrees(
    roots: list[Graph], n: int, floor: int, cap: int | None, params: ClassParams, rules: frozenset[str]
) -> tuple[Counter[str], list[str]]:
    """`_decide_chunk` over the graphs generated below `roots`, in order."""
    graphs = (g for r in roots for g in generate_connected(n, max_degree=cap, min_degree=floor, root=r))
    return _decide_chunk(graphs, params, rules)


def _chunk_reports(
    pool: Executor | None, depth: int, task: Callable, units: Iterable, *args: object
) -> Iterator[tuple[Counter[str], list[str]]]:
    """`task(unit, *args)` for each unit: in this process, in order, without
    a pool, else with at most `depth` units in flight, each report yielded
    as soon as its unit is done, so that one long unit does not hold back
    the units behind it. (`Executor.map` would submit every unit, reading
    a whole stream, before it yields the first result.)"""
    pending: set = set()
    for unit in units:
        if pool is None:
            yield task(unit, *args)
            continue
        pending.add(pool.submit(task, unit, *args))
        if len(pending) == depth:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result()
    for future in as_completed(pending):
        yield future.result()


def scan(spec: ScanSpec, stream: Iterable[str] | TextIO | None = None, *, workers: int = 1) -> EmptinessReport:
    """Examine every graph of order spec.n from the chosen source.

    The degree window of the enabled rules (`degree_window`) is pushed
    into the generator: graphs outside it are never materialized, so they
    appear in no count. The work is cut into units: for the generator, up
    to four consecutive roots of `subtree_roots`, their subtrees grown and
    decided in turn where the unit runs; for a stream, chunks of 256
    records. Units run in this process for one worker or at most two
    units (up to 512 records or eight roots), and otherwise in a pool of
    at most min(workers, os.cpu_count()) processes, with at most two
    units per process in flight, each report taken as its unit finishes.
    With two units a pool can overlap at most one unit with the other,
    and its fixed costs (forking every worker at the first submit,
    parsing the first chunk before that submit, the first result's round
    trip, shutdown) exceed one light 256-record unit. A unit reports a
    `Counter` tally and its members (`_decide_chunk`); tallies add and
    members_found is sorted, so unit reports merge in any order and the
    report is independent of where the units ran.
    """
    start = time.perf_counter()
    reader = None
    if spec.source == SOURCE_STREAM:
        if stream is None:
            raise ValueError("stream source needs an input stream")
        reader = RecordReader(stream, spec.n)
        graphs = (g for _, _, g in reader)
        units: Iterator = iter(lambda: list(islice(graphs, _CHUNK_RECORDS)), [])
        task: Callable = _decide_chunk
        args: tuple = (spec.params, spec.prune_rules)
    else:
        floor, cap = degree_window(spec.n, spec.params, spec.prune_rules)
        if _starts_no_generation(spec.n, floor, cap):
            roots: Iterator[Graph] = iter(())
        else:
            roots = subtree_roots(spec.n, max_degree=cap, min_degree=floor)
        units = iter(lambda: list(islice(roots, _UNIT_ROOTS)), [])
        task = _decide_subtrees
        args = (spec.n, floor, cap, spec.params, spec.prune_rules)

    tally: Counter[str] = Counter()
    members: list[str] = []
    processes = min(workers, os.cpu_count() or 1)
    # a pool pays off only from three units (see the docstring for why)
    head = list(islice(units, 3))
    units = chain(head, units)
    parallel = processes > 1 and len(head) > 2
    with ProcessPoolExecutor(max_workers=processes) if parallel else nullcontext() as pool:
        for unit_tally, unit_members in _chunk_reports(pool, 2 * processes, task, units, *args):
            tally += unit_tally
            members.extend(unit_members)
    wall = time.perf_counter() - start
    pruned = {rule: tally[rule] for rule in RULE_ORDER if rule in spec.prune_rules}
    decided = tally["decided"]
    total = sum(pruned.values()) + decided
    skipped = 0 if reader is None else reader.skipped
    return EmptinessReport(spec, total, pruned, decided, tuple(sorted(members)), wall, skipped)
