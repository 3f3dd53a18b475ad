"""Deciders for the two vertex-deletion Hamiltonicity classes.

A graph of order n belongs to the cycle class at level k when its
circumference is exactly n-k and every induced subgraph on n-k vertices
has a Hamilton cycle; the path class replaces circumference with detour
order and spanning cycles with spanning paths. Level 1 recovers the
hypohamiltonian and hypotraceable families.

Alongside the exact deciders live the derived necessary conditions:
degree ceilings, connectivity floors, and the order threshold below
which a class is empty outright. These power the scan pipeline's
pruning and the parameter-only emptiness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import floor
from typing import Iterator

# induced_subgraph is not called here; it stays bound because
# perfbench/tracer.py wraps it in this module
from .graphs import Graph, degree_profile, induced_subgraph, mask_of, vertex_connectivity
from .walks import (
    CycleWitness,
    PathWitness,
    circumference,
    detour_order,
    hamilton_cycle,
    hamilton_path,
)

WRONG_LENGTH = "wrong_length"
BAD_DELETION_SET = "bad_deletion_set"

RULE_ORDER = (
    "order_threshold",
    "min_degree",
    "max_degree",
    "holton_sheehan",
    "connectivity",
)
DEFAULT_RULES = frozenset(r for r in RULE_ORDER if r != "holton_sheehan")


class ClassKind(Enum):
    GAMMA = "gamma"
    PI = "pi"


@dataclass(frozen=True)
class ClassParams:
    k: int
    kind: ClassKind

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"deletion count k must be positive, got {self.k}")


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    reason: str | None
    found_length: int | None
    bad_set: tuple[int, ...] | None
    witness: CycleWitness | PathWitness | None
    deletion_walks: tuple[CycleWitness | PathWitness, ...] | None


def target_length(n: int, params: ClassParams) -> int:
    """Longest-walk order n-k that a member of order n must have.

    Raises ValueError when that leaves no room for the class's walk: a
    cycle needs 3 vertices, a path 1.
    """
    target = n - params.k
    walk, least = ("cycle", 3) if params.kind is ClassKind.GAMMA else ("path", 1)
    if target < least:
        raise ValueError(f"no room for a {walk}: order {n} minus {params.k} deleted")
    return target


def membership(g: Graph, params: ClassParams, *, collect_walks: bool = False) -> MembershipVerdict:
    """Decide class membership at level params.k.

    The longest walk is compared first; deletion sets are then tried in
    lexicographic order and the first failure is reported, so refutations
    are reproducible.
    """
    target = target_length(g.n, params)
    # picked from the module globals on every call, never from a table built
    # at import time, so a solver rebound after import (tracing) is the one run
    if params.kind is ClassKind.GAMMA:
        longest, spanning = circumference, hamilton_cycle
    else:
        longest, spanning = detour_order, hamilton_path
    length, best = longest(g)
    if length != target:
        return MembershipVerdict(False, WRONG_LENGTH, length, None, best, None)
    walks: list[CycleWitness | PathWitness] | None = [] if collect_walks else None
    for drop in combinations(range(g.n), params.k):
        walk = spanning(g, g.vertex_mask ^ mask_of(drop))
        if walk is None:
            return MembershipVerdict(False, BAD_DELETION_SET, None, drop, None, None)
        if walks is not None:
            walks.append(walk)
    return MembershipVerdict(
        True, None, target, None, None, tuple(walks) if walks is not None else None
    )


def required_connectivity(params: ClassParams) -> int:
    return params.k + 2 if params.kind is ClassKind.GAMMA else params.k + 1


def connectivity_requirement(g: Graph, params: ClassParams) -> bool:
    if g.n == 1:
        return False
    need = required_connectivity(params)
    return vertex_connectivity(g, at_most=need) >= need


def theorem_max_degree(n: int, params: ClassParams) -> Fraction:
    """Exact degree ceiling for a member of order n."""
    if n < 1:
        raise ValueError(f"order {n} must be positive")
    ksq = params.k * params.k
    num = n - ksq + 1 if params.kind is ClassKind.GAMMA else n - ksq
    return Fraction(num, 2)


def emptiness_threshold(params: ClassParams) -> int:
    """Smallest order not ruled out by the degree/connectivity clash.

    The class is provably empty for every order below the returned value
    when k >= 2; at k=1 the formula is still reported but carries no
    vacuity claim.
    """
    k = params.k
    return k * k + 2 * k + 3 if params.kind is ClassKind.GAMMA else k * k + 2 * k + 2


def parameter_emptiness(n: int, params: ClassParams) -> bool:
    """True when the degree window is empty on parameters alone: the
    ceiling falls below the connectivity-forced floor, so no graph of
    order n can satisfy both necessary conditions."""
    return theorem_max_degree(n, params) < required_connectivity(params)


def degree_ceilings(n: int, params: ClassParams, rules: frozenset[str]) -> list[tuple[str, int]]:
    """(rule, largest maximum degree it allows) for each enabled rule that
    caps degrees, in rule order. The classical (n-4)/2 ceiling applies to
    hypohamiltonian graphs only, so only to the cycle class at k=1."""
    caps = []
    if "max_degree" in rules:
        caps.append(("max_degree", floor(theorem_max_degree(n, params))))
    if "holton_sheehan" in rules and params.kind is ClassKind.GAMMA and params.k == 1:
        caps.append(("holton_sheehan", (n - 4) // 2))
    return caps


def _order_threshold_fires(n: int, params: ClassParams, rules: frozenset[str]) -> bool:
    return "order_threshold" in rules and params.k >= 2 and parameter_emptiness(n, params)


def degree_window(n: int, params: ClassParams, rules: frozenset[str]) -> tuple[int, int | None]:
    """(floor, ceiling) on the degrees of the graphs worth generating for a
    scan of order n under these rules; None means no ceiling.

    Every graph outside the window would be pruned by min_degree or by a
    degree-ceiling rule, so leaving it out changes no other count. The
    floor is dropped (0) when the window is empty or the order threshold
    prunes the whole order, so that order_threshold keeps the attribution
    of the ceiling-respecting graphs.
    """
    ceiling = min((cap for _, cap in degree_ceilings(n, params, rules)), default=None)
    floor_needed = required_connectivity(params) if "min_degree" in rules else 0
    if _order_threshold_fires(n, params, rules) or (ceiling is not None and floor_needed > ceiling):
        floor_needed = 0
    return floor_needed, ceiling


def violated_rules(g: Graph, params: ClassParams, rules: frozenset[str]) -> Iterator[str]:
    """The enabled necessary conditions g fails, cheapest first (RULE_ORDER).

    Lazy: a caller that stops at the first rule pays for no later one. The
    order threshold is a parameter-only fact and carries no claim at k=1,
    where members below any classical bound are ruled out by search rather
    than by formula.
    """
    n = g.n
    if _order_threshold_fires(n, params, rules):
        yield "order_threshold"
    floor_needed = required_connectivity(params)
    ceilings = degree_ceilings(n, params, rules)
    if "min_degree" in rules or ceilings:
        prof = degree_profile(g)
        if "min_degree" in rules and prof.min_degree < floor_needed:
            yield "min_degree"
        for rule, cap in ceilings:
            if prof.max_degree > cap:
                yield rule
    if "connectivity" in rules and not connectivity_requirement(g, params):
        yield "connectivity"
