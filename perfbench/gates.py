"""Correctness gates: each returns the list of problems found, empty when the output is right.

The gates compare program outputs with answers fixed by construction
(see builders) or by published counts, never with a second run of the
program. Every non-empty result counts its operation as failed, which is
what `error_rate` and the `failed` field report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .builders import CertRecord, is_petersen


@dataclass(frozen=True)
class CensusExpect:
    """What one census scan must report.

    Only the member list, the accounting identity and, where given, the
    decided and connectivity-pruned counts are gated. `total_examined` and
    the `min_degree` count change legitimately when the generator learns to
    skip graphs outside the degree window.
    """

    label: str
    members: str  # "none" or "petersen"
    fully_decided: int | None = None
    connectivity: int | None = None


def report_fields(report: object) -> dict:
    """The gated fields of an EmptinessReport, as plain data."""
    return {
        "total_examined": report.total_examined,
        "pruned_per_rule": dict(report.pruned_per_rule),
        "fully_decided": report.fully_decided,
        "members_found": list(report.members_found),
    }


def identity_problems(label: str, report: dict) -> list[str]:
    pruned = sum(report["pruned_per_rule"].values())
    if report["total_examined"] != pruned + report["fully_decided"]:
        return [
            f"{label}: total_examined {report['total_examined']} != pruned {pruned}"
            f" + fully_decided {report['fully_decided']}"
        ]
    return []


def census_problems(expect: CensusExpect, report: dict) -> list[str]:
    label = expect.label
    problems = identity_problems(label, report)
    members = report["members_found"]
    if expect.members == "none":
        if members:
            problems.append(f"{label}: expected no members, found {members}")
    elif len(members) != 1 or not is_petersen(members[0]):
        problems.append(f"{label}: expected exactly the Petersen graph, found {members}")
    if expect.fully_decided is not None and report["fully_decided"] != expect.fully_decided:
        problems.append(
            f"{label}: fully_decided {report['fully_decided']}, expected {expect.fully_decided}"
        )
    got = report["pruned_per_rule"].get("connectivity")
    if expect.connectivity is not None and got != expect.connectivity:
        problems.append(f"{label}: connectivity pruned {got}, expected {expect.connectivity}")
    return problems


def stream_problems(label: str, report: dict, planted: dict[str, int]) -> list[str]:
    """A stream scan must prune and decide exactly the planted counts."""
    problems = identity_problems(label, report)
    for rule, got in report["pruned_per_rule"].items():
        want = planted.get(rule, 0)
        if got != want:
            problems.append(f"{label}: {rule} pruned {got}, planted {want}")
    if report["fully_decided"] != planted["decided"]:
        problems.append(
            f"{label}: fully_decided {report['fully_decided']}, planted {planted['decided']}"
        )
    if report["total_examined"] != sum(planted.values()):
        problems.append(
            f"{label}: total_examined {report['total_examined']}, records {sum(planted.values())}"
        )
    if report["members_found"]:
        problems.append(f"{label}: expected no members, found {report['members_found']}")
    return problems


def cert_problems(rec: CertRecord, cert: object, round_trip: object, replayed: bool) -> list[str]:
    """Check one certificate against its record's expectation and its replay."""
    label = f"{rec.graph6} {rec.kind} k={rec.k}"
    problems = []
    got = (cert.verdict, cert.reason, cert.found_length)
    want = (rec.verdict, rec.reason, rec.found_length)
    if got != want:
        problems.append(f"{label}: (verdict, reason, found_length) {got}, expected {want}")
    if cert.graph6 != rec.graph6 or cert.kind.value != rec.kind or cert.k != rec.k:
        problems.append(f"{label}: certificate names another graph or class")
    if round_trip != cert:
        problems.append(f"{label}: certificate changed in the JSON round trip")
    if not replayed:
        problems.append(f"{label}: verify_certificate rejected its own certificate")
    return problems


def tamper(cert: object, rng: random.Random) -> object:
    """Copy of a member certificate with one vertex of one walk replaced."""
    walks = [list(w) for w in cert.witness_walks]
    i = rng.randrange(len(walks))
    j = rng.randrange(len(walks[i]))
    n = len(walks[i]) + cert.k
    walks[i][j] = (walks[i][j] + 1 + rng.randrange(n - 1)) % n
    return replace(cert, witness_walks=tuple(tuple(w) for w in walks))


def tamper_problems(label: str, verify, cert_error: type, tampered: object) -> list[str]:
    """A tampered certificate must be rejected, by a False or by cert_error."""
    try:
        accepted = verify(tampered)
    except cert_error:
        accepted = False
    return [f"{label}: tampered certificate accepted"] if accepted else []
