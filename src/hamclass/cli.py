"""Command line front end.

Every subcommand keeps stdout machine readable: certificate lines for
``check``, one JSON object per graph or per run for the rest. Anything
meant for a human (skip notices, withheld witness counts, errors) goes
to stderr. Exit status is 0 for a clean run, 1 when a scan or check
finds a member, 2 for usage and input problems. A run over records
skips a bad record with a notice and goes on; a member found anywhere
outranks skipped records, which outrank a clean run.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import math
import os
import sys
from collections.abc import Callable, Sequence
from typing import TextIO

from .attachment import ClaimReport, ConfigError, build_config, verify_claims
from .graphs import Graph, vertex_connectivity
from .membership import (
    DEFAULT_RULES,
    RULE_ORDER,
    ClassKind,
    ClassParams,
    emptiness_threshold,
    parameter_emptiness,
    required_connectivity,
    theorem_max_degree,
)
from .search import EmptinessReport, RecordReader, ScanSpec, certify, scan
from .walks import circumference, detour_order, hamilton_cycle, hamilton_path

EXIT_CLEAN = 0
EXIT_MEMBER = 1
EXIT_USAGE = 2

ORACLE_OPS = ("circumference", "detour", "hamcycle", "hampath", "connectivity")


def _stdin() -> TextIO:
    """stdin decoded as input files are, whatever the locale: a non-ASCII
    byte becomes a surrogate, so the record reader skips that record alone."""
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        # text with no byte stream beneath, such as an io.StringIO
        return sys.stdin
    return io.TextIOWrapper(buffer, encoding="ascii", errors="surrogateescape")


def _open_input(path: str) -> TextIO:
    return _stdin() if path == "-" else open(path, encoding="ascii", errors="surrogateescape")


def _exit_status(member: bool, skipped: int) -> int:
    if member:
        return EXIT_MEMBER
    if skipped:
        print(f"error: {skipped} record(s) skipped", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_CLEAN


def _each_record(path: str, handle: Callable[[int, str, Graph], bool | None]) -> int:
    """Run handle(line number, text, graph) over every graph6 record of
    the input and return the exit status. A record that does not parse,
    or whose handling raises ValueError, is skipped with a notice; handle
    returns true for a member."""
    member = False
    with _open_input(path) as stream:
        reader = RecordReader(stream)
        for lineno, text, g in reader:
            try:
                if handle(lineno, text, g):
                    member = True
            except ValueError as exc:
                reader.skip(lineno, exc)
    return _exit_status(member, reader.skipped)


def _workers() -> int:
    raw = os.environ.get("HAMCLASS_WORKERS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"HAMCLASS_WORKERS must be a positive integer, got {raw!r}")
    return count


def cmd_check(args: argparse.Namespace) -> int:
    params = ClassParams(args.k, ClassKind(args.kind))
    emit = args.emit_witness if args.emit_witness is not None else args.k == 1

    def check(lineno: int, _text: str, g: Graph) -> bool:
        cert = certify(g, params, include_walks=emit)
        print(cert.to_json())
        if cert.verdict != "member":
            return False
        if not emit:
            print(
                f"record {lineno}: member; {math.comb(g.n, args.k)} deletion"
                " witnesses withheld (rerun with --emit-witness)",
                file=sys.stderr,
            )
        return True

    return _each_record(args.input, check)


def _report_json(report: EmptinessReport) -> str:
    spec = report.spec
    return json.dumps(
        {
            "n": spec.n,
            "class": spec.params.kind.value,
            "k": spec.params.k,
            "source": spec.source,
            "prune_rules": [r for r in RULE_ORDER if r in spec.prune_rules],
            "total_examined": report.total_examined,
            "pruned_per_rule": report.pruned_per_rule,
            "fully_decided": report.fully_decided,
            "members_found": list(report.members_found),
            "skipped_records": report.skipped_records,
            "wall_seconds": round(report.wall_seconds, 3),
        }
    )


def cmd_scan(args: argparse.Namespace) -> int:
    params = ClassParams(args.k, ClassKind(args.kind))
    rules = DEFAULT_RULES if args.rules is None else frozenset(args.rules)
    source = "stream" if args.source == "-" else args.source
    spec = ScanSpec(args.n, params, source=source, prune_rules=rules)
    stream = _stdin() if source == "stream" else None
    report = scan(spec, stream, workers=_workers())
    print(_report_json(report))
    return _exit_status(bool(report.members_found), report.skipped_records)


def cmd_bounds(args: argparse.Namespace) -> int:
    params = ClassParams(args.k, ClassKind(args.kind))
    payload: dict[str, object] = {
        "class": params.kind.value,
        "k": params.k,
        "threshold": emptiness_threshold(params),
    }
    if args.n is not None:
        payload["n"] = args.n
        payload["max_degree_bound"] = str(theorem_max_degree(args.n, params))
        payload["min_degree_floor"] = required_connectivity(params)
        payload["contradiction"] = parameter_emptiness(args.n, params)
    print(json.dumps(payload))
    return EXIT_CLEAN


def _claim_json(g6: str, params: ClassParams, u1: int, report: ClaimReport) -> str:
    improvement = None if report.improvement is None else list(report.improvement.vertices)
    return json.dumps(
        {
            "graph6": g6,
            "class": params.kind.value,
            "k": params.k,
            "u1": u1,
            "gaps": [
                {
                    "index": rec.index,
                    "segment_size": rec.segment_size,
                    "required_bound": str(rec.required_bound),
                    "satisfied": rec.satisfied,
                }
                for rec in report.per_index
            ],
            "pprime_spine_edges": report.edge_count_pprime_spine,
            "edge_lower_bound": report.edge_count_lower_bound,
            "degree_chain_holds": report.degree_chain_holds,
            "improvement": improvement,
        }
    )


def cmd_audit(args: argparse.Namespace) -> int:
    if args.k < 2:
        print("error: audit needs --k of at least 2", file=sys.stderr)
        return EXIT_USAGE
    kind = ClassKind(args.kind)
    params = ClassParams(args.k, kind)

    def audit(lineno: int, text: str, g: Graph) -> None:
        # a graph without the decomposition is a result, not an input error
        try:
            cfg = build_config(g, args.k, kind)
        except ConfigError as exc:
            print(f"record {lineno} skipped: {exc}", file=sys.stderr)
            return
        print(_claim_json(text, params, cfg.u1, verify_claims(cfg)))

    return _each_record(args.input, audit)


def cmd_oracle(args: argparse.Namespace) -> int:
    def oracle(_lineno: int, text: str, g: Graph) -> None:
        witness = None
        if args.op == "circumference":
            value, witness = circumference(g)
        elif args.op == "detour":
            value, witness = detour_order(g)
        elif args.op == "hamcycle":
            witness = hamilton_cycle(g)
            value = witness is not None
        elif args.op == "hampath":
            witness = hamilton_path(g)
            value = witness is not None
        else:
            value = vertex_connectivity(g)
        walk = None if witness is None else list(witness.vertices)
        print(json.dumps({"graph6": text, "op": args.op, "value": value, "witness": walk}))

    return _each_record(args.input, oracle)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamclass",
        description="Scan for, certify, and audit graphs whose vertex-deleted "
        "subgraphs are uniformly hamiltonian or traceable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def class_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--class", dest="kind", choices=("gamma", "pi"), default="gamma")

    check = sub.add_parser("check", help="certify each input graph")
    check.add_argument("input", nargs="?", default="-", help="graph6 file, - for stdin")
    class_arg(check)
    check.add_argument("--k", type=int, required=True)
    check.add_argument(
        "--emit-witness",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="ship per-deletion walks in member certificates (default: only for k=1)",
    )
    check.set_defaults(func=cmd_check)

    scan_p = sub.add_parser("scan", help="exhaust one order, report emptiness")
    scan_p.add_argument("--n", type=int, required=True)
    scan_p.add_argument("--k", type=int, required=True)
    class_arg(scan_p)
    scan_p.add_argument("--source", choices=("gen", "-"), default="gen")
    scan_p.add_argument("--rules", nargs="*", choices=RULE_ORDER, default=None)
    scan_p.set_defaults(func=cmd_scan)

    bounds = sub.add_parser("bounds", help="print parameter-only bounds")
    bounds.add_argument("--k", type=int, required=True)
    bounds.add_argument("--n", type=int, default=None)
    class_arg(bounds)
    bounds.set_defaults(func=cmd_bounds)

    audit = sub.add_parser("audit", help="verify segment gap claims per graph")
    audit.add_argument("input", nargs="?", default="-")
    class_arg(audit)
    audit.add_argument("--k", type=int, required=True)
    audit.set_defaults(func=cmd_audit)

    oracle = sub.add_parser("oracle", help="run one exact solver per graph")
    oracle.add_argument("input", nargs="?", default="-")
    oracle.add_argument("--op", choices=ORACLE_OPS, required=True)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
