"""The three workloads, each a closed loop with one client.

A workload builds its inputs in `setup`, runs one pass over them in
`run_pass` (round `rnd` of the run), and gates the outcomes in `check`,
outside the timed region. Parallel passes run inside `parallel(workers)`,
which starts whatever the workload keeps running between passes.
`run_pass` returns one (item, seconds, result) triple per timed call, in
the same order on every pass; seconds is None when the call ran in a
worker process, and result is the call's return value or the exception
it raised. hamclass is reached only through the module objects of
`prog`, looked up at call time, so the tracer's wrappers see every call
the benchmark makes.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from multiprocessing import get_context
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from . import builders, gates

Mark = Callable[[], None]

# distinct heavy relabellings the certify passes cycle through
PASS_INPUTS = 8


def _call(fn: Callable) -> tuple[float, object]:
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:
        out = exc
    return time.perf_counter() - t0, out


class Tally:
    """Operations attempted and failed, with the problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _error(label: str, exc: Exception) -> list[str]:
    return [f"{label}: {type(exc).__name__}: {exc}"]


class Census:
    """`scan` from the internal generator: the census users run, and the member path."""

    name = "census"

    def __init__(self, seed: int) -> None:
        # the census is exhaustive, so no input depends on the seed
        self.seed = seed

    def setup(self, prog: SimpleNamespace, workdir: Path) -> None:
        builders.check_named(builders.named_graphs()[0])
        m = prog.membership
        gamma1 = m.ClassParams(1, m.ClassKind.GAMMA)
        self.scans = [
            (prog.search.ScanSpec(9, gamma1), gates.CensusExpect("n9_default", "none", 546, 85)),
            (
                prog.search.ScanSpec(10, gamma1, prune_rules=frozenset(m.RULE_ORDER)),
                gates.CensusExpect("n10_all_rules", "petersen"),
            ),
        ]

    def run_pass(self, prog: SimpleNamespace, rnd: int, workers: int, mark: Mark) -> list:
        out = []
        for spec, expect in self.scans:
            mark()
            wall, report = _call(lambda: prog.search.scan(spec, workers=workers))
            out.append((expect, wall, report))
        return out

    def parallel(self, workers: int):
        # scan starts its own pool of `workers` processes
        return nullcontext()

    def check(self, outcomes: list, tally: Tally, sample: bool) -> None:
        for expect, _, report in outcomes:
            if isinstance(report, Exception):
                tally.record(_error(expect.label, report))
            else:
                tally.record(gates.census_problems(expect, gates.report_fields(report)))

    def final_checks(self, prog: SimpleNamespace, tally: Tally) -> None:
        pass


def _start_worker(ready) -> None:
    """Pool initializer: import hamclass, then wait until every worker has."""
    import hamclass  # noqa: F401

    ready.wait()


def _check_record(rec: builders.CertRecord) -> list[str]:
    """Certify and replay one record in a worker process; return its problems."""
    from hamclass import ClassKind, ClassParams, certify, parse_certificate, parse_graph6
    from hamclass import verify_certificate

    try:
        cert = certify(parse_graph6(rec.graph6), ClassParams(rec.k, ClassKind(rec.kind)))
        back = parse_certificate(cert.to_json())
        return gates.cert_problems(rec, cert, back, verify_certificate(back))
    except Exception as exc:
        return _error(rec.graph6, exc)


class Certify:
    """Per-record `check` then replay: light Hamiltonian records plus heavy hypohamiltonian ones."""

    name = "certify"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cert_ms: list[float] = []
        self.replay_ms: list[float] = []
        self.members: dict[str, object] = {}

    def setup(self, prog: SimpleNamespace, workdir: Path) -> None:
        m = prog.membership
        passes = builders.certify_records(self.seed, passes=PASS_INPUTS)
        self.jobs = [[(rec, m.ClassParams(rec.k, m.ClassKind(rec.kind))) for rec in recs]
                     for recs in passes]
        # the light records repeat in every pass, so only pass 0 writes them
        with (workdir / "certify.jsonl").open("w", encoding="ascii") as fh:
            for i, recs in enumerate(passes):
                for rec in recs:
                    if i == 0 or rec.heavy:
                        fh.write(json.dumps({"pass": i, **asdict(rec)}) + "\n")

    @contextmanager
    def parallel(self, workers: int):
        """One spawn pool for the whole run, started before the first timed pass.

        The program has no parallel check, so this is the benchmark's own
        pool: it measures certify-and-replay throughput over `workers`
        processes, not pool start-up.
        """
        ctx = get_context("spawn")
        ready = ctx.Barrier(workers + 1)
        pool = ctx.Pool(workers, initializer=_start_worker, initargs=(ready,))
        try:
            ready.wait(60)
            self.pool = pool
            yield
        except BaseException:
            pool.terminate()
            raise
        else:
            pool.close()
        finally:
            self.pool = None
            pool.join()

    def run_pass(self, prog: SimpleNamespace, rnd: int, workers: int, mark: Mark) -> list:
        jobs = self.jobs[rnd % PASS_INPUTS]
        if workers > 1:
            # heavy records first, so that no worker is left with one at the
            # end: the pass then measures per-record cost, not shuffle luck
            recs = sorted((rec for rec, _ in jobs), key=lambda rec: not rec.heavy)
            problems = self.pool.map(_check_record, recs, chunksize=1)
            return [(rec, None, res) for rec, res in zip(recs, problems)]
        search, graphs, clock = prog.search, prog.graphs, time.perf_counter
        out = []
        for rec, params in jobs:
            mark()
            try:
                t0 = clock()
                cert = search.certify(graphs.parse_graph6(rec.graph6), params)
                text = cert.to_json()
                t1 = clock()
                back = search.parse_certificate(text)
                ok = search.verify_certificate(back)
                t2 = clock()
                out.append((rec, t2 - t0, (cert, back, ok, t1 - t0, t2 - t1)))
            except Exception as exc:
                out.append((rec, clock() - t0, exc))
        return out

    def check(self, outcomes: list, tally: Tally, sample: bool) -> None:
        for rec, _, res in outcomes:
            if isinstance(res, Exception):
                tally.record(_error(rec.graph6, res))
            elif isinstance(res, list):
                tally.record(res)
            else:
                cert, back, ok, cert_s, replay_s = res
                tally.record(gates.cert_problems(rec, cert, back, ok))
                if sample:
                    self.cert_ms.append(cert_s * 1e3)
                    self.replay_ms.append(replay_s * 1e3)
                if rec.verdict == "member":
                    self.members[rec.graph6] = cert

    def final_checks(self, prog: SimpleNamespace, tally: Tally) -> None:
        """Each member certificate with one walk vertex altered must be rejected."""
        rng = random.Random(self.seed)
        search = prog.search
        for g6, cert in sorted(self.members.items()):
            bad = gates.tamper(cert, rng)
            try:
                tally.record(
                    gates.tamper_problems(g6, search.verify_certificate, search.CertificateError, bad)
                )
            except Exception as exc:
                tally.record(_error(g6, exc))


class StreamScan:
    """`scan(source="stream")` over graph6 files at orders above the generation cap."""

    name = "stream_scan"
    # 512 records per order: two scan chunks of 256, so a parallel scan
    # keeps two workers busy, while a round stays within a 30-second run
    PER_KIND = {builders.PLAIN: 308, builders.MIN_DEGREE: 102, builders.CONNECTIVITY: 102}

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, prog: SimpleNamespace, workdir: Path) -> None:
        m = prog.membership
        gamma1 = m.ClassParams(1, m.ClassKind.GAMMA)
        self.files = []
        for n in builders.STREAM_ORDERS:
            recs = builders.stream_records(self.seed, n, self.PER_KIND)
            path = workdir / f"order{n}.g6"
            path.write_text("".join(g6 + "\n" for g6, _ in recs), encoding="ascii")
            planted = Counter(kind for _, kind in recs)
            spec = prog.search.ScanSpec(n, gamma1, source="stream")
            self.files.append((f"stream_n{n}", path, spec, dict(planted)))

    def run_pass(self, prog: SimpleNamespace, rnd: int, workers: int, mark: Mark) -> list:
        out = []
        for label, path, spec, planted in self.files:
            mark()

            def scan_file():
                with path.open(encoding="ascii") as fh:
                    return prog.search.scan(spec, fh, workers=workers)

            wall, report = _call(scan_file)
            out.append(((label, planted), wall, report))
        return out

    def parallel(self, workers: int):
        # scan starts its own pool of `workers` processes
        return nullcontext()

    def check(self, outcomes: list, tally: Tally, sample: bool) -> None:
        for (label, planted), _, report in outcomes:
            if isinstance(report, Exception):
                tally.record(_error(label, report))
            else:
                tally.record(gates.stream_problems(label, gates.report_fields(report), planted))

    def final_checks(self, prog: SimpleNamespace, tally: Tally) -> None:
        pass


WORKLOADS = {w.name: w for w in (Census, Certify, StreamScan)}
