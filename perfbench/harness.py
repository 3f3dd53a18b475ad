"""Measurement loop, metrics and report for one workload run.

Untraced runs (`--trace 0`) alternate a serial pass (`workers=1`, pinned
to one CPU) and a parallel pass (`workers` = CPU count, as the CLI
defaults to) until the next round would overrun `--seconds`. Speedometers
(see reference.py) run beside them, and every timed call is divided by
the unit time its CPUs showed meanwhile, which cancels the machine's slow
stretches. The serial pass is reported as the sum, over its timed calls,
of each call's median across the run's passes; the parallel pass as the
median pass. Raw seconds are printed too.

Set-up (a fresh import of hamclass plus building and writing the inputs)
runs SETUP_REPEATS times, pinned to the first CPU, under the speedometers
too. `setup_s` is the median set-up in speedometer units, put into seconds
at the fixed speed NOMINAL_UNIT_S, so that it moves with the work done in
set-up and not with the machine's speed at the time; the median in raw
seconds is printed beside it.

Traced runs (`--trace 1`) alternate an untraced and a traced serial pass
and report per-layer totals per traced pass, in seconds as measured, with
the difference between the two serial passes as the tracing overhead.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from .reference import Speedometers
from .tracer import Tracer
from .workloads import WORKLOADS, Tally

SETUP_REPEATS = 15
# seconds per speedometer unit at which setup_s is reported: the median
# unit time seen on the 2-vCPU machine the baseline was measured on. Never
# change it: setup_s figures are comparable only under the same value.
NOMINAL_UNIT_S = 1.5e-4

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "parallel_wall_ref": "ref",
    "peak_rss_mb": "MB",
}

# layers timed as <name>.{calls,s,self_s}
TIMED_LAYERS = (
    "canon.canonical_form",
    "canon.marked_code",
    "canon.refine",
    "graphs.vertex_connectivity",
    "graphs.degree_profile",
    "graphs.parse_graph6",
    "graphs.write_graph6",
    "graphs.induced_subgraph",
    "search.first_violated_rule",
    "search.scan",
    "search.certify",
    "search.verify_certificate",
    "search.parse_certificate",
    "search.to_json",
    "membership.membership",
    "walks.circumference",
    "walks.detour_order",
    "walks.hamilton_cycle",
    "walks.hamilton_path",
    "replay.circumference",
    "replay.detour_order",
    "replay.hamilton_cycle",
    "replay.hamilton_path",
)
RULES = ("order_threshold", "min_degree", "max_degree", "holton_sheehan", "connectivity")
VERDICTS = ("member", "wrong_length", "bad_deletion_set")
WALKS = ("circumference", "detour_order", "hamilton_cycle", "hamilton_path")


def per_layer_units() -> dict[str, str]:
    units = {"generate.s": "s", "generate.self_s": "s"}
    for c in ("emitted", "children", "orbit_pass"):
        units[f"generate.{c}"] = "count"
    units["generate.emit_ratio"] = "ratio"
    for layer in TIMED_LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.s": "s", f"{layer}.self_s": "s"})
    units["graphs.Graph.s"] = "s"
    units.update({f"search.pruned.{r}": "count" for r in RULES})
    units["search.decided_ratio"] = "ratio"
    units.update({f"membership.verdict.{v}": "count" for v in VERDICTS})
    units["membership.deletions_per_decision"] = "ratio"
    units.update({"trace.overhead_s": "s", "trace.spans": "count"})
    for share in ("generate_canon", "vertex_connectivity", "walks"):
        units[f"share.{share}"] = "ratio"
    return units


def load_program() -> SimpleNamespace:
    """Import hamclass afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "hamclass" or m.startswith("hamclass.")]:
        del sys.modules[name]
    importlib.import_module("hamclass")
    mods = {name: sys.modules[f"hamclass.{name}"] for name in ("graphs", "membership", "search")}
    return SimpleNamespace(**mods)


def _noop() -> None:
    pass


class PassTimes:
    """Timed calls of repeated serial passes; call i is the same check in every pass.

    Each call is kept with its time window, so that it can be put into
    speedometer units once the speedometers have reported.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.calls: list[list[tuple[float, float, float]]] = []

    def run(self, fn) -> list:
        """Run fn(mark), where mark() comes right before each timed call."""
        starts: list[float] = []
        t0 = time.perf_counter()
        outcomes = fn(lambda: starts.append(time.perf_counter()))
        end = time.perf_counter()
        self.passes.append(end - t0)
        if not self.calls:
            self.calls = [[] for _ in outcomes]
        for i, (samples, (_, seconds, _)) in enumerate(zip(self.calls, outcomes)):
            samples.append((seconds, starts[i], starts[i + 1] if i + 1 < len(starts) else end))
        return outcomes

    def seconds(self) -> float:
        return sum(statistics.median(s for s, _, _ in samples) for samples in self.calls)

    def refs(self, speed: Speedometers, cpus: list[int]) -> float:
        return sum(
            statistics.median(s / speed.unit_seconds(cpus, a, b) for s, a, b in samples)
            for samples in self.calls
        )


def _rounds(seconds: float, one_round) -> None:
    """Run rounds until the next one would end after `seconds`; at least one."""
    start = time.perf_counter()
    for rnd in itertools.count():
        r0 = time.perf_counter()
        one_round(rnd)
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile, at most 99, with at least ten samples above it."""
    q = min(99, int(100 - 1000 / len(samples))) if len(samples) > 10 else 0
    if q < 50:
        return 0, float("nan")
    return q, statistics.quantiles(samples, n=100)[q - 1]


def _pinned(cpus: list[int], fn):
    """Run fn with this process pinned to cpus, then restore its affinity."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return fn()
    finally:
        os.sched_setaffinity(0, before)


def set_up(wl, workdir: Path) -> tuple[SimpleNamespace, list[tuple[float, float, float]]]:
    """Set up SETUP_REPEATS times; return the program and each set-up's (seconds, start, end)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        prog = load_program()
        wl.setup(prog, workdir)
        t1 = time.perf_counter()
        setups.append((t1 - t0, t0, t1))
    return prog, setups


def measure(wl, tally: Tally, seconds: float, workdir: Path) -> tuple[dict, SimpleNamespace]:
    cpus = sorted(os.sched_getaffinity(0))
    home = cpus[:1]
    serial = PassTimes()
    parallel: list[tuple[float, float]] = []

    def one_round(rnd: int) -> None:
        outcomes = _pinned(home, lambda: serial.run(lambda mark: wl.run_pass(prog, rnd, 1, mark)))
        wl.check(outcomes, tally, sample=True)
        t0 = time.perf_counter()
        outcomes = wl.run_pass(prog, rnd, len(cpus), _noop)
        parallel.append((t0, time.perf_counter()))
        wl.check(outcomes, tally, sample=False)

    with Speedometers(cpus) as speed:
        prog, setups = _pinned(home, lambda: set_up(wl, workdir))
        with wl.parallel(len(cpus)):
            _rounds(seconds, one_round)
    walls = [b - a for a, b in parallel]
    print("serial passes s:", " ".join(f"{x:.3f}" for x in serial.passes))
    print("parallel passes s:", " ".join(f"{x:.3f}" for x in walls))
    setup_refs = [s / speed.unit_seconds(home, a, b) for s, a, b in setups]
    return {
        "setup_s": statistics.median(setup_refs) * NOMINAL_UNIT_S,
        "setup_raw_s": statistics.median(s for s, _, _ in setups),
        "wall_s": serial.seconds(),
        "wall_ref": serial.refs(speed, home),
        "parallel_wall_s": statistics.median(walls),
        "parallel_wall_ref": statistics.median(
            (b - a) / speed.unit_seconds(cpus, a, b) for a, b in parallel
        ),
    }, prog


def trace(wl, tally: Tally, seconds: float, workdir: Path, spans_path: Path) -> tuple[dict, SimpleNamespace]:
    tracer = Tracer()
    home = sorted(os.sched_getaffinity(0))[:1]
    plain = PassTimes()
    traced = PassTimes()

    def traced_pass(rnd: int, mark) -> list:
        def next_op() -> None:
            mark()
            tracer.next_op()

        tracer.install()
        try:
            return wl.run_pass(prog, rnd, 1, next_op)
        finally:
            tracer.uninstall()

    def one_round(rnd: int) -> None:
        outcomes = _pinned(home, lambda: plain.run(lambda mark: wl.run_pass(prog, rnd, 1, mark)))
        wl.check(outcomes, tally, sample=True)
        outcomes = _pinned(home, lambda: traced.run(lambda mark: traced_pass(rnd, mark)))
        wl.check(outcomes, tally, sample=False)

    with Speedometers(home) as speed:
        prog, _ = _pinned(home, lambda: set_up(wl, workdir))
        _rounds(seconds, one_round)
    tracer.write(spans_path)
    passes = len(traced.passes)
    totals = tracer.totals()
    counters = tracer.counters
    m: dict[str, float] = {}

    def row(name: str) -> list[float]:
        return [x / passes for x in totals.get(name, (0, 0.0, 0.0))]

    def count(name: str) -> float:
        return counters.get(name, 0) / passes

    for layer in TIMED_LAYERS:
        m[f"{layer}.calls"], m[f"{layer}.s"], m[f"{layer}.self_s"] = row(layer)
    _, m["generate.s"], m["generate.self_s"] = row("generate")
    m["generate.emitted"] = count("generate.emitted")
    m["generate.children"], m["graphs.Graph.s"], _ = row("graphs.Graph")
    m["generate.orbit_pass"] = m["canon.canonical_form.calls"]
    m["generate.emit_ratio"] = (
        m["generate.emitted"] / m["generate.children"] if m["generate.children"] else 0.0
    )
    for rule in RULES:
        m[f"search.pruned.{rule}"] = count(f"search.pruned.{rule}")
    rule_calls = m["search.first_violated_rule.calls"]
    m["search.decided_ratio"] = count("search.decided") / rule_calls if rule_calls else 0.0
    for v in VERDICTS:
        m[f"membership.verdict.{v}"] = count(f"membership.verdict.{v}")
    decisions = m["membership.membership.calls"]
    deletions = m["walks.hamilton_cycle.calls"] + m["walks.hamilton_path.calls"]
    m["membership.deletions_per_decision"] = deletions / decisions if decisions else 0.0
    # the overhead compares passes taken at different moments, so it is
    # taken in speedometer units and put back into seconds at the run's
    # median unit time
    unit_s = statistics.median(s for _, s in speed.samples[home[0]])
    m["trace.overhead_s"] = (traced.refs(speed, home) - plain.refs(speed, home)) * unit_s
    m["trace.spans"] = sum(1 for s in tracer.spans if s is not None) / passes
    # shares compare spans with the pass they ran in, both in raw seconds
    traced_wall = sum(traced.passes) / passes
    m["share.generate_canon"] = m["generate.s"] / traced_wall
    m["share.vertex_connectivity"] = m["graphs.vertex_connectivity.s"] / traced_wall
    walk_s = sum(m[f"{side}.{w}.s"] for side in ("walks", "replay") for w in WALKS)
    m["share.walks"] = walk_s / traced_wall
    m["_plain_wall_s"], m["_traced_wall_s"] = plain.seconds(), traced.seconds()
    return m, prog


def _print_layers(m: dict) -> None:
    print(f"{'layer':32} {'calls':>10} {'s':>10} {'self_s':>10}")
    for layer in ("generate", "graphs.Graph") + TIMED_LAYERS:
        if layer == "generate":
            calls, s, self_s = m["generate.emitted"], m["generate.s"], m["generate.self_s"]
        elif layer == "graphs.Graph":
            calls, s, self_s = m["generate.children"], m["graphs.Graph.s"], m["graphs.Graph.s"]
        else:
            calls, s, self_s = (m[f"{layer}.{f}"] for f in ("calls", "s", "self_s"))
        if calls:
            print(f"{layer:32} {calls:10.0f} {s:10.4f} {self_s:10.4f}")
    for name in sorted(m):
        if name.startswith(("search.pruned", "membership.verdict")) or "ratio" in name:
            print(f"{name:32} {m[name]:10.4f}")
    print(
        f"tracing overhead {m['trace.overhead_s']:.3f} s per pass"
        f" (untraced {m['_plain_wall_s']:.3f} s, traced {m['_traced_wall_s']:.3f} s,"
        f" {m['trace.spans']:.0f} spans)"
    )
    for share in ("generate_canon", "vertex_connectivity", "walks"):
        print(f"share.{share:26} {m[f'share.{share}']:10.4f} of the traced pass")


def _print_latencies(wl) -> None:
    for label, samples in (("certify_ms", wl.cert_ms), ("replay_ms", wl.replay_ms)):
        if not samples:
            continue
        q, value = tail(samples)
        print(f"{label}_p50 {statistics.median(samples):.4f} ms (n={len(samples)})")
        if q:
            above = sum(1 for x in samples if x > value)
            print(f"{label}_p{q} {value:.4f} ms (n={len(samples)}, {above} samples above)")


def run(workload: str, seed: int, seconds: float, traced: bool, root: Path) -> int:
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    wl = WORKLOADS[workload](seed)
    tally = Tally()
    try:
        if traced:
            spans = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
            metrics, prog = trace(wl, tally, seconds, workdir, spans)
        else:
            metrics, prog = measure(wl, tally, seconds, workdir)
        wl.final_checks(prog, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload}, seed {seed}, {os.cpu_count()} CPUs, trace {int(traced)}")
    if traced:
        _print_layers(metrics)
        units = per_layer_units()
    else:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = (self_kb + child_kb) / 1024
        units = END_TO_END
        for name, unit in units.items():
            print(f"{name} {metrics[name]:.4f} {unit}")
        print(f"setup_s {metrics['setup_raw_s']:.4f} s (raw)")
        print(f"wall_s {metrics['wall_s']:.4f} s (raw)")
        print(f"parallel_wall_s {metrics['parallel_wall_s']:.4f} s (raw)")
    if hasattr(wl, "cert_ms"):
        _print_latencies(wl)
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate {rate:.4f} ratio ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0
