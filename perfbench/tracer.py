"""Spans at hamclass module boundaries, recorded from outside the program.

The tracer replaces a name one hamclass module imports from another with a
wrapper, in the importing module's namespace, so only calls that cross that
boundary are timed (for example `hamclass.generate.canonical_form`, not the
recursion inside `canon`). Each call becomes a span
(name, start, end, parent, op); spans stay in memory until `write`.

`bits` and `closure_mask` are never wrapped: the generator calls them over a
million times per census, and wrapping them costs more than the work they do.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

# (importing module, imported name, span name)
BOUNDARIES = (
    ("hamclass.generate", "canonical_form", "canon.canonical_form"),
    ("hamclass.generate", "marked_code", "canon.marked_code"),
    ("hamclass.generate", "refine", "canon.refine"),
    ("hamclass.generate", "Graph", "graphs.Graph"),
    ("hamclass.search", "degree_profile", "graphs.degree_profile"),
    ("hamclass.search", "vertex_connectivity", "graphs.vertex_connectivity"),
    ("hamclass.search", "parse_graph6", "graphs.parse_graph6"),
    ("hamclass.search", "write_graph6", "graphs.write_graph6"),
    ("hamclass.search", "induced_subgraph", "graphs.induced_subgraph"),
    ("hamclass.search", "circumference", "replay.circumference"),
    ("hamclass.search", "detour_order", "replay.detour_order"),
    ("hamclass.search", "hamilton_cycle", "replay.hamilton_cycle"),
    ("hamclass.search", "hamilton_path", "replay.hamilton_path"),
    ("hamclass.membership", "degree_profile", "graphs.degree_profile"),
    ("hamclass.membership", "vertex_connectivity", "graphs.vertex_connectivity"),
    ("hamclass.membership", "induced_subgraph", "graphs.induced_subgraph"),
    ("hamclass.membership", "circumference", "walks.circumference"),
    ("hamclass.membership", "detour_order", "walks.detour_order"),
    ("hamclass.membership", "hamilton_cycle", "walks.hamilton_cycle"),
    ("hamclass.membership", "hamilton_path", "walks.hamilton_path"),
    # entry points: the benchmark and search itself look these up in the
    # module at call time, so the module attribute is the boundary
    ("hamclass.search", "scan", "search.scan"),
    ("hamclass.search", "certify", "search.certify"),
    ("hamclass.search", "verify_certificate", "search.verify_certificate"),
    ("hamclass.search", "parse_certificate", "search.parse_certificate"),
    ("hamclass.search", "first_violated_rule", "search.first_violated_rule"),
    ("hamclass.search", "membership", "membership.membership"),
    ("hamclass.graphs", "parse_graph6", "graphs.parse_graph6"),
)


class Tracer:
    """Collects spans and boundary counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.op = 0
        self._saved: list[tuple[object, str, object]] = []

    def next_op(self) -> None:
        self.op += 1

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator's span is the time spent inside each next()."""
        spans, stack, clock, counters = self.spans, self.stack, time.perf_counter, self.counters

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)

            def drive():
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans[idx] = (name, start, end, parent, self.op)
                    counters[f"{name}.emitted"] += 1
                    yield item

            return drive()

        return traced

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every boundary; `uninstall` puts the originals back."""
        counters = self.counters

        def count_rule(rule: str | None) -> None:
            counters["search.pruned." + rule if rule else "search.decided"] += 1

        def count_verdict(v) -> None:
            counters["membership.verdict." + ("member" if v.member else v.reason)] += 1

        hooks = {
            "search.first_violated_rule": count_rule,
            "membership.membership": count_verdict,
        }
        for module, attr, name in BOUNDARIES:
            # the package re-exports the function `membership`, so the
            # module must come from sys.modules, never from attribute access
            mod = sys.modules[module]
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), hooks.get(name)))
        search = sys.modules["hamclass.search"]
        self._patch(
            search, "generate_connected",
            self.wrap_generator("generate", search.generate_connected),
        )
        cert = search.Certificate
        self._patch(cert, "to_json", self.wrap("search.to_json", cert.to_json))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def totals(self) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, list[float]] = {}
        for i, span in enumerate(spans):
            if span is None:
                continue
            row = out.setdefault(span[0], [0, 0.0, 0.0])
            dur = span[2] - span[1]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")
