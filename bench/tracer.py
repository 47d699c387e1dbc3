"""Per-module spans for one linlay job, recorded from outside the program.

Usage: python bench/tracer.py SPANS.json ENTRY ARGV...

ENTRY is "cli" (runs `linlay.cli.main(ARGV)`) or "qmin" (runs the
benchmark's queue-minimum script).  Before the job runs, every public
function named in JOB_TARGETS is replaced, in every `linlay.*` module that
binds it, by a wrapper that records a span.  Spans stay in memory and are
written to SPANS.json when the job ends.

A span is `[id, parent_id, name, calls, total_s]`.  Functions called once
per order or per pair are "merged": all their calls under one parent share
one span whose `calls` counts them, so tracing them costs no memory per call.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _count_json_bytes(counters, args, result):
    counters["graphs.json_bytes_in"] += len(args[0])


def _count_violations(counters, args, result):
    counters["layouts.verify_layout.violations"] += len(result.violations)


def _count_pruned(counters, args, result):
    if result[0] is None:
        counters["layouts.min_stack_colors_for_order.pruned"] += 1


def _count_orders(counters, args, result):
    counters["solve.orders_scanned"] += result.orders_scanned


def _count_steps(counters, args, result):
    counters["hexpath.boundary_steps"] += len(result)


def _count_family(counters, args, result):
    counters["witness.family_size_b"] += result.family_size_b


@dataclass(frozen=True)
class Target:
    module: str
    function: str
    merge: bool = False
    count: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


JOB_TARGETS = (
    Target("cli", "main"),
    Target("graphs", "graph_from_json", count=_count_json_bytes),
    Target("graphs", "graph_to_json"),
    Target("graphs", "make_star_hex_product"),
    Target("graphs", "make_hex_dual"),
    Target("graphs", "shortest_path"),
    Target("render", "graph_to_dot"),
    Target("layouts", "layout_from_json"),
    Target("layouts", "verify_layout", count=_count_violations),
    Target("layouts", "min_queue_colors_for_order", merge=True),
    Target("layouts", "min_stack_colors_for_order", merge=True, count=_count_pruned),
    Target("layouts", "is_pairwise_crossing"),
    Target("solve", "stack_number", count=_count_orders),
    Target("solve", "queue_number", count=_count_orders),
    Target("hexpath", "coloring_from_json"),
    Target("hexpath", "find_monochromatic_path"),
    Target("hexpath", "boundary_sequence", count=_count_steps),
    Target("monotone", "consistent_leaf_family"),
    Target("monotone", "longest_monotone_subsequence", merge=True),
    Target("poset", "chain_or_antichain"),
    Target("poset", "classify_pair", merge=True),
    Target("witness", "extract_crossing_witness", count=_count_family),
    Target("witness", "case_crossing"),
    Target("witness", "case_separated"),
)

# timed while the benchmark builds its inputs, not while jobs run
SETUP_TARGETS = (
    Target("queuelayouts", "product_queue_layout"),
    Target("queuelayouts", "product_block_order"),
)

# counters summed over a pass, with their units
COUNTERS = {
    "cli.stdout_bytes": "bytes",
    "graphs.json_bytes_in": "bytes",
    "layouts.verify_layout.violations": "count",
    "solve.orders_scanned": "count",
    "hexpath.boundary_steps": "count",
    "witness.family_size_b": "count",
}


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._merged: dict = {}

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, merged, counters = self.spans, self._stack, self._merged, self.counters
        name, merge, count = target.name, target.merge, target.count

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span = merged.get((parent, name)) if merge else None
            if span is None:
                span = [len(spans), parent, name, 0, 0.0]
                spans.append(span)
                if merge:
                    merged[(parent, name)] = span
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] += perf_counter() - start
                span[3] += 1
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str, import_s: float) -> None:
        doc = {"import_s": import_s, "spans": self.spans, "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def install(tracer: Tracer, targets) -> None:
    """Wrap each target and rebind every `linlay.*` name that refers to it,
    so that callers inside the package go through the wrapper too."""
    import linlay  # the package imports every module

    modules = [m for key, m in sys.modules.items() if key == "linlay" or key.startswith("linlay.")]
    for target in targets:
        original = getattr(sys.modules[f"linlay.{target.module}"], target.function)
        wrapped = tracer.wrap(target, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def self_times(spans) -> list[float]:
    """Self time of each span: its total time minus its direct children's."""
    children = [0.0] * len(spans)
    for _, parent, _, _, total in spans:
        if parent is not None:
            children[parent] += total
    return [span[4] - children[span[0]] for span in spans]


def layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.import_s": "s"}
    for target in JOB_TARGETS + SETUP_TARGETS:
        units[f"{target.name}.self_s"] = "s"
        units[f"{target.name}.calls"] = "count"
    units.update(COUNTERS)
    units["layouts.min_stack_colors_for_order.pruned_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def summarize(records) -> dict:
    """Sum span self times, call counts and counters over job records
    (each as written by `Tracer.dump`) into per-layer metric values."""
    values = dict.fromkeys(layer_metric_units(), 0)
    pruned = 0
    for record in records:
        values["cli.import_s"] += record["import_s"]
        for span, own in zip(record["spans"], self_times(record["spans"])):
            values[f"{span[2]}.self_s"] += own
            values[f"{span[2]}.calls"] += span[3]
        for key, count in record["counters"].items():
            if key == "layouts.min_stack_colors_for_order.pruned":
                pruned += count
            else:
                values[key] += count
    calls = values["layouts.min_stack_colors_for_order.calls"]
    values["layouts.min_stack_colors_for_order.pruned_ratio"] = pruned / calls if calls else 0.0
    return values


def main(argv: list[str]) -> int:
    spans_path, entry, *job_argv = argv
    start = perf_counter()
    import linlay.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    install(tracer, JOB_TARGETS)
    if entry == "cli":
        run = linlay.cli.main
    else:
        import qmin  # imported after install so that it binds the wrappers

        run = qmin.main
    try:
        return run(job_argv)
    except SystemExit as exc:
        return exc.code
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
