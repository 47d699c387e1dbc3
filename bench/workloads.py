"""The benchmark's workloads: which jobs run, on which input files, at which sizes.

A job is one fresh process answering one question: `python -m linlay ARGV`
(entry "cli") or the benchmark's queue-minimum script `qmin.py ARGV` (entry
"qmin").  Job lists do not depend on the seed; the seed only changes the
contents of the input files that `make_inputs.py` writes.  Each job's time is
summed into one end-to-end metric, its `kind`.

Two size tables exist: FULL is what the benchmark measures, TINY only lets the
self-tests run every job list in seconds.

A combined workload runs the job lists of its parts as one list.  The
measured `layouts-grid` combines `layouts-large` and `grid-witness`: on a
shared 2-vCPU VM the interpreter's speed drifts by up to a fifth within a
minute, and one longer run averages that drift better than two short ones
in the same time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORKLOADS = ("exact-small", "layouts-large", "grid-witness")
COMBINED = {"layouts-grid": ("layouts-large", "grid-witness")}

# Values that are known independently of linlay: (stack number, queue number).
# Complete graphs follow sn(K_n) = ceil(n/2), qn(K_n) = floor(n/2) for n >= 4.
KNOWN_NUMBERS = {"H3": (2, 2), "S1xH2": (2, 2)}

FULL = {
    # (name, spec); "random" graphs have one edge more than the 2n-3 that
    # outerplanar and 1-queue graphs allow, so every order is scanned
    "exact_graphs": (
        ("H3", ("hex", 3)),
        ("K8", ("complete", 8)),
        ("S1xH2", ("product", 1, 2)),
        ("R8a", ("random", 8, 14)),
        ("R8b", ("random", 8, 14)),
        ("K7", ("complete", 7)),
    ),
    "gen_product": (50, 20),
    "valid_products": ((50, 20), (20, 10)),
    "stack_reread_product": (10, 8),
    "moved_product": (20, 10),
    "moved_star_edges": 3,
    "qmin_product": (20, 10),
    "qmin_block_k": 4,
    "hex_n": 128,
    "random_colorings": 6,
    "witness_block": ((512, 4), (1024, 4)),
    "witness_random": (1024, 6),
    "witness_random_orders": 4,
    "witness_cd": (2, 8),
    # random orders keep b = 2 leaves; c, d > 2 make every seed end at
    # insufficient-scale, so the seed never changes the amount of work
    "witness_random_cd": (3, 8),
    "witness_block_edges": 7,
}

TINY = {
    "exact_graphs": (
        ("K4", ("complete", 4)),
        ("H2", ("hex", 2)),
        ("R6a", ("random", 6, 10)),
        ("K5", ("complete", 5)),
    ),
    "gen_product": (3, 3),
    "valid_products": ((3, 3), (2, 2)),
    "stack_reread_product": (2, 3),
    "moved_product": (3, 3),
    "moved_star_edges": 2,
    "qmin_product": (3, 3),
    "qmin_block_k": None,
    "hex_n": 8,
    "random_colorings": 2,
    "witness_block": ((16, 2),),
    "witness_random": (16, 3),
    "witness_random_orders": 2,
    "witness_cd": (2, 4),
    "witness_random_cd": (3, 4),
    "witness_block_edges": None,
}

SIZES = {"full": FULL, "tiny": TINY}


@dataclass(frozen=True)
class Job:
    name: str  # unique and stable: keys the recorded digests and per-job medians
    kind: str  # the end-to-end metric this job's time is summed into
    entry: str  # "cli" or "qmin"
    argv: tuple
    check: str  # checker in checks.py
    params: dict = field(default_factory=dict, compare=False, hash=False)


def known_number(name: str, spec: tuple, kind: str):
    if spec[0] == "complete" and spec[1] >= 4:
        n = spec[1]
        return (n + 1) // 2 if kind == "stack" else n // 2
    if name in KNOWN_NUMBERS:
        return KNOWN_NUMBERS[name][0 if kind == "stack" else 1]
    return None


def product_name(a: int, n: int) -> str:
    return f"S{a}xH{n}"


def _exact_small(s) -> list[Job]:
    jobs = []
    for name, spec in s["exact_graphs"]:
        for kind in ("stack", "queue"):
            jobs.append(
                Job(
                    f"solve-{kind}-{name}",
                    f"solve_{kind}_s",
                    "cli",
                    ("solve", f"{name}.graph.json", "--kind", kind),
                    "solve",
                    {"graph": f"{name}.graph.json", "kind": kind,
                     "known_k": known_number(name, spec, kind)},
                )
            )
    return jobs


def _layouts_large(s) -> list[Job]:
    moved = product_name(*s["moved_product"])
    qmin = product_name(*s["qmin_product"])
    reread = product_name(*s["stack_reread_product"])
    ga, gn = s["gen_product"]
    gen = product_name(ga, gn)
    jobs = [
        Job(f"verify-invalid-moved-{moved}", "verify_invalid_s", "cli",
            ("verify", f"{moved}.graph.json", f"{moved}.moved.json"), "verify",
            {"graph": f"{moved}.graph.json", "layout": f"{moved}.moved.json"}),
        Job(f"qmin-random-{qmin}", "queue_min_s", "qmin",
            (f"{qmin}.graph.json", f"{qmin}.random-order.json"), "qmin",
            {"graph": f"{qmin}.graph.json", "order": f"{qmin}.random-order.json",
             "known_k": None}),
        Job(f"qmin-block-{qmin}", "queue_min_s", "qmin",
            (f"{qmin}.graph.json", f"{qmin}.block-order.json"), "qmin",
            {"graph": f"{qmin}.graph.json", "order": f"{qmin}.block-order.json",
             "known_k": s["qmin_block_k"]}),
        Job(f"verify-invalid-stack-{reread}", "verify_invalid_s", "cli",
            ("verify", f"{reread}.graph.json", f"{reread}.stack.json"), "verify",
            {"graph": f"{reread}.graph.json", "layout": f"{reread}.stack.json"}),
    ]
    for a, n in s["valid_products"]:
        p = product_name(a, n)
        jobs.append(
            Job(f"verify-valid-{p}", "verify_valid_s", "cli",
                ("verify", f"{p}.graph.json", f"{p}.queue.json"), "verify",
                {"graph": f"{p}.graph.json", "layout": f"{p}.queue.json"})
        )
    for fmt in ("json", "dot"):
        jobs.append(
            Job(f"gen-{fmt}-{gen}", "gen_s", "cli",
                ("gen", "product", "--a", str(ga), "--n", str(gn), "--format", fmt),
                "gen", {"a": ga, "n": gn, "format": fmt})
        )
    return jobs


def _grid_witness(s) -> list[Job]:
    n = s["hex_n"]
    jobs = []
    c, d = s["witness_cd"]
    cd = ("--c", str(c), "--d", str(d))
    for a, wn in sorted(s["witness_block"], reverse=True):
        order = f"block-a{a}.order.json"
        jobs.append(
            Job(f"witness-block-a{a}", "witness_block_s", "cli",
                ("witness", "--a", str(a), "--n", str(wn), *cd, "--order", order),
                "witness",
                {"a": a, "n": wn, "c": c, "d": d, "order": order, "block": True,
                 "edges": s["witness_block_edges"]})
        )
    jobs.append(
        Job("hexpath-trace-shells", "hexpath_trace_s", "cli",
            ("hexpath", "shells.coloring.json", "--trace"), "hexpath",
            {"coloring": "shells.coloring.json", "trace": True, "steps": n})
    )
    for pattern, steps in (("shells", n), ("stripes", None)):
        jobs.append(
            Job(f"hexpath-{pattern}", "hexpath_many_steps_s", "cli",
                ("hexpath", f"{pattern}.coloring.json"), "hexpath",
                {"coloring": f"{pattern}.coloring.json", "trace": False, "steps": steps})
        )
    for i in range(1, s["random_colorings"] + 1):
        name = f"random-{i}.coloring.json"
        jobs.append(
            Job(f"hexpath-random-{i}", "hexpath_few_steps_s", "cli", ("hexpath", name),
                "hexpath", {"coloring": name, "trace": False, "steps": None})
        )
    a, wn = s["witness_random"]
    c, d = s["witness_random_cd"]
    cd = ("--c", str(c), "--d", str(d))
    for i in range(1, s["witness_random_orders"] + 1):
        order = f"random-{i}.order.json"
        jobs.append(
            Job(f"witness-random-{i}", "witness_random_s", "cli",
                ("witness", "--a", str(a), "--n", str(wn), *cd, "--order", order),
                "witness",
                {"a": a, "n": wn, "c": c, "d": d, "order": order, "block": False,
                 "edges": None})
        )
    return jobs


_JOB_LISTS = {
    "exact-small": _exact_small,
    "layouts-large": _layouts_large,
    "grid-witness": _grid_witness,
}


def parts(workload: str) -> tuple:
    """The basic workloads a (possibly combined) workload consists of."""
    return COMBINED.get(workload, (workload,))


def jobs_for(workload: str, sizes: str = "full") -> list[Job]:
    """The workload's job list, heaviest jobs first, so that a run cut by
    its time box repeats the jobs whose noise matters most."""
    return [job for part in parts(workload) for job in _JOB_LISTS[part](SIZES[sizes])]
