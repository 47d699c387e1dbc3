"""Command-line surface: gen / verify / solve / hexpath / witness / params.

Exit codes, one meaning each: 0 success; 1 ``verify`` found the layout
invalid; 2 bad input (an InvalidParameterError or an argparse usage error)
or an output that cannot be written, stdout included;
3 a budget or size limit (a ResourceLimitError), with the bounds known so
far as one JSON line on stderr; 4 ``witness`` found its path family too
small (InsufficientScale).  Identical command lines with the same seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from random import Random

from .errors import InvalidParameterError, ResourceLimitError, load_json
from .graphs import (
    PairTexts,
    blocks,
    graph_from_json,
    graph_to_json,
    make_hex_dual,
    make_star,
    make_star_hex_product,
)
from .hexpath import (
    boundary_sequence,
    coloring_from_json,
    coloring_to_json_dict,
    find_monochromatic_path,
    random_coloring,
)
from .layouts import (
    LinearOrder,
    layout_to_json,
    verify_layout_json,
)
from .render import graph_to_dot
from .solve import queue_number, stack_number
from .witness import (
    InsufficientScale,
    extract_crossing_witness,
    insufficient_to_json_dict,
    parameters_to_json_dict,
    required_parameters,
    witness_to_json_dict,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_SCALE = 4

# gen, hexpath --random and witness --random build nothing larger; gen
# product's JSON peaks at about 780 B per vertex, so this stays under 1 GB
MAX_BUILD_VERTICES = 1_000_000


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"value must be at least {low}")
        return value

    return parse


def _dump(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _budget_exceeded(lower, upper, **counts) -> int:
    print(_dump({"error": "budget-exceeded", "lower": lower, "upper": upper, **counts}),
          file=sys.stderr)
    return EXIT_BUDGET


def _gate_build(vertices: int) -> None:
    if vertices > MAX_BUILD_VERTICES:
        raise ResourceLimitError(f"{vertices} vertices exceed the limit of {MAX_BUILD_VERTICES}")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".linlay-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text + "\n")
            os.replace(tmp, output)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {output}: {exc}") from exc


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from exc


def _cmd_gen(args) -> int:
    # H_n is S_0 x H_n and S_a is S_a x H_1
    _gate_build((getattr(args, "a", 0) + 1) * getattr(args, "n", 1) ** 2)
    if args.kind == "hex":
        g = make_hex_dual(args.n)
    elif args.kind == "star":
        g = make_star(args.a)
    else:
        g = make_star_hex_product(args.a, args.n)
    text = graph_to_dot(g).rstrip("\n") if args.format == "dot" else graph_to_json(g)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = graph_from_json(_read(args.graph))
    report = verify_layout_json(g, _read(args.layout))
    # the violations as _dump would print them, pairs of edges [[u,v],[x,y]],
    # each distinct edge formatted once and the pairs joined in runs
    edges = PairTexts()
    pairs = ",".join([",".join([f"[{edges[e]},{edges[f]}]" for e, f in run])
                      for _, run in blocks(report.violations)])
    _emit(f'{{"valid":{_dump(report.valid)},"violations":[{pairs}]}}', args.output)
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_solve(args) -> int:
    g = graph_from_json(_read(args.graph))
    solver = stack_number if args.kind == "stack" else queue_number
    result = solver(g, max_vertices=args.max_vertices, max_orders=args.max_orders)
    if not result.exact:
        return _budget_exceeded(result.lower_bound, result.k,
                                orders_scanned=result.orders_scanned)
    print(result.k)
    if args.format == "dot":
        text = graph_to_dot(g, result.layout).rstrip("\n")
    else:
        text = layout_to_json(result.layout)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_hexpath(args) -> int:
    if args.random == (args.coloring is not None):
        raise InvalidParameterError("provide one of a colouring file or --random --n N")
    if args.coloring is not None:
        coloring = coloring_from_json(_read(args.coloring))
    elif args.n is None:
        raise InvalidParameterError("--random requires --n")
    else:
        _gate_build(args.n * args.n)
        coloring = random_coloring(args.n, Random(args.seed))
    path = find_monochromatic_path(coloring)
    # a GridCoord, being a tuple, prints as the array [a, b]
    doc = {"n": coloring.n, "color": coloring.color(path[0]), "path": path}
    if args.random:
        doc["coloring"] = coloring_to_json_dict(coloring)
    if args.trace:
        steps = boundary_sequence(coloring)
        doc["steps"] = [
            {
                "color": step.color,
                "component": sorted(step.component),
                "far_boundary": None if step.far_boundary is None else sorted(step.far_boundary),
            }
            for step in steps
        ]
    _emit(_dump(doc), args.output)
    return EXIT_OK


def _cmd_witness(args) -> int:
    size = (args.a + 1) * args.n * args.n
    if args.random == (args.order is not None):
        raise InvalidParameterError("provide one of --order FILE or --random")
    if args.order is not None:
        raw = load_json(_read(args.order))
        if isinstance(raw, dict):
            raw = raw.get("order")
        if not isinstance(raw, list) or len(raw) != size:
            raise InvalidParameterError("order file must list every product vertex once")
        try:
            order = LinearOrder.from_sequence(raw)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"malformed order file: {exc}") from exc
    else:
        _gate_build(size)
        rng = Random(args.seed)
        seq = list(range(size))
        rng.shuffle(seq)
        order = LinearOrder.from_sequence(seq)
    outcome = extract_crossing_witness(args.a, args.n, order, args.c, args.d, trace=args.trace)
    if isinstance(outcome, InsufficientScale):
        _emit(_dump(insufficient_to_json_dict(outcome)), args.output)
        return EXIT_SCALE
    _emit(_dump(witness_to_json_dict(outcome)), args.output)
    return EXIT_OK


def _cmd_params(args) -> int:
    params = required_parameters(args.s)
    _emit(_dump(parameters_to_json_dict(params)), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linlay", description="linear layouts of graphs: generators, verifiers, solvers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a graph as JSON or DOT")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_hex = gen_sub.add_parser("hex")
    gen_hex.add_argument("--n", type=_int_at_least(1), required=True)
    gen_star = gen_sub.add_parser("star")
    gen_star.add_argument("--a", type=_int_at_least(1), required=True)
    gen_product = gen_sub.add_parser("product")
    gen_product.add_argument("--a", type=_int_at_least(1), required=True)
    gen_product.add_argument("--n", type=_int_at_least(1), required=True)
    for p in (gen_hex, gen_star, gen_product):
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=("json", "dot"), default="json")
        p.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="check a layout file against a graph file")
    verify.add_argument("graph")
    verify.add_argument("layout")
    verify.add_argument("--output", default=None)
    verify.set_defaults(func=_cmd_verify)

    solve = sub.add_parser("solve", help="exact stack or queue number of a small graph")
    solve.add_argument("graph")
    solve.add_argument("--kind", choices=("stack", "queue"), required=True)
    solve.add_argument("--max-vertices", type=_int_at_least(1), default=9)
    solve.add_argument("--max-orders", type=_int_at_least(1), default=None)
    solve.add_argument("--output", default=None)
    solve.add_argument("--format", choices=("json", "dot"), default="json")
    solve.set_defaults(func=_cmd_solve)

    hexpath = sub.add_parser("hexpath", help="monochromatic path in a two-coloured grid")
    hexpath.add_argument("coloring", nargs="?", default=None)
    hexpath.add_argument("--random", action="store_true")
    hexpath.add_argument("--n", type=_int_at_least(1), default=None)
    hexpath.add_argument("--seed", type=_int_at_least(0), default=0)
    hexpath.add_argument("--trace", action="store_true")
    hexpath.add_argument("--output", default=None)
    hexpath.set_defaults(func=_cmd_hexpath)

    witness = sub.add_parser("witness", help="crossing witness for an order of a product")
    witness.add_argument("--a", type=_int_at_least(1), required=True)
    witness.add_argument("--n", type=_int_at_least(1), required=True)
    witness.add_argument("--c", type=_int_at_least(1), required=True)
    witness.add_argument("--d", type=_int_at_least(1), required=True)
    witness.add_argument("--order", default=None)
    witness.add_argument("--random", action="store_true")
    witness.add_argument("--seed", type=_int_at_least(0), default=0)
    witness.add_argument("--trace", action="store_true")
    witness.add_argument("--output", default=None)
    witness.set_defaults(func=_cmd_witness)

    params = sub.add_parser("params", help="scale parameters for a target witness size")
    params.add_argument("--s", type=_int_at_least(1), required=True)
    params.add_argument("--output", default=None)
    params.set_defaults(func=_cmd_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        return _budget_exceeded(exc.lower, exc.upper)
    except OSError as exc:  # only stdout: file reads and --output writes wrap their own
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiets the exit flush
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_INPUT


def script() -> None:
    raise SystemExit(main())
