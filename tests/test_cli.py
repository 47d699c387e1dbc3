import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import linlay
from linlay import (
    extract_crossing_witness,
    graph_from_json,
    graph_to_dot,
    is_pairwise_crossing,
    layout_from_json,
    layout_to_json,
    LinearOrder,
    graph_to_json,
    product_queue_layout,
    stack_number,
)
from linlay.witness import witness_to_json_dict

from oracles import complete_graph, cube_graph


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "linlay", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# gen

def test_gen_hex():
    proc = run_cli("gen", "hex", "--n", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "hex" and len(doc["vertices"]) == 9
    assert len(doc["edges"]) == 16


def test_gen_product_counts():
    proc = run_cli("gen", "product", "--a", "5", "--n", "3")
    assert proc.returncode == 0
    g = graph_from_json(proc.stdout)
    assert g.vertex_count == 54 and len(g.edges) == 141


def test_gen_star_zero_is_usage_error():
    for args, message in ((("gen", "star", "--a", "0"), "value must be at least 1"),
                          (("solve", "G", "--kind", "stack", "--max-vertices", "x"),
                           "'x' is not an integer")):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert message in proc.stderr


def test_gen_dot_format():
    proc = run_cli("gen", "star", "--a", "2", "--format", "dot")
    assert proc.returncode == 0
    assert proc.stdout.startswith("graph G {")
    assert "0 -- 1" in proc.stdout


def test_gen_writes_file(tmp_path):
    out = tmp_path / "hex.json"
    proc = run_cli("gen", "hex", "--n", "2", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    g = graph_from_json(out.read_text())
    assert g.vertex_count == 4


def test_generated_json_round_trips(tmp_path):
    proc = run_cli("gen", "hex", "--n", "4")
    g = graph_from_json(proc.stdout)
    assert graph_to_json(g) == proc.stdout.strip()


@pytest.mark.parametrize("args, vertices", [
    (["gen", "hex", "--n", "7"], 49),
    (["gen", "star", "--a", "49"], 50),
    (["gen", "product", "--a", "1", "--n", "5"], 50),
    (["hexpath", "--random", "--n", "7"], 49),
    (["witness", "--random", "--a", "1", "--n", "5", "--c", "1", "--d", "1"], 50),
])
def test_build_size_gate(monkeypatch, capsys, args, vertices):
    # the limit is lowered so that a broken gate builds a small graph only
    from linlay import cli

    monkeypatch.setattr(cli, "MAX_BUILD_VERTICES", vertices)
    assert cli.main(args) in (0, 4)
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_BUILD_VERTICES", vertices - 1)
    assert cli.main(args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == '{"error":"budget-exceeded","lower":null,"upper":null}\n'


# ---------------------------------------------------------------------------
# verify

@pytest.fixture
def product_files(tmp_path):
    graph_path = tmp_path / "g.json"
    layout_path = tmp_path / "l.json"
    run_cli("gen", "product", "--a", "5", "--n", "3", "--output", str(graph_path))
    layout = product_queue_layout(5, 3)
    layout_path.write_text(layout_to_json(layout) + "\n")
    return graph_path, layout_path


def test_verify_constructed_layout(product_files):
    graph_path, layout_path = product_files
    proc = run_cli("verify", str(graph_path), str(layout_path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc == {"valid": True, "violations": []}


def test_verify_reinterpreted_as_stack_fails(product_files, tmp_path):
    graph_path, layout_path = product_files
    doc = json.loads(layout_path.read_text())
    doc["kind"] = "stack"
    bad = tmp_path / "stack.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("verify", str(graph_path), str(bad))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert not report["valid"]
    assert report["violations"]


def test_verify_truncated_json(product_files, tmp_path):
    graph_path, _ = product_files
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": "queue", "order": [')
    proc = run_cli("verify", str(graph_path), str(broken))
    assert proc.returncode == 2


_PAIR_GRAPH = {"kind": "plain", "vertices": [{"id": 0, "label": 0}, {"id": 1, "label": 1}],
               "edges": [[0, 1]]}
_PATH_GRAPH = {"kind": "plain", "vertices": [{"id": v, "label": v} for v in range(3)],
               "edges": [[0, 1], [1, 2]]}


@pytest.mark.parametrize("graph, layout, key", [
    # the later colour used to win silently, while "1-0" beside "0-1" was refused
    (json.dumps(_PAIR_GRAPH), '{"kind":"stack","order":[0,1],"colors":{"0-1":0,"0-1":1}}', "0-1"),
    ('{"kind":"plain","vertices":[{"id":0,"label":0,"id":1},{"id":1,"label":1}],"edges":[[0,1]]}',
     '{"kind":"stack","order":[0,1],"colors":{"0-1":0}}', "id"),
], ids=["layout-colour-key", "graph-vertex-id"])
def test_repeated_json_key_exits_2(tmp_path, graph, layout, key):
    (tmp_path / "g.json").write_text(graph)
    (tmp_path / "l.json").write_text(layout)
    proc = run_cli("verify", str(tmp_path / "g.json"), str(tmp_path / "l.json"))
    assert proc.returncode == 2
    assert proc.stderr == f"error: invalid JSON: duplicate key {key!r}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args, files",
    [
        (("solve", "{g}", "--kind", "stack"),
         {"g": {"kind": "plain", "vertices": [{"label": 0}], "edges": []}}),
        (("solve", "{g}", "--kind", "stack"),
         {"g": {"kind": "hex", "n": 1, "vertices": [{"id": 0, "label": 5}], "edges": []}}),
        (("solve", "{g}", "--kind", "queue"),
         {"g": dict(_PAIR_GRAPH, edges=[[0]])}),
        (("verify", "{g}", "{l}"),
         {"g": _PAIR_GRAPH, "l": {"kind": "queue", "order": [0, 1], "colors": [0]}}),
        (("verify", "{g}", "{l}"),
         {"g": _PAIR_GRAPH, "l": {"kind": "queue", "order": [0, 1], "colors": {"0-1": -1}}}),
        (("witness", "--a", "1", "--n", "1", "--c", "1", "--d", "1", "--order", "{o}"),
         {"o": [0, "x"]}),
        (("hexpath", "{c}"), {"c": b"\xff\xfe"}),
        (("solve", "{g}", "--kind", "stack"),
         {"g": dict(_PAIR_GRAPH, vertices=[{"id": 0, "label": 0}, {"id": True, "label": 1}])}),
        (("solve", "{g}", "--kind", "stack"),
         {"g": {"kind": "hex", "n": 1, "vertices": [{"id": 0, "label": [1, 1.5]}], "edges": []}}),
        (("solve", "{g}", "--kind", "stack"), {"g": dict(_PAIR_GRAPH, edges=[[0, 1.9]])}),
        (("solve", "{g}", "--kind", "stack"),
         {"g": dict(_PAIR_GRAPH, edges=[[0, float("inf")]])}),
        (("verify", "{g}", "{l}"),
         {"g": _PAIR_GRAPH, "l": {"kind": "queue", "order": [0, 1.7], "colors": {"0-1": 0}}}),
        (("verify", "{g}", "{l}"),
         {"g": _PAIR_GRAPH, "l": {"kind": "queue", "order": [0, 1], "colors": {"0-1": 0.9}}}),
        (("hexpath", "{c}"), {"c": {"n": 1.6, "rows": [["R"]]}}),
        (("witness", "--a", "1", "--n", "1", "--c", "1", "--d", "1", "--order", "{o}"),
         {"o": [0, 1.5]}),
        (("hexpath", "{c}", "--random", "--n", "2"), {"c": {"n": 1, "rows": [["R"]]}}),
        (("witness", "--a", "1", "--n", "1", "--c", "1", "--d", "1", "--order", "{o}",
          "--random"), {"o": [0, 1]}),
        (("solve", "{g}", "--kind", "stack"),
         {"g": {"kind": "hex", "n": "x", "vertices": [{"id": 0, "label": [1, 1]}], "edges": []}}),
        (("solve", "{g}", "--kind", "stack"),
         {"g": {"kind": "hex", "n": 2, "vertices": [{"id": 0, "label": [1, 1]}], "edges": []}}),
        (("solve", "{g}", "--kind", "queue"),
         {"g": {"kind": "star", "a": 2, "vertices": [{"id": 0, "label": "t"}, {"id": 1, "label": 1}],
                "edges": [[0, 1]]}}),
        (("solve", "{g}", "--kind", "queue"),
         {"g": {"kind": "product", "n": 1, "vertices": [{"id": 0, "label": ["t", [1, 1]]},
                                                        {"id": 1, "label": [1, [1, 1]]}],
                "edges": [[0, 1]]}}),
        (("verify", "{g}", "{l}"),
         {"g": _PATH_GRAPH,
          "l": {"kind": "stack", "order": [0, 1, 2], "colors": {"0-1": 0, "1-0": 5, "1-2": 0}}}),
        (("verify", "{g}", "{l}"),
         {"g": _PAIR_GRAPH, "l": {"kind": "queue", "order": [0, 1], "colors": {" 0-1 ": 0}}}),
        (("verify", "{g}", "{l}"),
         {"g": _PAIR_GRAPH, "l": {"kind": "queue", "order": [0, 1], "colors": {"0-0_1": 0}}}),
        (("gen", "hex", "--n", "2", "--output", "{out}/missing/x.json"), {}),
        (("gen", "hex", "--n", "2", "--output", "{out}"), {}),
    ],
    ids=["vertex-without-id", "hex-scalar-label", "one-element-edge", "colors-as-list",
         "negative-colour", "non-integer-order-entry", "undecodable-bytes",
         "boolean-vertex-id", "fractional-hex-label", "fractional-edge-endpoint",
         "infinite-edge-endpoint",
         "fractional-order-entry", "fractional-colour", "fractional-coloring-n",
         "fractional-witness-order-entry", "hexpath-file-and-random",
         "witness-order-and-random", "hex-string-n", "hex-n-mismatch", "star-a-mismatch",
         "product-without-a", "edge-coloured-twice", "padded-edge-key", "underscore-edge-key",
         "output-in-missing-directory", "output-is-a-directory"],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, args, files):
    paths = {"out": str(tmp_path / "out")}
    (tmp_path / "out").mkdir()
    for name, content in files.items():
        path = tmp_path / f"{name}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(content))
        paths[name] = str(path)
    proc = run_cli(*(a.format(**paths) for a in args))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not list(tmp_path.rglob(".linlay-*"))  # no temporary output left behind


# every subcommand argument that names an input file, the others valid
_INPUT_SLOTS = {
    "verify-graph": ("verify", "{bad}", "{layout}"),
    "verify-layout": ("verify", "{graph}", "{bad}"),
    "solve": ("solve", "{bad}", "--kind", "queue"),
    "hexpath": ("hexpath", "{bad}"),
    "witness": ("witness", "--a", "2", "--n", "1", "--c", "1", "--d", "1", "--order", "{bad}"),
}


@pytest.mark.parametrize(
    "content",
    [b"", b"{", b"null", b"[]", b"{}", b'"text"', b"\xff", b"[" * 100_000,
     b'{"kind":"hex","n":' + b"9" * 5000 + b',"vertices":[],"edges":[]}',
     b'{"kind":"product","n":0,"a":1,"vertices":[],"edges":[]}',
     b'{"kind":"queue","order":[0,1],"colors":{"0-1":1e999}}'],
    ids=["empty", "truncated", "null", "list", "object", "string", "undecodable",
         "deep-nesting", "5000-digit-integer", "zero-size", "infinite-colour"],
)
def test_no_subcommand_exits_1_on_malformed_input(tmp_path, content):
    # exit 1 means only "invalid layout"; a bad input file is exit 2
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    graph, layout = tmp_path / "graph.json", tmp_path / "layout.json"
    graph.write_text(json.dumps(_PAIR_GRAPH))
    layout.write_text(json.dumps({"kind": "queue", "order": [0, 1], "colors": {"0-1": 0}}))
    for slot, args in _INPUT_SLOTS.items():
        proc = run_cli(*(a.format(bad=bad, graph=graph, layout=layout) for a in args))
        assert proc.returncode == 2, (slot, proc.stderr[-300:])
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_oversized_product_header_exits_2(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"kind":"product","n":100000,"a":100000,"vertices":[],"edges":[]}')
    proc = run_cli("solve", str(path), "--kind", "stack", timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: 0 vertices do not fit a product graph of that size\n"


def _assert_stdout_failure(returncode, stderr):
    # exit 1 means only "invalid layout"; an unwritable stdout is exit 2
    assert returncode == 2
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout")


def test_closed_stdout_pipe_exits_2_with_one_line():
    # about 150 kB, more than a pipe holds, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "linlay", "gen", "product", "--a", "20", "--n", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.read(50)
    proc.stdout.close()
    stderr = proc.stderr.read()
    _assert_stdout_failure(proc.wait(timeout=60), stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_stdout_device_exits_2_with_one_line():
    # a few bytes stay buffered until the flush, which is where it fails
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "linlay", "gen", "hex", "--n", "3"],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    _assert_stdout_failure(proc.returncode, proc.stderr)


# ---------------------------------------------------------------------------
# solve

def test_solve_stack_k4(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(graph_to_json(complete_graph(4)))
    proc = run_cli("solve", str(path), "--kind", "stack")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2"
    layout = layout_from_json(proc.stdout.splitlines()[1])
    assert layout.kind == "stack"
    dot = run_cli("solve", str(path), "--kind", "stack", "--format", "dot")
    assert dot.returncode == 0
    k, rest = dot.stdout.split("\n", 1)
    assert k == proc.stdout.splitlines()[0]
    assert rest == graph_to_dot(complete_graph(4), stack_number(complete_graph(4)).layout)


def test_solve_queue_star(tmp_path):
    path = tmp_path / "star.json"
    proc = run_cli("gen", "star", "--a", "7", "--output", str(path))
    proc = run_cli("solve", str(path), "--kind", "queue")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1"


def test_solve_budget_gate(tmp_path):
    path = tmp_path / "big.json"
    g = complete_graph(15)
    path.write_text(graph_to_json(g))
    proc = run_cli("solve", str(path), "--kind", "stack")
    assert proc.returncode == 3
    assert "budget" in proc.stderr


def test_solve_order_cap(tmp_path):
    # qn = 2 while the edge count allows one queue, so the scan cannot
    # stop at the floor and the cap binds
    path = tmp_path / "cube.json"
    path.write_text(graph_to_json(cube_graph()))
    proc = run_cli("solve", str(path), "--kind", "queue", "--max-orders", "2")
    assert proc.returncode == 3
    doc = json.loads(proc.stderr)
    assert doc["error"] == "budget-exceeded"
    assert doc["lower"] <= doc["upper"]
    assert doc["orders_scanned"] == 2


def test_solve_layout_file(tmp_path):
    graph_path = tmp_path / "k4.json"
    graph_path.write_text(graph_to_json(complete_graph(4)))
    out = tmp_path / "layout.json"
    proc = run_cli("solve", str(graph_path), "--kind", "stack", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"
    layout = layout_from_json(out.read_text())
    assert layout.coloring.k == 2


# ---------------------------------------------------------------------------
# hexpath

def test_hexpath_all_red(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": 5, "rows": [["R"] * 5] * 5}))
    proc = run_cli("hexpath", str(path))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["color"] == "R"
    assert len(doc["path"]) == 5


def test_hexpath_random_with_trace():
    proc = run_cli("hexpath", "--random", "--n", "6", "--seed", "42", "--trace")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["path"]) >= 6
    assert doc["steps"]
    assert doc["steps"][-1]["far_boundary"] is None


def test_hexpath_malformed_coloring(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "rows": [["R", "R"]]}')
    proc = run_cli("hexpath", str(path))
    assert proc.returncode == 2


def test_hexpath_needs_source():
    proc = run_cli("hexpath")
    assert proc.returncode == 2
    proc = run_cli("hexpath", "--random")
    assert proc.returncode == 2
    assert proc.stderr == "error: --random requires --n\n"


# ---------------------------------------------------------------------------
# witness

def test_witness_random_seed():
    proc = run_cli(
        "witness", "--a", "4", "--n", "2", "--c", "2", "--d", "2",
        "--random", "--seed", "7",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["case"] in ("I.1", "I.2", "II")
    assert doc["lower_bound"] == len(doc["edges"]) >= 1
    traced = run_cli(
        "witness", "--a", "4", "--n", "2", "--c", "2", "--d", "2",
        "--random", "--seed", "7", "--trace",
    )
    assert traced.returncode == 0
    seq = list(range(5 * 4))
    Random(7).shuffle(seq)
    report = extract_crossing_witness(4, 2, LinearOrder.from_sequence(seq), 2, 2, trace=True)
    compact = json.dumps(witness_to_json_dict(report), separators=(",", ":"))
    assert traced.stdout == compact + "\n"
    assert set(report.trace) == {"leaves", "directions", "grid_path", "selection",
                                 "classification"}


def test_witness_order_file(tmp_path):
    order_path = tmp_path / "order.json"
    order_path.write_text(json.dumps(list(range(5 * 4))))
    proc = run_cli(
        "witness", "--a", "4", "--n", "2", "--c", "2", "--d", "2",
        "--order", str(order_path),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["case"] == "I.2"
    assert doc["edges"] == [[0, 8]]
    order = LinearOrder.from_sequence(range(20))
    assert is_pairwise_crossing(order, [tuple(e) for e in doc["edges"]])


def test_witness_rejects_non_permutation(tmp_path):
    order_path = tmp_path / "order.json"
    order_path.write_text(json.dumps([0] * 20))
    proc = run_cli(
        "witness", "--a", "4", "--n", "2", "--c", "2", "--d", "2",
        "--order", str(order_path),
    )
    assert proc.returncode == 2


def test_witness_insufficient_scale_exit_code():
    proc = run_cli(
        "witness", "--a", "2", "--n", "2", "--c", "5", "--d", "50", "--random",
    )
    assert proc.returncode == 4
    doc = json.loads(proc.stdout)
    assert doc["outcome"] == "insufficient-scale"
    assert doc["b"] == 2


# ---------------------------------------------------------------------------
# params

def test_params_s1():
    proc = run_cli("params", "--s", "1")
    doc = json.loads(proc.stdout)
    assert doc["n"] == 2 and doc["m"] == 8
    assert doc["b_bound"] == 17


def test_params_s2():
    proc = run_cli("params", "--s", "2")
    doc = json.loads(proc.stdout)
    assert doc["m"] == 32768
    assert doc["b_bound"] == 366145
    assert doc["a_bound"]["digits"] == 182310


def test_params_s3():
    proc = run_cli("params", "--s", "3")
    doc = json.loads(proc.stdout)
    assert doc["n"] == 6 and doc["m"] == 2 ** 35


def test_params_size_limit(capsys):
    # m = 2 ** (4s^2 - 1) has 4,192 digits at s = 59, and Python prints at
    # most 4,300; at s = 60 the run stops before computing m
    from linlay import cli

    assert cli.main(["params", "--s", "59"]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c22d88272e2fc74e3b8066705c1c9cd5ff9b602cafd29bf990a80f123b669111"
    )
    assert err == ""
    assert cli.main(["params", "--s", "60"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == '{"error":"budget-exceeded","lower":null,"upper":null}\n'


# ---------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize(
    "args",
    [
        ("gen", "hex", "--n", "4"),
        ("hexpath", "--random", "--n", "7", "--seed", "13", "--trace"),
        ("witness", "--a", "4", "--n", "2", "--c", "2", "--d", "2", "--random", "--seed", "99"),
        ("params", "--s", "2"),
    ],
    ids=["gen", "hexpath", "witness", "params"],
)
def test_byte_identical_reruns(args):
    outputs = {run_cli(*args).stdout for _ in range(3)}
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# benchmark tracer and inputs

def test_tracer_targets_name_existing_functions():
    # bench/tracer.py imports linlay.cli, runs `import linlay` and looks
    # every target up in sys.modules, so a target module that this leaves
    # unloaded, or a renamed or deleted function, breaks a traced benchmark
    # run; a lazy linlay/__init__ (ROADMAP item 6) must change the tracer first
    code = (
        "import importlib.util, json, sys\n"
        "spec = importlib.util.spec_from_file_location('bench_tracer', sys.argv[1])\n"
        "tracer = sys.modules[spec.name] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "import linlay.cli\n"
        "import linlay\n"
        "targets = tracer.JOB_TARGETS + tracer.SETUP_TARGETS\n"
        "modules = [sys.modules.get('linlay.' + t.module) for t in targets]\n"
        "print(json.dumps([[t.name, m is not None, callable(getattr(m, t.function, None))]\n"
        "                  for t, m in zip(targets, modules)]))\n"
    )
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    src = str(Path(linlay.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(tracer)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    targets = json.loads(done.stdout)
    assert targets
    for name, loaded, callable_ in targets:
        assert loaded and callable_, name


# sha256 of each directory bench/make_inputs.py writes at seed 0 and full
# sizes, summed as bench/run.py's _digest_dir does (each sorted name, then
# its file's sha256); bench/digests.json pins only the jobs' stdout, and a
# verify job prints {"valid":true,...} whatever path its layout file takes
INPUT_DIGESTS = {
    "exact-small": "22982955eb9fa75cc9ea579c785fc66d0512afe90b5283f250ce34bb9340f4bb",
    "layouts-large": "c3528665eda769105f5b28ef4999b7181277ee345571a802e1ea27fdcdfb3860",
    "grid-witness": "d27e5026c046cc2859ed412dd7a5651e486de6179240708011fb25d34f90027a",
}


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """The directory bench/make_inputs.py writes for a workload at seed 0
    and full sizes, written once per module."""
    script = Path(__file__).resolve().parent.parent / "bench" / "make_inputs.py"
    src = str(Path(linlay.__file__).resolve().parent.parent)
    made = {}

    def inputs(workload):
        if workload not in made:
            made[workload] = tmp_path_factory.mktemp(workload)
            subprocess.run(
                [sys.executable, str(script), workload, "0", "full", str(made[workload])],
                check=True, env={**os.environ, "PYTHONPATH": src},
            )
        return made[workload]

    return inputs


@pytest.mark.parametrize("workload", sorted(INPUT_DIGESTS))
def test_benchmark_inputs_are_byte_identical(workload, bench_inputs):
    outdir = bench_inputs(workload)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        digest.update(name.encode())
        digest.update(hashlib.sha256((outdir / name).read_bytes()).digest())
    assert digest.hexdigest() == INPUT_DIGESTS[workload]


def test_grid_witness_jobs_match_the_benchmark_digests(bench_inputs, monkeypatch, capsys):
    # every hexpath and witness job of the benchmark, run in process on its
    # seed-0 inputs, must print exactly what bench/digests.json pins
    from linlay import cli

    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    expected = json.loads((bench / "digests.json").read_text())["grid-witness"]
    monkeypatch.chdir(bench_inputs("grid-witness"))
    jobs = workloads.jobs_for("grid-witness")
    assert sorted(job.name for job in jobs) == sorted(expected)
    for job in jobs:
        assert job.entry == "cli"
        capsys.readouterr()
        # on random orders the witness stops at insufficient scale, exit 4
        insufficient = job.check == "witness" and not job.params["block"]
        assert cli.main(list(job.argv)) == (4 if insufficient else 0), job.name
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == expected[job.name], job.name


def test_benchmark_layout_files_are_read_in_place(bench_inputs):
    # a file that falls back to the general loader passes every output check
    # and shows only as time, so each must be recognised as the writer's own
    outdir = bench_inputs("layouts-large")
    built = {}
    for path in sorted(outdir.glob("*.graph.json")):
        built[path.name.split(".")[0]] = g = linlay.graphs._canonical_graph(path.read_text())
        assert g is not None, path.name
    files = [path for suffix in ("queue", "stack", "moved")
             for path in sorted(outdir.glob(f"*.{suffix}.json"))]
    assert len(files) >= 3
    for path in files:
        g = built[path.name.split(".")[0]]
        assert linlay.layouts._canonical_classes(g, path.read_text()) is not None, path.name


def test_start_up_imports():
    # every CLI run is a fresh process, so what `import linlay.cli` pulls in
    # is paid per job; -S skips `site`, whose .pth files import what they like
    code = (
        "import json, sys\n"
        "import linlay.cli\n"
        "heavy = [m for m in ('dataclasses', 'inspect', 'decimal') if m in sys.modules]\n"
        "print(json.dumps(heavy))\n"
    )
    src = str(Path(linlay.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert json.loads(done.stdout) == []
