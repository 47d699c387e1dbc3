import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linlay
from linlay import (
    graph_from_json,
    is_pairwise_crossing,
    layout_from_json,
    layout_to_json,
    LinearOrder,
    graph_to_json,
    product_queue_layout,
)

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
    proc = run_cli("gen", "star", "--a", "0")
    assert proc.returncode == 2
    assert proc.stderr


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
# benchmark tracer

def _tracer_targets(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    return tracer.JOB_TARGETS + tracer.SETUP_TARGETS


def test_tracer_targets_name_existing_functions(monkeypatch):
    # bench/tracer.py looks every target up with getattr before a traced
    # run, so a renamed or deleted function breaks `bench/run.py --trace 1`
    targets = _tracer_targets(monkeypatch)
    assert targets
    for target in targets:
        module = importlib.import_module(f"linlay.{target.module}")
        assert callable(getattr(module, target.function, None)), target.name


def test_start_up_imports(monkeypatch):
    # every CLI run is a fresh process, so what `import linlay.cli` pulls in
    # is paid per job; -S skips `site`, whose .pth files import what they like
    code = (
        "import json, sys\n"
        "import linlay\n"
        "package = sorted(m for m in sys.modules if m.startswith('linlay.'))\n"
        "import linlay.cli\n"
        "heavy = [m for m in ('dataclasses', 'inspect', 'decimal') if m in sys.modules]\n"
        "print(json.dumps([package, heavy]))\n"
    )
    src = str(Path(linlay.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    package, heavy = json.loads(done.stdout)
    assert heavy == []
    # the tracer wraps functions after a bare `import linlay`; it imports
    # the cli itself, which the package leaves out
    traced = {f"linlay.{t.module}" for t in _tracer_targets(monkeypatch)} - {"linlay.cli"}
    assert traced <= set(package)
