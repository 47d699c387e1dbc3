"""The document loaders on valid documents with one fault.

`graph_from_json` builds a hex grid or product in `graph_to_json`'s form
from its header, and `verify_layout_json` reads a layout in
`layout_to_json`'s form straight into colour classes.  Each must give what
the general path gives on every document: the same graph or report, or the
same error message.  Results are compared by repr, because `True == 1` and
`1.0 == 1` would let a wrongly typed value compare equal.

The colouring loader and the order file of `witness --order` have no fast
path; each must accept a document or refuse it with InvalidParameterError
(exit 2 and one stderr line), and never fail another way.
"""

import contextlib
import io
import itertools
import json
import re
import tempfile
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlay import (
    EdgeColoring,
    InvalidParameterError,
    Layout,
    coloring_from_json,
    graph_from_json,
    graph_to_json,
    hex_queue_layout,
    identity_order,
    layout_from_json,
    layout_to_json,
    make_hex_dual,
    make_star_hex_product,
    plain_graph,
    product_queue_layout,
    random_coloring,
    verify_layout,
    verify_layout_json,
)
from linlay import cli, graphs, layouts
from linlay.hexpath import coloring_to_json_dict


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except InvalidParameterError as exc:
        return f"error: {exc}"


def graph_key(g):
    return g.kind, g.labels, g.adjacency, g.hex_n, g.star_a


def general_graph(text):
    with mock.patch.object(graphs, "_canonical_graph", lambda text: None):
        return graph_key(graph_from_json(text))


def general_verify(g, text):
    return verify_layout(g, layout_from_json(text))


def small_graph(kind, a, n):
    return make_hex_dual(n) if kind == "hex" else make_star_hex_product(a, n)


SMALL = [("hex", None, n) for n in range(1, 5)]
SMALL += [("product", a, n) for a in range(1, 4) for n in range(1, 4)]


def scalar_slots(node, skip=("kind",)):
    """(container, key) of every number and string inside a parsed document,
    apart from the values under ``skip``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    slots = []
    for key, value in items:
        if key in skip and isinstance(node, dict):
            continue
        if isinstance(value, (dict, list)):
            slots += scalar_slots(value, ())
        else:
            slots.append((node, key))
    return slots


@st.composite
def replacement(draw, value):
    """Another value for a scalar: a neighbour, the same number as a float or
    a boolean, a string, or null."""
    if isinstance(value, int):
        return draw(st.sampled_from(
            [value + 1, value - 1, float(value), bool(value), not value, str(value), None, "t"]
        ))
    return draw(st.sampled_from([0, 1, "T", "", None, True]))


def spell(data, doc):
    """The document as text: compact, as the writers print it, unless drawn
    otherwise; "number" respells one run of digits, in a value or a key."""
    style = data.draw(st.sampled_from(
        ["compact", "compact", "spaced", "newline", "two-newlines", "number"]
    ))
    if style == "spaced":
        return json.dumps(doc)
    text = json.dumps(doc, separators=(",", ":"))
    runs = list(re.finditer(r"[0-9]+", text))  # none once a 1-vertex order's id is replaced
    if style == "number" and runs:
        digits = data.draw(st.sampled_from(runs))
        respelt = data.draw(st.sampled_from(["0{}", "{}.0", "{}e0", "-{}", " {}"]))
        return text[:digits.start()] + respelt.format(digits[0]) + text[digits.end():]
    return text + {"compact": "", "number": "", "newline": "\n", "two-newlines": "\n\n"}[style]


# ---------------------------------------------------------------------------
# graphs

CHUNKS = [1, 2, 3, graphs._CHUNK]  # runs of a few vertices or rows, and the default


@pytest.mark.parametrize("kind, a, n", SMALL)
def test_canonical_graph_documents_take_the_fast_path(kind, a, n):
    g = small_graph(kind, a, n)
    text = graph_to_json(g)
    for chunk in CHUNKS:
        with mock.patch.object(graphs, "_CHUNK", chunk):
            for spelled in (text, text + "\n"):
                assert graphs._canonical_graph(spelled) is g
            assert graphs._canonical_graph(text + "\n\n") is None
            assert graphs._canonical_graph(text + " ") is None


def perturb_graph(data, doc):
    fault = data.draw(st.sampled_from(
        ["none", "scalar", "scalar", "scalar", "drop-edge", "add-edge", "repeat-edge",
         "swap-edges", "drop-vertex", "reorder-keys", "kind"]
    ))
    edges = doc["edges"]
    if fault == "scalar":
        container, key = data.draw(st.sampled_from(scalar_slots(doc)))
        container[key] = data.draw(replacement(container[key]))
    elif fault == "drop-edge" and edges:
        del edges[data.draw(st.integers(0, len(edges) - 1))]
    elif fault == "add-edge":
        last = len(doc["vertices"]) - 1
        edges.append(data.draw(st.sampled_from([[0, last], [last, last + 1], [0, 0]])))
    elif fault == "repeat-edge" and edges:
        i = data.draw(st.integers(0, len(edges) - 1))
        edges.insert(i, list(edges[i]))
    elif fault == "swap-edges" and len(edges) > 1:
        i = data.draw(st.integers(0, len(edges) - 2))
        edges[i], edges[i + 1] = edges[i + 1], edges[i]
    elif fault == "drop-vertex":
        doc["vertices"].pop()
    elif fault == "reorder-keys":
        doc = {key: doc[key] for key in reversed(list(doc))}
    elif fault == "kind":
        doc["kind"] = data.draw(st.sampled_from(["hex", "product", "star", "plain"]))
    return doc


def small_chunks(data):
    """graphs' run length cut to a few vertices or rows, so that a small
    document spans several runs and a fault may sit at a boundary between
    them or in the last one."""
    return mock.patch.object(graphs, "_CHUNK", data.draw(st.sampled_from(CHUNKS[:3])))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(SMALL), st.data())
def test_perturbed_graph_documents_decode_as_on_the_general_path(params, data):
    doc = json.loads(graph_to_json(small_graph(*params)))
    text = spell(data, perturb_graph(data, doc))
    with small_chunks(data):
        fast = outcome(lambda t: graph_key(graph_from_json(t)), text)
    assert fast == outcome(general_graph, text)


def test_oversized_header_is_not_built():
    text = '{"kind":"product","n":100000,"a":100000,"vertices":[],"edges":[]}'
    refuse = mock.Mock(side_effect=AssertionError("built a graph the text cannot hold"))
    with mock.patch.object(graphs, "make_star_hex_product", refuse):
        with pytest.raises(InvalidParameterError, match="do not fit a product graph"):
            graph_from_json(text)
    assert not refuse.called


# ---------------------------------------------------------------------------
# layouts

def small_layouts():
    for kind, a, n in SMALL:
        layout = hex_queue_layout(n) if kind == "hex" else product_queue_layout(a, n)
        for layout_kind in ("queue", "stack"):
            yield small_graph(kind, a, n), Layout(layout_kind, layout.order, layout.coloring)


def test_canonical_layout_documents_take_the_fast_path():
    for (g, layout), chunk in itertools.product(small_layouts(), CHUNKS):
        text = layout_to_json(layout)
        with mock.patch.object(graphs, "_CHUNK", chunk):
            for spelled in (text, text + "\n"):
                kind, order, edges, _ = layouts._canonical_classes(g, spelled)
                assert (kind, order, edges) == (layout.kind, layout.order, g.edges)
                assert verify_layout_json(g, spelled) == verify_layout(g, layout)
            assert layouts._canonical_classes(g, text + "\n\n") is None
    # canonical in form, but the order leaves out the last vertex
    g, layout = next(small_layouts())
    seq = layout.order.sequence
    short = layout_to_json(layout).replace(
        json.dumps(seq, separators=(",", ":")),
        json.dumps([v for v in seq if v != len(seq) - 1], separators=(",", ":")),
    )
    assert layouts._CANONICAL_HEAD.match(short) and layouts._canonical_classes(g, short) is None
    with pytest.raises(InvalidParameterError, match="order must cover the graph's vertices exactly"):
        verify_layout_json(g, short)


def test_canonical_layout_with_multi_digit_colours_takes_the_fast_path():
    # one colour per edge, 0..11, then two crossing classes 10 and 11
    g = plain_graph(6, list(itertools.combinations(range(6), 2))[:12])
    order = identity_order(6)
    for colors in (range(12), [10 + i % 2 for i in range(12)]):
        layout = Layout("stack", order, EdgeColoring.from_colors(dict(zip(g.edges, colors))))
        text = layout_to_json(layout)
        kind, _, _, classes = layouts._canonical_classes(g, text)
        by_colour = [[e for e, c in zip(g.edges, colors) if c == k] for k in sorted(set(colors))]
        assert kind == "stack" and sorted(classes) == sorted(by_colour)
        assert verify_layout_json(g, text) == verify_layout(g, layout)
    assert not verify_layout(g, layout).valid


def perturb_layout(data, doc):
    fault = data.draw(st.sampled_from(
        ["none", "scalar", "scalar", "swap-keys", "reverse-key", "zero-padded-key",
         "drop-key", "extra-key", "both-spellings", "swap-order", "kind"]
    ))
    colors = doc["colors"]
    items = list(colors.items())
    i = data.draw(st.integers(0, len(items) - 1)) if items else None
    if fault == "scalar":
        container, key = data.draw(st.sampled_from(scalar_slots(doc)))
        container[key] = data.draw(replacement(container[key]))
    elif fault == "swap-keys" and len(items) > 1:
        j = data.draw(st.integers(0, len(items) - 1))
        items[i], items[j] = items[j], items[i]
    elif fault in ("reverse-key", "zero-padded-key", "both-spellings") and items:
        u, v = items[i][0].split("-")
        key = f"0{u}-{v}" if fault == "zero-padded-key" else f"{v}-{u}"
        if fault == "both-spellings":
            items.insert(i + 1, items[i])
        items[i] = (key, items[i][1])
    elif fault == "drop-key" and items:
        del items[i]
    elif fault == "extra-key":
        last = len(doc["order"]) - 1
        items.append((data.draw(st.sampled_from([f"0-{last}", f"{last}-{last + 1}", "0-0"])), 0))
    elif fault == "swap-order" and len(doc["order"]) > 1:
        order = doc["order"]
        j = data.draw(st.integers(0, len(order) - 1))
        order[0], order[j] = order[j], order[0]
    elif fault == "kind":
        doc["kind"] = data.draw(st.sampled_from(["queue", "stack", "shelf"]))
    doc["colors"] = dict(items)
    return doc


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(list(small_layouts())), st.data())
def test_perturbed_layout_documents_verify_as_on_the_general_path(case, data):
    g, layout = case
    doc = json.loads(layout_to_json(layout))
    text = spell(data, perturb_layout(data, doc))
    with small_chunks(data):
        fast = outcome(verify_layout_json, g, text)
    assert fast == outcome(general_verify, g, text)


# ---------------------------------------------------------------------------
# colourings and witness orders

def perturb_list(data, items, extra):
    """One fault in a list: drop, repeat, swap or append an entry."""
    fault = data.draw(st.sampled_from(["drop", "repeat", "swap", "append"]))
    if fault == "append" or not items:
        items.append(extra)
    elif fault == "drop":
        del items[data.draw(st.integers(0, len(items) - 1))]
    elif fault == "repeat":
        i = data.draw(st.integers(0, len(items) - 1))
        items.insert(i, items[i])
    else:
        i, j = data.draw(st.integers(0, len(items) - 1)), data.draw(st.integers(0, len(items) - 1))
        items[i], items[j] = items[j], items[i]


def perturb_coloring(data, doc):
    fault = data.draw(st.sampled_from(
        ["none", "scalar", "scalar", "scalar", "rows", "row", "row-as-text", "drop-key",
         "reorder-keys", "not-an-object"]
    ))
    rows = doc["rows"]
    i = data.draw(st.integers(0, len(rows) - 1))
    if fault == "scalar":
        container, key = data.draw(st.sampled_from(scalar_slots(doc)))
        container[key] = data.draw(replacement(container[key]))
    elif fault == "rows":
        perturb_list(data, rows, list(rows[0]))
    elif fault == "row":
        perturb_list(data, rows[i], "R")
    elif fault == "row-as-text":
        rows[i] = "".join(rows[i])
    elif fault == "drop-key":
        del doc[data.draw(st.sampled_from(["n", "rows"]))]
    elif fault == "reorder-keys":
        doc = {key: doc[key] for key in reversed(list(doc))}
    elif fault == "not-an-object":
        doc = data.draw(st.sampled_from([rows, doc["n"], None]))
    return doc


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 4), st.integers(0, 9), st.data())
def test_perturbed_colourings_load_or_are_refused(n, seed, data):
    doc = coloring_to_json_dict(random_coloring(n, Random(seed)))
    text = spell(data, perturb_coloring(data, doc))
    try:
        coloring_from_json(text)
    except InvalidParameterError:
        pass


WITNESS_SIZES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]


def perturb_order(data, order):
    fault = data.draw(st.sampled_from(
        ["none", "scalar", "scalar", "scalar", "entries", "nested", "object", "object-key",
         "not-a-list"]
    ))
    if fault == "scalar":
        i = data.draw(st.integers(0, len(order) - 1))
        order[i] = data.draw(replacement(order[i]))
    elif fault == "entries":
        perturb_list(data, order, len(order))
    elif fault == "nested":
        order[data.draw(st.integers(0, len(order) - 1))] = [0]
    elif fault == "object":
        return {"order": order}
    elif fault == "object-key":
        return {data.draw(st.sampled_from(["Order", "orders", ""])): order}
    elif fault == "not-a-list":
        return data.draw(st.sampled_from([None, 0, "0", {}]))
    return order


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(WITNESS_SIZES), st.integers(0, 9), st.data())
def test_perturbed_witness_orders_run_or_exit_2(size, seed, data):
    a, n = size
    order = list(range((a + 1) * n * n))
    Random(seed).shuffle(order)
    text = spell(data, perturb_order(data, order))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "order.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["witness", "--a", str(a), "--n", str(n), "--c", "2", "--d", "2",
                             "--order", str(path)])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 4) and err.getvalue() == ""
