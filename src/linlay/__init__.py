"""Linear layouts of graphs: stack/queue verification and lower-bound witnesses."""

from .errors import InternalInvariantError, InvalidParameterError, ResourceLimitError
from .graphs import (
    Graph,
    GridCoord,
    ProductVertex,
    graph_from_json,
    graph_to_json,
    hex_coord,
    hex_vertex_id,
    make_hex_dual,
    make_star,
    make_star_hex_product,
    plain_graph,
    shortest_path,
)
from .hexpath import (
    BoundaryStep,
    GridColoring,
    boundary_sequence,
    coloring_from_json,
    find_monochromatic_path,
    random_coloring,
)
from .layouts import (
    QUEUE,
    STACK,
    EdgeColoring,
    Layout,
    LinearOrder,
    VerifyReport,
    crosses,
    identity_order,
    is_pairwise_crossing,
    layout_from_json,
    layout_to_json,
    min_queue_colors_for_order,
    min_stack_colors_for_order,
    nests,
    verify_layout,
    verify_layout_json,
)
from .monotone import (
    DECREASING,
    INCREASING,
    LeafFamily,
    consistent_leaf_family,
    longest_monotone_subsequence,
)
from .poset import (
    PathFamily,
    Selection,
    chain_or_antichain,
    classify_pair,
    ramsey_upper_bound,
)
from .queuelayouts import (
    hex_queue_layout,
    product_block_order,
    product_queue_layout,
)
from .render import graph_to_dot
from .solve import SolveResult, queue_number, stack_number
from .witness import (
    InsufficientScale,
    ScaleParameters,
    WitnessReport,
    case_crossing,
    case_separated,
    extract_crossing_witness,
    required_parameters,
)

__all__ = [name for name in dir() if not name.startswith("_")]
