"""Spectral radii of k-uniform hypergraphs under abc, adjacency, and
Randic edge weightings: generators for the extremal families, implicit
tensor power iteration and Newton-Noda steps with certified brackets,
closed forms, and a numeric verification suite."""

from .hypergraph import (
    MAX_VERTICES,
    DegreeVector,
    DuplicateEdgeError,
    EdgeCardinalityError,
    InvalidHypergraphError,
    RepeatedVertexError,
    StructureReport,
    UhgParseError,
    UniformHypergraph,
    VertexRangeError,
    build,
    classify,
    degrees,
    format_uhg,
    is_connected,
    is_linear,
    parse_uhg,
)
from .canon import canonical_code
from .spectral import (
    ConvergenceError,
    NotConnectedError,
    SolveOptions,
    SpectralEstimate,
    spectral_radii,
    spectral_radius,
)
from .tensor import (
    TensorOperator,
    Weighting,
    abc_index,
    edge_weight,
    edge_weights,
    k_unit,
    omega,
)

__version__ = "0.1.0"
