"""The public surface of abctensor: its names, weightings given as a
member or its value, and a fuzz of the ``tensor`` and ``spectral`` entry
points in which every call ends in a result or a documented error."""

import collections
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abctensor
from abctensor import build
from abctensor import generators as gen
from abctensor.spectral import (
    ConvergenceError,
    NotConnectedError,
    SolveOptions,
    residual_of,
    spectral_radii,
    spectral_radius,
)
from abctensor.tensor import (
    TensorOperator,
    Weighting,
    abc_index,
    edge_weight,
    edge_weights,
    k_unit,
    omega,
)

from helpers import contract_by_loop, estimate_fields

PUBLIC_NAMES = {
    "ConvergenceError", "DegreeVector", "DuplicateEdgeError", "EdgeCardinalityError",
    "InvalidHypergraphError", "MAX_VERTICES", "NotConnectedError", "RepeatedVertexError",
    "SolveOptions", "SpectralEstimate", "StructureReport", "TensorOperator", "UhgParseError",
    "UniformHypergraph", "VertexRangeError", "Weighting", "abc_index", "build",
    "canonical_code", "classify", "degrees", "edge_weight", "edge_weights", "format_uhg",
    "is_connected", "is_linear", "k_unit", "omega", "parse_uhg", "spectral_radii",
    "spectral_radius",
}

VALUES = {w.value for w in Weighting}
BAD_WEIGHTINGS = ["nonsense", "adj", "ABC", "Abc", "", 3, 0, 1.5, b"abc", ("abc",), ["abc"]]
NOT_A_WEIGHTING = "the weightings are adjacency, abc, randic"


def test_the_public_names_of_abctensor_are_pinned():
    names = {
        name for name, value in vars(abctensor).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES


def test_the_public_functions_of_verify_are_pinned():
    from abctensor import verify

    names = {
        name for name, value in vars(verify).items()
        if not name.startswith("_") and isinstance(value, types.FunctionType)
        and value.__module__ == verify.__name__
    }
    assert names == {"check_bounds", "check_power_relation", "check_theorem", "default_suite"}


def test_the_readme_library_example_runs():
    root = Path(__file__).resolve().parents[1]
    (block,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    proc = subprocess.run([sys.executable, "-c", block], env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@st.composite
def graphs(draw, connected=False):
    """A small connected k-uniform hypergraph, or, one time in eight
    unless ``connected``, two disjoint edges."""
    k = draw(st.integers(2, 4))
    if not connected and draw(st.integers(0, 7)) == 0:
        return build(k, 2 * k, [list(range(k)), list(range(k, 2 * k))])
    return gen.random_connected_hypergraph(draw(st.integers(1, 6)), k, draw(st.integers(0, 10**6)))


not_weightings = st.one_of(
    st.sampled_from(BAD_WEIGHTINGS),
    st.text(max_size=12).filter(lambda s: s not in VALUES),
    st.integers(),
    st.floats(allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(graphs(connected=True), st.sampled_from(list(Weighting)), not_weightings, st.integers(0, 2**32))
def test_a_weighting_value_acts_as_its_member_bit_for_bit(G, w, bad, seed):
    x = np.random.default_rng(seed).uniform(0.05, 2.0, G.n)
    by_member, by_value = (TensorOperator.from_weighting(G, v) for v in (w, w.value))
    assert edge_weights(G, w.value).tobytes() == edge_weights(G, w).tobytes()
    assert by_value.weights.tobytes() == by_member.weights.tobytes()
    assert by_value.apply(x).tobytes() == by_member.apply(x).tobytes()
    want = estimate_fields(spectral_radius(G, w))
    assert estimate_fields(spectral_radius(G, w.value)) == want
    assert [estimate_fields(e) for e in spectral_radii([(G, w.value), (G, w)])] == [want, want]
    calls = (
        lambda: edge_weight(G, 0, bad), lambda: edge_weights(G, bad),
        lambda: TensorOperator.from_weighting(G, bad), lambda: spectral_radius(G, bad),
        lambda: spectral_radii([(G, w), (G, bad)]),
    )
    for call in calls:
        with pytest.raises(ValueError, match=NOT_A_WEIGHTING):
            call()


# ---- fuzzing the library ----

DOCUMENTED = (ValueError, TypeError, IndexError, ConvergenceError)
"""What the entry points raise: ValueError (with NotConnectedError) for
a bad value, TypeError for a missing or extra weighting or an operator
on something other than a hypergraph, IndexError for an edge out of
range, ConvergenceError for a solve that does not close."""

WEIGHTING_ARGS = [*Weighting, *sorted(VALUES), None, *BAD_WEIGHTINGS]
SCALES = [0.0, -0.0, 0.5, 3.0, 1e300, -1.0, -1e-300, math.nan, math.inf, -math.inf]
OPTION_VALUES = {
    "tol": ([1e-16, 1e-10, 1e-3, 0.5], [0.0, -1e-10, math.nan, math.inf]),
    "max_iters": ([1, 2, 600, np.int64(40)], [0, -5, 1.5, True, "10"]),
    "shift": ([1e-3, 1.0, 1e3, 1e12], [0.0, -1.0, math.nan, math.inf]),
    "seed": ([None, 0, 7, 2**40], [-1, 1.5, True, "0"]),
}
"""Each option's extreme but valid values, and values it rejects."""


def _member(w):
    """The Weighting that w names, or None."""
    return next((m for m in Weighting if w is m or (isinstance(w, str) and w == m.value)), None)


def _outcome(fn, *args):
    """``fn(*args)``, or the documented exception it raised; any other
    exception fails the test."""
    try:
        return fn(*args)
    except DOCUMENTED as exc:
        return exc


def _assert_raised(got, error, match=None):
    assert type(got) is error, got
    if match:
        assert match in str(got)


def _reference_weights(G, w):
    """Each edge's weight under w from a degree table counted here, in
    exact integer sums and products."""
    degree = collections.Counter(v for e in G.edges for v in e)
    out = []
    for e in G.edges:
        total, product = sum(degree[v] for v in e), math.prod(degree[v] for v in e)
        out.append({
            Weighting.ADJACENCY: 1.0,
            Weighting.ABC: ((total - G.k) / product) ** (1.0 / G.k),
            Weighting.RANDIC: product ** (-1.0 / G.k),
        }[w])
    return out


def _fuzz_weights(data, G):
    name = data.draw(st.sampled_from(["edge_weight", "omega", "edge_weights", "abc_index"]))
    w = data.draw(st.sampled_from(WEIGHTING_ARGS))
    e = data.draw(st.integers(-3, G.m + 2))
    member = Weighting.ABC if name in ("omega", "abc_index") else _member(w)
    got = {
        "edge_weight": lambda: _outcome(edge_weight, G, e, w),
        "omega": lambda: _outcome(omega, G, e),
        "edge_weights": lambda: _outcome(edge_weights, G, w),
        "abc_index": lambda: _outcome(abc_index, G),
    }[name]()
    if member is None:
        return _assert_raised(got, ValueError, NOT_A_WEIGHTING)
    if name in ("edge_weight", "omega") and not 0 <= e < G.m:
        return _assert_raised(got, IndexError, f"edge {e} is out of range for a hypergraph of {G.m} edges")
    want = _reference_weights(G, member)
    if name == "edge_weight":
        assert got == want[e]
    elif name == "omega":
        assert got ** (1.0 / G.k) == want[e]
    elif name == "edge_weights":
        assert got.dtype == np.float64 and got.tolist() == want
    else:
        assert got == sum(want) / math.factorial(G.k - 1)


@st.composite
def vectors(draw, n):
    """A vector of length n, sometimes n - 1 or n + 1 or an n x 1 column,
    with entries of either sign and an occasional zero, infinity or NaN."""
    shape = draw(st.sampled_from([(n,), (n,), (n,), (n - 1,), (n + 1,), (n, 1)]))
    entry = st.one_of(st.floats(0.05, 2.0), st.floats(-2.0, -0.05),
                      st.sampled_from([0.0, -0.0, math.inf, math.nan]))
    entries = draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(entries, dtype=np.float64).reshape(shape)


def _fuzz_vectors(data, G):
    name = data.draw(st.sampled_from(["apply", "form", "residual_of", "k_unit"]))
    op = TensorOperator.from_weighting(G, data.draw(st.sampled_from(list(Weighting))))
    x = data.draw(vectors(G.n))
    if name == "k_unit":
        got = _outcome(k_unit, x, G.k)
        if not np.all((0.0 <= x) & (x < math.inf)):
            return _assert_raised(got, ValueError, "negative or non-finite entry")
        if not np.any(x**G.k):
            return _assert_raised(got, ValueError, "zero vector")
        assert np.all(got >= 0.0) and np.sum(got**G.k) == pytest.approx(1.0, rel=1e-12)
        return
    rho = data.draw(st.floats(0.0, 3.0))
    got = {
        "apply": lambda: _outcome(op.apply, x),
        "form": lambda: _outcome(op.form, x),
        "residual_of": lambda: _outcome(residual_of, op, rho, x),
    }[name]()
    if x.shape != (G.n,):
        return _assert_raised(got, ValueError, "does not match n=")
    image = contract_by_loop(G, op.weights, x)
    want = {
        "apply": image,
        "form": x @ image,
        "residual_of": np.max(np.abs(image - rho * x ** (G.k - 1))),
    }[name]
    np.testing.assert_array_equal(got, want)


@st.composite
def operator_weights(draw, m):
    """Weights for m edges, sometimes m - 1 or m + 1 of them or an m x 1
    column, as an array or a list, with an occasional zero, negative,
    infinite or NaN entry."""
    shape = draw(st.sampled_from([(m,), (m,), (m,), (m - 1,), (m + 1,), (m, 1)]))
    entry = st.one_of(st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.sampled_from([0.0, -0.0]),
                      st.sampled_from([-1.0, math.inf, -math.inf, math.nan]))
    entries = draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))
    weights = np.array(entries, dtype=np.float64).reshape(shape)
    return weights if draw(st.booleans()) else weights.tolist()


def _nonzero_edges_connect(G, weights) -> bool:
    """Whether the edges of nonzero weight reach every vertex of G from
    vertex 0, by a search done here."""
    edges = [set(e) for e, x in zip(G.edges, weights) if x != 0.0]
    reached, grown = {0}, True
    while grown:
        grown = False
        for e in edges:
            if reached & e and not e <= reached:
                reached |= e
                grown = True
    return len(reached) == G.n


def _fuzz_solves(data, G):
    w = data.draw(st.sampled_from(WEIGHTING_ARGS))
    how = data.draw(st.sampled_from(["pair", "scaled", "direct"]))
    kwargs, bad = {}, []
    for field, (good, rejected) in OPTION_VALUES.items():
        if data.draw(st.integers(0, 5)):
            kwargs[field] = data.draw(st.sampled_from(good))
        elif data.draw(st.booleans()):
            kwargs[field] = data.draw(st.sampled_from(rejected))
            bad.append(field)
    opts = _outcome(lambda: SolveOptions(**kwargs))
    if bad:
        return _assert_raised(opts, ValueError, f"{bad[0]} must be")
    member = _member(w)
    if how == "pair":
        got = _outcome(spectral_radius, G, w, opts)
        if w is None:
            return _assert_raised(got, TypeError, "a hypergraph and its weighting")
        if member is None:
            return _assert_raised(got, ValueError, NOT_A_WEIGHTING)
    else:
        if how == "scaled":
            c = data.draw(st.sampled_from(SCALES))
            op = _outcome(lambda: TensorOperator.from_weighting(G, member or Weighting.ABC).scaled(c))
            if not (math.isfinite(c) and c >= 0):
                return _assert_raised(op, ValueError, "scale factor must be finite and >= 0")
        else:
            weights = data.draw(operator_weights(G.m))
            owner = data.draw(st.sampled_from([G, G, G, G, "uhg", None, G.edges, G.edge_array]))
            op = _outcome(TensorOperator, owner, weights)
            if owner is not G:
                return _assert_raised(op, TypeError, f"UniformHypergraph, not {type(owner).__name__}")
            given = np.array(weights, dtype=np.float64)
            if given.shape != (G.m,):
                return _assert_raised(op, ValueError, f"do not match the m={G.m} edges")
            if not np.all((0.0 <= given) & (given < math.inf)):
                return _assert_raised(op, ValueError, "weights must be finite and >= 0")
            assert op.weights.dtype == np.float64 and op.weights.tolist() == given.tolist()
        extra = data.draw(st.sampled_from([None, None, None, w]))
        got = _outcome(spectral_radius, op, extra, opts)
        if extra is not None:
            return _assert_raised(got, TypeError, "an operator alone")
    if not G.connected:
        return _assert_raised(got, NotConnectedError, "hypergraph is not connected")
    if how == "direct" and given.any() and not _nonzero_edges_connect(G, given):
        return _assert_raised(got, NotConnectedError, "not connected by its nonzero-weight edges")
    if isinstance(got, ConvergenceError):
        assert got.iters <= opts.max_iters and not got.lower > got.upper
        return
    assert isinstance(got, abctensor.SpectralEstimate), got
    assert got.eigenvector.shape == (G.n,) and np.all(got.eigenvector > 0)
    assert got.lower <= got.rho <= got.upper and got.iters <= opts.max_iters
    if member is Weighting.RANDIC and how == "pair":
        # Randic rho is 1, up to the rounding of the weights.
        assert got.lower - 1e-12 <= 1.0 <= got.upper + 1e-12


@settings(max_examples=300, deadline=None)
@given(graphs(), st.sampled_from([_fuzz_weights, _fuzz_vectors, _fuzz_solves]), st.data())
def test_fuzzed_library_calls_end_in_a_result_or_a_documented_error(G, fuzz, data):
    with np.errstate(all="ignore"):  # NaN and infinite entries are drawn on purpose
        fuzz(data, G)
