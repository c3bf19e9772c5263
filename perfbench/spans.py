"""Traced run: spans around the public entry points of each abctensor layer.

``patched(recorder)`` swaps every entry point listed by ``targets()`` for a
timing wrapper, in every ``abctensor`` module that holds a binding to it
(``verify``, ``cli`` and ``generators`` import several by name), and puts
the original objects back on exit.  Nothing under ``src/`` changes.

A span is (id, parent id, pass id, name, start, end, note).  Spans stay in
memory until ``write_spans`` at the end of the run.  A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(slots=True)
class Span:
    id: int
    parent: Optional[int]
    pass_id: int
    name: str
    start: float = 0.0
    end: float = 0.0
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``note(args, kwargs, result, exc)`` keeps what the metrics need
        from one call; it runs after the span has ended."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.pass_id, name)
            spans.append(span)
            stack.append(span.id)
            result = exc = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span.end = clock()
                stack.pop()
                if note is not None:
                    span.note = note(args, kwargs, result, exc)

        return traced


# ----------------------------------------------------------------------
# What gets wrapped.


def _contract_note(args, kwargs, result, exc):
    edge_idx, _, x, _ = args
    m, k = edge_idx.shape
    return m, k, x.size


def _solve_note(args, kwargs, result, exc):
    iters = result.iters if result is not None else getattr(exc, "iters", 0)
    weighting = args[1] if len(args) > 1 else kwargs.get("weighting")
    return iters, exc is not None, args[0], weighting


def _m_note(args, kwargs, result, exc):
    return result.m if result is not None else 0


def _result_note(args, kwargs, result, exc):
    return result


GENERATOR_FUNCTIONS = (
    "attach_pendant_edge", "hyperstar", "hyperpath", "hypercycle", "cycle_graph",
    "complete", "power", "double_star", "s_composition", "unicyclic_family",
    "unicyclic_graph", "t_family", "example_h", "enumerate_hypertrees",
    "random_hypertree", "random_connected_hypergraph",
)


def targets() -> list[tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, note) for every wrapped entry point."""
    from abctensor import canon, cli, closed_forms, generators, hypergraph, spectral, tensor, verify

    out = [
        (hypergraph, "parse_uhg", "hypergraph.parse_uhg", _m_note),
        (hypergraph, "build", "hypergraph.build", None),
        (hypergraph, "is_connected", "hypergraph.is_connected", None),
        (hypergraph, "classify", "hypergraph.classify", None),
        (tensor._kernels, "contract", "tensor.contract", _contract_note),
        (tensor.TensorOperator, "from_weighting", "tensor.from_weighting", None),
        (tensor, "abc_index", "tensor.abc_index", None),
        (spectral, "spectral_radius", "spectral.spectral_radius", _solve_note),
        (canon, "canonical_code", "canon.canonical_code", _result_note),
        (closed_forms, "largest_real_root", "closed_forms.largest_real_root", None),
        (verify, "default_suite", "verify.default_suite", _result_note),
        (cli, "main", "cli.main", None),
    ]
    out += [(generators, f, f"generators.{f}", None) for f in GENERATOR_FUNCTIONS]
    return out


def _bindings(original) -> list[tuple[object, str]]:
    """Every (module, name) in the abctensor package bound to ``original``."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "abctensor" or modname.startswith("abctensor.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr))
    return found


@contextlib.contextmanager
def patched(recorder: Recorder):
    """Wrap every target for the duration of the block, then restore the
    exact original objects (class attributes keep their descriptor)."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, note in targets():
            if isinstance(owner, type):
                descriptor = owner.__dict__[attr]
                saved.append((owner, attr, descriptor))
                setattr(owner, attr, classmethod(recorder.wrap(name, descriptor.__func__, note)))
                continue
            original = getattr(owner, attr)
            wrapper = recorder.wrap(name, original, note)
            for mod, binding in _bindings(original):
                saved.append((mod, binding, original))
                setattr(mod, binding, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# From spans to per-layer metrics.


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    clipped to its own."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def flops_computed(m: int, k: int) -> int:
    """Operations of one edge-major contraction: per edge, k-1 prefix and
    k-1 suffix products, 2k products for w*prefix*suffix, k accumulations."""
    return m * (5 * k - 2)


def bytes_computed(m: int, k: int) -> int:
    """Bytes one contraction moves, counted from array sizes (no caches):
    per edge, k int64 indices, one weight, k gathered x values and a
    read-modify-write of k output entries, all 8 bytes wide."""
    return 8 * m * (4 * k + 1)


def _distinct_key(G, weighting):
    from abctensor.tensor import TensorOperator

    if isinstance(G, TensorOperator):
        return G.G, G.weights.tobytes()
    return G, weighting


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass; every name appears, zero when the
    pass never entered that layer."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        selfs[s.name] = selfs.get(s.name, 0.0) + own[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1

    def named(prefix):
        return [s for s in spans if s.name == prefix]

    solves = named("spectral.spectral_radius")
    iters = [s.note[0] for s in solves]
    solve_s = total.get("spectral.spectral_radius", 0.0)
    contracts = named("tensor.contract")
    in_solve = sum(
        c.duration for c in contracts
        if c.parent is not None and by_id[c.parent].name == "spectral.spectral_radius"
    )
    contract_s = total.get("tensor.contract", 0.0)
    edge_visits = sum(c.note[0] for c in contracts)

    suites = named("verify.default_suite")
    suite_ids = {s.id for s in suites}

    def under_suite(s):
        while s.parent is not None:
            if s.parent in suite_ids:
                return True
            s = by_id[s.parent]
        return False

    suite_solves = [s for s in solves if under_suite(s)]
    distinct = {_distinct_key(s.note[2], s.note[3]) for s in suite_solves}

    # Per enumeration: distinct codes beyond the base edge's, over candidates.
    enum_ids = {s.id for s in named("generators.enumerate_hypertrees")}
    grown = [s for s in named("generators.attach_pendant_edge") if s.parent in enum_ids]
    codes = {(s.parent, s.note) for s in named("canon.canonical_code") if s.parent in enum_ids}
    gen_names = [f"generators.{f}" for f in GENERATOR_FUNCTIONS if f != "enumerate_hypertrees"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "spectral.iters": sum(iters),
        "spectral.iters_max": max(iters, default=0),
        "spectral.solves": len(solves),
        "spectral.convergence_errors": sum(1 for s in solves if s.note[1]),
        "spectral.us_per_iter": ratio(solve_s * 1e6, sum(iters)),
        "spectral.kernel_share": ratio(in_solve, solve_s),
        "spectral.solve_self_s": selfs.get("spectral.spectral_radius", 0.0),
        "tensor.contract_s": contract_s,
        "tensor.contract_calls": len(contracts),
        "tensor.edge_visits": edge_visits,
        "tensor.ns_per_edge_visit": ratio(contract_s * 1e9, edge_visits),
        "tensor.flops_computed": sum(flops_computed(*c.note[:2]) for c in contracts),
        "tensor.bytes_computed": sum(bytes_computed(*c.note[:2]) for c in contracts),
        "tensor.weights_s": selfs.get("tensor.from_weighting", 0.0),
        "tensor.abc_index_s": selfs.get("tensor.abc_index", 0.0),
        "hypergraph.parse_uhg_s": selfs.get("hypergraph.parse_uhg", 0.0),
        "hypergraph.build_s": selfs.get("hypergraph.build", 0.0),
        "hypergraph.is_connected_s": selfs.get("hypergraph.is_connected", 0.0),
        "hypergraph.classify_s": selfs.get("hypergraph.classify", 0.0),
        "hypergraph.edges_in": sum(s.note for s in named("hypergraph.parse_uhg")),
        "canon.code_s": selfs.get("canon.canonical_code", 0.0),
        "canon.code_calls": calls.get("canon.canonical_code", 0),
        "generators.build_s": sum(selfs.get(g, 0.0) for g in gen_names),
        "generators.attach_calls": calls.get("generators.attach_pendant_edge", 0),
        "generators.enumerate_s": selfs.get("generators.enumerate_hypertrees", 0.0),
        "generators.dedupe_ratio": ratio(len(codes) - len(enum_ids), len(grown)),
        "closed_forms.root_s": selfs.get("closed_forms.largest_real_root", 0.0),
        "closed_forms.root_calls": calls.get("closed_forms.largest_real_root", 0),
        "verify.checks": sum(len(s.note) for s in suites if s.note is not None),
        "verify.self_s": selfs.get("verify.default_suite", 0.0),
        "verify.distinct_solve_ratio": ratio(len(distinct), len(suite_solves)),
        "cli.main_self_s": selfs.get("cli.main", 0.0),
    }


# Every per-layer metric with its unit and the direction that is better.
LAYER_METRICS = {
    "spectral.iters": ("count", "lower"),
    "spectral.iters_max": ("count", "lower"),
    "spectral.solves": ("count", "lower"),
    "spectral.convergence_errors": ("count", "lower"),
    "spectral.us_per_iter": ("us", "lower"),
    "spectral.kernel_share": ("ratio", "higher"),
    "spectral.solve_self_s": ("s", "lower"),
    "tensor.contract_s": ("s", "lower"),
    "tensor.contract_calls": ("count", "lower"),
    "tensor.edge_visits": ("count", "lower"),
    "tensor.ns_per_edge_visit": ("ns", "lower"),
    "tensor.flops_computed": ("flop", "lower"),
    "tensor.bytes_computed": ("B", "lower"),
    "tensor.weights_s": ("s", "lower"),
    "tensor.abc_index_s": ("s", "lower"),
    "hypergraph.parse_uhg_s": ("s", "lower"),
    "hypergraph.build_s": ("s", "lower"),
    "hypergraph.is_connected_s": ("s", "lower"),
    "hypergraph.classify_s": ("s", "lower"),
    "hypergraph.edges_in": ("count", "higher"),
    "canon.code_s": ("s", "lower"),
    "canon.code_calls": ("count", "lower"),
    "generators.build_s": ("s", "lower"),
    "generators.attach_calls": ("count", "lower"),
    "generators.enumerate_s": ("s", "lower"),
    "generators.dedupe_ratio": ("ratio", "higher"),
    "closed_forms.root_s": ("s", "lower"),
    "closed_forms.root_calls": ("count", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.self_s": ("s", "lower"),
    "verify.distinct_solve_ratio": ("ratio", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.main_self_s": ("s", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Counts that must repeat exactly from pass to pass and run to run.
DETERMINISTIC = (
    "spectral.iters", "spectral.iters_max", "spectral.solves", "spectral.convergence_errors",
    "tensor.contract_calls", "tensor.edge_visits", "tensor.flops_computed",
    "tensor.bytes_computed", "hypergraph.edges_in", "canon.code_calls",
    "generators.attach_calls", "generators.dedupe_ratio", "closed_forms.root_calls",
    "verify.checks", "verify.distinct_solve_ratio",
)


def combine(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """One value per metric over the traced passes: counts from the first
    pass, times as the median."""
    return {
        name: per_pass[0][name] if name in DETERMINISTIC
        else statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }


def write_spans(path, spans: list[Span]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("pass,id,parent,name,start,end\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.pass_id},{s.id},{parent},{s.name},{s.start!r},{s.end!r}\n")
