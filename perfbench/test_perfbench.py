"""Tests of the benchmark harness itself (inputs, spans, metric names)."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a = workloads.write_inputs(tmp_path / "a", seed=5)
    b = workloads.write_inputs(tmp_path / "b", seed=5)
    c = workloads.write_inputs(tmp_path / "c", seed=6)
    for key in ("dense", "tree"):
        assert a[key].read_bytes() == b[key].read_bytes()
        assert a[key].read_bytes() != c[key].read_bytes()


def test_inputs_are_valid_uhg_in_normal_form():
    from abctensor import classify, format_uhg, parse_uhg

    text = workloads.uhg_text(3, 300, workloads.dense_edges(1, n=300, m=2000))
    G = parse_uhg(text)
    assert (G.n, G.m) == (300, 2000) and format_uhg(G) == text
    assert classify(G).connected
    n, edges = workloads.tree_edges(1, m=50)
    T = parse_uhg(workloads.uhg_text(3, n, edges))
    assert classify(T).kind == "hypertree"


def test_relabel_keeps_rho_and_about_the_iteration_count():
    import random

    from abctensor import generators, spectral_radius
    from abctensor.tensor import Weighting

    G = generators.random_hypertree(30, 3, 2)
    H = workloads.relabel(G, random.Random(7))
    assert H != G
    a, b = (spectral_radius(X, Weighting.ABC) for X in (G, H))
    # Rounding in the relabeled sums can move the stopping test by one step.
    assert abs(a.iters - b.iters) <= 1 and abs(a.rho - b.rho) <= 1e-12 * a.rho


def test_independent_certificate_accepts_the_solver_and_rejects_a_wrong_rho():
    from abctensor import generators, spectral_radius
    from abctensor.tensor import Weighting

    G = generators.random_hypertree(40, 3, 1)
    est = spectral_radius(G, Weighting.ABC)
    E = np.asarray(G.edges, dtype=np.int64)
    args = ("t", E, G.n, "abc")
    assert workloads.check_eigen(*args, est.rho, est.lower, est.upper, est.eigenvector, {}) == []
    wrong = est.rho * (1 + 1e-6)
    assert workloads.check_eigen(*args, wrong, est.lower, wrong, est.eigenvector, {})
    assert workloads.check_eigen(*args, est.rho, est.lower, est.upper, est.eigenvector, {"t": wrong})


def _span(i, parent, start, end):
    return spans.Span(i, parent, 0, f"s{i}", start, end)


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 4.0),  # overlaps span 1: the union counts once
        _span(3, 0, 9.0, 12.0),  # runs past its parent: clipped at 10
        _span(4, 1, 1.5, 2.0),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert end_to_end == {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    assert per_layer == {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    for name in [*end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    assert set(doc["paths"]) == {HERE.name}
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)


def _bindings():
    import abctensor  # noqa: F401
    from abctensor.tensor import TensorOperator

    out = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "abctensor" or name.startswith("abctensor.")
        for attr, value in vars(mod).items()
        if callable(value)
    }
    out[("TensorOperator", "from_weighting")] = TensorOperator.__dict__["from_weighting"]
    return out


def test_traced_run_wraps_then_restores_every_entry_point(tmp_path):
    from abctensor import cli, generators, verify

    before = _bindings()
    recorder = spans.Recorder()
    path = tmp_path / "g.uhg"
    path.write_text(workloads.uhg_text(3, 200, workloads.dense_edges(3, n=200, m=600)))
    with pytest.raises(RuntimeError):
        with spans.patched(recorder):
            assert verify.spectral_radius is not before[("abctensor.verify", "spectral_radius")]
            assert generators.canonical_code is not before[("abctensor.generators", "canonical_code")]
            for argv in (["rho", str(path), "--json"], ["classify", str(path), "--json"]):
                assert cli.main(argv) == 0
            generators.enumerate_hypertrees(4, 3)
            raise RuntimeError("restore on the way out")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    metrics = spans.pass_metrics(recorder.spans)
    assert set(metrics) | {"cli.import_s", "cli.stdout_bytes", "trace.overhead_frac"} == set(spans.LAYER_METRICS)
    assert metrics["spectral.solves"] == 1 and metrics["hypergraph.edges_in"] == 1200
    assert metrics["tensor.edge_visits"] == 600 * metrics["tensor.contract_calls"]
    assert 0 < metrics["generators.dedupe_ratio"] < 1
    assert metrics["cli.main_self_s"] > 0
