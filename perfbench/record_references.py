#!/usr/bin/env python3
"""Record the reference values the benchmark compares results against.

    python3 perfbench/record_references.py FIRST LAST

Solves the fixed solve-slow shapes once, and the seeded ingest-large
graph for seeds FIRST..LAST, with the library as it is, and writes
perfbench/references.json.  Run it only on a commit whose results are
trusted.  The benchmark also certifies every solve on its own, so a seed
outside the table is still checked.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from abctensor.hypergraph import build  # noqa: E402
from abctensor.spectral import spectral_radius  # noqa: E402
from abctensor.tensor import Weighting, abc_index  # noqa: E402

WEIGHTINGS = ("adjacency", "abc", "randic")


def main(first: int, last: int) -> None:
    cases = {}
    work = workloads.SolveSlow(HERE.parent, seed=0, refs={}, workdir=HERE)
    work.setup()
    for label, G, w in work.cases:
        cases[f"{label}/{w}"] = spectral_radius(G, Weighting(w)).rho
    for seed in range(first, last + 1):
        G = build(3, 3000, workloads.dense_edges(seed))
        for w in WEIGHTINGS:
            cases[f"dense.uhg(seed={seed})/{w}"] = spectral_radius(G, Weighting(w)).rho
        cases[f"dense.uhg(seed={seed})/abc_index"] = abc_index(G)
        print(f"seed {seed} recorded", flush=True)
    doc = {"dense_seeds": [first, last], "cases": dict(sorted(cases.items()))}
    (HERE / "references.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
