#!/usr/bin/env python3
"""abctensor benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload solve-slow --seed 2 --seconds 30 --trace 0

Run from the repository root (the package is imported from ``src/``).
With ``--trace 0`` the run times untraced passes and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics.  Human-readable lines go first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with the
environment, every sample and every failure is written to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import abctensor.cli; "
    "print(repr(time.perf_counter() - t))"
)


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def import_package():
    """Import abctensor from this checkout's src/, or stop with exit 2."""
    if not (ROOT / "src" / "abctensor" / "__init__.py").is_file():
        fail(f"no abctensor sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import abctensor
    import abctensor.cli  # noqa: F401  (loads every layer)

    if Path(abctensor.__file__).resolve().parent != (ROOT / "src" / "abctensor").resolve():
        fail(f"imported abctensor from {abctensor.__file__}, not from this checkout")


def child_import_s() -> float:
    """Seconds a fresh interpreter spends importing abctensor.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(proc.stdout.strip())


def environment(seed: int) -> dict:
    import numpy
    from abctensor import tensor

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = (read(index / f) for f in ("level", "type", "size"))
            if size:
                caches[f"L{level} {kind}"] = size
    except OSError:
        pass
    return {
        "COMPILED_KERNEL": tensor.COMPILED_KERNEL,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "seed": seed,
    }


def kernel_bitwise(seed: int) -> str:
    """Compiled kernel against the pure one, bit for bit, when both import."""
    try:
        from abctensor import _kernels as compiled
    except ImportError:
        return "not run: no compiled kernel imports"
    if not getattr(compiled, "COMPILED", False):
        return "not run: no compiled kernel imports"
    import numpy as np
    from abctensor import _kernels_py, generators
    from abctensor.tensor import TensorOperator, Weighting

    rng = np.random.default_rng(seed)
    for G in (generators.random_hypertree(200, 4, seed), generators.complete(12, 3)):
        op = TensorOperator.from_weighting(G, Weighting.ABC)
        x = rng.uniform(0.5, 1.5, size=G.n)
        outs = []
        for kernel in (_kernels_py, compiled):
            out = np.zeros(G.n)
            kernel.contract(op._edge_idx, op.weights, x, out)
            outs.append(out)
        if not np.array_equal(*outs):
            return f"failed: kernels differ on n={G.n} m={G.m} k={G.k}"
    return "passed"


def summary(samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=4)  # MIN_PASSES >= 2 samples
    return {
        "median": statistics.median(samples), "p25": q[0], "p75": q[2],
        "min": min(samples), "max": max(samples), "n": len(samples), "samples": samples,
    }


def timed_pass(work, in_process: bool, samples: list[float]) -> list[str]:
    t0 = time.perf_counter()
    outputs = work.run_pass(in_process)
    samples.append(time.perf_counter() - t0)
    return work.check(outputs)


def run_passes(work, seconds: float, recorder=None):
    """Timed passes for about ``seconds`` (at least MIN_PASSES): another
    loop starts while half a typical one still fits before the deadline,
    so a run ends near ``seconds`` on average, not up to a loop late.

    Each loop is a set-up (a fresh interpreter's import of abctensor.cli,
    then generating and writing the inputs) and a timed pass, so set-up
    samples spread over the run as pass samples do.  With a recorder, the
    loop's pass replays in-process and a traced pass follows it, so the
    untraced and traced samples alternate and host drift hits both alike.
    Returns ({"setup", "import", "pass", "traced"} samples, failures,
    operations attempted)."""
    samples: dict[str, list[float]] = {"setup": [], "import": [], "pass": [], "traced": []}
    failures, attempted = [], 0
    loops: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(loops) < MIN_PASSES or time.perf_counter() + statistics.median(loops) / 2 < deadline:
        start = time.perf_counter()
        import_s = child_import_s()
        t0 = time.perf_counter()
        work.setup()
        samples["import"].append(import_s)
        samples["setup"].append(import_s + time.perf_counter() - t0)
        failures += timed_pass(work, recorder is not None, samples["pass"])
        attempted += work.ops_per_pass
        if recorder is not None:
            with spans.patched(recorder):
                recorder.pass_id = len(samples["traced"])
                failures += timed_pass(work, True, samples["traced"])
            attempted += work.ops_per_pass
        loops.append(time.perf_counter() - start)
    return samples, failures, attempted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))["cases"]
    OUT.mkdir(exist_ok=True)
    work = workloads.WORKLOADS[args.workload](ROOT, args.seed, refs, OUT / f"inputs-{args.seed}")

    failures: list[str] = []
    bitwise = kernel_bitwise(args.seed)
    if bitwise.startswith("failed"):
        failures.append(bitwise)

    recorder = spans.Recorder() if args.trace else None
    if recorder is not None:
        with spans.patched(recorder):
            recorder.pass_id = -1
            work.setup()
    samples, fails, attempted = run_passes(work, args.seconds, recorder)
    failures += fails
    times = samples["pass"]
    rusage = resource.RUSAGE_CHILDREN if args.workload == "ingest-large" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rusage).ru_maxrss / 1024.0

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "kernel_bitwise": bitwise,
        "setup_s": summary(samples["setup"]), "import_s": summary(samples["import"]),
        "pass_s": summary(times),
    }
    if recorder is not None:
        traced_times = samples["traced"]
        by_pass: dict[int, list] = {}
        for s in recorder.spans:
            by_pass.setdefault(s.pass_id, []).append(s)
        setup_layers = spans.pass_metrics(by_pass.pop(-1, []))
        per_pass = [spans.pass_metrics(by_pass[i]) for i in range(len(traced_times))]
        for name in spans.DETERMINISTIC:
            if len({p[name] for p in per_pass}) != 1:
                failures.append(f"{name} changed between traced passes: {[p[name] for p in per_pass]}")
        layer = spans.combine(per_pass)
        layer["cli.import_s"] = statistics.median(samples["import"]) if args.workload == "ingest-large" else 0.0
        layer["cli.stdout_bytes"] = getattr(work, "stdout_bytes", 0)
        layer["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(times) - 1.0
        result.update(traced_pass_s=summary(traced_times), per_pass=per_pass, setup_layers=setup_layers)
        spans.write_spans(OUT / f"spans_{args.workload}_seed{args.seed}.csv.gz", recorder.spans)
        metrics = {name: {"value": layer[name], "unit": unit} for name, (unit, _) in spans.LAYER_METRICS.items()}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(samples["setup"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    shutil.rmtree(work.workdir, ignore_errors=True)  # inputs are rebuilt from the seed
    failed = len(failures)
    result.update(
        metrics=metrics, attempted=attempted, failed=failed,
        failed_frac=failed / attempted, failures=failures,
    )
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )

    for msg in failures[:20]:
        print(f"FAILED {msg}")
    p = result["pass_s"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} kernel_bitwise: {bitwise}")
    print(f"pass_s median={p['median']:.4f} p25={p['p25']:.4f} p75={p['p75']:.4f} n={p['n']} s")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
