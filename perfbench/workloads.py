"""The three workloads: seeded inputs, one timed pass each, and the checks
on every output.

Each workload is a closed loop with a single caller: the next operation
starts only when the previous one has returned.  ``ingest-large`` runs at
most one child process at a time; the other two run in this process.

A check never uses the library to judge the library.  Known values come
from closed forms written out here, and every eigenvalue is certified
again by recomputing the Collatz ratios ``(T x^{k-1})_i / x_i^{k-1}`` at
the returned eigenvector with this file's own numpy contraction and edge
weights.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

REL_TOL = 1e-9  # agreement with a recorded reference or a certificate
VERIFY_CHECKS = 345  # size of verify.default_suite() on the paper's grid


# ----------------------------------------------------------------------
# Seeded inputs.


def dense_edges(seed: int, n: int = 3000, m: int = 100_000, k: int = 3) -> list[tuple[int, ...]]:
    """A random connected k-uniform hypergraph on n vertices with m edges:
    a spanning hypertree over vertices 0..n-1, then distinct random edges."""
    rng = random.Random(seed)
    edges = {tuple(range(k))}
    covered = k
    while covered < n:
        fresh = min(k - 1, n - covered)
        old = tuple(rng.sample(range(covered), k - fresh))
        edges.add(tuple(sorted(old + tuple(range(covered, covered + fresh)))))
        covered += fresh
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    return sorted(edges)


def tree_edges(seed: int, m: int = 3000, k: int = 3) -> tuple[int, list[tuple[int, ...]]]:
    """A random k-uniform hypertree with m edges, by uniform pendant-edge
    attachment; returns (n, edges)."""
    rng = random.Random(seed)
    edges = [tuple(range(k))]
    n = k
    for _ in range(m - 1):
        edges.append((rng.randrange(n),) + tuple(range(n, n + k - 1)))
        n += k - 1
    return n, sorted(edges)


def uhg_text(k: int, n: int, edges: list[tuple[int, ...]]) -> str:
    """UHG v1 text with edges in the library's normal (sorted) order."""
    lines = [f"uhg {k} {n} {len(edges)}"]
    lines.extend(" ".join(map(str, e)) for e in edges)
    return "\n".join(lines) + "\n"


def relabel(G, rng: random.Random):
    """G with its vertices permuted by ``rng``, rebuilt by the library."""
    from abctensor.hypergraph import build

    perm = list(range(G.n))
    rng.shuffle(perm)
    return build(G.k, G.n, [tuple(perm[v] for v in e) for e in G.edges])


def write_inputs(workdir: Path, seed: int) -> dict[str, Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    dense = workdir / "dense.uhg"
    dense.write_text(uhg_text(3, 3000, dense_edges(seed)), encoding="utf-8")
    tree = workdir / "tree.uhg"
    n, edges = tree_edges(seed + 1)
    tree.write_text(uhg_text(3, n, edges), encoding="utf-8")
    return {"dense": dense, "tree": tree}


# ----------------------------------------------------------------------
# Independent checks.


def weights(E: np.ndarray, n: int, weighting: str) -> np.ndarray:
    """Edge weights from degrees: adjacency 1, abc ((sum d - k)/prod d)^(1/k),
    randic (prod d)^(-1/k)."""
    m, k = E.shape
    d = np.bincount(E.ravel(), minlength=n).astype(np.float64)[E]
    if weighting == "adjacency":
        return np.ones(m)
    if weighting == "abc":
        return ((d.sum(axis=1) - k) / d.prod(axis=1)) ** (1.0 / k)
    if weighting == "randic":
        return d.prod(axis=1) ** (-1.0 / k)
    raise ValueError(weighting)


def collatz_bracket(E: np.ndarray, w: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """min and max of (T x^{k-1})_i / x_i^{k-1}, one column left out at a time."""
    m, k = E.shape
    x = np.asarray(x, dtype=np.float64)
    X = x[E]
    y = np.zeros(x.size)
    for c in range(k):
        others = np.prod(np.delete(X, c, axis=1), axis=1)
        y += np.bincount(E[:, c], weights=w * others, minlength=x.size)
    ratios = y / x ** (k - 1)
    return float(ratios.min()), float(ratios.max())


def check_eigen(label, E, n, weighting, rho, lower, upper, x, refs, known=None) -> list[str]:
    """Failures of one solve: the bracket must hold a known value when there
    is one, the recorded reference when there is one, and in any case the
    Collatz ratios at x must pin rho to REL_TOL."""
    out = []
    if not (lower <= rho <= upper):
        out.append(f"{label}: rho {rho!r} outside its own bracket [{lower!r}, {upper!r}]")
    if known is not None and not (lower <= known <= upper):
        out.append(f"{label}: bracket [{lower!r}, {upper!r}] misses known value {known!r}")
    ref = refs.get(label)
    if ref is not None and abs(rho - ref) > REL_TOL * abs(ref):
        out.append(f"{label}: rho {rho!r} differs from reference {ref!r}")
    lo, hi = collatz_bracket(E, weights(E, n, weighting), x)
    scale = REL_TOL * max(abs(rho), 1e-300)
    if not (lo - scale <= rho <= hi + scale and hi - lo <= scale):
        out.append(f"{label}: Collatz ratios at x give [{lo!r}, {hi!r}], not rho {rho!r}")
    return out


def power_hypertree(E: np.ndarray, n: int) -> bool:
    m, k = E.shape
    deg = np.bincount(E.ravel(), minlength=n)
    return bool(np.all((deg[E] == 1).sum(axis=1) >= k - 2))


def abc_index(E: np.ndarray, n: int) -> float:
    k = E.shape[1]
    return float(weights(E, n, "abc").sum()) / math.factorial(k - 1)


# ----------------------------------------------------------------------
# Workloads.


class Workload:
    """One workload: ``setup`` builds the seeded inputs (timed, repeatable),
    ``run_pass`` is the timed region (``in_process`` selects the in-process
    replay where the workload has one), and ``check`` returns one message
    per failed operation of a pass."""

    name = ""
    ops_per_pass = 1

    def __init__(self, root: Path, seed: int, refs: dict, workdir: Path):
        self.root = root
        self.seed = seed
        self.refs = refs
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def run_pass(self, in_process: bool):
        raise NotImplementedError

    def check(self, outputs) -> list[str]:
        raise NotImplementedError


class SolveSlow(Workload):
    """spectral_radius at default SolveOptions on 12 inputs: four fixed
    shapes under three weightings, each relabeled by a seeded permutation.

    Relabeling leaves the spectrum unchanged and the iteration count
    unchanged up to rounding in the stopping test (91,977 per pass at most
    seeds, 91,978 at some), while the edge lists, and so the memory access
    pattern, differ from seed to seed.
    """

    name = "solve-slow"
    ops_per_pass = 12
    SHAPES = (
        ("hyperpath", (100, 2)),
        ("hyperpath", (60, 3)),
        ("random_hypertree", (200, 4, 2)),
        ("random_hypertree", (400, 3, 3)),
    )

    def setup(self) -> None:
        from abctensor import generators

        rng = random.Random(self.seed)
        self.cases = []
        for family, params in self.SHAPES:
            G = relabel(getattr(generators, family)(*params), rng)
            label = f"{family}({','.join(map(str, params))})"
            self.cases += [(label, G, w) for w in ("adjacency", "abc", "randic")]

    def run_pass(self, in_process: bool):
        from abctensor.spectral import spectral_radius
        from abctensor.tensor import Weighting

        out = []
        for label, G, w in self.cases:
            try:
                out.append(spectral_radius(G, Weighting(w)))
            except Exception as exc:  # counted as a failed operation by check()
                out.append(exc)
        return out

    def check(self, outputs) -> list[str]:
        from abctensor import closed_forms as cf

        failures = []
        for (label, G, w), est in zip(self.cases, outputs):
            label = f"{label}/{w}"
            if isinstance(est, Exception):
                failures.append(f"{label}: {type(est).__name__}: {est}")
                continue
            known = None
            if w == "randic":
                known = 1.0
            elif label.startswith("hyperpath"):
                if w == "abc":
                    known = cf.rho_abc_hyperpath(G.m, G.k)
                elif G.k == 2:
                    known = 2.0 * math.cos(math.pi / (G.m + 2))
            failures += check_eigen(
                label, np.asarray(G.edges, dtype=np.int64), G.n, w, est.rho, est.lower, est.upper,
                est.eigenvector, self.refs, known,
            )
        return failures


class VerifySuite(Workload):
    """verify.default_suite() on the paper's fixed grid."""

    name = "verify-suite"
    ops_per_pass = VERIFY_CHECKS

    def run_pass(self, in_process: bool):
        from abctensor import verify

        try:
            return verify.default_suite()
        except Exception as exc:  # no check ran: all count as failed
            return exc

    def check(self, outputs) -> list[str]:
        if isinstance(outputs, Exception):
            return [f"default_suite: {type(outputs).__name__}: {outputs}"] * VERIFY_CHECKS
        failures = [f"{r.name}: violated (lhs={r.lhs!r}, rhs={r.rhs!r})" for r in outputs if not r.ok]
        if len(outputs) != VERIFY_CHECKS:
            failures.append(f"suite ran {len(outputs)} checks, expected {VERIFY_CHECKS}")
        return failures


class IngestLarge(Workload):
    """Five CLI calls on two seeded UHG files, one process after another."""

    name = "ingest-large"
    ops_per_pass = 5
    WEIGHTINGS = {"abc": "abc", "adj": "adjacency", "randic": "randic"}

    def __init__(self, root, seed, refs, workdir):
        super().__init__(root, seed, refs, workdir)
        with open(root / "schemas" / "cli-output.schema.json", encoding="utf-8") as fh:
            import jsonschema

            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stdout_bytes = 0

    @property
    def argvs(self) -> list[list[str]]:
        dense, tree = str(self.files["dense"]), str(self.files["tree"])
        calls = [["rho", dense, "--weighting", w, "--json"] for w in self.WEIGHTINGS]
        return calls + [["index", dense, "--json"], ["classify", tree, "--json"]]

    def setup(self) -> None:
        self.files = write_inputs(self.workdir, self.seed)

    def run_pass(self, in_process: bool):
        if in_process:
            from abctensor import cli

            out = []
            for argv in self.argvs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    try:
                        rc = cli.main(argv)
                    except Exception as exc:  # a traceback, as a child would print
                        rc = f"{type(exc).__name__}: {exc}"
                out.append((argv, rc, buf.getvalue()))
            return out
        out = []
        for argv in self.argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "abctensor.cli", *argv],
                env=self.env, capture_output=True, text=True, timeout=120,
            )
            out.append((argv, proc.returncode, proc.stdout))
        return out

    def check(self, outputs) -> list[str]:
        failures = []
        self.stdout_bytes = sum(len(stdout.encode()) for _, _, stdout in outputs)
        graphs = {}
        for argv, rc, stdout in outputs:
            label = " ".join([argv[0], Path(argv[1]).name] + argv[2:-1])
            if rc != 0:
                failures.append(f"{label}: exit {rc}")
                continue
            try:
                rec = json.loads(stdout)
            except ValueError:
                failures.append(f"{label}: stdout is not one JSON record")
                continue
            errors = list(self.validator.iter_errors(rec))
            if errors:
                failures.append(f"{label}: schema: {errors[0].message}")
                continue
            path = argv[1]
            if path not in graphs:
                graphs[path] = self._load(path)
            E, n = graphs[path]
            failures += self._check_record(argv, rec, E, n)
        return failures

    @staticmethod
    def _load(path: str):
        with open(path, encoding="utf-8") as fh:
            k, n, m = map(int, fh.readline().split()[1:])
            E = np.loadtxt(fh, dtype=np.int64, ndmin=2)
        return E, n

    def _check_record(self, argv, rec, E, n) -> list[str]:
        S = self.seed
        if argv[0] == "rho":
            w = self.WEIGHTINGS[argv[3]]
            label = f"dense.uhg(seed={S})/{w}"
            known = 1.0 if w == "randic" else None
            x = np.asarray(rec["eigenvector"], dtype=np.float64)
            if x.size != n or rec["weighting"] != argv[3]:
                return [f"{label}: record does not describe the input"]
            return check_eigen(label, E, n, w, rec["rho"], rec["lower"], rec["upper"], x, self.refs, known)
        if argv[0] == "index":
            label = f"dense.uhg(seed={S})/abc_index"
            got = rec["abc_index"]
            for want in (abc_index(E, n), self.refs.get(label)):
                if want is not None and abs(got - want) > REL_TOL * want:
                    return [f"{label}: {got!r}, expected {want!r}"]
            return []
        m, k = E.shape
        want = {
            "connected": True, "kind": "hypertree", "linear": True, "girth": None,
            "girth_status": "acyclic", "power_hypertree": power_hypertree(E, n),
            "n": n, "m": m, "k": k,
        }
        if rec != want:
            return [f"classify tree.uhg: {rec} != {want}"]
        return []


WORKLOADS = {cls.name: cls for cls in (SolveSlow, VerifySuite, IngestLarge)}
