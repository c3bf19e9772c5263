"""Command-line interface: gen, rho, index, closed-form, verify, classify.

All numeric output serializes floats at 17 significant digits so results
are reproducible across runs; `--json` switches every subcommand to
machine-readable records (schema in schemas/cli-output.schema.json).
Exit codes: 0 success, 1 verification found a violation, 2 usage or
input error, including a solve that does not converge within
``--max-iters`` (the message carries the last bracket and iteration
count), and a reader that closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import closed_forms as cf
from . import generators as gen
from . import verify as ver
from .hypergraph import classify, parse_uhg, format_uhg
from .spectral import ConvergenceError, SolveOptions, spectral_radius
from .tensor import Weighting, abc_index

WEIGHTINGS = {"abc": Weighting.ABC, "adj": Weighting.ADJACENCY, "randic": Weighting.RANDIC}
CLOSED_FORM_FLAGS = ("m", "k", "n", "idx")
"""Parameter flags of ``closed-form``, in the order records print them."""


def _f(x: float) -> float | None:
    """x as a Python float; None (JSON null) for infinities and NaN, which
    strict JSON cannot carry."""
    return float(x) if math.isfinite(x) else None


def _parse_comp(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.replace(",", " ").split())


def _flags(args, *names) -> list:
    """Values of the named family flags; ValueError naming each one missing."""
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"--family {args.family} needs {' '.join(missing)}")
    return [getattr(args, name) for name in names]


POWER_BASES = {
    "star": lambda args: gen.hyperstar(*_flags(args, "m"), 2),
    "path": lambda args: gen.hyperpath(*_flags(args, "m"), 2),
    "cycle": lambda args: gen.cycle_graph(*_flags(args, "g")),
    "double-star": lambda args: FAMILIES["double-star"](args),
    "unicyclic-graph": lambda args: gen.unicyclic_graph(*_flags(args, "m", "g")),
}
"""The 2-uniform bases ``--family power --of`` takes."""


def _power(args) -> "gen.UniformHypergraph":
    of, k = _flags(args, "of", "k")
    return gen.power(POWER_BASES[of](args), k)


FAMILIES = {
    "hyperstar": lambda args: gen.hyperstar(*_flags(args, "m", "k")),
    "hyperpath": lambda args: gen.hyperpath(*_flags(args, "m", "k")),
    "hypercycle": lambda args: gen.hypercycle(*_flags(args, "g", "k")),
    "complete": lambda args: gen.complete(*_flags(args, "n", "k")),
    "double-star": lambda args: gen.double_star(*_flags(args, "m"), args.a[0] if args.a else 1),
    "power": _power,
    "s-comp": lambda args: gen.s_composition(*_flags(args, "m", "k", "a")),
    "unicyclic": lambda args: gen.unicyclic_family(*_flags(args, "m", "k", "g", "a")),
    "t-family": lambda args: gen.t_family(*_flags(args, "m", "idx")),
    "example-h": lambda args: gen.example_h(*_flags(args, "idx")),
}


def load_graph(args) -> "gen.UniformHypergraph":
    if getattr(args, "family", None):
        return FAMILIES[args.family](args)
    if getattr(args, "file", None):
        if args.file == "-":
            return parse_uhg(sys.stdin.read())
        with open(args.file, "r", encoding="utf-8") as fh:
            return parse_uhg(fh.read())
    if not hasattr(args, "file"):
        raise ValueError(f"{args.command} needs --family")
    raise ValueError("provide an input file or --family")


def _add_family_flags(p: argparse.ArgumentParser, with_file: bool = True):
    if with_file:
        p.add_argument("file", nargs="?", help="UHG v1 file ('-' for stdin)")
    p.add_argument("--family", choices=list(FAMILIES))
    for key in ("m", "k", "g", "n", "idx"):
        p.add_argument(f"--{key}", type=int)
    p.add_argument("--a", type=_parse_comp, help="composition, e.g. '2,1,1'")
    p.add_argument("--of", choices=list(POWER_BASES), help="base family for --family power")


class UsageError(ValueError):
    """A command line the parser rejects; ``parser`` is the (sub)parser
    whose usage line goes with the message."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print it and exit, so that
    ``main`` reports it like any other usage error."""

    def error(self, message):
        raise UsageError(self, message)


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="abctensor", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named family as UHG v1 text")
    _add_family_flags(p, with_file=False)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rho", help="spectral radius of a weighted tensor")
    _add_family_flags(p)
    p.add_argument("--weighting", choices=sorted(WEIGHTINGS), default="abc")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=200_000,
                   help="steps allowed, power and Newton alike, before the solve gives up")
    p.add_argument("--shift", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("index", help="abc index of a hypergraph")
    _add_family_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="structural classification")
    _add_family_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("closed-form", help="evaluate a named closed form")
    p.add_argument("name", choices=sorted(cf.CLOSED_FORMS))
    for key in CLOSED_FORM_FLAGS:
        p.add_argument(f"--{key}", type=int)
    p.add_argument("--check", action="store_true",
                   help="also solve the attaining hypergraph with spectral_radius and compare")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the numeric verification suite")
    p.add_argument("target", help="'all' or a check name prefix")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--json", action="store_true")
    return ap


def _emit(record: dict, as_json: bool):
    if as_json:
        print(json.dumps(record, sort_keys=True, allow_nan=False))
    else:
        for key, val in record.items():
            print(f"{key}: {val}")


def cmd_gen(args) -> int:
    G = load_graph(args)
    if args.json:
        edges = [list(e) for e in G.edges]
        print(json.dumps({"k": G.k, "n": G.n, "m": G.m, "edges": edges}, allow_nan=False))
    else:
        sys.stdout.write(format_uhg(G))
    return 0


def cmd_rho(args) -> int:
    G = load_graph(args)
    opts = SolveOptions(
        tol=args.tol,
        max_iters=args.max_iters,
        shift=args.shift,
        seed=args.seed,
    )
    est = spectral_radius(G, WEIGHTINGS[args.weighting], opts)
    record = {
        "rho": _f(est.rho),
        "lower": _f(est.lower),
        "upper": _f(est.upper),
        "iters": est.iters,
        "newton_steps": est.newton_steps,
        "residual": _f(est.residual),
        "weighting": args.weighting,
        "eigenvector": [_f(v) for v in est.eigenvector.tolist()],
    }
    _emit(record, args.json)
    return 0


def cmd_index(args) -> int:
    G = load_graph(args)
    _emit({"abc_index": _f(abc_index(G))}, args.json)
    return 0


def cmd_classify(args) -> int:
    G = load_graph(args)
    rep = classify(G)
    record = {
        "connected": rep.connected,
        "kind": rep.kind,
        "linear": rep.linear,
        "girth": rep.girth,
        "girth_status": rep.girth_status,
        "power_hypertree": rep.power_hypertree,
        "n": G.n,
        "m": G.m,
        "k": G.k,
    }
    _emit(record, args.json)
    return 0


def cmd_closed_form(args) -> int:
    params = {key: val for key in CLOSED_FORM_FLAGS if (val := getattr(args, key)) is not None}
    value = cf.closed_form(args.name, **params)
    record = {"name": args.name, "value": _f(value), **params}
    if args.check:
        G = cf.closed_form_graph(args.name, **params)
        est = spectral_radius(G, cf.CLOSED_FORMS[args.name].weighting)
        record["oracle"] = _f(est.rho)
        record["agrees"] = abs(est.rho - value) <= 1e-7 * max(1.0, abs(value))
    _emit(record, args.json)
    return 0


def cmd_verify(args) -> int:
    prefix = "" if args.target == "all" else args.target
    results = ver.default_suite(m=args.m, k=args.k, g=args.g, prefix=prefix)
    if prefix and not results:
        raise ValueError(f"no check matches {args.target!r}")
    violated = [r for r in results if not r.ok]
    if args.json:
        for r in results:
            _emit({"name": r.name, "status": r.status, "lhs": _f(r.lhs),
                   "rhs": _f(r.rhs), "margin": _f(r.margin), "detail": r.detail}, True)
    else:
        for r in results:
            print(f"{r.status:18s} {r.name}  lhs={r.lhs:.12g} rhs={r.rhs:.12g}")
        print(f"{len(results)} checks, {len(violated)} violated")
    return 1 if violated else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    handlers = {
        "gen": cmd_gen,
        "rho": cmd_rho,
        "index": cmd_index,
        "classify": cmd_classify,
        "closed-form": cmd_closed_form,
        "verify": cmd_verify,
    }
    try:
        args = make_parser().parse_args(argv)
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull, as the signal
        # module's documentation advises, so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (ValueError, KeyError, OSError, ConvergenceError) as exc:
        if "--json" in argv:
            rec = {"error": str(exc), "exit": 2}
            if isinstance(exc, ConvergenceError):
                rec.update(lower=_f(exc.lower), upper=_f(exc.upper), iters=exc.iters)
            sys.stderr.write(json.dumps(rec, allow_nan=False) + "\n")
        elif isinstance(exc, UsageError):
            exc.parser.print_usage(sys.stderr)
            sys.stderr.write(f"{exc.parser.prog}: error: {exc}\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
