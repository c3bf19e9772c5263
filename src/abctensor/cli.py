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
import dataclasses
import json
import math
import os
import sys

# generators, closed_forms and verify are imported by the commands that
# use them, so that the other commands do not load them.
from .hypergraph import UniformHypergraph, classify, parse_uhg, format_uhg
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


def _takes(build, args) -> tuple[list, list]:
    """The flags a ``--family`` builder takes, and those it needs: its
    parameters after ``gen``, and those without a default; with ``of``,
    the flags of the ``--of`` base as well."""
    code = build.__code__
    takes = list(code.co_varnames[1:code.co_argcount])
    needs = takes[:len(takes) - len(build.__defaults__ or ())]
    if "of" in takes and args.of is not None:
        base_takes, base_needs = _takes(POWER_BASES[args.of], args)
        takes, needs = takes + base_takes, needs + base_needs
    return takes, needs


def _double_star(gen, m, a=(1,)) -> UniformHypergraph:
    """D_{m,a} with a the one value of ``--a``, or 1 without it."""
    if len(a) != 1:
        raise ValueError(f"--family double-star takes one --a value, not {len(a)}")
    return gen.double_star(m, a[0])


POWER_BASES = {
    "star": lambda gen, m: gen.hyperstar(m, 2),
    "path": lambda gen, m: gen.hyperpath(m, 2),
    "cycle": lambda gen, g: gen.cycle_graph(g),
    "double-star": _double_star,
    "unicyclic-graph": lambda gen, m, g: gen.unicyclic_graph(m, g),
}
"""The 2-uniform bases ``--family power --of`` takes, each built like a
``FAMILIES`` builder."""


def _power(gen, of, k, **base) -> UniformHypergraph:
    return gen.power(POWER_BASES[of](gen, **base), k)


FAMILIES = {
    "hyperstar": lambda gen, m, k: gen.hyperstar(m, k),
    "hyperpath": lambda gen, m, k: gen.hyperpath(m, k),
    "hypercycle": lambda gen, g, k: gen.hypercycle(g, k),
    "complete": lambda gen, n, k: gen.complete(n, k),
    "double-star": _double_star,
    "power": _power,
    "s-comp": lambda gen, m, k, a: gen.s_composition(m, k, a),
    "unicyclic": lambda gen, m, k, g, a: gen.unicyclic_family(m, k, g, a),
    "t-family": lambda gen, m, idx: gen.t_family(m, idx),
    "example-h": lambda gen, idx: gen.example_h(idx),
}
"""The ``--family`` builders: each takes the ``generators`` module, then
the family flags its other parameters name, and no other flag."""


def load_graph(args) -> UniformHypergraph:
    if getattr(args, "family", None):
        from . import generators

        build = FAMILIES[args.family]
        takes, needs = _takes(build, args)
        given = {f: v for f in ("m", "k", "g", "n", "idx", "a", "of") if (v := getattr(args, f)) is not None}
        missing = [f"--{f}" for f in needs if f not in given]
        if missing:
            raise ValueError(f"--family {args.family} needs {' '.join(missing)}")
        extra = [f"--{f}" for f in given if f not in takes]
        if extra:
            flags = ", ".join(f"--{f}" for f in takes)
            raise ValueError(f"--family {args.family} takes {flags}, not {', '.join(extra)}")
        return build(generators, **given)
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


class _ClosedFormNames:
    """The names of ``closed_forms.CLOSED_FORMS``, sorted: the choices of
    ``closed-form``.  argparse reads them only to check or print that
    command's name, so only then is the module imported."""

    def __iter__(self):
        from .closed_forms import CLOSED_FORMS

        return iter(sorted(CLOSED_FORMS))

    def __contains__(self, name) -> bool:
        from .closed_forms import CLOSED_FORMS

        return name in CLOSED_FORMS


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
    p.set_defaults(handler=cmd_gen)
    _add_family_flags(p, with_file=False)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rho", help="spectral radius of a weighted tensor")
    p.set_defaults(handler=cmd_rho)
    _add_family_flags(p)
    p.add_argument("--weighting", choices=sorted(WEIGHTINGS), default="abc")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=200_000,
                   help="steps allowed, power and Newton alike, before the solve gives up")
    p.add_argument("--shift", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("index", help="abc index of a hypergraph")
    p.set_defaults(handler=cmd_index)
    _add_family_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="structural classification")
    p.set_defaults(handler=cmd_classify)
    _add_family_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("closed-form", help="evaluate a named closed form")
    p.set_defaults(handler=cmd_closed_form)
    # Set after add_argument, which would print the choices to test them.
    p.add_argument("name").choices = _ClosedFormNames()
    for key in CLOSED_FORM_FLAGS:
        p.add_argument(f"--{key}", type=int)
    p.add_argument("--check", action="store_true",
                   help="also solve the attaining hypergraph with spectral_radius and compare")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the numeric verification suite")
    p.set_defaults(handler=cmd_verify)
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
    _emit({**dataclasses.asdict(classify(G)), "n": G.n, "m": G.m, "k": G.k}, args.json)
    return 0


def cmd_closed_form(args) -> int:
    from . import closed_forms as cf

    params = {key: val for key in CLOSED_FORM_FLAGS if (val := getattr(args, key)) is not None}
    takes = cf.CLOSED_FORMS[args.name].params
    extra = [f"--{key}" for key in params if key not in takes]
    if extra:
        flags = ", ".join(f"--{p}" for p in takes)
        raise ValueError(f"closed form {args.name!r} takes {flags}, not {', '.join(extra)}")
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
    from . import verify as ver

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
    try:
        args = make_parser().parse_args(argv)
        code = args.handler(args)
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
