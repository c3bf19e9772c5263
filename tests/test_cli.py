"""CLI: subcommands, JSON schema stability, round trips, exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abctensor import closed_forms as cf
from abctensor import generators as gen
from abctensor import parse_uhg
from abctensor.cli import FAMILIES, POWER_BASES, _takes, main, make_parser

SRC = Path(__file__).parents[1] / "src"
HUGE = str(10**20)
VALIDATOR = jsonschema.Draft202012Validator(
    json.loads((Path(__file__).parents[1] / "schemas" / "cli-output.schema.json").read_text())
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_hyperstar_text(capsys):
    code, out, _ = run(capsys, "gen", "--family", "hyperstar", "--m", "5", "--k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "uhg 3 11 5"
    assert len(lines) == 6
    assert parse_uhg(out) == gen.hyperstar(5, 3)


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "--family", "hypercycle", "--g", "3", "--k", "3", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["k"] == 3 and rec["n"] == 6 and rec["m"] == 3


def test_rho_family_vs_file_round_trip(tmp_path, capsys):
    code, text, _ = run(capsys, "gen", "--family", "hyperstar", "--m", "5", "--k", "3")
    path = tmp_path / "s53.uhg"
    path.write_text(text)
    code1, out1, _ = run(
        capsys, "rho", "--family", "hyperstar", "--m", "5", "--k", "3",
        "--weighting", "abc", "--json",
    )
    code2, out2, _ = run(capsys, "rho", str(path), "--weighting", "abc", "--json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-for-byte reproducible
    rec = json.loads(out1)
    assert rec["rho"] == pytest.approx(1.5874010519681994, abs=1e-7)
    assert rec["lower"] <= rec["rho"] <= rec["upper"]
    assert len(rec["eigenvector"]) == 11


def test_rho_all_weightings(capsys):
    for w, expect in (("abc", 4 ** (1 / 3)), ("adj", 5 ** (1 / 3)), ("randic", 1.0)):
        code, out, _ = run(
            capsys, "rho", "--family", "hyperstar", "--m", "5", "--k", "3",
            "--weighting", w, "--json",
        )
        assert code == 0
        assert json.loads(out)["rho"] == pytest.approx(expect, abs=1e-7)


def test_rho_records_report_newton_steps_and_match_the_schema(capsys):
    for family, newton in ((["hyperstar", "--m", "5"], False), (["hyperpath", "--m", "30"], True)):
        code, out, _ = run(capsys, "rho", "--family", *family, "--k", "3", "--json")
        rec = json.loads(out)
        assert code == 0 and not list(VALIDATOR.iter_errors(rec))
        assert (rec["newton_steps"] > 0) is newton
    code, out, _ = run(capsys, "rho", "--family", "hyperpath", "--m", "30", "--k", "3")
    assert "newton_steps: " in out


def test_index(capsys):
    code, out, _ = run(capsys, "index", "--family", "hyperpath", "--m", "3", "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["abc_index"] == pytest.approx(3 / 2**0.5)


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--family", "s-comp", "--m", "5", "--k", "3",
                       "--a", "2,1,1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "hypertree" and rec["power_hypertree"] is False
    code, out, _ = run(capsys, "classify", "--family", "complete", "--n", "5", "--k", "2", "--json")
    rec = json.loads(out)
    assert code == 0 and rec["girth"] is None and rec["girth_status"] == "at-least-3"
    assert not list(VALIDATOR.iter_errors(rec))


def test_closed_form_check(capsys):
    code, out, _ = run(capsys, "closed-form", "u2", "--m", "5", "--k", "3", "--check", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["agrees"] is True
    assert rec["value"] == pytest.approx(4.4 ** (1 / 3))
    # The oracle graph follows --k: S_{6,5;2,1,1,1,0}, not its 4-uniform base.
    code, out, _ = run(capsys, "closed-form", *"s4-1111 --m 6 --k 5 --check --json".split())
    assert code == 0 and json.loads(out)["agrees"] is True


@pytest.mark.parametrize("argv", [
    "t-family --m 3 --idx 1", "s4-1111 --m 3", "hyperpath --m 5 --k 0", "hyperstar --m 0 --k 3",
    "complete-bound --n 3 --k 5", "double-star-1 --m 2 --k 3", "s311 --m 3 --k 3",
], ids=lambda argv: argv.split()[0])
def test_closed_form_outside_domain_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "closed-form", *argv.split(), "--json")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["exit"] == 2 and cf.CLOSED_FORMS[argv.split()[0]].domain in rec["error"]


@pytest.mark.parametrize("argv, takes", [
    ("u2 --m 2 --k 3 --n 5", "closed form 'u2' takes --m, --k, not --n"),
    ("hyperstar --m 3 --k 2 --idx 9", "closed form 'hyperstar' takes --m, --k, not --idx"),
], ids=["u2-n", "hyperstar-idx"])
def test_closed_form_flag_the_form_does_not_take_is_usage_error(capsys, argv, takes):
    code, out, err = run(capsys, "closed-form", *argv.split(), "--json")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": takes, "exit": 2}
    code, out, err = run(capsys, "closed-form", *argv.split())
    assert code == 2 and out == "" and err == f"error: {takes}\n"


def test_verify_subset_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "unicyclic-scan", "--m", "5", "--k", "3", "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert recs and all(r["status"] != "violated" for r in recs)


@pytest.mark.parametrize("grid", [[], ["--m", "1", "--k", "3"]], ids=["paper-grid", "one-edge"])
def test_verify_json_is_strict_and_matches_the_schema(capsys, grid):
    code, out, err = run(capsys, "verify", "all", *grid, "--json")
    assert code == 0 and err == ""
    recs = [strict_json(line) for line in out.splitlines()]
    assert recs and all(not list(VALIDATOR.iter_errors(r)) for r in recs)
    if not grid:
        # A leader with no runner-up has an infinite lead.
        assert sum(r["margin"] is None for r in recs) == 4


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "definitely-not-a-check", "--m", "5", "--k", "3")
    assert code == 2
    assert "error" in err


def test_bad_family_params_exit_two(capsys):
    code, _, err = run(capsys, "rho", "--family", "double-star", "--m", "5", "--a", "4")
    assert code == 2
    assert "error" in err


def test_json_error_record_is_machine_parsable(capsys):
    code, _, err = run(capsys, "rho", "--family", "double-star", "--m", "5", "--a", "4", "--json")
    assert code == 2
    rec = json.loads(err.strip().splitlines()[-1])
    assert rec["exit"] == 2 and "error" in rec


@pytest.mark.parametrize("a, count", [("2,3", 2), ("", 0), (",", 0)], ids=["two", "empty", "comma"])
def test_double_star_takes_exactly_one_a_value(capsys, a, count):
    message = f"--family double-star takes one --a value, not {count}"
    code, out, err = run(capsys, "gen", "--family", "double-star", "--m", "7", "--a", a)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, err = run(capsys, "gen", "--family", "power", "--of", "double-star", "--m", "7", "--k", "3",
                         "--a", a, "--json")
    assert (code, out, json.loads(err)) == (2, "", {"error": message, "exit": 2})


@pytest.mark.parametrize("argv, message", [
    ("gen --family hyperstar --m 2 --k 3 --a 5 --g 9 --idx 4", "--family hyperstar takes --m, --k, not --g, --idx, --a"),
    ("rho --family t-family --m 6 --idx 2 --k 9", "--family t-family takes --m, --idx, not --k"),
    ("gen --family power --of star --m 3 --k 3 --g 4", "--family power takes --of, --k, --m, not --g"),
    ("classify --family double-star --m 5 --of star", "--family double-star takes --m, --a, not --of"),
], ids=["hyperstar", "t-family", "power", "double-star"])
def test_a_flag_the_family_does_not_take_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, err = run(capsys, *argv.split(), "--json")
    assert (code, out, json.loads(err)) == (2, "", {"error": message, "exit": 2})


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, "rho")
    assert code == 2


def test_power_family(capsys):
    code, out, _ = run(capsys, "rho", "--family", "power", "--of", "double-star",
                       "--m", "5", "--a", "1", "--k", "3", "--weighting", "abc", "--json")
    assert code == 0
    from abctensor.closed_forms import rho_abc_double_star1

    assert json.loads(out)["rho"] == pytest.approx(rho_abc_double_star1(5, 3), abs=1e-7)


def test_floats_serialized_17_digits(capsys):
    _, out, _ = run(capsys, "rho", "--family", "hyperstar", "--m", "5", "--k", "3", "--json")
    rec = json.loads(out)
    assert rec["rho"] == float(format(rec["rho"], ".17g"))


@pytest.mark.parametrize("argv, needle", [
    ("rho --family hyperstar --k 3", "--m"),
    ("gen --family hyperstar --m 2", "--k"),
    ("closed-form complete-bound --n 2000 --k 1000", "does not fit a float"),
    ("rho --family hyperstar --m 3 --k 3 --max-iters 0", "max_iters must be at least 1"),
    # n = 4201 is above spectral.NEWTON_MAX_N, so only power steps run.
    ("rho --family hyperpath --m 2100 --k 3 --max-iters 100", "iters=100"),
    ("gen", "gen needs --family"),
    (f"gen --family hyperstar --m {HUGE} --k 3", "exceeds the cap"),
    (f"gen --family hyperpath --m {HUGE} --k 3", "exceeds the cap"),
    (f"gen --family hypercycle --g {HUGE} --k 3", "exceeds the cap"),
    (f"gen --family double-star --m {HUGE}", "exceeds the cap"),
    (f"gen --family power --of star --m 3 --k {HUGE}", "exceeds the cap"),
    (f"closed-form s4-1111 --m 3000 --k {HUGE} --check", "does not fit a float"),
    *((f"closed-form {name} --m 3000 --k {10**18} --check", "exceeds the cap")
      for name in ("s4-1111", "u2", "u3", "s311")),
    ("rho --family hyperpath --m 2 --k 3 --shift inf", "shift must be positive and finite"),
    ("rho --family hyperpath --m 2 --k 3 --shift nan", "shift must be positive and finite"),
    # The true radius is 1; at these shifts the bracket admits rho <= 0.
    ("rho --family hyperpath --m 2 --k 3 --shift 1e20", "lower the shift"),
    ("rho --family hyperpath --m 2 --k 3 --shift 1e16", "lower the shift"),
    ("rho --family hyperpath --m 2 --k 3 --tol nan", "tol must be positive and finite"),
    ("rho --family hyperpath --m 2 --k 3 --tol inf", "tol must be positive and finite"),
    ("gen --family hyperstar --m x", "argument --m: invalid int value: 'x'"),
    ("verify all --m 0", "m must be >= 1, not 0"),
    ("verify all --k 1", "k must be >= 2, not 1"),
    ("verify unicyclic --m 3 --k 3 --g 5", "g must be 2 or 3"),
    ("verify delta --m 3 --k 3 --g 0", "g must be 2 or 3"),
], ids=["family-flag-rho", "family-flag-gen", "overflow", "max-iters-0", "no-convergence", "gen-no-family",
        "huge-hyperstar", "huge-hyperpath", "huge-hypercycle", "huge-double-star", "huge-power",
        "huge-closed-form-graph", "huge-k-s4-1111", "huge-k-u2", "huge-k-u3", "huge-k-s311",
        "shift-inf", "shift-nan", "shift-1e20", "shift-1e16", "tol-nan", "tol-inf", "usage", "verify-m-0",
        "verify-k-1", "verify-g-5", "verify-g-0"])
def test_probes_end_in_the_error_record(capsys, argv, needle):
    code, out, err = run(capsys, *argv.split(), "--json")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["exit"] == 2 and needle in rec["error"]
    if needle == "iters=100":
        assert "lower=" in rec["error"] and "upper=" in rec["error"]
        assert rec["iters"] == 100 and 0 < rec["lower"] < rec["upper"]
        assert not list(VALIDATOR.iter_errors(rec))
    if needle == "lower the shift":
        assert rec["lower"] <= 0.0 < 1.0 < rec["upper"] and rec["iters"] == 1


def test_huge_header_vertex_count_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "huge.uhg"
    path.write_text("uhg 3 100000000000 1\n0 1 2\n")
    code, out, err = run(capsys, "rho", str(path), "--json")
    assert code == 2 and out == ""
    message = json.loads(err)["error"]
    assert message.startswith("line 1: vertex count n=100000000000 exceeds the cap")


def test_usage_errors_keep_the_argparse_text_without_json(capsys):
    code, out, err = run(capsys, "gen", "--family", "hyperstar", "--m", "x")
    assert code == 2 and out == ""
    assert err.startswith("usage: abctensor gen")
    assert err.endswith("abctensor gen: error: argument --m: invalid int value: 'x'\n")


def test_importing_the_cli_loads_no_subcommand_module():
    # verify, closed_forms and generators load in the commands that use them.
    code = ("import sys, abctensor.cli; print(sorted(m for m in sys.modules"
            " if m in ('abctensor.verify', 'abctensor.closed_forms', 'abctensor.generators')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("read", [10, 0], ids=["after-10-bytes", "before-the-first-byte"])
def test_a_closed_stdout_ends_quietly(read):
    # 343 KB of output, well past the 64 KB pipe buffer.
    argv = ["gen", "--family", "hyperpath", "--m", "20000", "--k", "3"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "abctensor.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert err == b""
    # A write that had begun may end short without an error; one that had
    # not finds the pipe closed.
    assert code in (0, 2)
    if read == 0:
        assert code == 2


# ---- fuzzing the command line ----

FUZZ_VALUES = ["-1", "0", "1", "2", "3", "4", HUGE, "x", "nan", "inf"]
WELL_FORMED = {"--a": ["1,1,1", "2,1,1"], "--idx": ["1", "2", "3", "4"], "--max-iters": ["200000"]}
"""Values that pass the parser and the checks of a flag without choices;
any other flag takes 3, 4, 5 or 6, which most families accept."""


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    """Every subparser but ``verify``, which takes about a second a run."""
    sub = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: p for name, p in sub.choices.items() if name != "verify"}


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    return json.loads(text, parse_constant=_no_constants)


def _taken(family: str) -> set[str]:
    """The flags ``--family`` takes; for ``power``, with those of every base."""
    return {f for of in (None, *POWER_BASES) for f in _takes(FAMILIES[family], argparse.Namespace(of=of))[0]}


@st.composite
def command_lines(draw) -> list[str]:
    """A subcommand with about three in four of its flags, but only one in
    four of those a family flag its ``--family`` does not take, each valued
    from FUZZ_VALUES one time in eight and else from values that parse."""
    name, parser = draw(st.sampled_from(sorted(_subcommands().items())))
    argv, family = [name], None
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0] if action.option_strings else None
        if not (action.required or draw(st.integers(0, 3))):
            continue
        refused = family and flag and flag[2:] in ("m", "k", "g", "n", "idx", "a", "of") and flag[2:] not in _taken(family)
        if refused and draw(st.integers(0, 3)):
            continue
        known = list(action.choices or WELL_FORMED.get(flag, ["3", "4", "5", "6"]))
        value = draw(st.sampled_from(known if draw(st.integers(0, 7)) else FUZZ_VALUES))
        argv += [value] if flag is None else [flag] if action.nargs == 0 else [flag, value]
        family = value if flag == "--family" and value in FAMILIES else family
    return argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_fuzzed_command_lines_end_in_an_exit_code_and_a_record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, err)
    if code == 0:
        assert err == ""
    if "--json" not in argv:
        assert code == 0 or err.startswith(("error: ", "usage: "))
    elif code == 2:
        assert out == ""
        rec = strict_json(err)
        assert rec["exit"] == 2 and rec["error"]
        assert not list(VALIDATOR.iter_errors(rec)), (argv, rec)
    else:
        for line in out.splitlines():
            assert not list(VALIDATOR.iter_errors(strict_json(line))), (argv, line)


def test_verify_prefix_runs_only_the_matching_checks(capsys, monkeypatch):
    from abctensor import verify as ver
    from abctensor.spectral import SolveOptions
    import numpy as np

    from abctensor.tensor import TensorOperator, Weighting, edge_weights

    _, full, _ = run(capsys, "verify", "all", "--json")
    want = [line for line in full.splitlines() if '"name": "randic-unit"' in line]
    requests = []
    real = ver.spectral_radii

    def recording(problems, opts=SolveOptions()):
        requests.extend(problems)
        return real(problems, opts)

    monkeypatch.setattr(ver, "spectral_radii", recording)
    code, out, _ = run(capsys, "verify", "randic-unit", "--json")
    assert code == 0 and want and out.splitlines() == want
    # Each request is the graph's Randic operator, which starts uniform.
    assert len(requests) == len(want) and all(isinstance(op, TensorOperator) for op in requests)
    assert all(np.array_equal(op.weights, edge_weights(op.G, Weighting.RANDIC)) for op in requests)
