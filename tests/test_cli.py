"""Command-line interface: outputs, exit codes, reports, SVG documents.

Claims covered:
    - count/table subcommands print the exact values, byte for byte
    - verify exits 0 iff the requested checks pass, honors --order and
      SUPERCAT_ORDER, and emits canonical JSON that reparses byte-identically
    - bijection prints mapped objects, reports violated preconditions, and
      writes deterministic SVG traces, each the renderer's string unmodified
    - an unwritable --out or --svg path is an error message and exit 1,
      not a traceback, given before any check or bijection runs and with
      nothing on stdout; an input path that `--inverse` refuses leaves an
      existing --svg file as it was
    - malformed invocations are usage errors (exit code 2)
    - `count pairs --n` and `count ballot --steps` above their limits are
      refused before any counting starts
    - `count catalan --n`, `count super --m + --n` and `table --m + --nmax`
      above EXACT_N_MAX are refused before any value is computed, and every
      value at the limit prints
    - `table` rows from the ratio recurrence equal super_catalan, and a
      wrong start value fails the halving check
    - `python -m supercat.cli` runs the same CLI with the same exit codes
    - `main` runs one command after another in one process, usage errors
      included, with the parser it keeps
    - importing the CLI loads none of `dataclasses`, `inspect`, `fractions`,
      `decimal` and `numbers`
"""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import supercat
from supercat import RestrictedPair, cli, counting, super_catalan, trace
from supercat.cli import (BALLOT_STEPS_MAX, EXACT_N_MAX, PAIRS_N_MAX, build_parser,
                          main)
from supercat.svg import render_trace


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_catalan(capsys):
    assert run_cli(capsys, ["count", "catalan", "--n", "0"]) == (0, "1\n", "")


def test_count_super(capsys):
    assert run_cli(capsys, ["count", "super", "--m", "2", "--n", "5"]) == (0, "36\n", "")


def test_count_super_non_integral_case(capsys):
    code, out, err = run_cli(capsys, ["count", "super", "--m", "0", "--n", "0"])
    assert code == 1 and out == "" and "1/2" in err


def test_count_pairs(capsys):
    assert run_cli(capsys, ["count", "pairs", "--n", "4", "--diff", "1"]) == (0, "14\n", "")


def test_count_ballot(capsys):
    code, out, _ = run_cli(capsys, ["count", "ballot", "--steps", "8",
                                    "--max-height", "2"])
    assert (code, out) == (0, "8\n")
    code, out, _ = run_cli(capsys, ["count", "ballot", "--steps", "4",
                                    "--end-level", "2", "--exact-height", "2"])
    assert (code, out) == (0, "2\n")


def test_count_limits_accept_their_bound():
    parser = build_parser()
    assert PAIRS_N_MAX == 400 and BALLOT_STEPS_MAX == 10_000
    assert parser.parse_args(["count", "pairs", "--n", "400"]).n == 400
    assert parser.parse_args(["count", "ballot", "--steps", "10000"]).steps == 10_000
    # the sizes the benchmark's paths workload runs
    assert parser.parse_args(["count", "pairs", "--n", "11"]).n == 11
    assert parser.parse_args(["count", "ballot", "--steps", "3000"]).steps == 3000


def test_count_limits_refuse_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("counting started")
    monkeypatch.setattr(cli, "count_pairs_height_diff", no_work)
    monkeypatch.setattr(cli, "count_ballot_dp", no_work)
    code, out, err = run_cli(capsys, ["count", "pairs", "--n", "401"])
    assert (code, out) == (2, "")
    assert "argument --n: must be at most 400, got 401" in err
    code, out, err = run_cli(capsys, ["count", "ballot", "--steps", "10001"])
    assert (code, out) == (2, "")
    assert "argument --steps: must be at most 10000, got 10001" in err


def test_count_ballot_unreachable_end_level(capsys):
    assert run_cli(capsys, ["count", "ballot", "--steps", "10",
                            "--end-level", "8000000"]) == (0, "0\n", "")


# the limit and limit + 1 of each command bounded by EXACT_N_MAX
EXACT_LIMITS = [
    ("catalan", ["count", "catalan", "--n", "7000"],
     ["count", "catalan", "--n", "7001"], "argument --n: must be at most 7000, got 7001"),
    ("super_catalan", ["count", "super", "--m", "6999", "--n", "1"],
     ["count", "super", "--m", "3500", "--n", "3501"], "--m + --n must be at most 7000, got 7001"),
    ("super_catalan_row", ["table", "--m", "7000", "--nmax", "0"],
     ["table", "--m", "1", "--nmax", "7000"], "--m + --nmax must be at most 7000, got 7001"),
]


@pytest.mark.parametrize("name, at_limit, over_limit, message", EXACT_LIMITS)
def test_exact_limit_accepts_its_bound(capsys, name, at_limit, over_limit, message):
    assert EXACT_N_MAX == 7000
    code, out, err = run_cli(capsys, at_limit)
    assert (code, err) == (0, "")
    # C_7000, T(6999, 1) and T(7000, 0) have 4208 to 4212 digits
    assert 4200 < len(out.strip()) <= 4215 and out.strip().isdigit()


@pytest.mark.parametrize("name, at_limit, over_limit, message", EXACT_LIMITS)
def test_exact_limit_refuses_before_any_work(capsys, monkeypatch, name, at_limit,
                                             over_limit, message):
    def no_work(*args):
        raise AssertionError("counting started")
    monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, over_limit)
    assert (code, out) == (2, "")
    assert message in err


def test_table_rows_match_reference(capsys):
    code, out, err = run_cli(capsys, ["table", "--m", "2", "--nmax", "10"])
    assert (code, out, err) == (0, "3 2 3 6 14 36 99 286 858 2652 8398\n", "")
    code, out, err = run_cli(capsys, ["table", "--m", "3", "--nmax", "10"])
    assert (code, out, err) == (0, "10 5 6 10 20 45 110 286 780 2210 6460\n", "")


def test_table_zero_row_substitutes_doubled_values(capsys):
    code, out, err = run_cli(capsys, ["table", "--m", "0", "--nmax", "3"])
    assert code == 0
    assert out == "1 2 6 20\n"
    assert "doubled" in err


def test_long_table_row_matches_super_catalan(capsys):
    code, out, err = run_cli(capsys, ["table", "--m", "50", "--nmax", "2000"])
    row = [int(value) for value in out.split()]
    assert (code, err, len(row)) == (0, "", 2001)
    for n in (0, 1, 999, 2000):
        assert row[n] == super_catalan(50, n)


def test_table_halving_refuses_a_wrong_start_value(capsys, monkeypatch):
    # 2T(1,0) planted as 3 keeps every recurrence step exact (the row is
    # 3 C_n), so the halving is the check that fails
    monkeypatch.setattr(counting, "comb", lambda n, k: comb(n, k) + 1)
    with pytest.raises(RuntimeError, match=r"T\(1,0\) is not an integer"):
        main(["table", "--m", "1", "--nmax", "4"])
    assert capsys.readouterr().out == ""


def test_verify_single_identity_text(capsys):
    code, out, _ = run_cli(capsys, ["verify", "e2", "--order", "10"])
    assert code == 0
    assert out.startswith("e2: PASS (order 10,")


def test_verify_json_roundtrips_byte_identically(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["verify", "e2", "--order", "8",
                                    "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["identity"] == "e2" and data["passed"] is True
    assert data["first_mismatch"] is None
    assert json.dumps(data, indent=2) + "\n" == out


def test_verify_writes_report_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["verify", "pairsum", "--order", "6",
                                    "--format", "json", "--out", str(target)])
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["identity"] == "pairsum" and data["passed"] is True


def test_verify_all_aggregates_in_id_order(capsys):
    code, out, _ = run_cli(capsys, ["verify", "all", "--order", "8",
                                    "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    ids = [report["identity"] for report in data["reports"]]
    assert ids == sorted(ids)
    assert all(report["passed"] for report in data["reports"])


def test_verify_order_flag_validation(capsys):
    code, _, err = run_cli(capsys, ["verify", "e2", "--order", "0"])
    assert code == 2 and "order must be in [1, 200]" in err
    code, _, err = run_cli(capsys, ["verify", "e2", "--order", "201"])
    assert code == 2


def test_verify_unknown_identity_lists_valid_ids(capsys):
    code, _, err = run_cli(capsys, ["verify", "nope"])
    assert code == 2
    assert "invalid choice" in err and "t3-main" in err


def test_verify_env_var_sets_default_order(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCAT_ORDER", "7")
    code, out, _ = run_cli(capsys, ["verify", "e2"])
    assert code == 0 and "(order 7," in out


def test_verify_env_var_validation(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCAT_ORDER", "banana")
    code, _, err = run_cli(capsys, ["verify", "e2"])
    assert code == 1 and "SUPERCAT_ORDER" in err


def test_bijection_forward(capsys):
    assert run_cli(capsys, ["bijection", "--forward", "UD", "UD"]) == (0, "UUDD\n", "")


def test_bijection_inverse(capsys):
    assert run_cli(capsys, ["bijection", "--inverse", "UUDD"]) == (0, "(UD, UD)\n", "")


def test_bijection_inverse_empty_component(capsys):
    assert run_cli(capsys, ["bijection", "--inverse", "UDUD"]) == (0, "(UDUD, )\n", "")


def test_bijection_rejects_height_violation(capsys):
    code, out, err = run_cli(capsys, ["bijection", "--forward", "UUDD", ""])
    assert code == 1 and out == ""
    assert "h(p) <= h(q) + 1" in err


def test_bijection_rejects_bad_path_string(capsys):
    code, _, err = run_cli(capsys, ["bijection", "--inverse", "UX"])
    assert code == 1 and "invalid step" in err


def test_bijection_svg_is_deterministic(capsys, tmp_path):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    assert run_cli(capsys, ["bijection", "--forward", "UUDD", "UD",
                            "--svg", str(first)])[0] == 0
    assert run_cli(capsys, ["bijection", "--forward", "UUDD", "UD",
                            "--svg", str(second)])[0] == 0
    body = first.read_text()
    assert body == second.read_text()
    assert body.startswith("<svg")
    assert body.count("<polyline") == 2
    for label in ("u", "v'", "x", "y'"):
        assert label in body


@pytest.mark.parametrize("argv, pair", [
    (["bijection", "--inverse", "UUDUDD"], ("UUDD", "UD")),
    (["bijection", "--forward", "UUDD", "UD"], ("UUDD", "UD")),
    (["bijection", "--forward", "UDUD", ""], ("UDUD", "")),
])
def test_bijection_svg_is_the_rendered_trace(capsys, tmp_path, argv, pair):
    target = tmp_path / "trace.svg"
    assert run_cli(capsys, argv + ["--svg", str(target)])[0] == 0
    record = trace(RestrictedPair(*map(supercat.Path, pair)))
    assert target.read_bytes() == render_trace(record).encode()


@pytest.mark.parametrize("argv", [
    ["verify", "e2", "--order", "3", "--out"],
    ["verify", "all", "--order", "60", "--out"],
    ["bijection", "--forward", "UD", "UD", "--svg"],
    ["bijection", "--inverse", "UUDD", "--svg"],
])
def test_unwritable_output_path_is_an_error(capsys, monkeypatch, tmp_path, argv):
    def must_not_run(*args):
        raise AssertionError("work started before the output path was opened")
    for name in ("run_identity", "trace", "inverse"):
        monkeypatch.setattr(cli, name, must_not_run)
    target = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, argv + [str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


@pytest.mark.parametrize("path, message", [
    ("", "the empty path has no preimage"),
    ("DU", "input is not a Dyck path"),
    ("UUD", "input is not a Dyck path"),
])
def test_refused_inverse_input_leaves_the_svg_file(capsys, tmp_path, path, message):
    target = tmp_path / "keep.svg"
    target.write_bytes(b"keep\n")
    code, out, err = run_cli(capsys, ["bijection", "--inverse", path,
                                      "--svg", str(target)])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert target.read_bytes() == b"keep\n"


def test_usage_error_on_missing_required_flag(capsys):
    code, _, _ = run_cli(capsys, ["count", "super", "--m", "2"])
    assert code == 2


def test_main_runs_command_after_command(capsys):
    # main keeps one parser per process; build_parser still makes a new one
    assert build_parser() is not build_parser()
    assert run_cli(capsys, ["count", "catalan", "--n", "5"]) == (0, "42\n", "")
    assert run_cli(capsys, ["count", "super", "--m", "2"])[0] == 2
    code, out, _ = run_cli(capsys, ["verify", "e2", "--order", "3", "--format", "json"])
    assert code == 0 and json.loads(out)["order"] == 3
    assert run_cli(capsys, ["table", "--m", "2", "--nmax", "3"]) == (0, "3 2 3 6\n", "")
    code, out, _ = run_cli(capsys, ["verify", "e2", "--order", "4"])
    assert code == 0 and out.startswith("e2: PASS (order 4,")


def run_python(args, **env_updates):
    env = dict(os.environ)
    env.pop("SUPERCAT_ORDER", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(env_updates)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def run_module(args, **env_updates):
    return run_python(["-m", "supercat.cli", *args], **env_updates)


def test_module_invocation_runs_the_cli():
    result = run_module(["verify", "e2", "--order", "3"])
    assert result.returncode == 0
    assert result.stdout.startswith("e2: PASS (order 3,")


def test_module_invocation_fails_on_bad_env_order():
    result = run_module(["verify", "e2"], SUPERCAT_ORDER="banana")
    assert result.returncode == 1
    assert result.stdout == ""
    assert "SUPERCAT_ORDER" in result.stderr


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # both are slow to import (inspect pulls in ast, dis and tokenize), and
    # every command pays for what importing the CLI loads; so is fractions,
    # with decimal and numbers, which no integer-only series needs
    result = run_python(["-c", "import sys; before = set(sys.modules); "
                         "import supercat.cli; "
                         "print(sorted({'dataclasses', 'inspect', 'fractions', "
                         "'decimal', 'numbers'} & "
                         "(set(sys.modules) - before)))"])
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr
