import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from qbf.cli import main

SCHEMA = json.loads(resources.files("qbf").joinpath("schema.json").read_text())

COMMANDS = {
    "fusion": ["fusion", "--type", "A2", "--lambda", "1,0", "--mu", "0,1"],
    "character": ["character", "--type", "A2", "--mu", "1,1"],
    "verify-weight": ["verify-weight", "--type", "A2", "--kind", "beta",
                      "--beta", "2", "--height", "2"],
    "norm": ["norm", "--type", "A2", "--lambda", "1,0", "--mu", "0,1", "--q", "0.5"],
    "cb-region": ["cb-region", "--type", "A2", "--q", "0.5", "--beta", "2", "--height", "2"],
    "oracle-sl2": ["oracle-sl2", "--q", "0.5", "--m", "1", "--n", "2"],
    "casimir-check": ["casimir-check", "--type", "A1", "--height", "2"],
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The CLI in a child process with 1 GiB of address space.
CAPPED = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
          "from qbf.cli import main; sys.exit(main(sys.argv[1:]))")


def run_cli_within_a_second(args):
    """run_cli in a capped child process that is killed after 1 s, so a q
    whose 10^|e| gets built fails the test without filling the memory."""
    done = subprocess.run([sys.executable, "-c", CAPPED, *args], capture_output=True,
                          text=True, timeout=1)
    return done.returncode, done.stdout, done.stderr


class TestJsonOutput:
    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_validates_against_shipped_schema(self, name, capsys):
        code, out, err = run_cli(COMMANDS[name] + ["--format", "json"], capsys)
        assert code == 0, err
        jsonschema.validate(json.loads(out), SCHEMA)

    def test_fusion_beyond_packed_field(self, capsys):
        # lambda needs a 48-bit field, wider than the sweeps' 21 bits
        code, out, _ = run_cli(["fusion", "--type", "A1", "--lambda", "99999999999999",
                                "--mu", "1", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "lambda": [99999999999999],
            "mu": [1],
            "components": [{"nu": [100000000000000], "mult": 1},
                           {"nu": [99999999999998], "mult": 1}],
        }
        code, out, _ = run_cli(["fusion", "--type", "A1", "--lambda", "99999999999999",
                                "--mu", "1"], capsys)
        assert out == ("nu               mult\n---------------  ----\n"
                       "100000000000000  1\n99999999999998   1\n")

    def test_fusion_shape(self, capsys):
        _, out, _ = run_cli(COMMANDS["fusion"] + ["--format", "json"], capsys)
        doc = json.loads(out)
        assert doc == {
            "lambda": [1, 0],
            "mu": [0, 1],
            "components": [{"nu": [1, 1], "mult": 1}, {"nu": [0, 0], "mult": 1}],
        }

    def test_cb_region_beta_one(self, capsys):
        _, out, _ = run_cli(
            ["cb-region", "--type", "A1", "--q", "0.5", "--beta", "1",
             "--height", "3", "--format", "json"], capsys)
        doc = json.loads(out)
        assert [r["lambda"] for r in doc["rows"] if r["extends"]] == [[0]]

    def test_cb_region_half_beta_four(self, capsys):
        _, out, _ = run_cli(
            ["cb-region", "--type", "A1", "--q", "0.5", "--beta", "4",
             "--height", "4", "--format", "json"], capsys)
        doc = json.loads(out)
        assert [r["lambda"] for r in doc["rows"] if r["extends"]] == [[0], [1], [2]]

    def test_product_type(self, capsys):
        code, out, _ = run_cli(["fusion", "--type", "b2xa1", "--lambda", "0,1,1",
                                "--mu", "0,1,1", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        # (0,1) x (0,1) on B2 gives 10+5+1; (1) x (1) on A1 gives 2+0
        assert len(doc["components"]) == 6

    def test_oracle_residual_is_exact(self, capsys):
        _, out, _ = run_cli(COMMANDS["oracle-sl2"] + ["--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["residuals"] == {"relations": "0"}
        assert doc["norm"]["computed"] == doc["norm"]["expected"]

    def test_rationals_rendered_as_strings(self, capsys):
        _, out, _ = run_cli(COMMANDS["norm"] + ["--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["routes"]["closed"]["exponent"] == "-1/3"
        assert doc["q"] == "1/2"
        assert doc["match"] is True


class TestFormats:
    def test_csv(self, capsys):
        code, out, _ = run_cli(COMMANDS["fusion"] + ["--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines() == ["nu,mult", '"1,1",1', '"0,0",1']

    def test_table(self, capsys):
        code, out, _ = run_cli(COMMANDS["fusion"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["nu", "mult"]
        assert "1,1" in lines[2]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(COMMANDS["fusion"] + ["--format", "json", "--out", str(target)], capsys)
        assert code == 0 and out == ""
        jsonschema.validate(json.loads(target.read_text()), SCHEMA)

    def test_precision_sets_rendered_digits(self, capsys):
        cmd = ["cb-region", "--type", "A1", "--q", "0.5", "--beta", "2", "--height", "1",
               "--format", "json"]
        code, out, _ = run_cli(["--precision", "5"] + cmd, capsys)
        # beta_min of lam = (1,) is 2^{|lam|} = 2^{1/sqrt 2}
        assert code == 0 and json.loads(out)["rows"][1]["beta_min"] == "1.6325"
        code, out, _ = run_cli(["--precision", "50"] + cmd, capsys)
        assert code == 0 and json.loads(out)["rows"][1]["beta_min"] == (
            "1.6325269194381528447734953810247196020791088570531")


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(COMMANDS))
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_repeat_runs_byte_identical(self, name, fmt, capsys):
        args = COMMANDS[name] + ["--format", fmt]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2
        assert out1 == out2 and out1

    def test_module_entry_point(self):
        cmd = [sys.executable, "-m", "qbf"] + COMMANDS["fusion"] + ["--format", "json"]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_import_loads_no_numpy(self):
        # Touch a name in every submodule, so that each one's code has run.
        code = ("import sys, qbf, qbf.cli\nfrom qbf import *\nqbf.precision.DIGITS\n"
                "assert all('__builtins__' in vars(m) for n, m in sys.modules.items()\n"
                "           if n.startswith('qbf.'))\n"
                "sys.exit('numpy' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestExitCodes:
    def test_malformed_weight(self, capsys):
        code, _, err = run_cli(["fusion", "--type", "A2", "--lambda", "x", "--mu", "0,1"], capsys)
        assert code == 1 and "error:" in err and err.count("\n") == 1

    @pytest.mark.parametrize("mu", ["1_0,0", "\u0661,0", "1,\uff10", "0x1,0", "1.0,0", "1e1,0",
                                    "+-1,0", "1 0,0", ",0", "1,"])
    def test_weight_read_strictly(self, mu, capsys):
        code, out, err = run_cli(["character", "--type", "A2", "--mu", mu], capsys)
        assert code == 1 and out == ""
        assert err == f"error: --mu must be comma-separated integers, got {mu!r}\n"

    @pytest.mark.parametrize("args,flag", [
        (["casimir-check", "--type", "A1", "--height", "1_0"], "--height"),
        (["casimir-check", "--type", "A1", "--height", "\u0662"], "--height"),
        (["cb-region", "--type", "A1", "--q", "0.5", "--beta", "2", "--height", "2.0"], "--height"),
        (["oracle-sl2", "--q", "0.5", "--m", "1_0", "--n", "1"], "--m"),
        (["oracle-sl2", "--q", "0.5", "--m", "1", "--n", "\u0663"], "--n"),
        (["--precision", "1_2"] + COMMANDS["fusion"], "--precision"),
        (["--precision", "\u0661\u0662"] + COMMANDS["fusion"], "--precision"),
    ])
    def test_integer_option_read_strictly(self, args, flag, capsys):
        code, out, err = run_cli(args, capsys)
        value = args[args.index(flag) + 1]
        assert code == 1 and out == ""
        assert err == f"error: argument {flag}: invalid int value: {value!r}\n"

    def test_integers_keep_sign_and_surrounding_whitespace(self, capsys):
        _, plain, _ = run_cli(["--precision", "12", "character", "--type", "A2", "--mu", "2,1"],
                              capsys)
        code, out, _ = run_cli(["--precision", " +12 ", "character", "--type", "A2",
                                "--mu", " +2 , 1\t"], capsys)
        assert code == 0 and out == plain
        code, _, err = run_cli(["character", "--type", "A2", "--mu=-1,0"], capsys)
        assert code == 1 and "not dominant" in err
        _, plain, _ = run_cli(["casimir-check", "--type", "A1", "--height", "2"], capsys)
        code, out, _ = run_cli(["casimir-check", "--type", "A1", "--height", "+2 "], capsys)
        assert code == 0 and out == plain

    @pytest.mark.parametrize("args", [
        ["character", "--type", "A2", "--mu", "-1,0"],
        ["fusion", "--type", "A2", "--lambda", "-1,0", "--mu", "1,0"],
        ["fusion", "--type", "A2", "--lambda", "1,0", "--mu", "-1,0"],
        ["norm", "--type", "A2", "--lambda", "-1,0", "--mu", "1,0", "--q", "0.5"],
        ["norm", "--type", "A2", "--lambda", "1,0", "--mu", "-1,0", "--q", "0.5"],
    ])
    def test_negative_weight_reaches_the_weight_check(self, args, capsys):
        # "-1,0" is a value, not an option, so the weight check names the fault.
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (1, "", "error: weight (-1, 0) is not dominant\n")

    def test_wrong_rank(self, capsys):
        code, _, err = run_cli(["fusion", "--type", "A2", "--lambda", "1", "--mu", "0,1"], capsys)
        assert code == 1 and "coordinates" in err

    def test_bad_q(self):
        out_of_range = "error: deformation parameter q must satisfy 0 < q < 1, got {}\n"
        for q, line in (("1.5", out_of_range), ("0", out_of_range), ("5e99999999999", out_of_range),
                        ("abc", "error: deformation parameter q must be a rational in (0, 1) "
                                "like 0.5 or 1/2, got {!r}\n")):
            code, out, err = run_cli_within_a_second(["norm", "--type", "A1", "--lambda", "1",
                                                      "--mu", "1", "--q", q])
            assert code == 1 and out == "" and err == line.format(q)

    @pytest.mark.parametrize("args", [
        ["norm", "--type", "A1", "--lambda", "1", "--mu", "1"],
        ["cb-region", "--type", "A1", "--beta", "2", "--height", "1"],
        ["oracle-sl2", "--m", "1", "--n", "1"]])
    def test_q_beyond_rendering_range(self, args):
        # A huge exponent is refused before 10^|e| is built.
        for q in ("1e-999999", "1e-99999999999"):
            code, out, err = run_cli_within_a_second(args + ["--q", q])
            assert code == 1 and out == "" and err == (
                "error: deformation parameter q must be a rational with at most 4300 digits "
                f"in its denominator, got {q}\n")

    def test_bad_type(self, capsys):
        code, _, err = run_cli(["fusion", "--type", "Q7", "--lambda", "1", "--mu", "1"], capsys)
        assert code == 1 and "Q7" in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(COMMANDS["fusion"] + ["--bogus"], capsys)
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1

    def test_height_cap(self, capsys):
        code, _, err = run_cli(["cb-region", "--type", "G2", "--q", "0.5",
                                "--beta", "2", "--height", "7"], capsys)
        assert code == 1 and "--force" in err
        code, out, _ = run_cli(["cb-region", "--type", "G2", "--q", "0.5", "--beta", "2",
                                "--height", "7", "--force", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["height"] == 7

    def test_violation_exit_two(self, tmp_path, capsys):
        # crafted counterexample w(mu) = 2^{norm_sq(mu)} on A1
        table = [{"mu": [k], "w": float(2 ** (k * k / 2))} for k in range(5)]
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        code, out, _ = run_cli(["verify-weight", "--type", "A1", "--kind", "table",
                                "--table", str(path), "--height", "2",
                                "--format", "json"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["violations"][0]["condition"] == "Z2"
        assert doc["violations"][0]["weights"] == [[1], [1], [2]]
        jsonschema.validate(doc, SCHEMA)

    def test_z1_violation_records_logs(self, capsys):
        # w(2w) = beta^sqrt(2) lies far below the decimal range; its log does not
        code, out, _ = run_cli(["verify-weight", "--type", "A1", "--kind", "beta",
                                "--beta", "1e-999999", "--height", "2",
                                "--format", "table"], capsys)
        assert code == 2
        z1 = [line.split() for line in out.splitlines() if line.startswith("Z1")]
        assert z1 == [["Z1", "1", "-1628171.90534", "0"],
                      ["Z1", "2", "-3256343.81068", "0"]]
        # the zero weight's log is an exact 0, not a zero carrying an exponent
        z2 = [line.split() for line in out.splitlines() if line.startswith("Z2")]
        assert ["Z2", "1;1;0", "0", "-3256343.81068"] in z2
        assert ["Z2", "2;2;0", "0", "-6512687.62137"] in z2

    def test_z1_decided_exactly(self, capsys):
        # log w(mu) = log(beta) |mu| is about -1e-14 |mu|, inside any log tolerance
        code, out, _ = run_cli(["verify-weight", "--type", "A1", "--kind", "beta",
                                "--beta", "0.99999999999999", "--height", "2"], capsys)
        assert code == 2
        z1 = [line.split() for line in out.splitlines() if line.startswith("Z1")]
        assert z1 == [["Z1", "1", "-7.07106781187E-15", "0"],
                      ["Z1", "2", "-1.41421356237E-14", "0"]]

    @pytest.mark.parametrize("args,quantity", [
        (["norm", "--type", "A1", "--lambda", "3000", "--mu", "3000", "--q", "0.5",
          "--route", "closed"], "q^(-4500000)"),
        (["cb-region", "--type", "A2", "--q", "1e-4000", "--beta", "2", "--height", "12"],
         "growth factor"),
    ])
    def test_result_beyond_decimal_range(self, args, quantity, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert quantity in err and "out of the decimal range" in err

    def test_oracle_corrupted_exponents_exit_two(self, corrupted_exponents, capsys):
        code, out, _ = run_cli(["oracle-sl2", "--q", "0.5", "--m", "2", "--n", "3",
                                "--format", "json"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["passed"] is False
        assert any("norm mismatch" in f for f in doc["failures"])
        jsonschema.validate(doc, SCHEMA)

    def test_out_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "result.json"
        code, out, err = run_cli(COMMANDS["fusion"] + ["--out", str(target)], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1 and "error:" in err

    @pytest.mark.parametrize("value", ["abc", "Infinity", float("inf"), [1], [0, [1], 0], None, True])
    def test_bad_table_value(self, value, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(json.dumps([{"mu": [0], "w": 1}, {"mu": [1], "w": value}]))
        code, _, err = run_cli(["verify-weight", "--type", "A1", "--kind", "table",
                                "--table", str(path), "--height", "2"], capsys)
        assert code == 1 and err.count("\n") == 1 and "error: table value at (1,)" in err

    @pytest.mark.parametrize("table,named", [
        ('[{"mu":[0,0],"w":1},{"mu":[1.5,0],"w":2},{"mu":[0,1],"w":2},{"mu":[1,1],"w":3}]',
         "weight (1.5, 0)"),
        ('[{"mu":[0,0],"w":1},{"mu":[1,0],"w":2},{"mu":[0,1],"w":2},{"mu":[1,0],"w":3}]',
         "repeats the weight (1, 0)"),
        ('[{"mu":[0,0],"w":1},{"mu":[1,0],"w":2},{"mu":[0,1],"w":2},{"mu":[1.0,0],"w":3}]',
         "repeats the weight (1, 0)"),
        ('[{"mu":[0,0],"w":1},{"mu":[true,0],"w":2},{"mu":[0,1],"w":2},{"mu":[1,1],"w":3}]',
         "weight (True, 0) has a coordinate that is not an integer"),
    ], ids=["non-integral", "repeated", "repeated-as-1.0", "bool"])
    def test_misread_table_weight(self, table, named, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(table)
        code, out, err = run_cli(["verify-weight", "--type", "A2", "--kind", "table",
                                  "--table", str(path), "--height", "1"], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1 and named in err

    def test_repeated_rank_one_weight(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text('[{"mu":[1],"w":2},{"mu":[1],"w":3},{"mu":[0],"w":1}]')
        code, out, err = run_cli(["verify-weight", "--type", "A1", "--kind", "table",
                                  "--table", str(path), "--height", "1"], capsys)
        assert (code, out, err) == (1, "", "error: weight table repeats the weight (1,)\n")

    @pytest.mark.parametrize("content,reason", [
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
    ], ids=["not-utf-8", "nested-200000-deep"])
    def test_unreadable_table(self, content, reason, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_bytes(content)
        code, out, err = run_cli(["verify-weight", "--type", "A1", "--kind", "table",
                                  "--table", str(path), "--height", "1"], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: cannot read weight table {path}: {reason}")

    @pytest.mark.parametrize("table", [[], [{"mu": [1, 2, 3], "w": 2}]])
    def test_table_checking_nothing_rejected(self, table, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        code, out, err = run_cli(["verify-weight", "--type", "A2", "--kind", "table",
                                  "--table", str(path), "--height", "2"], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1 and "error:" in err

    @pytest.mark.parametrize("digits", ["0", "51"])
    def test_precision_out_of_range(self, digits, capsys):
        code, out, err = run_cli(["--precision", digits] + COMMANDS["fusion"], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1 and "--precision" in err

    @pytest.mark.parametrize("beta", ["nan", "Infinity"])
    def test_non_finite_beta(self, beta, capsys):
        for args in (["cb-region", "--type", "A1", "--q", "0.5", "--height", "2"],
                     ["verify-weight", "--type", "A1", "--kind", "lst", "--height", "2"]):
            code, out, err = run_cli(args + ["--beta", beta], capsys)
            assert code == 1 and out == "" and err.count("\n") == 1 and "finite" in err

    def test_beta_beyond_decimal_range(self, capsys):
        for args in (["cb-region", "--type", "A1", "--q", "0.5", "--height", "1"],
                     ["verify-weight", "--type", "A1", "--kind", "beta", "--height", "1"]):
            code, out, err = run_cli(args + ["--beta", "1e1000000"], capsys)
            assert code == 1 and out == "" and err.count("\n") == 1 and "range" in err

    @pytest.mark.parametrize("args", [
        ["verify-weight", "--type", "A1", "--kind", "beta", "--height", "1"],
        ["verify-weight", "--type", "A1", "--kind", "lst", "--height", "1"],
        ["cb-region", "--type", "A1", "--q", "0.5", "--height", "1"]])
    def test_beta_below_decimal_range(self, args, capsys):
        # A positive beta that the 50-digit context would round to zero.
        code, out, err = run_cli(args + ["--beta", "1e-1000100"], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "beta = 1e-1000100 is out of the decimal range" in err

    @pytest.mark.parametrize("beta", ["9e999999", "5e999999"])
    def test_lst_log_weight_beyond_decimal_range(self, beta, capsys):
        # 9e999999 overflows log w(mu) itself, 5e999999 only log w(mu) + log w(mu)
        code, out, err = run_cli(["verify-weight", "--type", "A1", "--kind", "lst",
                                  "--beta", beta, "--height", "1"], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1 and "range" in err

    def test_table_value_beyond_decimal_range(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text('[{"mu": [0], "w": 1}, {"mu": [1], "w": 1e1000000}]')
        code, out, err = run_cli(["verify-weight", "--type", "A1", "--kind", "table",
                                  "--table", str(path), "--height", "1"], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1 and "range" in err

    @pytest.mark.parametrize("labels,named", [(["--m", "9", "--n", "2"], "m = 9"),
                                              (["--m", "2", "--n", "-1"], "n = -1")])
    def test_oracle_label_out_of_range(self, labels, named, capsys):
        code, out, err = run_cli(["oracle-sl2", "--q", "0.5"] + labels, capsys)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert f"spin label {named}" in err

    @pytest.mark.parametrize("beta", ["abc", "", "0x1", "1/2"])
    def test_unreadable_beta(self, beta, capsys):
        for args in (["cb-region", "--type", "A1", "--q", "0.5", "--height", "2"],
                     ["verify-weight", "--type", "A1", "--kind", "beta", "--height", "2"],
                     ["verify-weight", "--type", "A1", "--kind", "lst", "--height", "2"]):
            code, out, err = run_cli(args + ["--beta", beta], capsys)
            assert code == 1 and out == "" and err.count("\n") == 1
            assert "beta must be a decimal number" in err

    def test_missing_beta(self, capsys):
        for kind in ("beta", "lst"):
            code, _, err = run_cli(["verify-weight", "--type", "A1", "--kind", kind,
                                    "--height", "2"], capsys)
            assert code == 1 and err == f"error: --beta is required for --kind {kind}\n"


class TestRunner:
    """Every subcommand runs through one runner that reads the shared options
    in a fixed order, writes the output and picks the exit code."""

    # Inputs with two faults: the runner reports the first in its order.
    @pytest.mark.parametrize("args,line", [
        pytest.param(["fusion", "--type", "Z2", "--lambda", "x", "--mu", "0,1"],
                     "cannot parse Lie type factor 'Z2'", id="type-before-lambda"),
        pytest.param(["fusion", "--type", "A2", "--lambda", "1,0,0", "--mu", "x"],
                     "--lambda has 3 coordinates, expected 2", id="lambda-before-mu"),
        pytest.param(["norm", "--type", "A2", "--lambda", "x", "--mu", "0,1", "--q", "2"],
                     "deformation parameter q must satisfy 0 < q < 1, got 2",
                     id="q-before-lambda"),
        pytest.param(["cb-region", "--type", "G2", "--q", "2", "--beta", "2", "--height", "7"],
                     "height 7 exceeds the cap 6 for type G2; pass --force to override",
                     id="cap-before-q"),
        pytest.param(["cb-region", "--type", "A2", "--q", "2", "--beta", "x", "--height", "2"],
                     "deformation parameter q must satisfy 0 < q < 1, got 2", id="q-before-beta"),
        pytest.param(["oracle-sl2", "--q", "2", "--m", "9", "--n", "1"],
                     "spin label m = 9 must be >= 0 and within the oracle cap 8",
                     id="labels-before-q"),
        pytest.param(["verify-weight", "--type", "E8", "--kind", "table", "--height", "9"],
                     "height 9 exceeds the cap 6 for type E8; pass --force to override",
                     id="cap-before-table"),
    ])
    def test_check_order_on_double_faults(self, args, line, capsys):
        assert run_cli(args, capsys) == (1, "", f"error: {line}\n")

    @pytest.mark.parametrize("args,code", [
        *(pytest.param(COMMANDS[name], 0, id=name) for name in sorted(COMMANDS)),
        pytest.param(["verify-weight", "--type", "A1", "--kind", "beta", "--beta", "0.5",
                      "--height", "2"], 2, id="verify-weight-failing")])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_out_file_carries_the_stdout_bytes(self, args, code, fmt, tmp_path, capsys):
        _, out, _ = printed = run_cli(args + ["--format", fmt], capsys)
        target = tmp_path / "out.txt"
        assert printed[0] == code and out
        assert run_cli(args + ["--format", fmt, "--out", str(target)], capsys) == (code, "", "")
        assert target.read_bytes() == out.encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("args", [
        ["fusion", "--type", "A1", "--lambda", "1", "--mu", "1"],
        ["cb-region", "--type", "A2", "--q", "0.5", "--beta", "2", "--height", "12",
         "--format", "json"]], ids=["fusion", "cb-region"])
    def test_unwritable_stdout_is_one_line(self, args, unbuffered):
        # A short table stays in a buffered stdout until the flush; a long one
        # fails on the write.  Either way nothing is reported again at exit.
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "qbf", *args], stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=env)
        assert (done.returncode, done.stderr) == (
            1, "error: cannot write output: [Errno 28] No space left on device\n")


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The ``qbf ...`` lines of the README's "Command line" sh block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qbf ")]


def test_readme_lists_every_subcommand():
    assert sorted({args[0] for args in readme_commands()}) == sorted(COMMANDS)


@pytest.mark.parametrize("args", readme_commands(), ids=" ".join)
def test_readme_example_runs(args, tmp_path, monkeypatch, capsys):
    (tmp_path / "weights.json").write_text('[{"mu":[0],"w":1},{"mu":[1],"w":2},{"mu":[2],"w":3}]')
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "") and out
