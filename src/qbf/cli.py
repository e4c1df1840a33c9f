"""Command-line front end with deterministic JSON, CSV and table output.

Every subcommand runs through one runner, ``_run``.  It reads the shared
options in a fixed order, so an input with two faults always reports the
same one: ``--precision``, then the Lie type of ``--type`` (its factors,
then the rank bound ``root_system.MAX_RANK``, both checked as it is parsed),
the height cap on ``--height`` (lifted by ``--force``, which leaves the rank
bound in place) and the size of the box of dominant weights up to that
height (all checked before the root system is built), ``--q`` for the
commands that take a type, then ``--lambda`` and ``--mu``.
The subcommand then checks its own options and returns the library's own
values, unrendered: its JSON payload, the columns of its csv and table
output, the payload records those columns show, and its verdict.  The
runner writes them in the ``--format`` asked for, every value by one rule in
``_emit``, and turns the verdict into the exit code.

Exit codes: 0 on success, 1 on validation failure (bad flags, malformed
weights, out-of-range parameters) or output that cannot be written, 2 when a
mathematical property or oracle check fails, so CI pipelines can gate on the
theorem checks directly.
Identical inputs produce byte-identical output: all enumerations are sorted,
rationals are rendered as p/q strings, and reals are rendered at a fixed
number of significant digits (``--precision``, default 12).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction

# Modules, not names: a submodule's code runs on the first lookup of one of
# its names, so each command runs only the submodules it calls.
from . import (cb_region, central_weights, characters, fusion, precision, qnorm, root_system,
               sl2_oracle)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

_HEIGHT_CAPS = {"A": 12, "B": 12, "C": 12, "D": 12, "E": 6, "F": 6, "G": 6}


class CliError(ValueError):
    """Invalid command line input; rendered as a single actionable line."""


def _parse_int(text: str) -> int:
    """The integer written in text: ASCII digits with an optional sign, and
    nothing else but surrounding whitespace; a ValueError otherwise."""
    text = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Options declared with type=int are read by _parse_int; a bad value
        # still reports "invalid int value".
        self.register("type", int, _parse_int)
        # A value such as "-1,0" is read as a weight, not taken for an
        # option, so the weight check can name what is wrong with it.
        self._negative_number_matcher = re.compile(r"^-\d+(,[+-]?\d+)*$|^-\d*\.\d+$")

    def error(self, message):  # exit 1, single line, no usage dump
        raise CliError(message)


def _parse_weight(text: str, rank: int, name: str) -> tuple[int, ...]:
    try:
        coords = tuple(_parse_int(c) for c in str(text).split(","))
    except ValueError:
        raise CliError(f"{name} must be comma-separated integers, got {text!r}")
    if len(coords) != rank:
        raise CliError(f"{name} has {len(coords)} coordinates, expected {rank}")
    return coords


def _emit(args, payload: dict, columns: list[str], records: list[dict]) -> None:
    """Write payload as JSON, or the columns of records as csv or a table.

    In JSON a Decimal is rendered at --precision digits and a Fraction as
    p/q.  A cell renders them the same way, writes a weight as 1,0, joins a
    list or record of weights by ';' and writes a bool in lower case."""
    def plain(x):
        if isinstance(x, Decimal):
            return precision.render(x, args.precision)
        if isinstance(x, Fraction):
            return str(x)
        raise TypeError(f"cannot render {x!r}")

    def cell(x):
        if isinstance(x, dict):
            x = tuple(x.values())
        if isinstance(x, tuple):
            return (";" if isinstance(x[0], tuple) else ",").join(map(cell, x))
        if isinstance(x, bool):
            return str(x).lower()
        return str(x) if isinstance(x, (int, str)) else plain(x)

    if args.format == "json":
        text = json.dumps(payload, indent=2, default=plain) + "\n"
    else:
        rows = [[cell(record[c]) for c in columns] for record in records]
        if args.format == "csv":
            import csv  # here, so a json or table run does not import it

            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
            text = buf.getvalue()
        else:
            widths = [len(c) for c in columns]
            for row in rows:
                widths = [max(w, len(c)) for w, c in zip(widths, row)]
            lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
            lines.append("  ".join("-" * w for w in widths))
            for row in rows:
                lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            text = "\n".join(lines) + "\n"
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:
            # Closed, stdout is not flushed again at exit, which would fail on
            # the same buffered text and report it a second time.
            with contextlib.suppress(OSError):
                sys.stdout.close()
        raise CliError(f"cannot write output{' file' if args.out else ''}: {exc}")


# -- subcommands ---------------------------------------------------------------
# Each takes the parsed args, in which _run has read --q (for a command with
# --type), --lambda and --mu, and the root system of --type (None without
# one).  It returns the library's own values, unrendered: the JSON payload,
# the csv and table columns, the payload records those columns show, and
# whether its check passed.

def _cmd_fusion(args, rs):
    fd = fusion.tensor_decompose(rs, args.lam, args.mu)
    payload = {
        "lambda": args.lam,
        "mu": args.mu,
        "components": [{"nu": nu, "mult": m} for nu, m in fd.components.items()],
    }
    return payload, ["nu", "mult"], payload["components"], True


def _cmd_character(args, rs):
    char = characters.weight_multiplicities(rs, args.mu)
    ordered = sorted(char.dominant.items(), key=lambda kv: (-sum(kv[0]), kv[0]))
    payload = {
        "type": str(rs.lie_type),
        "mu": args.mu,
        "dim": char.dim,
        "dominant_weights": [{"weight": w, "mult": m} for w, m in ordered],
    }
    return payload, ["weight", "mult"], payload["dominant_weights"], True


def _cmd_verify_weight(args, rs):
    CentralWeightSpec = central_weights.CentralWeightSpec
    if args.kind in ("beta", "lst"):
        if args.beta is None:
            raise CliError(f"--beta is required for --kind {args.kind}")
        family = CentralWeightSpec.beta_norm if args.kind == "beta" else CentralWeightSpec.lst
        spec = family(args.beta)
    else:
        if not args.table:
            raise CliError("--table FILE is required for --kind table")
        try:
            with open(args.table, encoding="utf-8") as fh:
                raw = json.load(fh, parse_float=Decimal)
        # UnicodeDecodeError and JSONDecodeError are ValueErrors; a deeply
        # nested array ends in a RecursionError.
        except (OSError, ValueError, RecursionError) as exc:
            raise CliError(f"cannot read weight table {args.table}: {exc}")
        try:
            spec = CentralWeightSpec.from_table([(entry["mu"], entry["w"]) for entry in raw])
        except (TypeError, KeyError):
            raise CliError('weight table must be a list of {"mu": [..], "w": value} entries')
    report = central_weights.validate_central_weight(rs, spec, args.height)
    payload = {
        "type": str(rs.lie_type),
        "kind": spec.kind,
        "beta": spec.beta,
        "height": report.truncation_height,
        "passed": report.passed,
        "violations": [v._asdict() for v in report.violations],
        "notes": report.notes,
    }
    return payload, ["condition", "weights", "lhs", "rhs"], payload["violations"], report.passed


def _cmd_norm(args, rs):
    q = args.q.q
    routes: dict[str, dict] = {}
    if args.route in ("closed", "both"):
        e = qnorm.lminus_norm_exponent(rs, args.lam, args.mu)
        routes["closed"] = {"exponent": e.value, "q_power": e.q_power(q)}
    if args.route in ("rmatrix", "both"):
        details = qnorm.rmatrix_exponent_details(rs, args.lam, args.mu)
        routes["rmatrix"] = {
            "exponent": details.exponent,
            "q_power": qnorm.QExponent(details.exponent).q_power(q),
            "minimizer": details.minimizer,
            "ties": details.ties,
        }
    match = len({info["exponent"] for info in routes.values()}) == 1
    payload = {
        "type": str(rs.lie_type),
        "lambda": args.lam,
        "mu": args.mu,
        "q": q,
        "routes": routes,
        "match": match,
    }
    records = [{"route": name, **info} for name, info in routes.items()]
    return payload, ["route", "exponent", "q_power"], records, match


def _cmd_cb_region(args, rs):
    decisions = cb_region.cb_region_enumerate(rs, args.q, args.beta, args.height)
    rows = [
        {
            "lambda": d.lam,
            "extends": d.extends,
            "boundary": d.boundary,
            "norm_sq": d.norm_sq,
            "beta_min": d.beta_min,
            "certificate": {k: v for k, v in d.certificate._asdict().items() if v is not None},
        }
        for d in decisions
    ]
    payload = {
        "type": str(rs.lie_type),
        "q": args.q.q,
        "beta": decisions[0].beta,  # beta rounded to the working precision
        "height": args.height,
        "rows": rows,
    }
    return payload, ["lambda", "extends", "boundary", "norm_sq", "beta_min"], rows, True


def _cmd_oracle_sl2(args, rs):
    # q stays unread here: the oracle checks its spin labels before q.
    report = sl2_oracle.verify_norm_formula(args.q, args.m, args.n)
    payload = {
        "q": report.q,
        "m": report.m,
        "n": report.n,
        "passed": report.passed,
        "norm": {
            "computed": report.norm_computed,
            "expected": report.norm_expected,
        },
        "eigenvalues": [row._asdict() for row in report.eigen_rows],
        "residuals": {"relations": report.relation_residual},
        "failures": report.failures,
    }
    return (payload, ["nu", "exponent", "multiplicity", "value", "verified_exact"],
            payload["eigenvalues"], report.passed)


def _cmd_casimir_check(args, rs):
    report = central_weights.casimir_subadditivity_check(rs, args.height)
    payload = {
        "type": str(rs.lie_type),
        "height": report.truncation_height,
        "passed": report.passed,
        "triples": report.triples_checked,
        "min_slack": report.min_slack,
        "witness": {
            "lambda": report.witness[0],
            "mu": report.witness[1],
            "nu": report.witness[2],
        },
        "violations": [
            {"lambda": l, "mu": m, "nu": n}
            for l, m, n in report.violations
        ],
    }
    records = [{"key": k, "value": payload[k]}
               for k in ("triples", "min_slack", "witness", "passed")]
    return payload, ["key", "value"], records, report.passed


def build_parser() -> _Parser:
    parser = _Parser(prog="qbf", description=__doc__.splitlines()[0])
    parser.add_argument("--precision", type=int, default=12,
                        help="significant digits for rendered reals (default 12)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *shared):
        """The subparser of a subcommand run by run, with the required shared
        options among --type, --lambda, --mu and --q that _run reads."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for flag in shared:
            p.add_argument(flag, dest="lam" if flag == "--lambda" else None, required=True)
        return p

    def common(p, height=False):
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--out", help="write output to a file instead of stdout")
        if height:
            p.add_argument("--height", type=int, required=True)
            p.add_argument("--force", action="store_true",
                           help="override the documented height caps")

    common(command("fusion", _cmd_fusion, "tensor product decomposition",
                   "--type", "--lambda", "--mu"))
    common(command("character", _cmd_character, "weight multiplicities of an irreducible",
                   "--type", "--mu"))

    p = command("verify-weight", _cmd_verify_weight,
                "Z1/Z2/symmetry validation of a weight family", "--type")
    p.add_argument("--kind", choices=("beta", "lst", "table"), required=True)
    p.add_argument("--beta")
    p.add_argument("--table", help="JSON file with [{'mu': [..], 'w': value}, ...]")
    common(p, height=True)

    p = command("norm", _cmd_norm, "norm exponent of the dual generator matrix",
                "--type", "--lambda", "--mu", "--q")
    p.add_argument("--route", choices=("closed", "rmatrix", "both"), default="both")
    common(p)

    p = command("cb-region", _cmd_cb_region, "completely-bounded extension region",
                "--type", "--q")
    p.add_argument("--beta", required=True)
    common(p, height=True)

    p = command("oracle-sl2", _cmd_oracle_sl2, "exact rank-one check of the norm formula",
                "--q")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    common(command("casimir-check", _cmd_casimir_check,
                   "Casimir square-root subadditivity sweep", "--type"), height=True)
    return parser


def _run(args) -> int:
    """Read the shared options in the order of the module docstring, run the
    subcommand, write its output and return its exit code."""
    if not 1 <= args.precision <= precision.DIGITS:
        raise CliError(f"--precision must be between 1 and {precision.DIGITS}")
    given = vars(args)
    rs = None
    if "type" in given:
        lie_type = root_system.LieType.parse(args.type)
        cap = min(_HEIGHT_CAPS[s] for s, _ in lie_type.factors)
        height = given.get("height", -1)
        if height > cap and not args.force:
            raise CliError(f"height {height} exceeds the cap {cap} for type {lie_type}; "
                           "pass --force to override")
        if height >= 0:  # a negative height is refused by the command, in its words
            root_system._check_box(lie_type, height)
        rs = root_system.build_root_system(lie_type)
        if "q" in given:
            args.q = qnorm.SessionConfig(args.q)
        for dest, flag in (("lam", "--lambda"), ("mu", "--mu")):
            if dest in given:
                given[dest] = _parse_weight(given[dest], rs.rank, flag)
    payload, columns, records, passed = args.run(args, rs)
    _emit(args, payload, columns, records)
    return EXIT_OK if passed else EXIT_VIOLATION


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except (ValueError, KeyError) as exc:  # CliError and LieTypeError are ValueErrors
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
