"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings on the terminal.
"""

import json
import sys
import time
from decimal import Context, Decimal
from fractions import Fraction

from qbf.cb_region import cb_extends, cb_region_enumerate, sup_ratio_scan
from qbf.central_weights import (
    CentralWeightSpec,
    casimir_subadditivity_check,
    validate_central_weight,
)
from qbf.characters import character_product_decompose
from qbf.cli import main as cli_main
from qbf.fusion import tensor_decompose
from qbf.qnorm import SessionConfig, lminus_norm_exponent, rmatrix_exponent_details
from qbf.root_system import build_root_system
from qbf.sl2_oracle import verify_norm_formula

CTX = Context(prec=50)

GEOMETRY_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]
FUSION_SWEEP = [("A1", 3), ("A2", 3), ("B2", 3), ("G2", 3), ("A3", 2), ("B3", 2)]
NORM_TYPES = ["A1", "A2", "B2", "G2"]
WEIGHT_TYPES = ["A1", "A2", "B2", "G2"]
ORACLE_QS = [Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)]

CLASSICAL_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9,
                    "C3": 9, "D4": 12, "G2": 6, "F4": 24}


def report(num, name, ok, elapsed=None, detail=""):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    line = f"acceptance criterion {num} ({name}): {status}{timing}"
    if detail:
        line += f" -- {detail}"
    print(line, file=sys.stdout, flush=True)
    assert ok, line


def fusion_pairs(typ, height):
    rs = build_root_system(typ)
    ws = rs.dominant_weights_up_to(height)
    for i, lam in enumerate(ws):
        for mu in ws[i:]:
            yield rs, lam, mu


def test_criterion_1_normalisation_and_geometry():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for typ in GEOMETRY_TYPES:
        rs = build_root_system(typ)
        if min(rs.norm_sq(a) for a in rs.positive_roots) != 2:
            ok, detail = False, f"{typ}: shortest root not normalised"
            break
        if len(rs.positive_roots) != CLASSICAL_COUNTS[typ]:
            ok, detail = False, f"{typ}: wrong positive root count"
            break
        g = rs.gram
        if any(g[i][j] != g[j][i] for i in range(rs.rank) for j in range(rs.rank)):
            ok, detail = False, f"{typ}: gram not symmetric"
            break
        work = [list(row) for row in g]
        for k in range(rs.rank):
            if work[k][k] <= 0:
                ok, detail = False, f"{typ}: gram not positive definite"
                break
            for r in range(k + 1, rs.rank):
                f = work[r][k] / work[k][k]
                work[r] = [x - f * y for x, y in zip(work[r], work[k])]
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(1, "normalisation and geometry", ok, elapsed, detail)


def test_criterion_2_fusion_matches_character_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    pairs = 0
    for typ, height in FUSION_SWEEP:
        for rs, lam, mu in fusion_pairs(typ, height):
            pairs += 1
            fd = tensor_decompose(rs, lam, mu)
            if fd.components != tensor_decompose(rs, mu, lam).components:
                mismatches += 1
            if fd.components != character_product_decompose(rs, lam, mu).components:
                mismatches += 1
            if fd.dimension(rs) != rs.weyl_dim(lam) * rs.weyl_dim(mu):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(2, "fusion vs character oracle", ok, elapsed,
           f"{pairs} unordered pairs, {mismatches} mismatches")


def test_criterion_3_norm_formula_identity():
    t0 = time.perf_counter()
    bad = 0
    pairs = 0
    for typ in NORM_TYPES:
        rs = build_root_system(typ)
        ws = rs.dominant_weights_up_to(4)
        for lam in ws:
            for mu in ws:
                pairs += 1
                details = rmatrix_exponent_details(rs, lam, mu)
                if details.exponent != lminus_norm_exponent(rs, lam, mu).value:
                    bad += 1
                top = tuple(a + b for a, b in zip(lam, mu))
                if details.minimizer != top or details.ties != (top,):
                    bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60.0
    report(3, "norm exponent identity", ok, elapsed, f"{pairs} pairs, {bad} failures")


def test_criterion_4_casimir_inequality_chain():
    t0 = time.perf_counter()
    violations = 0
    triples = 0
    for typ, height in FUSION_SWEEP:
        for rs, lam, mu in fusion_pairs(typ, height):
            cap = rs.casimir(tuple(a + b for a, b in zip(lam, mu)))
            for nu, _ in tensor_decompose(rs, lam, mu):
                triples += 1
                if rs.casimir(nu) > cap:
                    violations += 1
    elapsed = time.perf_counter() - t0
    report(4, "casimir exponent chain", violations == 0, elapsed,
           f"{triples} fusion triples, {violations} violations")


def test_criterion_5_central_weight_validation():
    t0 = time.perf_counter()
    failures = []
    for typ in WEIGHT_TYPES:
        rs = build_root_system(typ)
        for beta in ("1", "2", "10"):
            rep = validate_central_weight(rs, CentralWeightSpec.beta_norm(beta), 4)
            if not rep.passed:
                failures.append((typ, "beta_norm", beta, len(rep.violations)))
        for beta in ("0", "1", "3"):
            rep = validate_central_weight(rs, CentralWeightSpec.lst(beta), 4)
            if not rep.passed:
                failures.append((typ, "lst", beta, len(rep.violations)))

    # crafted counterexample w(mu) = 2^{norm_sq(mu)} on A1
    a1 = build_root_system("A1")
    table = {(k,): CTX.exp(CTX.multiply(Decimal(k * k) / 2, CTX.ln(Decimal(2))))
             for k in range(9)}
    rep = validate_central_weight(a1, CentralWeightSpec.from_table(table), 2)
    witness_hit = any(v.condition == "Z2" and v.weights == ((1,), (1,), (2,))
                      for v in rep.violations)
    if rep.passed or not witness_hit:
        failures.append(("A1", "crafted table", "2^{norm_sq}", "missing Z2 witness"))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    report(5, "central weight validation", ok, elapsed, str(failures) if failures else "")


def test_criterion_6_casimir_subadditivity():
    t0 = time.perf_counter()
    bad = []
    total = 0
    for typ, height in FUSION_SWEEP:
        rs = build_root_system(typ)
        rep = casimir_subadditivity_check(rs, height)
        total += rep.triples_checked
        if not rep.passed:
            bad.append((typ, rep.violations[:3]))
        if rep.min_slack < 0:
            bad.append((typ, "negative slack"))
    elapsed = time.perf_counter() - t0
    report(6, "casimir subadditivity", not bad, elapsed,
           f"{total} triples" + (f", failures {bad}" if bad else ""))


def test_criterion_7_main_theorem_region():
    t0 = time.perf_counter()
    failures = []

    # (a) rank-one thresholds under the relabelling gamma = beta_fl^{sqrt 2},
    # for spins s <= 5 (coordinates 2s <= 10) and exact boundary grids.
    sqrt2 = CTX.sqrt(Decimal(2))
    for q in ("0.3", "0.5", "0.9"):
        rs = build_root_system("A1")
        cfg = SessionConfig(q)
        log_inv_q = CTX.minus(CTX.ln(Decimal(q)))
        for two_s0 in range(0, 11):
            beta_fl = CTX.exp(CTX.multiply(Decimal(two_s0) / 2, log_inv_q))
            beta = CTX.exp(CTX.multiply(sqrt2, CTX.ln(beta_fl)))
            for two_s in range(0, 11):
                got = cb_extends(rs, cfg, beta, (two_s,)).extends
                if got != (two_s <= two_s0):
                    failures.append(("threshold", q, two_s0, two_s))

    # (b) A2 region at q = 1/2, beta = 2, height 3.
    a2 = build_root_system("A2")
    rows = cb_region_enumerate(a2, SessionConfig("0.5"), 2, 3)
    region = {d.lam for d in rows if d.extends}
    if region != {(0, 0), (1, 0), (0, 1)}:
        failures.append(("a2 region", sorted(region)))

    # (c) scan sign-consistency on a beta grid, height-4 lambdas, H = 12.
    for typ in ("A1", "A2"):
        rs = build_root_system(typ)
        cfg = SessionConfig("0.5")
        for beta in ("1", "1.5", "2", "4", "8"):
            for lam in rs.dominant_weights_up_to(4):
                if not sup_ratio_scan(rs, cfg, beta, lam, 12).consistent:
                    failures.append(("scan", typ, beta, lam))

    # (d) beta = 1 admits only the trivial label.
    for typ in WEIGHT_TYPES:
        rs = build_root_system(typ)
        rows = cb_region_enumerate(rs, SessionConfig("0.5"), 1, 2)
        if {d.lam for d in rows if d.extends} != {(0,) * rs.rank}:
            failures.append(("beta=1", typ))

    elapsed = time.perf_counter() - t0
    report(7, "CB extension region", not failures, elapsed,
           str(failures[:4]) if failures else "")


def test_criterion_8_sl2_oracle():
    t0 = time.perf_counter()
    failures = []
    for q in ORACLE_QS:
        for m in range(0, 7):
            for n in range(0, 7):
                rep = verify_norm_formula(q, m, n)
                if not rep.passed:
                    failures.append((str(q), m, n, rep.failures))
                    continue
                if rep.relation_residual != 0:
                    failures.append((str(q), m, n, "relation residual"))
                if not rep.exact_multiset_match:
                    failures.append((str(q), m, n, "eigen multiset"))
                if rep.lambda_max != q ** (-m * n):
                    failures.append((str(q), m, n, "norm"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    report(8, "rank-one oracle", ok, elapsed,
           f"147 triples" + (f", failures {failures[:3]}" if failures else ""))


def test_criterion_9_cli_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    table = tmp_path / "table.json"
    table.write_text(json.dumps([{"mu": [k], "w": 1.0} for k in range(9)]))
    commands = [
        ["fusion", "--type", "B2", "--lambda", "1,1", "--mu", "0,1"],
        ["character", "--type", "G2", "--mu", "1,1"],
        ["verify-weight", "--type", "A2", "--kind", "lst", "--beta", "1", "--height", "2"],
        ["verify-weight", "--type", "A1", "--kind", "table", "--table", str(table),
         "--height", "2"],
        ["norm", "--type", "G2", "--lambda", "1,0", "--mu", "0,1", "--q", "0.3"],
        ["cb-region", "--type", "A2", "--q", "0.5", "--beta", "2", "--height", "3"],
        ["oracle-sl2", "--q", "0.9", "--m", "2", "--n", "2"],
        ["casimir-check", "--type", "B2", "--height", "2"],
    ]
    mismatches = []
    for args in commands:
        for fmt in ("json", "csv", "table"):
            outputs = []
            for _ in range(2):
                code = cli_main(args + ["--format", fmt])
                outputs.append(capsys.readouterr().out)
                if code != 0:
                    mismatches.append((args[0], fmt, f"exit {code}"))
            if outputs[0] != outputs[1] or not outputs[0]:
                mismatches.append((args[0], fmt, "bytes differ"))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(9, "CLI determinism", not mismatches, elapsed,
               str(mismatches[:4]) if mismatches else "")
