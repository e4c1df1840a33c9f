from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbf import central_weights, precision
from qbf.central_weights import (
    CentralWeightSpec,
    SubadditivityReport,
    Violation,
    _log_weight,
    _pair_orbits,
    _triangle_compare,
    _triangle_violations,
    casimir_subadditivity_check,
    eval_weight,
    validate_central_weight,
)
from qbf.characters import full_weights
from qbf.fusion import FusionDecomposition, tensor_decompose
from qbf.root_system import LieType, RootSystem, build_root_system

CTX = Context(prec=50)
# Wide enough for the exact product of two 50-digit table values.
EXACT = Context(prec=100, Emax=MAX_EMAX, Emin=MIN_EMIN)


class TestEvalWeight:
    def test_beta_norm_a1_matches_relabelled_family(self):
        # w_beta(2s w) = beta^{sqrt(2) s}; with gamma = beta^{sqrt 2} this is gamma^... i.e.
        # after relabelling it equals the rank-one family beta^{2s}.
        rs = build_root_system("A1")
        beta = Decimal(3)
        spec = CentralWeightSpec.beta_norm(beta)
        for two_s in range(0, 7):
            got = eval_weight(rs, spec, (two_s,))
            s = Decimal(two_s) / 2
            expected_log = CTX.multiply(CTX.multiply(CTX.sqrt(Decimal(2)), s), CTX.ln(beta))
            assert abs(got.log - expected_log) < Decimal("1e-45")

    def test_value_one_at_zero(self):
        rs = build_root_system("B2")
        zero = (0, 0)
        for spec in (CentralWeightSpec.beta_norm(7), CentralWeightSpec.lst(2)):
            val = eval_weight(rs, spec, zero)
            assert val.value == 1 and val.log == 0

    def test_lst_example(self):
        rs = build_root_system("A1")
        spec = CentralWeightSpec.lst("1.5")
        got = eval_weight(rs, spec, (2,))  # c(2w) = 4
        expected = CTX.exp(CTX.multiply(Decimal("1.5"), Decimal(2)))
        assert abs(got.value - expected) / expected < Decimal("1e-45")

    def test_gamma_relabelling_franz_lee(self):
        rs = build_root_system("A1")
        beta = Decimal(2)
        gamma = CTX.exp(CTX.multiply(CTX.sqrt(Decimal(2)), CTX.ln(beta)))
        spec = CentralWeightSpec.beta_norm(gamma)
        for two_s in range(0, 9):
            got = eval_weight(rs, spec, (two_s,))
            expected_log = CTX.multiply(Decimal(two_s), CTX.ln(beta))  # log beta^{2s}
            assert abs(got.log - expected_log) < Decimal("1e-44")

    def test_table_roundtrip_and_missing(self):
        rs = build_root_system("A1")
        spec = CentralWeightSpec.from_table({(0,): 1, (1,): "2.5"})
        assert eval_weight(rs, spec, (1,)).value == Decimal("2.5")
        with pytest.raises(KeyError):
            eval_weight(rs, spec, (2,))

    @pytest.mark.parametrize("value", ["3", "7", "0.3", "9e999999", "1e-999999"])
    def test_table_value_returned_as_read(self, value):
        # The table's own value, not exp(ln w) rounded back.
        rs = build_root_system("A1")
        got = eval_weight(rs, CentralWeightSpec.from_table({(0,): 1, (1,): value}), (1,))
        assert got.value == Decimal(value) and str(got.value) == str(Decimal(value))
        assert got.log == CTX.ln(Decimal(value))

    def test_monotone_in_beta(self):
        rs = build_root_system("G2")
        lo = CentralWeightSpec.beta_norm("1.5")
        hi = CentralWeightSpec.beta_norm("2.5")
        for mu in rs.dominant_weights_up_to(2):
            assert eval_weight(rs, lo, mu).value <= eval_weight(rs, hi, mu).value

    @pytest.mark.parametrize("spec,mu", [
        (CentralWeightSpec.lst("1e7"), (1,)),               # exp(log w) overflows
        (CentralWeightSpec.beta_norm("1e999999"), (5,)),    # exp(log w) overflows
        (CentralWeightSpec.lst("9e999999"), (1,)),          # log w itself overflows
    ])
    def test_weight_beyond_decimal_range_is_value_error(self, spec, mu):
        rs = build_root_system("A1")
        with pytest.raises(ValueError, match="out of the decimal range"):
            eval_weight(rs, spec, mu)

    @pytest.mark.parametrize("spec", [
        CentralWeightSpec.beta_norm(2), CentralWeightSpec.beta_norm("0.5"),
        CentralWeightSpec.lst(2), CentralWeightSpec.lst(0)])
    def test_zero_weight_has_exact_zero_log(self, spec):
        rs = build_root_system("A2")
        value = eval_weight(rs, spec, (0, 0))
        assert str(value.log) == "0" and value.value == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="positive"):
            CentralWeightSpec.beta_norm(0)
        with pytest.raises(ValueError, match="beta >= 0"):
            CentralWeightSpec.lst(-1)
        with pytest.raises(ValueError, match="positive"):
            CentralWeightSpec.from_table({(0,): 0})

    def test_table_from_pairs(self):
        spec = CentralWeightSpec.from_table([((0,), 1), ((Decimal("1.0"),), "2.5")])
        assert spec.table == {(0,): Decimal(1), (1,): Decimal("2.5")}

    @pytest.mark.parametrize("mu", [(1.5, 0), (Decimal("1.5"), 0), (1, "x"), (0, True)])
    def test_table_non_integral_weight(self, mu):
        with pytest.raises(ValueError, match="not an integer"):
            CentralWeightSpec.from_table({(0, 0): 1, mu: 2})

    @pytest.mark.parametrize("second", [(1,), (Decimal("1.0"),), [1.0]])
    def test_table_repeated_weight(self, second):
        with pytest.raises(ValueError, match=r"repeats the weight \(1,\)"):
            CentralWeightSpec.from_table([((1,), 2), (second, 3), ((0,), 1)])

    @pytest.mark.parametrize("value", [[1], (0, (1,), 0), None, True, {"w": 1}, "abc"])
    def test_table_non_numeric_value(self, value):
        with pytest.raises(ValueError, match=r"table value at \(1,\) must be a decimal number"):
            CentralWeightSpec.from_table([((0,), 1), ((1,), value)])


class TestValidate:
    @pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
    @pytest.mark.parametrize("beta", ["1", "2", "10"])
    def test_beta_norm_passes_up_to_height_six(self, typ, beta):
        rs = build_root_system(typ)
        report = validate_central_weight(rs, CentralWeightSpec.beta_norm(beta), 6)
        assert report.passed and not report.violations
        assert "verified up to height 6" in report.notes

    @pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
    @pytest.mark.parametrize("beta", ["0", "1", "3"])
    def test_lst_passes_up_to_height_six(self, typ, beta):
        rs = build_root_system(typ)
        report = validate_central_weight(rs, CentralWeightSpec.lst(beta), 6)
        assert report.passed and not report.violations

    def test_beta_below_one_fails_z1(self):
        rs = build_root_system("A1")
        report = validate_central_weight(rs, CentralWeightSpec.beta_norm("0.5"), 2)
        assert not report.passed
        assert any(v.condition == "Z1" for v in report.violations)

    @pytest.mark.parametrize("beta, z1", [
        ("0." + "9" * 58, True),                 # rounds to 1 at 50 digits
        (Fraction(10**60 - 1, 10**60), True),
        (Decimal("0." + "9" * 47), True),
        ("1." + "0" * 59 + "1", False),
        (Fraction(10**70 + 1, 10**70), False),
    ])
    def test_z1_decided_on_beta_as_given(self, beta, z1):
        # The sign of log beta is that of the beta given, also where beta
        # rounds to 1 at the working precision: below 1, Z1 fails at every
        # nonzero weight and Z2 at (1) (x) (1) -> (0); above 1 nothing fails.
        rs = build_root_system("A1")
        spec = CentralWeightSpec.beta_norm(beta)
        assert (spec.beta < 1) == z1 and spec.beta != 1
        report = validate_central_weight(rs, spec, 1)
        assert [(v.condition, v.weights) for v in report.violations] == (
            [("Z1", ((1,),)), ("Z2", ((1,), (1,), (0,)))] if z1 else [])
        assert (report.violations[0].lhs < 0) if z1 else report.passed

    def test_crafted_counterexample(self):
        # w(mu) = 2^{norm_sq(mu)} violates Z2 because norm_sq is superadditive
        # along the Cartan component whenever (lam, mu) > 0.
        rs = build_root_system("A1")
        table = {(k,): CTX.exp(CTX.multiply(Decimal(k * k) / 2, CTX.ln(Decimal(2))))
                 for k in range(5)}
        report = validate_central_weight(rs, CentralWeightSpec.from_table(table), 2)
        assert not report.passed
        first = report.violations[0]
        assert first.condition == "Z2"
        assert first.weights == ((1,), (1,), (2,))
        # the witness fails on the table values and on the recorded logs
        w = report.spec.table
        assert w[(2,)] > EXACT.multiply(w[(1,)], w[(1,)])
        assert first.lhs > first.rhs

    @pytest.mark.parametrize("typ,table,height,found", [
        # w(2) exceeds w(1)^2 = 4 by 1e-13; (2) occurs in (1) x (1)
        pytest.param("A1", {(0,): 1, (1,): 2, (2,): "4.0000000000001"}, 1,
                     {("Z2", ((1,), (1,), (2,)))}, id="z2-near-tie"),
        # w(1)^2 = 1.99...9864... (100 digits) rounds up to w(2) at 50 digits
        pytest.param("A1", {(0,): 1, (1,): "1.4142135623730950488016887242096980785696718753769",
                            (2,): "1.9999999999999999999999999999999999999999999999999"}, 1,
                     {("Z2", ((1,), (1,), (2,)))}, id="z2-beyond-50-digits"),
        pytest.param("A1", {(0,): 1, (1,): "0.9999999999999"}, 1,
                     {("Z1", ((1,),)), ("Z2", ((1,), (1,), (0,)))}, id="z1-near-tie"),
        pytest.param("A2", {(0, 0): 1, (1, 0): 2, (0, 1): "2.0000000000001"}, 1,
                     {("SYM", ((0, 1), (1, 0))), ("SYM", ((1, 0), (0, 1)))}, id="sym-near-tie"),
        # w(1)^2 = 8.1e1999999 and w(2)^2 = 1e-1999998 lie far outside the
        # 50-digit context's exponent range
        pytest.param("A1", {(0,): 1, (1,): "9e999999", (2,): "1e-999999"}, 2,
                     {("Z1", ((2,),)),
                      ("Z2", ((1,), (2,), (1,))), ("Z2", ((2,), (1,), (1,))),
                      ("Z2", ((2,), (2,), (0,))), ("Z2", ((2,), (2,), (2,)))},
                     id="products-beyond-exponent-range"),
    ])
    def test_table_decided_exactly(self, typ, table, height, found):
        report = validate_central_weight(build_root_system(typ),
                                         CentralWeightSpec.from_table(table), height)
        assert {(v.condition, v.weights) for v in report.violations} == found
        assert not report.passed
        for v in report.violations:
            if v.condition == "Z2":
                lam, mu, nu = (report.spec.table[w] for w in v.weights)
                assert nu > EXACT.multiply(lam, mu)

    def test_table_notes_cover_w0_and_missing_entries(self):
        rs = build_root_system("A1")
        spec = CentralWeightSpec.from_table({(0,): 2, (1,): 2})
        report = validate_central_weight(rs, spec, 1)
        assert any("w(0)" in n for n in report.notes)
        # (1) x (1) = (2) + (0) and w(2) is missing: one Z2 comparison skipped
        assert report.skipped == 1
        assert f"informational: {report.skipped} comparisons skipped, table entries missing" in report.notes
        assert validate_central_weight(rs, CentralWeightSpec.beta_norm(2), 3).skipped == 0

    def test_table_without_covered_weights_does_not_pass(self):
        rs = build_root_system("A1")
        report = validate_central_weight(rs, CentralWeightSpec.from_table({(5,): 2}), 1)
        assert report.checked == 0 and not report.passed and not report.violations
        assert validate_central_weight(rs, CentralWeightSpec.beta_norm(2), 1).checked > 0

    @pytest.mark.parametrize("table", [{}, {(1, 2, 3): 2}, {(-1,): 2}])
    def test_table_keys_validated(self, table):
        rs = build_root_system("A1")
        with pytest.raises(ValueError):
            validate_central_weight(rs, CentralWeightSpec.from_table(table), 1)

    def test_sym_exact_for_builtin(self):
        rs = build_root_system("A2")
        spec = CentralWeightSpec.beta_norm(4)
        for mu in rs.dominant_weights_up_to(3):
            conj = rs.conjugate_weight(mu)
            assert eval_weight(rs, spec, mu).log == eval_weight(rs, spec, conj).log

    def test_height_validation(self):
        rs = build_root_system("A1")
        with pytest.raises(ValueError, match="height"):
            validate_central_weight(rs, CentralWeightSpec.beta_norm(2), 0)


class TestSubadditivity:
    def test_height_zero_refused(self):
        with pytest.raises(ValueError, match="^truncation height must be >= 1$"):
            casimir_subadditivity_check(build_root_system("A1"), 0)

    def test_a1(self):
        rs = build_root_system("A1")
        report = casimir_subadditivity_check(rs, 3)
        assert report.passed
        assert report.triples_checked > 0
        assert report.min_slack == 0  # lam = mu = nu = 0 is an equality case
        assert report.witness == ((0,), (0,), (0,))

    def test_g2_minimal_slack_recorded(self):
        rs = build_root_system("G2")
        report = casimir_subadditivity_check(rs, 2)
        assert report.passed
        assert report.min_slack >= 0
        assert report.witness is not None

    @pytest.mark.parametrize("typ, height", [("A2", 4), ("B2", 4), ("G2", 3)])
    def test_minimal_slack_is_at_the_cartan_triple(self, typ, height):
        # Every component nu != lam + mu lies strictly below lam + mu in the
        # dominance order, so c(nu) < c(lam + mu), and each pair's smallest
        # slack c(lam)^{1/2} + c(mu)^{1/2} - c(nu)^{1/2} is at nu = lam + mu.
        # The pairs with a trivial factor are left out: their only triple is
        # an equality, which is where the report's witness comes from.
        rs = build_root_system(typ)
        zero = (0,) * rs.rank
        weights = [w for w in rs.dominant_weights_up_to(height) if w != zero]

        def root(nu):
            c = rs.casimir(nu)
            return CTX.divide(Decimal(c.numerator), Decimal(c.denominator)).sqrt(CTX)

        for i, lam in enumerate(weights):
            for mu in weights[i:]:
                top = tuple(a + b for a, b in zip(lam, mu))
                components = tensor_decompose(rs, lam, mu).components
                assert top in components
                assert all(rs.casimir(nu) < rs.casimir(top) for nu in components if nu != top)
                rhs = CTX.add(root(lam), root(mu))
                slacks = {nu: CTX.subtract(rhs, root(nu)) for nu in components}
                assert min(slacks, key=slacks.get) == top
                assert all(slacks[nu] > slacks[top] for nu in components if nu != top)

    @pytest.mark.parametrize("typ, height", [("A2", 3), ("B2", 3), ("G2", 2)])
    def test_passing_sweep_takes_no_square_root(self, typ, height, monkeypatch):
        # Every slack of a triple that holds is >= 0, and the first triple,
        # (0, 0, 0), has slack exactly 0: a passing sweep's smallest slack is
        # that one, found without evaluating any slack.
        def forbidden(*args):
            raise AssertionError("a passing sweep evaluated a slack")

        monkeypatch.setattr(precision, "sqrt_fraction", forbidden)
        rs = build_root_system(typ)
        report = casimir_subadditivity_check(rs, height)
        zero = (0,) * rs.rank
        assert report.passed and report.triples_checked > 0
        assert report.min_slack == Decimal("0") and str(report.min_slack) == "0"
        assert report.witness == (zero, zero, zero)

    def test_equality_when_one_factor_trivial(self):
        rs = build_root_system("B2")
        report = casimir_subadditivity_check(rs, 1)
        assert report.passed
        # lam = 0 forces nu = mu, an exact equality triple
        assert report.min_slack == 0


def exact_invariant(rs, spec):
    """(f, sign) for a built-in family on exact Fraction invariants:
    log w = log(beta) |.| or beta c(.)^{1/2}, so log w(mu) has the sign of
    log beta (or of beta) times that of f(mu)."""
    if spec.kind == "beta_norm":
        return rs.norm_sq, (spec.beta > 1) - (spec.beta < 1)
    return rs.casimir, (spec.beta > 0) - (spec.beta < 0)


def exact_z2(rs, spec, lam, mu, nu):
    """Z2 for a built-in family decided on exact Fraction invariants: the
    sign of log beta (or of beta) orients the triangle inequality."""
    f, sign = exact_invariant(rs, spec)
    return sign * _triangle_compare(f(nu), f(lam), f(mu)) <= 0


def ordered_reference(rs, spec, height):
    """Z1/Z2/SYM with Z2 walked over ordered pairs, the reference for the
    validator's unordered sweep: (violations, checked, skipped).

    Tables are decided exactly on their values.  A built-in family is
    decided on exact Fraction invariants, and outside a 1e-12 band of
    equality its Decimal logs must agree with that verdict."""
    ctx = precision.make_context()
    band = Decimal("1e-12")
    table = spec.table if spec.kind == "table" else None
    weights = rs.dominant_weights_up_to(height)
    scale = ctx.ln(spec.beta) if spec.kind == "beta_norm" else spec.beta
    logs = {}

    def log_of(mu):
        if mu not in logs:
            logs[mu] = _log_weight(rs, spec, mu, ctx, scale)
        return logs[mu]

    violations, checked, skipped = [], 0, 0
    for mu in weights:
        lw = log_of(mu)
        if lw is None:
            skipped += 1
            continue
        checked += 1
        if table is not None:
            low = table[mu] < 1
        else:
            f, sign = exact_invariant(rs, spec)
            low = sign * f(mu) < 0
        if low:
            violations.append(Violation("Z1", (mu,), lw, Decimal(0)))
    for lam in weights:
        for mu in weights:
            llam, lmu = log_of(lam), log_of(mu)
            if llam is None or lmu is None:
                skipped += 1
                continue
            rhs = ctx.add(llam, lmu)
            for nu in tensor_decompose(rs, lam, mu).components:
                lnu = log_of(nu)
                if lnu is None:
                    skipped += 1
                    continue
                checked += 1
                if table is not None:
                    bad = table[nu] > EXACT.multiply(table[lam], table[mu])
                else:
                    gap = ctx.subtract(lnu, rhs)
                    near = abs(gap) <= band * max(Decimal(1), abs(lnu), abs(rhs))
                    bad = not exact_z2(rs, spec, lam, mu, nu) and (near or gap > 0)
                if bad:
                    violations.append(Violation("Z2", (lam, mu, nu), lnu, rhs))
    for mu in weights:
        conj = rs.conjugate_weight(mu)
        if spec.kind != "table":
            checked += 1
            if rs.norm_sq(mu) != rs.norm_sq(conj) or rs.casimir(mu) != rs.casimir(conj):
                violations.append(Violation("SYM", (mu, conj), log_of(mu), log_of(conj)))
            continue
        lw, lc = log_of(mu), log_of(conj)
        if lw is None or lc is None:
            skipped += 1
            continue
        checked += 1
        if table[mu] != table[conj]:
            violations.append(Violation("SYM", (mu, conj), lw, lc))
    violations.sort(key=lambda v: (v.condition, v.weights))
    return tuple(violations), checked, skipped


@st.composite
def weight_specs(draw):
    """A2, B2 or A1xA1, a height, and a table (values from a small set, so
    ties, near-ties and Z2 violations all occur, with some entries missing)
    or a built-in family.  A2 and A1xA1 have a diagram automorphism, which a
    table need not respect."""
    rs = build_root_system(draw(st.sampled_from(["A2", "B2", "A1xA1"])))
    height = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["table", "table", "beta_norm", "lst"]))
    if kind == "beta_norm":
        return rs, CentralWeightSpec.beta_norm(
            draw(st.sampled_from(["0.7", "0.99999999999999", "1", "1.5"]))), height
    if kind == "lst":
        return rs, CentralWeightSpec.lst(draw(st.sampled_from(["0", "0.4"]))), height
    keys = rs.dominant_weights_up_to(height + 1)
    values = st.one_of(st.none(), st.sampled_from(
        ["0.5", "0.9999999999999", "1", "1.5", "2", "4", "4.0000000000001"]))
    table = {mu: v for mu in keys if (v := draw(values)) is not None}
    table.setdefault((0,) * rs.rank, "1")
    return rs, CentralWeightSpec.from_table(table), height


@settings(max_examples=40, deadline=None)
@given(weight_specs())
@example((build_root_system("A2"), CentralWeightSpec.beta_norm("0.99999999999999"), 2))
@example((build_root_system("B2"), CentralWeightSpec.beta_norm("1"), 2))
@example((build_root_system("B2"), CentralWeightSpec.beta_norm("1.5"), 3))
@example((build_root_system("A2"), CentralWeightSpec.lst("0"), 2))
@example((build_root_system("A2"), CentralWeightSpec.lst("0.4"), 3))
def test_unordered_sweep_matches_ordered_reference(drawn):
    rs, spec, height = drawn
    report = validate_central_weight(rs, spec, height)
    violations, checked, skipped = ordered_reference(rs, spec, height)
    assert report.violations == violations
    assert (report.checked, report.skipped) == (checked, skipped)
    assert report.passed == (checked > 0 and not violations)


def test_casimir_sweep_stays_on_integer_path(monkeypatch):
    rs = build_root_system("B2")
    reference = casimir_subadditivity_check(rs, 3)

    def forbidden(*args, **kwargs):
        raise AssertionError("the Casimir sweep left the memoised integer path")

    monkeypatch.setattr(RootSystem, "casimir", forbidden)
    monkeypatch.setattr(RootSystem, "inner_product", forbidden)
    assert casimir_subadditivity_check(rs, 3) == reference
    cold = RootSystem(LieType.parse("A2"))  # a fresh instance starts with empty memos
    assert casimir_subadditivity_check(cold, 3) == casimir_subadditivity_check(build_root_system("A2"), 3)


def record_logs(monkeypatch):
    """The weights whose log validate_central_weight takes, in order."""
    logged = []

    def recording(rs_, spec_, mu, ctx, s):
        logged.append(mu)
        return _log_weight(rs_, spec_, mu, ctx, s)

    monkeypatch.setattr(central_weights, "_log_weight", recording)
    return logged


@pytest.mark.parametrize("spec", [CentralWeightSpec.beta_norm(2), CentralWeightSpec.lst(1),
                                  CentralWeightSpec.beta_norm("0.5")])
def test_builtin_z2_decided_on_integer_path(spec, monkeypatch):
    # Decimal logs are taken only to be recorded: the weights of each
    # violation, and for Z2 also the pair whose log sum it records.  A
    # passing sweep, whose box the range check clears at once, takes none.
    # Logs that are all wrong leave every verdict as it was.
    rs = build_root_system("B2")
    reference = validate_central_weight(rs, spec, 3)
    logged = record_logs(monkeypatch)
    assert validate_central_weight(rs, spec, 3) == reference
    recorded = {mu for v in reference.violations for mu in v.weights}
    assert set(logged) == recorded and len(logged) == len(set(logged))
    assert bool(recorded) == (spec.beta < 1)

    monkeypatch.setattr(central_weights, "_log_weight", lambda *args, **kwargs: Decimal(-7))
    report = validate_central_weight(rs, spec, 3)
    assert report._replace(violations=()) == reference._replace(violations=())
    assert [v.weights for v in report.violations] == [v.weights for v in reference.violations]


def per_triple_subadditivity(rs, height):
    """The Casimir sweep checking every triple in component order, the
    reference for the per-pair verdicts."""
    ctx = precision.make_context()
    weights = rs.dominant_weights_up_to(height)
    cas = rs._casimir_scaled
    roots = {}

    def root_of(mu):
        if mu not in roots:
            roots[mu] = precision.sqrt_fraction(Fraction(cas(mu), rs._gram_den), ctx)
        return roots[mu]

    checked = 0
    min_slack = None
    witness = None
    violations = []
    for i, lam in enumerate(weights):
        c_lam = cas(lam)
        for mu in weights[i:]:
            c_mu = cas(mu)
            rhs = ctx.add(root_of(lam), root_of(mu))
            for nu, _m in tensor_decompose(rs, lam, mu).components.items():
                checked += 1
                if _triangle_compare(cas(nu), c_lam, c_mu) > 0:
                    violations.append((lam, mu, nu))
                slack = ctx.subtract(rhs, root_of(nu))
                if min_slack is None or slack < min_slack:
                    min_slack = slack
                    witness = (lam, mu, nu)
    return SubadditivityReport(
        passed=not violations,
        truncation_height=height,
        triples_checked=checked,
        min_slack=min_slack,
        witness=witness,
        violations=tuple(violations),
    )


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["A1", "A2", "B2", "G2", "A1xA1"]), st.integers(1, 4))
@example("G2", 4)
@example("A1xA1", 4)
def test_per_pair_subadditivity_matches_per_triple_reference(typ, height):
    rs = build_root_system(typ)
    assert casimir_subadditivity_check(rs, height) == per_triple_subadditivity(rs, height)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("sweep", [
    lambda rs: casimir_subadditivity_check(rs, 3),
    lambda rs: validate_central_weight(rs, CentralWeightSpec.lst(2), 3),
    lambda rs: validate_central_weight(rs, CentralWeightSpec.beta_norm(2), 3),
], ids=["casimir", "lst", "beta_norm"])
def test_sweeps_decide_each_pair_once(sweep, monkeypatch):
    # The dominance certificate decides a pair with one triangle check, at
    # the Cartan triple, and the sweeps never sort a decomposition.
    rs = build_root_system("B2")
    reference = sweep(rs)
    calls = count_calls(monkeypatch, central_weights, "_triangle_compare")

    def unsorted_only(fd):
        raise AssertionError("the sweep read the sorted components")

    monkeypatch.setattr(FusionDecomposition, "components", property(unsorted_only))
    assert sweep(rs) == reference
    n = len(rs.dominant_weights_up_to(3))
    assert len(calls) == n * (n + 1) // 2


@pytest.mark.parametrize("invariant", ["_casimir_scaled", "_norm_scaled"])
def test_certificate_never_certifies_a_tie(invariant):
    # In A2, (2, 1) = lam + mu and (1, 2) share their Casimir and their norm:
    # a component other than lam + mu with f(nu) = f(lam + mu) sends the pair
    # to the comparison of every component, which finds no violation.
    rs = build_root_system("A2")
    f = getattr(rs, invariant)
    lam, mu = (1, 0), (1, 1)
    fd = tensor_decompose(rs, lam, mu)
    parts = fd._parts
    assert f((1, 2)) == f((2, 1)) == f(fd.cartan) and (1, 2) not in parts
    assert _triangle_violations(f, 1, fd) is None
    for tied in ({**parts, (1, 2): 1}, {(1, 2): 1, **parts}):
        assert _triangle_violations(f, 1, FusionDecomposition(lam, mu, tied)) == []


def test_overflowing_z2_sum_names_the_pair():
    # log w((1,)) = 5e999999 (3/2)^(1/2) fits the decimal range; its double does not.
    rs = build_root_system("A1")
    with pytest.raises(ValueError) as raised:
        validate_central_weight(rs, CentralWeightSpec.lst("5e999999"), 1)
    assert str(raised.value) == ("log w((1,)) + log w((1,)) is out of the decimal range "
                                 "(exponent above 999999)")


@pytest.mark.parametrize("beta,height,named", [
    ("9e999999", 1, "log w((1,))"),
    ("9e999999", 2, "log w((1,))"),      # not (2,), the box's largest weight
    ("5e999999", 2, "log w((2,))"),     # after (0,) (x) (1,), before (1,) (x) (1,)
    ("4e999999", 2, "log w((1,)) + log w((2,))"),
    ("3e999999", 2, "log w((2,)) + log w((2,))"),
])
def test_first_log_out_of_range_in_sweep_order_is_named(beta, height, named):
    # The range of the box's logs is checked once per sweep; when a log or a
    # log sum may leave it, the members take their logs in sweep order, so
    # the error names the first that does, wherever the largest one lies.
    rs = build_root_system("A1")
    with pytest.raises(ValueError) as raised:
        validate_central_weight(rs, CentralWeightSpec.lst(beta), height)
    assert str(raised.value) == f"{named} is out of the decimal range (exponent above 999999)"


@pytest.mark.parametrize("beta", ["1e999998", "3e999998"])
def test_logs_near_the_range_take_the_member_path_and_pass(beta, monkeypatch):
    # 2 beta c^{1/2} reaches 10^999999 on the A2 box of height 4, so every
    # member takes its logs, and none leaves the range.  The report is the
    # one a small beta gives.
    rs = build_root_system("A2")
    logged = record_logs(monkeypatch)
    report = validate_central_weight(rs, CentralWeightSpec.lst(beta), 4)
    assert set(logged) == set(rs.dominant_weights_up_to(4))
    assert report._replace(spec=None) == validate_central_weight(
        rs, CentralWeightSpec.lst(2), 4)._replace(spec=None)


@pytest.mark.parametrize("typ,height", [("D4", 2), ("E6", 1), ("A1xA1xA1", 2), ("A3", 3),
                                        ("A2xA2", 1), ("B2xB2", 1), ("A2", 3), ("B2", 2)])
def test_pair_orbits_match_the_breadth_first_reference(typ, height):
    rs = build_root_system(typ)
    weights = rs.dominant_weights_up_to(height)
    generic = tuple(range(rs.rank))  # distinct coordinates: its image fixes the map

    def shown(walk):
        return [[(a, b, sigma and sigma(generic)) for a, b, sigma in members]
                for members in walk]

    assert shown(_pair_orbits(rs, weights)) == shown(reference_pair_orbits(rs, weights))


def reference_pair_orbits(rs, weights):
    """The Γ-pair walk of the first symmetry-halved sweeps: a breadth-first
    walk of each pair's orbit that rebuilds every mate's sigma, and a pair
    already met as a mate costs its members list and a lookup in a set that
    only grows."""
    images = rs._symmetry_images(weights)
    identity = tuple(range(rs.rank))
    n = len(weights)
    later = set()
    for i, lam in enumerate(weights):
        for j in range(i, n):
            members = [(lam, weights[j], None)]
            if images:
                if i * n + j in later:
                    continue
                orbit = {i * n + j}
                todo = [(i, j, identity)]
                for a, b, source in todo:
                    for image, generator in images:
                        x, y = image[a], image[b]
                        if x > y:
                            x, y = y, x
                        if x * n + y not in orbit:
                            orbit.add(x * n + y)
                            todo.append((x, y, generator(source)))
                later |= orbit
                members += [(weights[a], weights[b], itemgetter(*source))
                            for a, b, source in todo[1:]]
            yield members


def raw_brauer_klimyk(rs, lam, mu):
    """Brauer-Klimyk sums over the weight system of lam, zeros kept."""
    acc = {}
    for w, m in full_weights(rs, lam).items():
        y, sign, singular = rs.dominant_representative(tuple(a + 1 + c for a, c in zip(mu, w)))
        if not singular:
            nu = tuple(c - 1 for c in y)
            acc[nu] = acc.get(nu, 0) + sign * m
    return acc


@pytest.mark.parametrize("typ, mirror", [("A2", lambda w: w[::-1]), ("B2", lambda w: w)],
                         ids=["A2", "B2"])
@pytest.mark.parametrize("sweep", [
    lambda rs: casimir_subadditivity_check(rs, 4),
    lambda rs: validate_central_weight(rs, CentralWeightSpec.lst(1), 4),
], ids=["casimir", "lst"])
def test_sweeps_decompose_one_pair_per_symmetry_orbit(sweep, typ, mirror, monkeypatch):
    # The diagram automorphism of A2 swaps its two nodes, and B2 has none.
    # The sweeps decompose the first unordered pair of each orbit in sweep
    # order, through the central_weights binding, which the
    # component-injection tests and bench/tracer.py replace.
    rs = build_root_system(typ)
    decompositions = []

    def recording(rs_, lam, mu):
        fd = tensor_decompose(rs_, lam, mu)
        decompositions.append(fd)
        return fd

    monkeypatch.setattr(central_weights, "tensor_decompose", recording)
    sweep(rs)
    weights = rs.dominant_weights_up_to(4)
    pairs = [(lam, mu) for i, lam in enumerate(weights) for mu in weights[i:]]
    firsts, seen = [], set()
    for lam, mu in pairs:
        if frozenset((lam, mu)) not in seen:
            firsts.append((lam, mu))
            seen.update((frozenset((lam, mu)), frozenset((mirror(lam), mirror(mu)))))
    assert [(fd.lam, fd.mu) for fd in decompositions] == firsts
    assert len(firsts) == {"A2": 175, "B2": len(pairs)}[typ]
    assert all(min(fd._parts.values()) > 0 for fd in decompositions)
    if typ == "A2":  # (0, 1) sums to 0 in (0, 2) (x) (0, 2)
        assert raw_brauer_klimyk(rs, (0, 2), (0, 2))[(0, 1)] == 0
        cancelled = next(fd for fd in decompositions if fd.lam == fd.mu == (0, 2))
        assert (0, 1) not in cancelled._parts


def inject_components(monkeypatch, pair):
    """Make fusion of ``pair`` (either orientation) return two more
    components, 2 (lam + mu) and then 3 (lam + mu), whose Casimirs and norms
    exceed those of lam + mu and which break the triangle inequality.  They
    are found in the opposite of the sorted order."""
    real = tensor_decompose

    def patched(rs, lam, mu):
        fd = real(rs, lam, mu)
        if {tuple(lam), tuple(mu)} != set(pair):
            return fd
        extra = {tuple(k * (a + b) for a, b in zip(lam, mu)): 1 for k in (2, 3)}
        return FusionDecomposition.from_parts(fd.lam, fd.mu, {**fd.components, **extra})

    monkeypatch.setattr(central_weights, "tensor_decompose", patched)
    monkeypatch.setitem(globals(), "tensor_decompose", patched)
    return [tuple(k * (a + b) for a, b in zip(*pair)) for k in (3, 2)]


@pytest.mark.parametrize("pair", [((1, 0), (1, 0)), ((0, 1), (1, 1))])
def test_injected_components_take_the_per_triple_fallback(pair, monkeypatch):
    rs = build_root_system("B2")
    extras = inject_components(monkeypatch, pair)
    calls = count_calls(monkeypatch, central_weights, "_triangle_compare")

    report = casimir_subadditivity_check(rs, 2)
    assert report == per_triple_subadditivity(rs, 2)
    n = len(rs.dominant_weights_up_to(2))
    assert len(calls) > n * (n + 1) // 2  # the fallback checked the pair per triple
    assert not report.passed
    assert report.violations == tuple(pair + (nu,) for nu in extras)  # in component order
    assert report.witness == pair + (extras[0],)

    for spec in (CentralWeightSpec.lst(1), CentralWeightSpec.beta_norm(2)):
        report = validate_central_weight(rs, spec, 2)
        violations, checked, skipped = ordered_reference(rs, spec, 2)
        assert report.violations == violations
        assert (report.checked, report.skipped) == (checked, skipped)
        assert not report.passed
        z2 = [v.weights for v in report.violations if v.condition == "Z2"]
        assert z2 == sorted({a + (nu,) for a in (pair, pair[::-1]) for nu in extras})


def test_mates_list_the_mapped_violations_in_sweep_order(monkeypatch):
    # Injected components as fusion itself is, equivariant under the swap of
    # the two nodes of A2: each pair below and its mirror image gain
    # 2 (lam + mu) and 3 (lam + mu).  One pair per orbit is decomposed, and
    # the mirror's violations, mapped from it, fall where the per-triple
    # sweep puts them: after the first pair of the other orbit.
    rs = build_root_system("A2")
    first, second = ((0, 1), (1, 1)), ((0, 1), (2, 2))
    for lam, mu in (first, second):
        inject_components(monkeypatch, (lam, mu))
        inject_components(monkeypatch, (lam[::-1], mu))
    calls = count_calls(monkeypatch, central_weights, "tensor_decompose")

    report = casimir_subadditivity_check(rs, 2)
    assert report == per_triple_subadditivity(rs, 2)
    assert len(calls) == 27  # of 45 pairs: 9 are their own mirror, 36 pair off
    assert [v[:2] for v in report.violations] == [
        pair for pair in (first, second, ((1, 0), (1, 1)), ((1, 0), (2, 2))) for _ in "23"]
    assert report.witness == second + ((6, 9),)  # 3 (lam + mu), in the first pair of its orbit

    for spec in (CentralWeightSpec.lst(1), CentralWeightSpec.beta_norm(2)):
        report = validate_central_weight(rs, spec, 2)
        violations, checked, skipped = ordered_reference(rs, spec, 2)
        assert report.violations == violations
        assert (report.checked, report.skipped) == (checked, skipped)
        assert len([v for v in violations if v.condition == "Z2"]) == 4 * 2 * 2


def test_mates_check_a_table_on_its_own_values():
    # w(a, b) = 2^a 5^b is not invariant under the swap of the nodes of A2.
    # At nu = lam + mu - alpha_1 it exceeds w(lam) w(mu) by 5/4, and at
    # lam + mu - alpha_2 it falls short of it by 2/25.  So (1, 0) (x) (1, 1)
    # fails at (0, 2), while the first pair of its orbit, (0, 1) (x) (1, 1),
    # holds at the image (2, 0).
    rs = build_root_system("A2")
    spec = CentralWeightSpec.from_table({mu: 2 ** mu[0] * 5 ** mu[1]
                                         for mu in rs.dominant_weights_up_to(6)})
    report = validate_central_weight(rs, spec, 2)
    violations, checked, skipped = ordered_reference(rs, spec, 2)
    assert report.violations == violations
    assert (report.checked, report.skipped) == (checked, skipped) and skipped == 0
    z2 = {v.weights for v in violations if v.condition == "Z2"}
    assert ((1, 0), (1, 1), (0, 2)) in z2 and ((0, 1), (1, 1), (2, 0)) not in z2


def test_log_beta_is_taken_once_per_validation(monkeypatch):
    rs = build_root_system("B3")
    spec = CentralWeightSpec.beta_norm(2)
    reference = validate_central_weight(rs, spec, 2)
    value = eval_weight(rs, spec, (1, 0, 1))
    logs = []

    class Counting(Context):
        def ln(self, x, *args):
            logs.append(x)
            return super().ln(x, *args)

    monkeypatch.setattr(precision, "make_context", lambda: Counting(prec=precision.DIGITS))
    calls = count_calls(monkeypatch, precision, "ln")
    assert validate_central_weight(rs, spec, 2) == reference
    assert [args[0] for args in calls] == [spec.beta] and logs == []
    calls.clear()
    assert eval_weight(rs, spec, (1, 0, 1)) == value
    assert [args[0] for args in calls] == [spec.beta] and logs == []
