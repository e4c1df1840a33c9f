from decimal import Context, Decimal

import pytest

from qbf.central_weights import (
    LOG_TOLERANCE,
    CentralWeightSpec,
    casimir_subadditivity_check,
    eval_weight,
    validate_central_weight,
)
from qbf.root_system import build_root_system

CTX = Context(prec=50)


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

    def test_monotone_in_beta(self):
        rs = build_root_system("G2")
        lo = CentralWeightSpec.beta_norm("1.5")
        hi = CentralWeightSpec.beta_norm("2.5")
        for mu in rs.dominant_weights_up_to(2):
            assert eval_weight(rs, lo, mu).value <= eval_weight(rs, hi, mu).value

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="positive"):
            CentralWeightSpec.beta_norm(0)
        with pytest.raises(ValueError, match="beta >= 0"):
            CentralWeightSpec.lst(-1)
        with pytest.raises(ValueError, match="positive"):
            CentralWeightSpec.from_table({(0,): 0})


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
        # the witness re-evaluates to a failure far beyond tolerance
        scale = max(Decimal(1), abs(first.lhs), abs(first.rhs))
        assert first.lhs - first.rhs > LOG_TOLERANCE * scale

    def test_table_notes_cover_w0_and_missing_entries(self):
        rs = build_root_system("A1")
        spec = CentralWeightSpec.from_table({(0,): 2, (1,): 2})
        report = validate_central_weight(rs, spec, 1)
        assert any("w(0)" in n for n in report.notes)
        assert any("skipped" in n for n in report.notes)

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

    def test_equality_when_one_factor_trivial(self):
        rs = build_root_system("B2")
        report = casimir_subadditivity_check(rs, 1)
        assert report.passed
        # lam = 0 forces nu = mu, an exact equality triple
        assert report.min_slack == 0
