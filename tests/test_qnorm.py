from decimal import Context, Decimal
from fractions import Fraction

import mpmath
import pytest

from qbf import precision
from qbf.qnorm import (
    QExponent,
    SessionConfig,
    i_norm_exponent,
    lminus_norm_exponent,
    rmatrix_exponent_details,
    rmatrix_sup_exponent,
)
from qbf.root_system import build_root_system
from qbf.sl2_oracle import verify_norm_formula


class TestClosedForm:
    def test_a1_grid(self):
        rs = build_root_system("A1")
        # lam = 2s w, mu = 2t w gives exponent -2st; use 2s, 2t in 0..6
        for two_s in range(7):
            for two_t in range(7):
                e = lminus_norm_exponent(rs, (two_s,), (two_t,))
                assert e.value == -Fraction(two_s * two_t, 2)

    def test_trivial(self):
        rs = build_root_system("B2")
        for mu in rs.dominant_weights_up_to(2):
            assert lminus_norm_exponent(rs, (0, 0), mu).value == 0

    def test_a2_example(self):
        rs = build_root_system("A2")
        assert lminus_norm_exponent(rs, (1, 0), (0, 1)).value == Fraction(-1, 3)

    def test_symmetry(self):
        rs = build_root_system("G2")
        for lam in rs.dominant_weights_up_to(2):
            for mu in rs.dominant_weights_up_to(2):
                assert (lminus_norm_exponent(rs, lam, mu).value
                        == lminus_norm_exponent(rs, mu, lam).value)


class TestRMatrixRoute:
    def test_a1_fundamental(self):
        rs = build_root_system("A1")
        details = rmatrix_exponent_details(rs, (1,), (1,))
        table = {nu: e for nu, _, e in details.table}
        assert table == {(2,): Fraction(-1), (0,): Fraction(3)}
        assert details.exponent == Fraction(-1, 2)
        assert details.minimizer == (2,)
        assert details.ties == ((2,),)

    def test_trivial_factor(self):
        rs = build_root_system("A2")
        assert rmatrix_sup_exponent(rs, (0, 0), (2, 1)).value == 0

    def test_a2_example(self):
        rs = build_root_system("A2")
        details = rmatrix_exponent_details(rs, (1, 0), (0, 1))
        assert details.exponent == Fraction(-1, 3)
        assert details.minimizer == (1, 1)

    @pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
    def test_identity_with_closed_form(self, typ):
        # agreement of the two routes, with a unique minimiser at lam + mu
        rs = build_root_system(typ)
        ws = rs.dominant_weights_up_to(5)
        for i, lam in enumerate(ws):
            for mu in ws[i:]:
                d = rmatrix_exponent_details(rs, lam, mu)
                assert d.exponent == lminus_norm_exponent(rs, lam, mu).value
                assert d.minimizer == tuple(a + b for a, b in zip(lam, mu))
                assert d.ties == (d.minimizer,)

    @pytest.mark.parametrize("typ", ["A2", "B2", "G2"])
    def test_polarization_identity(self, typ):
        rs = build_root_system(typ)
        ws = rs.dominant_weights_up_to(3)
        for lam in ws:
            for mu in ws:
                top = tuple(a + b for a, b in zip(lam, mu))
                lhs = rs.casimir(mu) + rs.casimir(lam) - rs.casimir(top)
                assert lhs == -2 * rs.inner_product(lam, mu)


class TestINorm:
    def test_doubling(self):
        rs = build_root_system("A2")
        for lam in rs.dominant_weights_up_to(2):
            for mu in rs.dominant_weights_up_to(2):
                assert (i_norm_exponent(rs, lam, mu).value
                        == 2 * lminus_norm_exponent(rs, lam, mu).value)

    def test_examples(self):
        a1 = build_root_system("A1")
        assert i_norm_exponent(a1, (1,), (1,)).value == -1
        a2 = build_root_system("A2")
        assert i_norm_exponent(a2, (1, 0), (0, 1)).value == Fraction(-2, 3)


class TestQExponent:
    def test_q_power_value(self):
        from decimal import Context

        e = QExponent(Fraction(-1, 2))
        val = e.q_power(Fraction(1, 2))
        assert abs(val - Context(prec=50).sqrt(Decimal(2))) < Decimal("1e-45")

    def test_ordering_reversal(self):
        # larger exponent means smaller represented norm, for any 0 < q < 1
        q = Fraction(3, 10)
        values = [QExponent(Fraction(k)).q_power(q) for k in range(-3, 4)]
        assert values == sorted(values, reverse=True)

    def test_session_config_validation(self):
        for bad in (0, 1, 2, -0.5, Fraction(5, 4)):
            with pytest.raises(ValueError, match="0 < q < 1"):
                SessionConfig(bad)
        assert SessionConfig(0.3).q == Fraction(3, 10)
        assert SessionConfig("0.5").q == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["1/0", "abc", "", "inf"])
    def test_malformed_q_is_value_error(self, bad):
        with pytest.raises(ValueError, match="q must be a rational"):
            SessionConfig(bad)

    @pytest.mark.parametrize("q,refusal", [
        (Fraction(1, 10 ** 4400), "at most 4300 digits in its denominator, got about 1E-4400$"),
        (Fraction(10 ** 4400, 3), "must satisfy 0 < q < 1, got about 3.33333333333E[+]4399$"),
    ], ids=["denominator-4401-digits", "numerator-4401-digits"])
    def test_refusal_of_a_q_too_long_to_print(self, q, refusal):
        # Python converts no int of more than 4300 digits to a string, so the
        # message shows such a q to 12 digits.
        with pytest.raises(ValueError, match=refusal):
            SessionConfig(q)


class TestQPowerNearOne:
    # q = 1 - 10^-53 rounds to 1 at the 50 working digits, so ln q must be
    # taken on q as given.
    Q = "0." + "9" * 53

    @staticmethod
    def reference(q: str, e: Fraction) -> tuple[Decimal, Decimal]:
        """q^e from mpmath at 120 digits, rounded to the 50 working digits,
        and |e ln q| to 5 digits."""
        with mpmath.workdps(120):
            num, _, den = q.partition("/")
            log = mpmath.log(mpmath.mpf(num) / mpmath.mpf(den or 1)) * e.numerator / e.denominator
            return (Context(prec=50).plus(Decimal(mpmath.nstr(mpmath.exp(log), 110))),
                    Decimal(mpmath.nstr(abs(log), 5)))

    @pytest.mark.parametrize("q, e", [
        *((q, e) for q in [Q, "0." + "9" * 30, "0.9999", "0.99", "0.95", "0.9", "0.3", "1/7"]
          for e in [Fraction(-32), Fraction(7, 3), Fraction(-1234567, 89)]),
        (Q, Fraction(-9999800001, 2)), ("0." + "9" * 30, Fraction(-9999800001, 2)),
    ])
    def test_matches_mpmath(self, q, e):
        # exp(e ln q) carries the relative error of ln q, a few units of its
        # 50th digit, times |e ln q|.
        got = QExponent(e).q_power(q)
        ref, log = self.reference(q, e)
        assert abs(got - ref) <= ref.scaleb(-48) * (1 + log)

    def test_norm_closed_form_keeps_the_digits_of_q_minus_one(self):
        rs = build_root_system("A1")
        e = lminus_norm_exponent(rs, (99999,), (99999,))
        assert e.value == Fraction(-9999800001, 2)
        assert str(e.q_power(self.Q)) == "1.0000000000000000000000000000000000000000000499990"
        assert e.q_power(self.Q) == self.reference(self.Q, e.value)[0]

    def test_oracle_norms_are_not_exactly_one(self):
        # q^{-mn/2} = 1 + 4.5 10^-53 for m = n = 3: 1 to the working digits, but
        # not the exact 1 of a logarithm that rounded to 0.
        report = verify_norm_formula(self.Q, 3, 3)
        assert report.passed
        for norm in (report.norm_computed, report.norm_expected):
            assert norm == 1 and str(norm) == "1." + "0" * 49
            assert precision.render(norm, 12) == "1.00000000000"
