from decimal import Decimal
from fractions import Fraction

import pytest

from qbf.qnorm import (
    QExponent,
    SessionConfig,
    i_norm_exponent,
    lminus_norm_exponent,
    rmatrix_exponent_details,
    rmatrix_sup_exponent,
)
from qbf.root_system import build_root_system


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
