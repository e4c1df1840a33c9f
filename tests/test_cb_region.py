from decimal import Context, Decimal
from fractions import Fraction

import mpmath
import pytest

from qbf.cb_region import cb_extends, cb_region_enumerate, sup_ratio_scan
from qbf.cli import main
from qbf.qnorm import SessionConfig
from qbf.root_system import build_root_system

CTX = Context(prec=50)


def beta_power(base: Decimal, exponent: Decimal) -> Decimal:
    return CTX.exp(CTX.multiply(exponent, CTX.ln(base)))


class TestCbExtends:
    def test_a1_half_beta4(self):
        rs = build_root_system("A1")
        cfg = SessionConfig("0.5")
        extending = [n for n in range(6) if cb_extends(rs, cfg, 4, (n,)).extends]
        assert extending == [0, 1, 2]

    def test_trivial_weight_always_extends(self):
        for typ in ["A1", "A2", "G2"]:
            rs = build_root_system(typ)
            cfg = SessionConfig("0.9")
            d = cb_extends(rs, cfg, 1, (0,) * rs.rank)
            assert d.extends
            assert d.certificate.kind == "bound"
            assert d.certificate.bound == 1

    def test_boundary_inclusive(self):
        # beta = q^{-|lam|} exactly: the paper's criterion includes equality.
        rs = build_root_system("A1")
        cfg = SessionConfig("0.5")
        lam = (2,)  # |lam| = sqrt(2)
        beta = beta_power(Decimal(2), CTX.sqrt(Decimal(2)))
        d = cb_extends(rs, cfg, beta, lam)
        assert d.extends and d.boundary

    def test_beta_min_formula(self):
        rs = build_root_system("A2")
        cfg = SessionConfig("0.5")
        d = cb_extends(rs, cfg, 2, (1, 0))
        # beta_min = q^{-|lam|} = 2^{sqrt(2/3)}
        expected = beta_power(Decimal(2), CTX.sqrt(CTX.divide(Decimal(2), Decimal(3))))
        assert abs(d.beta_min - expected) < Decimal("1e-45")

    def test_divergence_certificate(self):
        rs = build_root_system("A1")
        cfg = SessionConfig("0.5")
        d = cb_extends(rs, cfg, 2, (4,))
        assert not d.extends
        assert d.certificate.kind == "divergence"
        assert d.certificate.ray_base == (4,)
        assert d.certificate.growth_factor > 1

    def test_monotone_in_beta(self):
        rs = build_root_system("B2")
        cfg = SessionConfig("0.7")
        betas = ["1", "1.5", "2", "4", "8"]
        for lam in rs.dominant_weights_up_to(3):
            flags = [cb_extends(rs, cfg, b, lam).extends for b in betas]
            assert flags == sorted(flags)  # once extending, stays extending

    def test_beta_min_beyond_decimal_range(self):
        # |lam| log(1/q) = 500/sqrt(2) * 4000 ln 10 is above the largest exponent
        rs = build_root_system("A1")
        with pytest.raises(ValueError, match="beta_min of \\(500,\\) is out of the decimal range"):
            cb_extends(rs, SessionConfig("1e-4000"), "1e999999", (500,))

    def test_beta_below_one_rejected(self):
        rs = build_root_system("A1")
        cfg = SessionConfig("0.5")
        with pytest.raises(ValueError, match="beta"):
            cb_extends(rs, cfg, "0.99", (1,))

    def test_q_rounding_to_one_is_decided(self):
        # q = 1 - 1e-52 rounds to 1 at 50 digits, but ln(1/q) is taken on q
        # as given: about 1e-52, so t^2 is about 4.8e103 and every weight
        # extends.
        rs = build_root_system("A1")
        cfg = SessionConfig("0." + "9" * 52)
        with mpmath.workdps(120):
            t = mpmath.log(2) / -mpmath.log(mpmath.mpf(10**52 - 1) / 10**52)
            t_sq = Decimal(mpmath.nstr(t * t, 120))
        decisions = cb_region_enumerate(rs, cfg, 2, 2)
        assert [(d.lam, d.extends, d.boundary) for d in decisions] == [
            ((0,), True, False), ((1,), True, False), ((2,), True, False)]
        for d in decisions + [cb_extends(rs, cfg, 2, (1,)), sup_ratio_scan(rs, cfg, 2, (1,), 2).decision]:
            assert abs(d.threshold_sq - t_sq) < Decimal("1e-48") * t_sq
        assert sup_ratio_scan(rs, cfg, 2, (1,), 2).consistent
        # Just below the rounding, ln(1/q) is about 1e-50 and every weight extends.
        cfg = SessionConfig("0." + "9" * 50)
        assert all(d.extends for d in cb_region_enumerate(rs, cfg, 2, 2))

    def test_q_near_one_keeps_its_digits(self, capsys):
        # 1 - q = 3.33...e-49 has 48 leading zeros, so q rounded to 50 digits
        # keeps two digits of it and ln(1/q) was off by about 0.1 %, which
        # took (8, 3), with |lam|^2 = 73/2, inside t^2 = 36.0000000007.
        q = "999999999999999999999999999999999999999999999999666666666667/1" + "0" * 60
        beta = "1.000000000000000000000000000000000000000000000002"
        wide = Context(prec=120)
        t_sq = wide.power(wide.divide(wide.ln(Decimal(beta)),
                                      wide.ln(wide.divide(Decimal(10**60), Decimal(q.split("/")[0])))),
                          2)
        decisions = cb_region_enumerate(build_root_system("A1xA1"), SessionConfig(q), beta, 8)
        decision = next(d for d in decisions if d.lam == (8, 3))
        assert not decision.extends and not decision.boundary
        assert abs(decision.threshold_sq - t_sq) < Decimal("1e-45") * t_sq
        assert main(["cb-region", "--type", "A1xA1", "--q", q, "--beta", beta, "--height", "8",
                     "--format", "csv"]) == 0
        assert '\n"8,3",false,false,73/2,' in capsys.readouterr().out

    def test_beta_near_one_keeps_its_digits(self, capsys):
        # beta - 1 = 2.01...e-48 has 47 leading zeros, so beta rounded to 50
        # digits keeps three digits of it, and ln beta taken on that rounding
        # put t^2 at 36.0000000001, below |(8, 3)|^2 = 73/2.
        q = "999999999999999999999999999999999999999999999999666666666667/1" + "0" * 60
        beta = "1.000000000000000000000000000000000000000000000002013843009438077100800"
        exact = Context(prec=150)  # holds beta and q, and their logarithms to 100 digits
        t_sq = exact.power(exact.divide(exact.ln(Decimal(beta)),
                                        exact.ln(exact.divide(Decimal(10**60),
                                                              Decimal(q.split("/")[0])))), 2)
        assert Decimal("36.500073") < t_sq < Decimal("36.500074")
        decisions = cb_region_enumerate(build_root_system("A1xA1"), SessionConfig(q), beta, 8)
        decision = next(d for d in decisions if d.lam == (8, 3))
        assert decision.extends and not decision.boundary
        assert abs(decision.threshold_sq - t_sq) < Decimal("1e-45") * t_sq
        assert decision.beta == CTX.plus(Decimal(beta))  # held rounded to 50 digits
        assert main(["cb-region", "--type", "A1xA1", "--q", q, "--beta", beta, "--height", "8",
                     "--format", "csv"]) == 0
        assert '\n"8,3",true,false,73/2,' in capsys.readouterr().out

    @pytest.mark.parametrize("beta", ["0." + "9" * 60, Fraction(10**70 - 1, 10**70)])
    def test_beta_below_one_by_less_than_the_rounding_rejected(self, beta):
        rs, cfg = build_root_system("A1"), SessionConfig("0.5")
        with pytest.raises(ValueError, match="beta must be >= 1"):
            cb_extends(rs, cfg, beta, (1,))

    @pytest.mark.parametrize("q", ["0.3", "0.5", "0.9", "1/7", "0.123456789"])
    def test_ordinary_q_reads_ln_at_the_working_digits(self, q):
        # 1 - q >= 0.1 has no leading zero, so ln(1/q) is taken at 50 digits.
        rs = build_root_system("A1")
        cfg = SessionConfig(q)
        log_inv_q = CTX.minus(CTX.ln(CTX.divide(Decimal(cfg.q.numerator), cfg.q.denominator)))
        t = CTX.divide(CTX.ln(Decimal(2)), log_inv_q)
        assert cb_region_enumerate(rs, cfg, 2, 1)[0].threshold_sq == CTX.multiply(t, t)

    def test_non_dominant_rejected(self):
        rs = build_root_system("A2")
        cfg = SessionConfig("0.5")
        with pytest.raises(ValueError, match="dominant"):
            cb_extends(rs, cfg, 2, (1, -1))


class TestFranzLeeThreshold:
    @pytest.mark.parametrize("q", ["0.3", "0.5", "0.9"])
    def test_exact_grid_thresholds(self, q):
        # beta_fl = q^{-s0}: the rank-one criterion q^{-s} <= beta_fl must hold
        # exactly for s <= s0, inclusive at the boundary.
        rs = build_root_system("A1")
        cfg = SessionConfig(q)
        sqrt2 = CTX.sqrt(Decimal(2))
        log_inv_q = CTX.minus(CTX.ln(Decimal(q)))
        for two_s0 in range(0, 7):
            beta_fl = CTX.exp(CTX.multiply(Decimal(two_s0) / 2, log_inv_q))
            beta = beta_power(beta_fl, sqrt2)  # relabelling gamma = beta_fl^{sqrt 2}
            for two_s in range(0, 11):
                d = cb_extends(rs, cfg, beta, (two_s,))
                assert d.extends == (two_s <= two_s0), (q, two_s0, two_s)

    def test_off_grid_threshold(self):
        rs = build_root_system("A1")
        cfg = SessionConfig("0.5")
        beta_fl = Decimal("1.7")
        beta = beta_power(beta_fl, CTX.sqrt(Decimal(2)))
        log_inv_q = CTX.minus(CTX.ln(Decimal("0.5")))
        for two_s in range(0, 11):
            expected = CTX.multiply(Decimal(two_s) / 2, log_inv_q) <= CTX.ln(beta_fl)
            assert cb_extends(rs, cfg, beta, (two_s,)).extends == expected


class TestRegionEnumerate:
    def test_a2_region(self):
        rs = build_root_system("A2")
        cfg = SessionConfig("0.5")
        rows = cb_region_enumerate(rs, cfg, 2, 3)
        region = {d.lam for d in rows if d.extends}
        assert region == {(0, 0), (1, 0), (0, 1)}

    @pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
    def test_beta_one_only_trivial(self, typ):
        rs = build_root_system(typ)
        cfg = SessionConfig("0.5")
        rows = cb_region_enumerate(rs, cfg, 1, 2)
        region = {d.lam for d in rows if d.extends}
        assert region == {(0,) * rs.rank}

    def test_height_zero(self):
        rs = build_root_system("A2")
        cfg = SessionConfig("0.5")
        rows = cb_region_enumerate(rs, cfg, 5, 0)
        assert len(rows) == 1 and rows[0].lam == (0, 0) and rows[0].extends
        with pytest.raises(ValueError, match="^height must be >= 0$"):
            cb_region_enumerate(rs, cfg, 5, -1)

    @pytest.mark.parametrize("typ,q,beta,height", [
        ("A2", "0.5", "2", 4),
        ("B2", "0.9", "1.5", 4),
        ("A1xA1", "0.5", "2", 4),   # (1, 1) has |lam| = 1: beta = 1/q is on its boundary
        ("A1xA1", "0.3", "1", 2),
    ])
    def test_rows_are_the_single_decisions(self, typ, q, beta, height):
        rs = build_root_system(typ)
        cfg = SessionConfig(q)
        rows = cb_region_enumerate(rs, cfg, beta, height)
        singles = [cb_extends(rs, cfg, beta, lam) for lam in rs.dominant_weights_up_to(height)]
        assert rows == singles
        assert repr(rows) == repr(singles)

    @pytest.mark.parametrize("typ,lam", [("A2", (1, 1)), ("B2", (0, 2)), ("A1xA1", (2, 1))])
    def test_rows_at_a_boundary_beta(self, typ, lam):
        rs = build_root_system(typ)
        cfg = SessionConfig("0.7")
        beta = cb_extends(rs, cfg, 1, lam).beta_min
        rows = cb_region_enumerate(rs, cfg, beta, 3)
        singles = [cb_extends(rs, cfg, beta, mu) for mu in rs.dominant_weights_up_to(3)]
        assert repr(rows) == repr(singles)
        assert any(d.lam == lam and d.extends and d.boundary for d in rows)

    def test_deterministic_order(self):
        rs = build_root_system("A2")
        cfg = SessionConfig("0.5")
        rows = cb_region_enumerate(rs, cfg, 2, 1)
        assert [d.lam for d in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestSupRatioScan:
    def test_extending_case_bounded(self):
        rs = build_root_system("A1")
        cfg = SessionConfig("0.5")
        scan = sup_ratio_scan(rs, cfg, 2, (1,), 12)
        assert scan.decision.extends
        assert scan.max_log_ratio <= Decimal("1e-40")
        assert scan.consistent

    def test_trivial_lambda(self):
        rs = build_root_system("A2")
        cfg = SessionConfig("0.5")
        scan = sup_ratio_scan(rs, cfg, 2, (0, 0), 6)
        # ratio is -|mu| log beta, maximal (zero) at mu = 0
        assert scan.max_log_ratio == 0
        assert scan.argmax == (0, 0)
        assert scan.consistent

    def test_divergent_ray_strictly_increasing(self):
        rs = build_root_system("A1")
        cfg = SessionConfig("0.5")
        scan = sup_ratio_scan(rs, cfg, 2, (4,), 12)
        assert not scan.decision.extends
        assert all(b > a for a, b in zip(scan.ray, scan.ray[1:]))
        assert scan.ray[0] > 0
        assert scan.consistent

    @pytest.mark.parametrize("beta", ["1", "1.5", "2", "4", "8"])
    def test_sign_consistency_grid_a1(self, beta):
        rs = build_root_system("A1")
        cfg = SessionConfig("0.5")
        for lam in rs.dominant_weights_up_to(4):
            assert sup_ratio_scan(rs, cfg, beta, lam, 12).consistent
