from decimal import Context, Decimal

import pytest

from qbf.cb_region import cb_extends, cb_region_enumerate, sup_ratio_scan
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
