from fractions import Fraction

import pytest

from qbf.root_system import _is_positive_definite
from qbf.sl2_oracle import (
    build_rmatrix_block,
    build_sl2_rep,
    relation_residuals,
    verify_norm_formula,
)

QS = [Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)]


class TestSl2Rep:
    def test_trivial_rep_is_scalar(self):
        rep = build_sl2_rep(Fraction(1, 2), 0)
        assert (rep.e, rep.f, rep.k) == (((0,),), ((0,),), ((1,),))

    def test_fundamental_rep(self):
        q = Fraction(1, 2)
        rep = build_sl2_rep(q, 1)
        assert rep.k == ((q, 0), (0, 1 / q))
        # [1]_q = 1, so EF - FE = diag(1, -1)
        assert rep.e == ((0, 1), (0, 0))
        assert rep.f == ((0, 0), (1, 0))

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("n", range(0, 9))
    def test_relation_residuals_small(self, q, n):
        rep = build_sl2_rep(q, n)
        assert relation_residuals(rep) == {"KE=q2EK": 0, "KF=q-2FK": 0, "EF-FE": 0}

    def test_q_validation(self):
        for bad in (0, 1, Fraction(3, 2), -0.5):
            with pytest.raises(ValueError, match="0 < q < 1"):
                build_sl2_rep(bad, 1)
        with pytest.raises(ValueError, match="cap"):
            build_sl2_rep(Fraction(1, 2), 9)
        with pytest.raises(ValueError, match=">= 0"):
            build_sl2_rep(Fraction(1, 2), -1)

    def test_float_q_canonicalised(self):
        assert build_sl2_rep(0.3, 1).q == Fraction(3, 10)


class TestRMatrixBlock:
    def test_trivial_leg_gives_identity(self):
        for m, n in [(0, 4), (4, 0)]:
            blk = build_rmatrix_block(Fraction(1, 2), m, n)
            assert blk.r == ((((1, 0),),),) * 5
            assert blk.r21r == (((1,),),) * 5

    def test_two_by_two_block_values(self):
        q = Fraction(1, 2)
        blk = build_rmatrix_block(q, 1, 1)
        # Blocks by total weight: [(0,0)], [(0,1), (1,0)], [(1,1)]; entries a + b sqrt(q).
        # Diagonal Cartan part q^{(wt_i wt_j)/2}, plus the one series term.
        assert blk.r[0] == (((0, 1),),)                  # sqrt(q)
        assert blk.r[2] == (((0, 1),),)                  # sqrt(q)
        assert blk.r[1][1][1] == (0, 1 / q)              # 1/sqrt(q)
        assert blk.r[1][0][1] == (0, (q - 1 / q) / q)    # (q - 1/q)/sqrt(q)

    def test_r21r_eigenvalue_exponents_one_one(self):
        q = Fraction(1, 2)
        blk = build_rmatrix_block(q, 1, 1)
        # R21 R has exponents {+1 x3, -3}: q on each 1x1 block, and the middle
        # 2x2 block has the characteristic polynomial of {q, q^-3}.
        assert blk.r21r[0] == ((q,),) and blk.r21r[2] == ((q,),)
        (a, b), (c, d) = blk.r21r[1]
        assert a + d == q + q ** -3
        assert a * d - b * c == q * q ** -3

    @pytest.mark.parametrize("q", QS)
    def test_self_adjoint_rendering(self, q):
        for m, n in [(1, 2), (2, 2), (3, 1), (4, 3)]:
            blk = build_rmatrix_block(q, m, n)
            for idx, block in zip(blk.blocks, blk.r21r):
                w = [blk.dsq[i * (n + 1) + j] for i, j in idx]
                for i, row in enumerate(block):
                    for j, x in enumerate(row):
                        assert w[i] * x == w[j] * block[j][i]

    def test_positive_definite_small(self):
        blk = build_rmatrix_block(Fraction(1, 2), 2, 2)
        for idx, block in zip(blk.blocks, blk.r21r):
            w = [blk.dsq[i * 3 + j] for i, j in idx]
            assert _is_positive_definite([[w[i] * x for x in row] for i, row in enumerate(block)])

    def test_exact_blocks_are_rational(self):
        blk = build_rmatrix_block(Fraction(9, 10), 3, 2)
        for block in blk.r21r:
            for row in block:
                for entry in row:
                    assert isinstance(entry, Fraction)


class TestVerifyNormFormula:
    def test_one_one_half(self):
        report = verify_norm_formula(Fraction(1, 2), 1, 1)
        assert report.passed
        # Lambda_max = q^{-1} = 2, so the norm is 2^{1/2}
        assert report.lambda_max == 2
        assert report.norm_computed == report.norm_expected
        rows = {r.nu: (r.exponent, r.multiplicity) for r in report.eigen_rows}
        assert rows == {2: (-1, 3), 0: (3, 1)}

    def test_trivial_factor_norm_one(self):
        report = verify_norm_formula(Fraction(1, 2), 0, 3)
        assert report.passed
        assert report.lambda_max == 1 and report.norm_computed == 1

    @pytest.mark.parametrize("q", QS)
    def test_norm_reproduces_threshold_structure(self, q):
        # m = 2s, n = 2t gives norm q^{-2st}
        for m, n in [(2, 2), (2, 4), (4, 4)]:
            report = verify_norm_formula(q, m, n)
            assert report.passed
            assert report.lambda_max == q ** (-m * n)

    @pytest.mark.parametrize("q", QS)
    def test_eigen_multiset_verified_exactly(self, q):
        for m, n in [(1, 3), (3, 3), (4, 2)]:
            report = verify_norm_formula(q, m, n)
            assert report.exact_multiset_match
            assert all(r.verified_exact for r in report.eigen_rows)
            assert sum(r.multiplicity for r in report.eigen_rows) == (m + 1) * (n + 1)
            assert report.min_eigenvalue > 0

    def test_corrupted_exponents_report_failure(self, corrupted_exponents):
        report = verify_norm_formula(Fraction(1, 2), 2, 3)
        assert not report.passed and not report.exact_multiset_match
        assert report.lambda_max == 0
        assert any("norm mismatch" in f for f in report.failures)
