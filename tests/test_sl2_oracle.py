import json
from decimal import Context, Decimal
from fractions import Fraction
from math import lcm

import mpmath
import pytest

from qbf import sl2_oracle
from qbf.cli import main
from qbf.root_system import RootSystem
from qbf.sl2_oracle import (
    MAX_SPIN_LABEL,
    _block_indices,
    _eigenvectors,
    _is_eigenbasis,
    build_rmatrix_block,
    build_sl2_rep,
    relation_residuals,
    verify_norm_formula,
)

QS = [Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)]
GRID = [(m, n) for m in range(MAX_SPIN_LABEL + 1) for n in range(MAX_SPIN_LABEL + 1)]


# -- dense references for the generators on V(m) (x) V(n) ----------------------

def _kron(A, B):
    """A (x) B, with (i, j) at index i * len(B) + j, as ``dsq`` is indexed."""
    return [[x * y for x in ra for y in rb] for ra in A for rb in B]


def _plus(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def _apply(A, v):
    return [sum(x * y for x, y in zip(row, v)) for row in A]


def _dense_residuals(rep):
    """relation_residuals by dense products over every entry."""
    def mat(A, B, c=1):
        return [[c * sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]

    def residual(lhs, rhs):
        return max(abs(x - y) for lrow, rrow in zip(lhs, rhs) for x, y in zip(lrow, rrow))

    q, E, F, K = rep.q, rep.e, rep.f, rep.k
    comm = _plus(mat(E, F), mat(F, E, -1))
    target = [[(K[i][i] - 1 / K[i][i]) / (q - 1 / q) if i == j else 0 for j in range(rep.dim)]
              for i in range(rep.dim)]
    return {"KE=q2EK": residual(mat(K, E), mat(E, K, q ** 2)),
            "KF=q-2FK": residual(mat(K, F), mat(F, K, q ** -2)),
            "EF-FE": residual(comm, target)}


# -- reference: R assembled over Q(sqrt(q)) as pairs a + b sqrt(q) -------------

def _half_power(q, p):
    """q^{p/2} as a pair a + b sqrt(q)."""
    if p % 2 == 0:
        return (q ** (p // 2), Fraction(0))
    return (Fraction(0), q ** ((p - 1) // 2))


def _qint(q, k):
    """[k]_q by its closed form."""
    return (q ** k - q ** -k) / (q - 1 / q)


def _series_coeff(q, k):
    """q^{k(k-1)/2} (q - 1/q)^k / [k]_q!."""
    fact = Fraction(1)
    for j in range(1, k + 1):
        fact *= _qint(q, j)
    return q ** (k * (k - 1) // 2) * (q - 1 / q) ** k / fact


def _pair_r_block(q, m, n, idx, flip):
    coeffs = [_series_coeff(q, k) for k in range(min(m, n) + 1)]
    size = len(idx)
    out = [[(Fraction(0), Fraction(0))] * size for _ in range(size)]
    for col, (ic, jc) in enumerate(idx):
        for row, (ir, jr) in enumerate(idx):
            k = ic - ir if not flip else ir - ic
            if k < 0 or k > min(m, n):
                continue
            amp = Fraction(1)
            for t in range(k):
                if not flip:
                    amp *= _qint(q, ic - t) * _qint(q, n - jc - t)
                else:
                    amp *= _qint(q, m - ic - t) * _qint(q, jc - t)
            a, b = _half_power(q, (m - 2 * ir) * (n - 2 * jr))
            out[row][col] = (a * coeffs[k] * amp, b * coeffs[k] * amp)
    return out


def _pair_mul(A, B, q):
    return [[(sum(a * c + b * d * q for (a, b), (c, d) in zip(row, col)),
              sum(a * d + b * c for (a, b), (c, d) in zip(row, col)))
             for col in zip(*B)] for row in A]


def _reference_blocks(q, m, n):
    """Per-block (R, R21 R) with R over Q(sqrt(q)); the sqrt(q) parts of R21 R cancel."""
    out = []
    for idx in _block_indices(m, n):
        r = _pair_r_block(q, m, n, idx, flip=False)
        prod = _pair_mul(_pair_r_block(q, m, n, idx, flip=True), r, q)
        assert all(b == 0 for row in prod for _, b in row)
        out.append((r, tuple(tuple(a for a, _ in row) for row in prod)))
    return out


def _cofactor_det(mat):
    """Laplace expansion along the first row."""
    if not mat:
        return Fraction(1)
    return sum((-1) ** j * mat[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)))


def _leading_minors(mat):
    return [_cofactor_det([row[:k] for row in mat[:k]]) for k in range(1, len(mat) + 1)]


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

    @pytest.mark.parametrize("name", ["e", "f", "k"])
    @pytest.mark.parametrize("i, j", [(0, 0), (0, 3), (3, 0), (2, 1), (1, 2), (3, 3)])
    def test_stray_entries_show_in_the_residuals(self, name, i, j):
        # The products skip zero entries; an entry off the pattern of E, F or K
        # still enters them.
        rep = build_sl2_rep(Fraction(1, 2), 3)
        rows = [list(row) for row in getattr(rep, name)]
        rows[i][j] += Fraction(1, 3)
        stray = rep._replace(**{name: tuple(map(tuple, rows))})
        assert relation_residuals(stray) == _dense_residuals(stray)
        assert any(relation_residuals(stray).values())

    def test_q_validation(self):
        for bad in (0, 1, Fraction(3, 2), -0.5):
            with pytest.raises(ValueError, match="0 < q < 1"):
                build_sl2_rep(bad, 1)
        with pytest.raises(ValueError, match="cap"):
            build_sl2_rep(Fraction(1, 2), 9)
        with pytest.raises(ValueError, match=">= 0"):
            build_sl2_rep(Fraction(1, 2), -1)

    @pytest.mark.parametrize("label", [2.0, 2.5, True, False, "2", None, Fraction(2)],
                             ids=repr)
    @pytest.mark.parametrize("call, name", [
        (lambda label: verify_norm_formula("0.9", label, 2), "m"),
        (lambda label: verify_norm_formula("0.9", 2, label), "n"),
        (lambda label: build_sl2_rep("0.9", label), "n"),
        (lambda label: build_rmatrix_block("0.9", label, 2), "m"),
    ], ids=["verify-m", "verify-n", "rep", "block"])
    def test_a_label_that_is_not_an_int_is_refused(self, call, name, label):
        with pytest.raises(ValueError) as info:
            call(label)
        assert str(info.value) == f"spin label {name} = {label!r} is not an integer"

    def test_float_q_canonicalised(self):
        assert build_sl2_rep(0.3, 1).q == Fraction(3, 10)


class TestRMatrixBlock:
    def test_trivial_leg_gives_identity(self):
        for m, n in [(0, 4), (4, 0)]:
            blk = build_rmatrix_block(Fraction(1, 2), m, n)
            assert blk.r == (((1,),),) * 5
            assert blk.r21r == (((1,),),) * 5

    def test_two_by_two_block_values(self):
        q = Fraction(1, 2)
        blk = build_rmatrix_block(q, 1, 1)
        # Blocks by total weight: [(0,0)], [(0,1), (1,0)], [(1,1)]; mn is odd, so
        # r holds R / sqrt(q).  Diagonal Cartan part q^{(wt_i wt_j)/2}, plus the
        # one series term.
        assert blk.r[0] == ((1,),)                   # sqrt(q)
        assert blk.r[2] == ((1,),)                   # sqrt(q)
        assert blk.r[1][1][1] == 1 / q               # 1/sqrt(q)
        assert blk.r[1][0][1] == (q - 1 / q) / q     # (q - 1/q)/sqrt(q)

    @pytest.mark.parametrize("q", QS + [Fraction(1, 7)])
    def test_matches_sqrt_q_reference(self, q):
        # Up to the oracle cap at q = 9/10, where the entries are largest.
        cap = MAX_SPIN_LABEL if q == Fraction(9, 10) else 5
        for m in range(cap + 1):
            for n in range(cap + 1):
                blk = build_rmatrix_block(q, m, n)
                ref = _reference_blocks(q, m, n)
                assert blk.r21r == tuple(r21r for _, r21r in ref)
                # R / q^{(mn mod 2)/2} is the rational or the sqrt(q) part of each pair.
                part = m * n % 2
                assert blk.r == tuple(tuple(tuple(x[part] for x in row) for row in r)
                                      for r, _ in ref)

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
            assert min(_leading_minors([[w[i] * x for x in row] for i, row in enumerate(block)])) > 0

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
            assert min(r.value for r in report.eigen_rows) > 0

    def test_corrupted_exponents_report_failure(self, corrupted_exponents):
        report = verify_norm_formula(Fraction(1, 2), 2, 3)
        assert not report.passed and not report.exact_multiset_match
        assert report.lambda_max == 0
        assert any("norm mismatch" in f for f in report.failures)

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 3)])
    def test_perturbed_block_report_failure(self, monkeypatch, m, n):
        exact = sl2_oracle.build_rmatrix_block

        def perturbed(q, m, n):
            blk = exact(q, m, n)
            b = next(i for i, block in enumerate(blk.r21r) if len(block) >= 2)
            rows = [list(row) for row in blk.r21r[b]]
            rows[0][1] += Fraction(1, 10 ** 12)
            r21r = blk.r21r[:b] + (tuple(map(tuple, rows)),) + blk.r21r[b + 1:]
            return blk._replace(r21r=r21r)

        monkeypatch.setattr(sl2_oracle, "build_rmatrix_block", perturbed)
        report = verify_norm_formula(Fraction(1, 2), m, n)
        assert not report.passed and not report.exact_multiset_match
        # The perturbed row 0 breaks the block's first vector, that of nu = m + n,
        # whose value is q^{-E(m + n)} = q^{mn}; the block is the first of size 2,
        # at total weight m + n - 2.
        assert report.failures == (
            f"block at weight {m + n - 2}: no eigenvector of R21 R passes for q^{m * n}",
            "exact eigenvalue multiset certification failed")

    def _with_exponents(self, monkeypatch, new_exponent):
        exact = sl2_oracle.rmatrix_exponent_details

        def patched(rs, lam, mu):
            details = exact(rs, lam, mu)
            lowest = min(e for _, _, e in details.table)  # -mn, at nu = m + n
            table = tuple((nu, mult, new_exponent(e, lowest)) for nu, mult, e in details.table)
            return details._replace(table=table)

        monkeypatch.setattr(sl2_oracle, "rmatrix_exponent_details", patched)

    def test_lower_eigenvalues_are_certified_too(self, monkeypatch):
        # Every exponent but the one of the largest eigenvalue q^{-mn} is shifted.
        self._with_exponents(monkeypatch, lambda e, lowest: e if e == lowest else e + 1)
        report = verify_norm_formula(Fraction(1, 2), 2, 3)
        assert not report.passed and not report.exact_multiset_match
        assert report.lambda_max == 2 ** 6  # only the 1x1 extreme blocks certify

    def test_repeated_predicted_eigenvalue_reports_failure(self, monkeypatch):
        # Every predicted value equal to the true largest one: each is a root of the
        # characteristic polynomial, but a block of size >= 2 then has no certificate.
        self._with_exponents(monkeypatch, lambda e, lowest: lowest)
        report = verify_norm_formula(Fraction(1, 2), 2, 3)
        assert not report.passed and not report.exact_multiset_match
        assert any("not distinct" in f for f in report.failures)
        assert all(f.startswith("block at weight") for f in report.failures if "not distinct" in f)

    def _with_table(self, monkeypatch, edit):
        """The fusion table, as a list of (nu, mult, e), changed in place by edit."""
        exact = sl2_oracle.rmatrix_exponent_details

        def patched(rs, lam, mu):
            details = exact(rs, lam, mu)
            table = list(details.table)
            edit(table)
            return details._replace(table=tuple(table))

        monkeypatch.setattr(sl2_oracle, "rmatrix_exponent_details", patched)

    def test_count_mismatch_names_its_block(self, monkeypatch):
        # Without nu = 0, the middle block of 2 (x) 2, at weight 0 and of size 3,
        # has two predicted values; every other block is still certified.
        self._with_table(monkeypatch, lambda table: table.pop())
        report = verify_norm_formula(Fraction(1, 2), 2, 2)
        assert not report.passed and not report.exact_multiset_match
        assert report.lambda_max == 2 ** 4
        assert report.failures == ("block at weight 0: 2 predicted vs size 3",
                                   "isotypical multiplicities do not fill the tensor product",
                                   "exact eigenvalue multiset certification failed")

    @pytest.mark.parametrize("patch", ["weyl_dim", "table"])
    def test_isotypical_multiplicities_are_checked(self, monkeypatch, patch):
        # Either dim V(0) read as 2, or the component nu = 0 of 2 (x) 2 moved to
        # nu = 1, which every block filters as it filtered nu = 0: every block is
        # certified and only the multiplicities fail, in every row too.
        if patch == "weyl_dim":
            exact = RootSystem.weyl_dim
            monkeypatch.setattr(RootSystem, "weyl_dim",
                                lambda rs, mu: exact(rs, mu) + (tuple(mu) == (0,)))
        else:
            self._with_table(monkeypatch, lambda table: table.append(((1,), *table.pop()[1:])))
        report = verify_norm_formula(Fraction(1, 2), 2, 2)
        assert not report.passed and not report.exact_multiset_match
        assert report.lambda_max == 2 ** 4
        assert report.failures == ("isotypical multiplicities do not fill the tensor product",
                                   "exact eigenvalue multiset certification failed")
        assert not any(row.verified_exact for row in report.eigen_rows)
        assert sum(row.multiplicity for row in report.eigen_rows) == 10

    @pytest.mark.parametrize("q, m, n", [("1/7", 7, 5), ("1/3", 8, 8), ("0.9", 8, 8),
                                         ("0." + "9" * 53, 8, 8)],
                             ids=["1/7", "1/3", "0.9", "1-10^-53"])
    def test_rows_are_the_certified_power_rounded_once(self, q, m, n, capsys):
        # At --precision 50 each printed row is q^E rounded once to 50 digits,
        # against mpmath at 120 digits: its value, and all 50 digits unless the
        # row is q^E exactly.
        assert main(["--precision", "50", "oracle-sl2", "--q", q, "--m", str(m), "--n", str(n),
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["eigenvalues"]
        assert len(rows) == min(m, n) + 1
        qf = Fraction(q)
        with mpmath.workdps(120):
            qm = mpmath.mpf(qf.numerator) / qf.denominator
            for row in rows:
                power = Decimal(mpmath.nstr(qm ** row["exponent"], 120))
                value = Decimal(row["value"])
                assert value == Context(prec=50).plus(power), row
                assert (Fraction(value) == qf ** row["exponent"]
                        or len(value.as_tuple().digits) == 50), row


# Ways for the eigenvector builder to hand back vectors that certify nothing.
_WRONG_VECTORS = {
    "zero": lambda vectors: [[0] * len(x) for x in vectors],
    "rotated": lambda vectors: vectors[1:] + vectors[:1],
    "perturbed": lambda vectors: [[x[0] + 1, *x[1:]] for x in vectors],
    "short": lambda vectors: [x[:-1] for x in vectors],
    "missing": lambda vectors: vectors[:-1],
    "surplus": lambda vectors: vectors + vectors[:1],
}


def _block_values(report):
    """Per total-weight block s, its predicted values q^{-E(nu)} of R21 R, nu >= |m + n - 2s|
    in decreasing order, from the report's rows."""
    top = report.m + report.n
    return [[report.q ** -row.exponent for row in report.eigen_rows if row.nu >= abs(top - 2 * s)]
            for s in range(top + 1)]


def _is_root(block, c):
    """det(block - c I) == 0, by cofactor expansion on the integer matrix
    d (block - c I), d the lcm of every denominator."""
    shifted = [[x - c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(block)]
    d = lcm(*(x.denominator for row in shifted for x in row))
    return _cofactor_det([[int(x * d) for x in row] for row in shifted]) == 0


def _block_failures(report):
    """The failure lines that name a block."""
    return [f for f in report.failures if f.startswith("block at weight")]


class TestEigenvectorCertificate:
    @pytest.mark.parametrize("q", QS + [Fraction(1, 7)])
    def test_every_block_is_certified_without_elimination(self, q, monkeypatch):
        reports = [verify_norm_formula(q, m, n) for m, n in GRID]
        assert all(report.passed for report in reports)
        # A reference that shares no code with the certificate: on each block of
        # size <= 5, every predicted value is a root of its characteristic polynomial.
        for (m, n), report in zip(GRID, reports):
            blk = build_rmatrix_block(q, m, n)
            for block, values in zip(blk.r21r, _block_values(report)):
                if len(block) <= 5:
                    assert all(_is_root(block, c) for c in values)
        # With no vectors, every block fails and is named once, with its first
        # value, that of nu = m + n: q^{-E(m + n)} = q^{mn}.
        monkeypatch.setattr(sl2_oracle, "_eigenvectors", lambda q, m, n: {})
        for m, n in GRID:
            report = verify_norm_formula(q, m, n)
            assert not report.passed and not report.exact_multiset_match
            assert report.lambda_max == 0
            assert _block_failures(report) == [
                f"block at weight {m + n - 2 * s}: no eigenvector of R21 R passes for q^{m * n}"
                for s in range(m + n + 1)]

    @pytest.mark.parametrize("kind", sorted(_WRONG_VECTORS))
    def test_wrong_vectors_fail_every_report(self, kind, monkeypatch):
        q = Fraction(9, 10)
        exact, wrong = sl2_oracle._eigenvectors, _WRONG_VECTORS[kind]
        monkeypatch.setattr(sl2_oracle, "_eigenvectors", lambda q, m, n: {
            s: wrong(vectors) for s, vectors in exact(q, m, n).items()})
        for m, n in GRID:
            report = verify_norm_formula(q, m, n)
            # Rotating a single vector or adding 1 to it leaves an eigenvector of
            # a 1 x 1 block, and with a trivial leg (m or n = 0) every block is 1 x 1.
            if min(m, n) == 0 and kind in ("rotated", "perturbed"):
                assert report.passed
                continue
            assert not report.passed and not report.exact_multiset_match
            assert _block_failures(report)

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (4, 2), (3, 5), (0, 3)])
    def test_vectors_follow_the_coproduct(self, q, m, n):
        # Each copy's top vector is killed by Delta(E) = E (x) K + 1 (x) E, and
        # Delta(F) = F (x) 1 + K^{-1} (x) F maps each vector of the copy to a
        # nonzero multiple of the next one down.
        a, b = build_sl2_rep(q, m), build_sl2_rep(q, n)
        ones = [[Fraction(int(i == j)) for j in range(m + 1)] for i in range(m + 1)]
        kinv = [[1 / x if x else x for x in row] for row in a.k]
        delta_e = _plus(_kron(a.e, b.k), _kron(ones, b.e))
        delta_f = _plus(_kron(a.f, [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]),
                        _kron(kinv, b.f))
        blocks, vectors = _block_indices(m, n), _eigenvectors(q, m, n)

        def full(s, t):
            v = [0] * ((m + 1) * (n + 1))
            for (i, j), x in zip(blocks[s], vectors[s][t]):
                v[i * (n + 1) + j] = x
            return v

        for t in range(min(m, n) + 1):
            assert any(full(t, t)) and not any(_apply(delta_e, full(t, t)))
            for s in range(t, m + n - t):
                image, below = _apply(delta_f, full(s, t)), full(s + 1, t)
                assert any(image) and all(x * below[k] == y * image[k]
                                          for x, y in zip(image, below) for k in range(len(image)))

    def test_eigenbasis_check(self):
        # Eigenvalue 1/2 on (1, 0) and 1/5 on (10, -9).
        mat = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(0), Fraction(1, 5)))
        values = [Fraction(1, 2), Fraction(1, 5)]
        assert _is_eigenbasis(mat, [[1, 0], [10, -9]], values)
        assert _is_eigenbasis(mat, [[-3, 0], [Fraction(-10, 9), 1]], values)
        for wrong in ([[1, 0], [0, 0]], [[1, 0]], [[1, 0], [10, -9], [1, 0]],
                      [[1, 0], [10, 9]], [[10, -9], [1, 0]], [[1], [10]]):
            assert not _is_eigenbasis(mat, wrong, values)
