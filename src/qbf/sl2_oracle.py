"""Independent exact check of the central norm formula for rank one.

Builds explicit U_q(sl2) irreducibles, the (finitely truncated) R-matrix on
V(m) (x) V(n), and the positive block (R21 R)^{-1}, then certifies that its
spectrum is the fusion-predicted eigenvalues q^{E(nu)} and that its largest
eigenvalue equals the closed form q^{-mn} (so the norm is q^{-mn/2}).

Generator conventions on the weight basis e_0..e_n:

    E e_j = [j]_q e_{j-1},   F e_j = [n-j]_q e_{j+1},   K e_j = q^{n-2j} e_j,

with q-integers [k]_q = (q^k - q^{-k})/(q - q^{-1}).  The R-matrix is

    R = q^{H(x)H/2} . sum_k q^{k(k-1)/2} (q-q^{-1})^k / [k]_q!  E^k (x) F^k,

truncated at k = min(m, n) by nilpotency, with q^{H(x)H/2} acting on a pair of
weight vectors as q^{(wt_i wt_j)/2}; E^k acts on the first (m) leg.  R21 is
the same series with the legs of E and F exchanged.

Everything is exact: each weight product (m-2i)(n-2j) has the parity of mn,
so R is q^{(mn mod 2)/2} times a rational matrix and R21 R is q^{mn mod 2}
times the product of the two rational matrices.  R21 R is block diagonal over
total-weight subspaces of dimension <= min(m,n)+1, and each block is
self-adjoint for the inner product with diagonal weights d^2 determined by the
compact-form star structure (E* = FK).  Each block is certified by checking
that its size predicted values q^{E(nu)} are pairwise distinct and that
R21 R - q^{-E(nu)} is singular for each: they are then its whole spectrum, each
simple, so the norm comparison is an equality of rationals.  No floating
point is involved: a dense eigensolve of the full block would lose the small
eigenvalues entirely, since the condition number reaches q^{-84} ~ 1e44 at
q = 0.3, m = n = 6.

The exact kernels keep Fraction arithmetic out of their inner loops: each
construction tabulates [k]_q, [k]_q! and the series coefficients once, block
products are summed on ints over common denominators, and singularity is
decided by fraction-free (Bareiss) elimination on ints
(:func:`qbf.root_system._is_singular`).  Nothing is memoised across calls.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import NamedTuple

from . import precision
from .qnorm import QExponent, _check_q, rmatrix_exponent_details
from .root_system import _is_singular, build_root_system

# Spin-label cap bounding the exact-arithmetic cost: the numerators and
# denominators of the certificate's rationals grow with m * n.
MAX_SPIN_LABEL = 8

Matrix = tuple[tuple[Fraction, ...], ...]


def _check_labels(**labels: int) -> None:
    """A ValueError naming the first spin label outside 0..MAX_SPIN_LABEL."""
    for name, label in labels.items():
        if not 0 <= label <= MAX_SPIN_LABEL:
            raise ValueError(f"spin label {name} = {label} must be >= 0 and within "
                             f"the oracle cap {MAX_SPIN_LABEL}")


def _qints(q: Fraction, kmax: int) -> list[Fraction]:
    """[k]_q for k = 0..kmax, by [k+1]_q = q [k]_q + q^{-k}."""
    out = [Fraction(0)]
    for k in range(kmax):
        out.append(q * out[-1] + q ** -k)
    return out


def _matmul(A, B) -> list[list[Fraction]]:
    """Exact product of two rational matrices, summed on ints over common denominators."""
    da = lcm(*(x.denominator for row in A for x in row))
    db = lcm(*(x.denominator for row in B for x in row))
    rows = [[x.numerator * (da // x.denominator) for x in row] for row in A]
    cols = [[x.numerator * (db // x.denominator) for x in col] for col in zip(*B)]
    return [[Fraction(sum(map(mul, row, col)), da * db) for col in cols] for row in rows]


class Sl2Rep(NamedTuple):
    """Irreducible U_q(sl2) representation of highest weight n (dimension n+1)."""

    q: Fraction
    n: int
    e: Matrix
    f: Matrix
    k: Matrix

    @property
    def dim(self) -> int:
        return self.n + 1


def build_sl2_rep(q, n: int) -> Sl2Rep:
    """Generator matrices for the (n+1)-dimensional irreducible."""
    qf = _check_q(q)
    _check_labels(n=n)
    d = n + 1
    qint = _qints(qf, n)
    E = [[Fraction(0)] * d for _ in range(d)]
    F = [[Fraction(0)] * d for _ in range(d)]
    K = [[Fraction(0)] * d for _ in range(d)]
    for j in range(d):
        K[j][j] = qf ** (n - 2 * j)
        if j >= 1:
            E[j - 1][j] = qint[j]
        if j < n:
            F[j + 1][j] = qint[n - j]
    freeze = lambda M: tuple(map(tuple, M))
    return Sl2Rep(q=qf, n=n, e=freeze(E), f=freeze(F), k=freeze(K))


def relation_residuals(rep: Sl2Rep) -> dict[str, Fraction]:
    """Exact residuals of the defining relations: the largest |entry| of lhs - rhs.

    Every residual is zero for a correct representation.
    """
    q, E, F, K = rep.q, rep.e, rep.f, rep.k

    def residual(lhs, rhs, c=1):
        return max(abs(x - c * y) for lrow, rrow in zip(lhs, rhs) for x, y in zip(lrow, rrow))

    ef, fe = _matmul(E, F), _matmul(F, E)
    comm = [[x - y for x, y in zip(r, s)] for r, s in zip(ef, fe)]
    target = [[(K[i][i] - 1 / K[i][i]) / (q - 1 / q) if i == j else 0 for j in range(rep.dim)]
              for i in range(rep.dim)]
    return {
        "KE=q2EK": residual(_matmul(K, E), _matmul(E, K), q ** 2),
        "KF=q-2FK": residual(_matmul(K, F), _matmul(F, K), q ** -2),
        "EF-FE": residual(comm, target),
    }


def _block_indices(m: int, n: int) -> list[list[tuple[int, int]]]:
    """Tensor indices (i, j) grouped by s = i + j (constant total weight)."""
    return [[(i, s - i) for i in range(max(0, s - n), min(m, s) + 1)]
            for s in range(m + n + 1)]


def _series_coeffs(q: Fraction, qfact: list[Fraction], kmax: int) -> list[Fraction]:
    """q^{k(k-1)/2} (q - 1/q)^k / [k]_q! for k = 0..kmax, from the table qfact of [k]_q!."""
    return [q ** (k * (k - 1) // 2) * (q - 1 / q) ** k / qfact[k] for k in range(kmax + 1)]


def _r_block(q: Fraction, m: int, n: int, idx: list[tuple[int, int]],
             qfact: list[Fraction], coeffs: list[Fraction], flip: bool) -> list[list[Fraction]]:
    """One total-weight block of (pi_m (x) pi_n)(R) / q^{(mn mod 2)/2}, or of R21 when flip is set.

    ``qfact`` tabulates [k]_q! for k <= max(m, n) and ``coeffs`` the series
    coefficients for k <= min(m, n).
    """
    size = len(idx)
    out = [[Fraction(0)] * size for _ in range(size)]
    for col, (ic, jc) in enumerate(idx):
        for row, (ir, jr) in enumerate(idx):
            k = ic - ir if not flip else ir - ic
            if k < 0 or k > min(m, n):
                continue
            # E^k on the m-leg and F^k on the n-leg, or F^k and E^k when flipped:
            # the amplitudes are [a]!/[a-k]! [b]!/[b-k]!.
            a, b = (ic, n - jc) if not flip else (m - ic, jc)
            amp = qfact[a] * qfact[b] / (qfact[a - k] * qfact[b - k])
            wrow = (m - 2 * ir) * (n - 2 * jr)
            # q^{wrow/2} = q^{(mn mod 2)/2} q^{wrow // 2} needs wrow = mn (mod 2).
            if wrow % 2 != m * n % 2:
                raise AssertionError(f"weight product {wrow} does not have the parity of mn = {m * n}")
            out[row][col] = coeffs[k] * amp * q ** (wrow // 2)
    return out


def _dsq_leg(q: Fraction, n: int, qint: list[Fraction]) -> list[Fraction]:
    # d_{j+1}^2/d_j^2 = q^{-(n-2j)} [j+1]/[n-j]: unitarises the basis for E* = FK.
    out = [Fraction(1)]
    for j in range(n):
        out.append(out[-1] * qint[j + 1] / (qint[n - j] * q ** (n - 2 * j)))
    return out


class RMatrixBlock(NamedTuple):
    """The R-matrix on V(m) (x) V(n) and the positive product block (R21 R).

    Both are stored per total-weight block, in the plain weight basis of the
    generator matrices, with rational entries: ``r`` holds R / q^{(mn mod 2)/2}
    (the one irrational factor of R, common to every entry, is divided out)
    and ``r21r`` holds R21 R itself.  ``r21r`` is self-adjoint for the inner
    product with diagonal weights ``dsq``, i.e. D^2 . r21r is symmetric.
    """

    q: Fraction
    m: int
    n: int
    blocks: tuple[tuple[tuple[int, int], ...], ...]   # total-weight index groups
    r: tuple[Matrix, ...]                 # per-block (pi_m (x) pi_n)(R) / q^{(mn mod 2)/2}
    r21r: tuple[Matrix, ...]              # per-block (pi_m (x) pi_n)(R21 R)
    dsq: tuple[Fraction, ...]             # diagonal of the unitarising D^2, index i*(n+1)+j

    @property
    def dim(self) -> int:
        return (self.m + 1) * (self.n + 1)


def build_rmatrix_block(q, m: int, n: int) -> RMatrixBlock:
    """Exact construction of R and R21 R on V(m) (x) V(n).

    R21 R is q^{mn mod 2} times the product of the rational blocks of R21 and
    R.  Raises if a weight product does not have the parity of mn or if R21 R
    is not self-adjoint for the exact D^2 inner product (both would indicate
    a convention bug).
    """
    qf = _check_q(q)
    _check_labels(m=m, n=n)
    dn = n + 1
    qint = _qints(qf, max(m, n))
    qfact = list(accumulate(qint[1:], mul, initial=Fraction(1)))
    coeffs = _series_coeffs(qf, qfact, min(m, n))
    dm_sq = _dsq_leg(qf, m, qint)
    dn_sq = _dsq_leg(qf, n, qint)
    dsq = [dm_sq[i] * dn_sq[j] for i in range(m + 1) for j in range(n + 1)]

    scale = qf ** (m * n % 2)
    idx_blocks = _block_indices(m, n)
    r_blocks = []
    exact_blocks = []
    for idx in idx_blocks:
        rb = _r_block(qf, m, n, idx, qfact, coeffs, flip=False)
        rational = [[scale * x for x in row]
                    for row in _matmul(_r_block(qf, m, n, idx, qfact, coeffs, flip=True), rb)]
        w = [dsq[i * dn + j] for i, j in idx]
        size = len(idx)
        for i in range(size):
            for j in range(size):
                if w[i] * rational[i][j] != rational[j][i] * w[j]:
                    raise AssertionError("R21 R is not self-adjoint for the D^2 inner product")
        r_blocks.append(tuple(map(tuple, rb)))
        exact_blocks.append(tuple(map(tuple, rational)))

    return RMatrixBlock(
        q=qf, m=m, n=n,
        blocks=tuple(tuple(idx) for idx in idx_blocks),
        r=tuple(r_blocks),
        r21r=tuple(exact_blocks),
        dsq=tuple(dsq),
    )


class EigenRow(NamedTuple):
    nu: int                   # fusion component (m + n - 2j)
    exponent: int             # E(nu) for the inverse block
    multiplicity: int         # dim V(nu)
    value: Decimal            # q^{E(nu)}
    verified_exact: bool


class OracleReport(NamedTuple):
    q: Fraction
    m: int
    n: int
    passed: bool
    lambda_max: Fraction          # largest certified eigenvalue of (R21 R)^{-1}
    norm_computed: Decimal        # sqrt(lambda_max)
    norm_expected: Decimal        # q^{-mn/2}
    eigen_rows: tuple[EigenRow, ...]
    exact_multiset_match: bool
    relation_residual: Fraction   # largest exact residual of the generator relations
    failures: tuple[str, ...] = ()


def verify_norm_formula(q, m: int, n: int) -> OracleReport:
    """Full exact oracle run for one (q, m, n) triple.

    Checks, in order: the generator relations over Q, the eigenvalue
    multiset of the (R21 R)^{-1} block against the fusion-predicted exponents
    with their isotypical multiplicities, and the largest certified
    eigenvalue against q^{-mn} as an equality of rationals.  A block whose
    certificate fails contributes no eigenvalue, so ``lambda_max`` is 0 when
    no block is certified.
    """
    _check_labels(m=m, n=n)
    qf = _check_q(q)
    ctx = precision.make_context()
    failures: list[str] = []

    rel = max(max(relation_residuals(build_sl2_rep(qf, label)).values()) for label in {m, n})
    if rel:
        failures.append(f"generator relation residual {rel} is not zero")

    block = build_rmatrix_block(qf, m, n)

    # Fusion-predicted exponents, via the general-rank machinery on A1.
    rs = build_root_system("A1")
    details = rmatrix_exponent_details(rs, (n,), (m,))
    predicted: dict[int, tuple[int, int]] = {}
    for (nu,), mult, e in details.table:
        if mult != 1 or e.denominator != 1:
            failures.append(f"unexpected fusion data at nu={nu}")
        predicted[nu] = (int(e), rs.weyl_dim((nu,)))

    # Exact spectrum certification, block by block over total weight.
    exact_ok = True
    certified: list[Fraction] = []
    for idx, exact in zip(block.blocks, block.r21r):
        s = idx[0][0] + idx[0][1]
        w = abs(m + n - 2 * s)
        exps = [predicted[nu][0] for nu in sorted(predicted, reverse=True) if nu >= w]
        size = len(idx)
        if len(exps) != size:
            exact_ok = False
            failures.append(f"block at weight {m + n - 2 * s}: {len(exps)} predicted vs size {size}")
            continue
        # size distinct roots of the characteristic polynomial are the whole spectrum.
        if len(set(exps)) != size:
            exact_ok = False
            failures.append(f"predicted eigenvalues on weight-{m + n - 2 * s} block are not distinct")
            continue
        for e in exps:
            c = qf ** -e
            if not _is_singular([[x - c if i == j else x for j, x in enumerate(row)]
                                 for i, row in enumerate(exact)]):
                exact_ok = False
                failures.append(f"R21 R - q^{-e} is not singular on weight-{m + n - 2 * s} block")
                break
        else:
            certified.extend(qf ** e for e in exps)

    qd = precision.to_decimal(qf, ctx)
    eigen_rows = []
    for nu in sorted(predicted, reverse=True):
        e, mult = predicted[nu]
        eigen_rows.append(EigenRow(nu=nu, exponent=e, multiplicity=mult,
                                   value=ctx.power(qd, e), verified_exact=exact_ok))
    total_mult = sum(mult for _, mult in predicted.values())
    if total_mult != (m + 1) * (n + 1):
        exact_ok = False
        failures.append("isotypical multiplicities do not fill the tensor product")

    lam_max = max(certified, default=Fraction(0))
    norm_expected = QExponent(Fraction(-m * n, 2)).q_power(qf)
    # The same exp/ln route as QExponent.q_power, so equal norms render alike.
    norm_computed = ctx.exp(ctx.divide(ctx.ln(precision.to_decimal(lam_max, ctx)), 2))

    if not exact_ok:
        failures.append("exact eigenvalue multiset certification failed")
    if lam_max != qf ** (-m * n):
        failures.append(f"norm mismatch: {norm_computed} vs {norm_expected}")

    return OracleReport(
        q=qf, m=m, n=n,
        passed=not failures,
        lambda_max=lam_max,
        norm_computed=norm_computed,
        norm_expected=norm_expected,
        eigen_rows=tuple(eigen_rows),
        exact_multiset_match=exact_ok,
        relation_residual=rel,
        failures=tuple(failures),
    )
