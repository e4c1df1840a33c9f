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
compact-form star structure (E* = FK).  No floating point is involved: a
dense eigensolve of the full block would lose the small eigenvalues
entirely, since the condition number reaches q^{-84} ~ 1e44 at q = 0.3,
m = n = 6.

Each block is certified by its size predicted values q^{-E(nu)} of R21 R:
they must be pairwise distinct, and each must have a nonzero exact
eigenvector in the block.  Eigenvectors of distinct eigenvalues are
independent, so the values are then the block's whole spectrum, each simple,
and the norm comparison is an equality of rationals.  The vectors come from
the coproduct R is built for,

    Delta(E) = E (x) K + 1 (x) E,   Delta(F) = F (x) 1 + K^{-1} (x) F,

which commutes with R21 R: the highest-weight vector of the copy of V(nu),
nu = m + n - 2t, is the kernel of Delta(E) on block t, which a two-term
recurrence gives, and Delta(F) carries it down one block at a time.  R21 R
acts on the copy as one scalar.  Each vector is checked against the block
as handed to the certificate, on ints, in O(size^2); nothing about the
block is assumed from its construction.  These vectors are the only
certificate: a block without a full set of vectors that pass fails, names
the first value without one, and contributes no eigenvalue.  Each block
reaches its verdict in one pass and any fault is one line naming its
weight.  A report has one verdict, which its rows repeat, and each row
prints the exact q^{E(nu)} the certificate compared, rounded once.

The exact kernels keep Fraction arithmetic out of their inner loops: each
construction tabulates q-powers, [k]_q, the falling q-factorials
[a]_q!/[a-k]_q! and the series coefficients once, an entry of R is one
reduced product of table values, and block products, the self-adjointness
check and the eigenvector checks run on ints over common denominators.
Nothing is memoised across calls.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from . import precision
from .qnorm import QExponent, _check_q, rmatrix_exponent_details
from .root_system import _scaled, build_root_system

# Spin-label cap bounding the exact-arithmetic cost: the numerators and
# denominators of the certificate's rationals grow with m * n.  At q = 9/10
# one run takes 12 ms at m = n = 8, 66 ms at 12 and 0.36 s at 16 (CPython
# 3.11, one Xeon core, warm).
MAX_SPIN_LABEL = 8

Matrix = tuple[tuple[Fraction, ...], ...]


def _check_labels(**labels: int) -> None:
    """A ValueError naming the first spin label that is not an int (a bool is
    not) or lies outside 0..MAX_SPIN_LABEL."""
    for name, label in labels.items():
        if isinstance(label, bool) or not isinstance(label, int):
            raise ValueError(f"spin label {name} = {label!r} is not an integer")
        if not 0 <= label <= MAX_SPIN_LABEL:
            raise ValueError(f"spin label {name} = {label} must be >= 0 and within "
                             f"the oracle cap {MAX_SPIN_LABEL}")


def _qints(q: Fraction, kmax: int) -> list[Fraction]:
    """[k]_q for k = 0..kmax, by [k+1]_q = q [k]_q + q^{-k}."""
    out = [Fraction(0)]
    for k in range(kmax):
        out.append(q * out[-1] + q ** -k)
    return out


def _qpowers(q: Fraction, top: int) -> dict[int, Fraction]:
    """q^e for |e| <= top, each one multiplication from the last."""
    out = {0: Fraction(1)}
    inv = 1 / q
    for e in range(1, top + 1):
        out[e], out[-e] = out[e - 1] * q, out[1 - e] * inv
    return out


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


def _product(*factors: Fraction) -> Fraction:
    """The product of rationals, reduced once rather than after every factor."""
    num = den = 1
    for x in factors:
        num *= x.numerator
        den *= x.denominator
    return Fraction(num, den)


def _sparse_product(A, B) -> dict[tuple[int, int], Fraction]:
    """The entries of A B that some pair of nonzero entries reaches, by position."""
    rows_b = [[(j, y) for j, y in enumerate(row) if y] for row in B]
    out: dict[tuple[int, int], Fraction] = {}
    for i, row in enumerate(A):
        for k, x in enumerate(row):
            if x:
                for j, y in rows_b[k]:
                    out[i, j] = out.get((i, j), 0) + x * y
    return out


def relation_residuals(rep: Sl2Rep) -> dict[str, Fraction]:
    """Exact residuals of the defining relations: the largest |entry| of lhs - rhs.

    Every residual is zero for a correct representation.  Products are
    summed over nonzero entries only (E, F and K each have at most one per
    row), and an entry that neither side reaches is zero on both.
    """
    q, E, F, K = rep.q, rep.e, rep.f, rep.k

    def residual(lhs, rhs, c=1):
        return Fraction(max((abs(lhs.get(key, 0) - c * rhs.get(key, 0))
                             for key in lhs.keys() | rhs.keys()), default=0))

    ef, fe = _sparse_product(E, F), _sparse_product(F, E)
    comm = {key: ef.get(key, 0) - fe.get(key, 0) for key in ef.keys() | fe.keys()}
    target = {(i, i): (K[i][i] - 1 / K[i][i]) / (q - 1 / q) for i in range(rep.dim)}
    return {
        "KE=q2EK": residual(_sparse_product(K, E), _sparse_product(E, K), q ** 2),
        "KF=q-2FK": residual(_sparse_product(K, F), _sparse_product(F, K), q ** -2),
        "EF-FE": residual(comm, target),
    }


def _block_indices(m: int, n: int) -> list[list[tuple[int, int]]]:
    """Tensor indices (i, j) grouped by s = i + j (constant total weight)."""
    return [[(i, s - i) for i in range(max(0, s - n), min(m, s) + 1)]
            for s in range(m + n + 1)]


def _series_coeffs(q: Fraction, qint: list[Fraction], kmax: int) -> list[Fraction]:
    """q^{k(k-1)/2} (q - 1/q)^k / [k]_q! for k = 0..kmax, each the one before
    times q^{k-1} (q - 1/q) / [k]_q."""
    out = [Fraction(1)]
    step = q - 1 / q
    for k in range(1, kmax + 1):
        out.append(out[-1] * step / qint[k])
        step *= q
    return out


def _r_block(m: int, n: int, idx: list[tuple[int, int]], falling: list[list[Fraction]],
             coeffs: list[Fraction], qpow: dict[int, Fraction], flip: bool) -> list[list[Fraction]]:
    """One total-weight block of (pi_m (x) pi_n)(R) / q^{(mn mod 2)/2}, or of R21 when flip is set.

    ``falling[a][k]`` tabulates the falling q-factorial [a]_q!/[a-k]_q! for
    k <= a <= max(m, n), ``coeffs`` the series coefficients for k <= min(m, n)
    and ``qpow`` the powers q^e for |e| <= mn/2.
    """
    size = len(idx)
    out = [[Fraction(0)] * size for _ in range(size)]
    for col, (ic, jc) in enumerate(idx):
        for row, (ir, jr) in enumerate(idx):
            k = ic - ir if not flip else ir - ic
            if k < 0 or k > min(m, n):
                continue
            wrow = (m - 2 * ir) * (n - 2 * jr)
            # E^k on the m-leg and F^k on the n-leg, or F^k and E^k when flipped:
            # the amplitudes are [a]!/[a-k]! [b]!/[b-k]!.
            a, b = (ic, n - jc) if not flip else (m - ic, jc)
            # q^{wrow/2} = q^{(mn mod 2)/2} q^{wrow // 2}, as wrow = mn (mod 2) for ints.
            out[row][col] = _product(coeffs[k], falling[a][k], falling[b][k], qpow[wrow // 2])
    return out


def _dsq_leg(qpow: dict[int, Fraction], n: int, qint: list[Fraction]) -> list[Fraction]:
    # d_{j+1}^2/d_j^2 = q^{-(n-2j)} [j+1]/[n-j]: unitarises the basis for E* = FK.
    out = [Fraction(1)]
    for j in range(n):
        out.append(out[-1] * qint[j + 1] / (qint[n - j] * qpow[n - 2 * j]))
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
    R, which is formed and checked on ints over their common denominators.
    Raises if R21 R is not self-adjoint for the exact D^2 inner product
    (which would indicate a convention bug).
    """
    qf = _check_q(q)
    _check_labels(m=m, n=n)
    dn = n + 1
    qint = _qints(qf, max(m, n))
    qpow = _qpowers(qf, max(m, n, (m * n + 1) // 2))
    falling = [list(accumulate((qint[a - t] for t in range(a)), mul, initial=Fraction(1)))
               for a in range(max(m, n) + 1)]
    coeffs = _series_coeffs(qf, qint, min(m, n))
    dm_sq = _dsq_leg(qpow, m, qint)
    dn_sq = _dsq_leg(qpow, n, qint)
    dsq = [dm_sq[i] * dn_sq[j] for i in range(m + 1) for j in range(n + 1)]

    scale = qpow[m * n % 2]
    idx_blocks = _block_indices(m, n)
    r_blocks = []
    exact_blocks = []
    for idx in idx_blocks:
        rb = _r_block(m, n, idx, falling, coeffs, qpow, flip=False)
        da, r = _scaled(rb)
        db, r21 = _scaled(_r_block(m, n, idx, falling, coeffs, qpow, flip=True))
        # prod is da db (R21 R) / scale and w is D^2 times a positive int, so
        # D^2 (R21 R) is symmetric exactly when w_i prod_ij = w_j prod_ji.
        prod = [[sum(map(mul, row, col)) for col in zip(*r)] for row in r21]
        _, (w,) = _scaled([[dsq[i * dn + j] for i, j in idx]])
        if any(w[i] * prod[i][j] != prod[j][i] * w[j] for i in range(len(idx)) for j in range(i)):
            raise AssertionError("R21 R is not self-adjoint for the D^2 inner product")
        den = da * db * scale.denominator
        r_blocks.append(tuple(map(tuple, rb)))
        exact_blocks.append(tuple(tuple(Fraction(scale.numerator * x, den) for x in row)
                                  for row in prod))

    return RMatrixBlock(
        q=qf, m=m, n=n,
        blocks=tuple(tuple(idx) for idx in idx_blocks),
        r=tuple(r_blocks),
        r21r=tuple(exact_blocks),
        dsq=tuple(dsq),
    )


def _eigenvectors(q: Fraction, m: int, n: int) -> dict[int, list[list[int]]]:
    """Per block s, for each t below its size, a nonzero integer eigenvector of
    R21 R in the copy of V(m + n - 2t), in order of t.

    The copy's highest-weight vector spans the kernel of Delta(E) = E (x) K +
    1 (x) E on block t.  With x_i its entry at (i, t - i), that kernel is the
    two-term recurrence [i+1] q^{n-2(t-1-i)} x_{i+1} + [t-i] x_i = 0.
    Delta(F) = F (x) 1 + K^{-1} (x) F commutes with R21 R and carries the
    vector down the copy one block at a time, to block m + n - t.  Every
    vector is kept on ints.
    """
    qint = _qints(q, max(m, n))
    qpow = _qpowers(q, max(m, n))
    # Delta(F) reaches (i, j) from (i - 1, j) with [m - i + 1] and from
    # (i, j - 1) with q^{2i - m} [n - j + 1]; one common factor makes both ints.
    _, (left, *down) = _scaled(
        [[qint[m - i + 1] if i else 0 for i in range(m + 1)]]
        + [[qpow[2 * i - m] * qint[n - j + 1] if j else 0 for j in range(n + 1)]
           for i in range(m + 1)])
    out: dict[int, list[list[int]]] = {s: [] for s in range(m + n + 1)}
    for t in range(min(m, n) + 1):
        top = [Fraction(1)]
        for i in range(t):
            top.append(-top[-1] * qint[t - i] / (qint[i + 1] * qpow[n - 2 * (t - 1 - i)]))
        _, (x,) = _scaled([top])
        out[t].append(x)
        for s in range(t, m + n - t):
            at = dict(zip(range(max(0, s - n), m + 1), x))  # first-leg index -> entry
            x = [left[i] * at.get(i - 1, 0) + down[i][s + 1 - i] * at.get(i, 0)
                 for i in range(max(0, s + 1 - n), min(m, s + 1) + 1)]
            out[s + 1].append(x)
    return out


def _is_eigenbasis(exact: Matrix, vectors, values: list[Fraction]) -> bool:
    """Whether vectors holds, for each value c in turn, a nonzero x with exact . x = c x.

    The check runs on ints: exact is scaled by the lcm d of its denominators,
    and d exact . x = d c x is compared times the denominator of c.
    """
    if len(vectors) != len(values):
        return False
    d, mat = _scaled(exact)
    return all(len(x) == len(mat) and any(x)
               and all(sum(map(mul, row, x)) * c.denominator == d * c.numerator * v
                       for row, v in zip(mat, x))
               for x, c in zip(vectors, values))


class EigenRow(NamedTuple):
    nu: int                   # fusion component (m + n - 2j)
    exponent: int             # E(nu) for the inverse block
    multiplicity: int         # dim V(nu)
    value: Decimal            # the exact q^{E(nu)}, rounded once
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


def _block_problem(exact: Matrix, vectors, q: Fraction, exps: list[int]) -> str | None:
    """Why vectors do not certify q^{-e}, e in exps, as the whole spectrum of
    the block exact, or None when they do.

    As many distinct values as the block's size, each with a passing
    eigenvector, are its whole spectrum, each simple.  Vector k is the one of value k, so on failure the
    values are checked one by one to name the first whose own vector is
    missing or fails, or else the surplus of vectors.
    """
    if len(exps) != len(exact):
        return f"{len(exps)} predicted vs size {len(exact)}"
    if len(set(exps)) != len(exps):
        return "predicted eigenvalues are not distinct"
    values = [q ** -e for e in exps]
    if _is_eigenbasis(exact, vectors, values):
        return None
    bad = next((e for k, e in enumerate(exps)
                if not _is_eigenbasis(exact, vectors[k:k + 1], values[k:k + 1])), None)
    return (f"no eigenvector of R21 R passes for q^{-bad}" if bad is not None
            else f"{len(vectors)} eigenvectors for {len(exps)} values")


def verify_norm_formula(q, m: int, n: int) -> OracleReport:
    """Full exact oracle run for one (q, m, n) triple.

    Checks, in order: the generator relations over Q, the eigenvalue
    multiset of the (R21 R)^{-1} block against the fusion-predicted exponents
    with their isotypical multiplicities, and the largest certified
    eigenvalue against q^{-mn} as an equality of rationals.  A block whose
    certificate fails contributes no eigenvalue, so ``lambda_max`` is 0 when
    no block is certified.  Each row's value is the certified q^{E(nu)}
    rounded once to the working precision.
    """
    _check_labels(m=m, n=n)
    qf = _check_q(q)
    ctx = precision.make_context()
    failures: list[str] = []

    rel = max(max(relation_residuals(build_sl2_rep(qf, label)).values()) for label in {m, n})
    if rel:
        failures.append(f"generator relation residual {rel} is not zero")

    block = build_rmatrix_block(qf, m, n)

    # Fusion-predicted (nu, E(nu)), by decreasing nu, via the general-rank machinery on A1.
    rs = build_root_system("A1")
    predicted = []
    for (nu,), mult, e in rmatrix_exponent_details(rs, (n,), (m,)).table:
        if mult != 1 or e.denominator != 1:
            failures.append(f"unexpected fusion data at nu={nu}")
        predicted.append((nu, int(e)))
    dims = [rs.weyl_dim((nu,)) for nu, _ in predicted]

    # Exact spectrum certification, block by block over total weight, then the
    # isotypical multiplicities: a failure in either clears the one verdict.
    checked = len(failures)
    vectors = _eigenvectors(qf, m, n)
    certified: list[Fraction] = []
    for s, exact in enumerate(block.r21r):
        exps = [e for nu, e in predicted if nu >= abs(m + n - 2 * s)]
        problem = _block_problem(exact, vectors.get(s, []), qf, exps)
        if problem:
            failures.append(f"block at weight {m + n - 2 * s}: {problem}")
        else:
            certified.extend(qf ** e for e in exps)
    if sum(dims) != (m + 1) * (n + 1):
        failures.append("isotypical multiplicities do not fill the tensor product")
    exact_ok = len(failures) == checked

    eigen_rows = tuple(
        EigenRow(nu=nu, exponent=e, multiplicity=dim,
                 value=precision.to_decimal(qf ** e, ctx), verified_exact=exact_ok)
        for (nu, e), dim in zip(predicted, dims))
    lam_max = max(certified, default=Fraction(0))
    norm_expected = QExponent(Fraction(-m * n, 2)).q_power(qf)
    # The same exp/ln route as QExponent.q_power, so equal norms render alike.
    norm_computed = ctx.exp(ctx.divide(precision.ln(lam_max, ctx), 2))

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
        eigen_rows=eigen_rows,
        exact_multiset_match=exact_ok,
        relation_residual=rel,
        failures=tuple(failures),
    )
