"""Central weight candidates on the dual and their validation.

A function w from dominant weights to (0, inf) is a symmetric central weight
precisely when

* Z1:  w(mu) >= 1 for every dominant mu,
* Z2:  w(nu) <= w(lam) w(mu) whenever nu occurs in lam (x) mu,
* SYM: w(mu) = w(conjugate(mu)).

Z2 quantifies over infinitely many fusion triples, so the validator only ever
certifies "verified up to height H".  Z2 is symmetric in (lam, mu), so each
unordered pair is decomposed and compared once and counted, like any
violation it yields, under both orientations.  The built-in families decide
every condition exactly, on the root system's memoised scaled integers: Z1
by the sign of log beta (or of beta) and of |mu|^2 (or c(mu)), Z2 in
squared-rational form, SYM by the conjugation invariance of both.  Table
weights are compared in the log domain with a relative tolerance of 1e-12.

The dominance certificate decides a whole pair at once.  Every component nu
of lam (x) mu satisfies nu <= lam + mu in the dominance order, and on
dominant weights |.|^2 and c(.) grow strictly along that order, since
(eta, eta) - (nu, nu) = (eta - nu, eta + nu) (Stembridge, "The partial order
of dominant weights", Adv. Math. 1998).  So the triangle inequality
f(nu)^{1/2} <= f(lam)^{1/2} + f(mu)^{1/2}, with f = |.|^2 or c, holds on every
component once it holds at the Cartan component lam + mu.  There it holds by
Cauchy-Schwarz: |.| is a norm, and c(lam + mu) = c(lam) + c(mu) + 2(lam, mu)
with (lam, mu) <= |lam| |mu| <= (c(lam) c(mu))^{1/2}, as c = |.|^2 + 2(., rho)
is at least |.|^2 on dominant weights.  Hence Z2 of ``beta_norm`` with
beta >= 1 and of ``lst`` with beta >= 0, and Casimir subadditivity, hold at
every height.  The sweeps still earn each verdict, through one pair verdict,
``_triangle_violations``: it decides the triangle inequality once, at
lam + mu, checks the integer comparison f(nu) < f(lam + mu) on every other
component, and compares every component when either fails.

Every violation records log values: log w(mu) and 0 for Z1, log w(nu) and
log w(lam) + log w(mu) for Z2, log w(mu) and log w(conjugate(mu)) for SYM.

Built-in families:

* ``beta_norm(beta)``: w(mu) = beta^{|mu|} with |mu| = (mu, mu)^{1/2}, a
  central weight for every beta >= 1;
* ``lst(beta)``: w(mu) = exp(beta c(mu)^{1/2}) with c the quadratic Casimir,
  a central weight for every beta >= 0;
* ``table``: explicit positive values per dominant weight.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, NamedTuple

from . import precision
from .fusion import FusionDecomposition, tensor_decompose
from .root_system import RootSystem, Weight, _integral_weight, _Memo

LOG_TOLERANCE = Decimal("1e-12")


class CentralWeightSpec(NamedTuple):
    """Symbolic description of a candidate weight function on dominant weights."""

    kind: str  # "beta_norm" | "lst" | "table"
    beta: Decimal | None = None
    table: Mapping[Weight, Decimal] | None = None

    @classmethod
    def beta_norm(cls, beta) -> "CentralWeightSpec":
        b = precision.to_decimal(beta, precision.make_context(), "beta")
        if b <= 0:
            raise ValueError(f"beta must be strictly positive, got {beta}")
        return cls(kind="beta_norm", beta=b)

    @classmethod
    def lst(cls, beta) -> "CentralWeightSpec":
        b = precision.to_decimal(beta, precision.make_context(), "beta")
        if b < 0:
            raise ValueError(f"lst weights need beta >= 0, got {beta}")
        return cls(kind="lst", beta=b)

    @classmethod
    def from_table(cls, table: Mapping | Iterable) -> "CentralWeightSpec":
        """Table weights from a mapping or from (mu, value) pairs; a non-integral
        or repeated mu, or a value that is not a positive number, is a ValueError."""
        ctx = precision.make_context()
        entries = {}
        for mu, value in table.items() if isinstance(table, Mapping) else table:
            mu = _integral_weight(mu)
            if mu in entries:
                raise ValueError(f"weight table repeats the weight {mu}")
            entries[mu] = precision.to_decimal(value, ctx, f"table value at {mu}")
            if entries[mu] <= 0:
                raise ValueError(f"table value at {mu} must be strictly positive, got {value}")
        return cls(kind="table", table=entries)


class WeightValue(NamedTuple):
    value: Decimal
    log: Decimal


def eval_weight(rs: RootSystem, spec: CentralWeightSpec, mu) -> WeightValue:
    """Evaluate w(mu) and log w(mu) in high precision.

    beta_norm with beta < 1 is permitted here (the Z1 check will fail); a
    missing table entry raises, and so does a value beyond the decimal range.
    """
    mu = rs.check_dominant(mu)
    ctx = precision.make_context()
    log = _log_weight(rs, spec, mu, ctx)
    if log is None:
        raise KeyError(f"weight table has no entry for {mu}")
    with precision.decimal_range("w({})", mu):
        return WeightValue(ctx.exp(log), log)


def _log_weight(rs: RootSystem, spec: CentralWeightSpec, mu: Weight, ctx: Context) -> Decimal | None:
    if spec.kind == "table":
        value = spec.table.get(mu)
        return None if value is None else ctx.ln(value)
    # log w(mu) = s f(mu)^{1/2} with s = log beta, f = |mu|^2 or s = beta, f = c(mu);
    # a zero factor gives an exact 0, not a zero carrying the product's exponent.
    f = rs.norm_sq(mu) if spec.kind == "beta_norm" else rs.casimir(mu)
    s = ctx.ln(spec.beta) if spec.kind == "beta_norm" else spec.beta
    if f == 0 or s == 0:
        return Decimal(0)
    root = precision.sqrt_fraction(f, ctx)
    with precision.decimal_range("log w({})", mu):
        return ctx.multiply(root, s)


class Violation(NamedTuple):
    condition: str              # "Z1" | "Z2" | "SYM"
    weights: tuple[Weight, ...]  # (mu,) or (lam, mu, nu) or (mu, conj)
    lhs: Decimal                 # log values; see the module docstring
    rhs: Decimal


class ValidationReport(NamedTuple):
    spec: CentralWeightSpec
    passed: bool
    violations: tuple[Violation, ...]
    truncation_height: int
    checked: int                 # comparisons actually made; 0 never passes
    skipped: int                 # comparisons skipped for missing table entries
    notes: tuple[str, ...] = ()


def _triangle_compare(a: Fraction, b: Fraction, c: Fraction) -> int:
    """Exact sign of sqrt(a) - (sqrt(b) + sqrt(c)) for nonnegative rationals.

    The sign is unchanged when a, b, c share a positive scale, so callers may
    pass the root system's integers scaled by ``_gram_den``.
    """
    s = a - b - c
    if s <= 0:
        if s == 0 and b * c == 0:
            return 0
        return -1
    d = s * s - 4 * b * c
    return -1 if d < 0 else (0 if d == 0 else 1)


def _triangle_violations(f, sense: int, fd: FusionDecomposition) -> list[Weight] | None:
    """The components nu of lam (x) mu, in the order of its unsorted parts, on
    which sense * _triangle_compare(f(nu), f(lam), f(mu)) > 0; None when the
    pair is decided at once.

    f is a memoised scaled invariant of the root system, read once per
    component into a list.  With sense 0 nothing can fail.  With sense > 0
    the dominance certificate decides the pair when it applies: the triangle
    inequality holds at the Cartan component lam + mu, and the list has its
    maximum f(lam + mu) exactly once, which, as the parts hold lam + mu, is
    f(nu) < f(lam + mu) for every other component.  A tie is never
    certified.
    """
    if sense == 0:
        return None
    parts = fd._parts
    f_lam, f_mu = f(fd.lam), f(fd.mu)
    values = list(map(f, parts))
    if sense > 0:
        f_top = f(fd.cartan)
        if (_triangle_compare(f_top, f_lam, f_mu) <= 0
                and max(values) == f_top and values.count(f_top) == 1):
            return None
    return [nu for nu, v in zip(parts, values) if sense * _triangle_compare(v, f_lam, f_mu) > 0]


def _z2_sense(spec: CentralWeightSpec) -> int | None:
    """Exact Z1 and Z2 for the built-in families, None for tables.

    log w(mu) is s * t * f(mu)^{1/2} with t > 0, f the scaled norm^2
    (beta_norm) or Casimir (lst), and s the sign of log beta or of beta.  So
    Z1 fails at mu exactly when s < 0 and f(mu) > 0, and Z2 holds on a triple
    exactly when s * _triangle_compare(f(nu), f(lam), f(mu)) <= 0; s is
    returned.
    """
    if spec.kind == "table":
        return None
    pivot = 1 if spec.kind == "beta_norm" else 0
    return (spec.beta > pivot) - (spec.beta < pivot)


def validate_central_weight(rs: RootSystem, spec: CentralWeightSpec,
                            height: int) -> ValidationReport:
    """Check Z1, Z2 and symmetry for all fusion triples up to the given height.

    A passing report certifies the conditions on the truncated fusion graph
    only; for table weights nothing is claimed beyond the covered triples.
    For ``beta_norm`` with beta >= 1 and ``lst`` with beta >= 0, Z2 holds at
    every height by the dominance certificate (see the module docstring); the
    sweep still checks every component, per pair through the certificate,
    and compares every component of a pair it does not cover.
    ``checked`` counts every triple either way.  A table must be nonempty
    with dominant keys of the right rank, and a report that made no
    comparison does not pass.
    """
    if height < 1:
        raise ValueError("truncation height must be >= 1")
    if spec.kind == "table":
        if not spec.table:
            raise ValueError("weight table is empty")
        for mu in spec.table:
            rs.check_dominant(mu)
    ctx = precision.make_context()
    tol = LOG_TOLERANCE
    notes: list[str] = [f"verified up to height {height}"]
    violations: list[Violation] = []
    weights = rs.dominant_weights_up_to(height)
    zero = (0,) * rs.rank

    log_of = _Memo(partial(_log_weight, rs, spec, ctx=ctx)).__getitem__

    checked = skipped = 0
    # The built-in families decide Z1 and Z2 exactly; their Decimal logs are
    # evaluated only to be recorded.
    sense = _z2_sense(spec)
    f = rs._norm_scaled if spec.kind == "beta_norm" else rs._casimir_scaled

    # Z1: w(mu) >= 1, i.e. log w(mu) >= 0.
    for mu in weights:
        lw = log_of(mu)
        if lw is None:
            skipped += 1
            continue
        checked += 1
        low = (lw < -tol * max(Decimal(1), abs(lw)) if sense is None
               else sense < 0 and f(mu) > 0)
        if low:
            violations.append(Violation("Z1", (mu,), lw, Decimal(0)))

    # Z2: w(nu) <= w(lam) w(mu) over the truncated fusion graph.  Every
    # comparison is symmetric in (lam, mu), so an unordered pair stands for
    # both orientations: it counts twice and records each violation twice.
    for i, lam in enumerate(weights):
        llam = log_of(lam)
        for mu in weights[i:]:
            orientations = ((lam, mu),) if lam == mu else ((lam, mu), (mu, lam))
            lmu = log_of(mu)
            if llam is None or lmu is None:
                skipped += len(orientations)
                continue
            try:
                rhs = ctx.add(llam, lmu)
            except ArithmeticError:
                with precision.decimal_range("log w({}) + log w({})", lam, mu):
                    raise
            fd = tensor_decompose(rs, lam, mu)
            if sense is not None:
                checked += len(orientations) * len(fd._parts)
                bad = _triangle_violations(f, sense, fd) or []
            else:
                bad = []
                for nu in fd._parts:  # unsorted: the violations are sorted once, at the end
                    lnu = log_of(nu)
                    if lnu is None:
                        skipped += len(orientations)
                        continue
                    checked += len(orientations)
                    if ctx.subtract(lnu, rhs) > tol * max(Decimal(1), abs(lnu), abs(rhs)):
                        bad.append(nu)
            violations.extend(Violation("Z2", (a, b, nu), log_of(nu), rhs)
                              for nu in bad for a, b in orientations)

    # SYM: w(mu) = w(conjugate(mu)).
    for mu in weights:
        conj = rs.conjugate_weight(mu)
        if spec.kind in ("beta_norm", "lst"):
            checked += 1
            # |mu| and c(mu) are conjugation invariants; check them exactly.
            same = (rs._norm_scaled(mu) == rs._norm_scaled(conj)
                    and rs._casimir_scaled(mu) == rs._casimir_scaled(conj))
            if not same:
                violations.append(Violation("SYM", (mu, conj),
                                            log_of(mu) or Decimal(0),
                                            log_of(conj) or Decimal(0)))
            continue
        lw, lc = log_of(mu), log_of(conj)
        if lw is None or lc is None:
            skipped += 1
            continue
        checked += 1
        if abs(ctx.subtract(lw, lc)) > tol * max(Decimal(1), abs(lw), abs(lc)):
            violations.append(Violation("SYM", (mu, conj), lw, lc))

    if spec.kind == "table":
        w0 = spec.table.get(zero)
        if w0 is not None and w0 != 1:
            notes.append(f"informational: w(0) = {w0} != 1 (not enforced)")
        if skipped:
            notes.append(f"informational: {skipped} comparisons skipped, table entries missing")

    violations.sort(key=lambda v: (v.condition, v.weights))
    return ValidationReport(
        spec=spec,
        passed=checked > 0 and not violations,
        violations=tuple(violations),
        truncation_height=height,
        checked=checked,
        skipped=skipped,
        notes=tuple(notes),
    )


class SubadditivityReport(NamedTuple):
    """Outcome of :func:`casimir_subadditivity_check`.

    ``min_slack`` is the smallest slack over every triple and ``witness`` the
    first triple that attains it.  The sweep starts at the pair (0, 0), whose
    one triple has slack exactly 0, so on a passing sweep both come from the
    (0, 0) pair: ``min_slack`` is 0 and ``witness`` the zero triple.
    """

    passed: bool
    truncation_height: int
    triples_checked: int
    min_slack: Decimal | None
    witness: tuple[Weight, Weight, Weight] | None
    violations: tuple[tuple[Weight, Weight, Weight], ...] = ()


def casimir_subadditivity_check(rs: RootSystem, height: int) -> SubadditivityReport:
    """Verify c(nu)^{1/2} <= c(lam)^{1/2} + c(mu)^{1/2} for fusion triples.

    The verdict for each triple is decided exactly in squared-rational form,
    on the root system's memoised Casimirs scaled to integers; the reported
    slack is evaluated with high-precision square roots.  Subadditivity holds
    at every height by the dominance certificate (see the module docstring),
    which also puts each pair's smallest slack at nu = lam + mu.  So one slack
    loop runs per pair: over lam + mu alone for a pair the certificate
    decides, and over every component in order for any other pair, whose
    violations are then listed in that order.  The witness is thus the
    per-triple one either way, and ``triples_checked`` counts every triple.
    """
    if height < 1:
        raise ValueError("truncation height must be >= 1")
    ctx = precision.make_context()
    weights = rs.dominant_weights_up_to(height)
    cas = rs._casimir_scaled
    roots = _Memo(lambda mu: precision.sqrt_fraction(Fraction(cas(mu), rs._gram_den), ctx))
    root_of = roots.__getitem__

    checked = 0
    min_slack: Decimal | None = None
    witness = None
    violations: list[tuple[Weight, Weight, Weight]] = []
    for i, lam in enumerate(weights):
        for mu in weights[i:]:
            rhs = ctx.add(root_of(lam), root_of(mu))
            fd = tensor_decompose(rs, lam, mu)
            checked += len(fd._parts)
            bad = _triangle_violations(cas, 1, fd)
            scan = (fd.cartan,) if bad is None else fd.components
            violations.extend((lam, mu, nu) for nu in scan if bad and nu in bad)
            for nu in scan:
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
