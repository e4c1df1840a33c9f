"""Central weight candidates on the dual and their validation.

A function w from dominant weights to (0, inf) is a symmetric central weight
precisely when

* Z1:  w(mu) >= 1 for every dominant mu,
* Z2:  w(nu) <= w(lam) w(mu) whenever nu occurs in lam (x) mu,
* SYM: w(mu) = w(conjugate(mu)).

Z2 quantifies over infinitely many fusion triples, so the validator only ever
certifies "verified up to height H".  Z2 is symmetric in (lam, mu), so each
unordered pair is compared once and counted, like any violation it yields,
under both orientations.  Every condition is decided exactly, on one value
per weight.  For the built-in families that value is the root system's
memoised scaled integer |mu|^2 or c(mu): Z1 by the sign of log beta (or of
beta) and of that integer, Z2 in squared-rational form, SYM by its
conjugation invariance.  The sign of log beta is that of beta as given, as
``CentralWeightSpec.beta_norm`` keeps the digits of beta - 1.  For a table
the value is the table value as read, which ``precision.to_decimal`` rounds
to 50 significant digits: Z1 is w(mu) >= 1, Z2 is w(nu) <= w(lam) w(mu) with
the product taken exactly, and SYM is equality.

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

There is one sweep engine, ``_pair_sweep``, and both sweeps are views of it.
Casimir subadditivity is Z2 of ``lst`` with beta > 0, for log w = beta
c^{1/2} turns Z2 on a triple into c(nu)^{1/2} <= c(lam)^{1/2} + c(mu)^{1/2}.
So ``validate_central_weight`` and ``casimir_subadditivity_check`` draw the
same pairs, decompositions and pair verdicts from it; the first counts
orientations and records logs, the second counts unordered triples.

The diagram automorphisms halve the sweeps on A_n (n >= 2), D_n, E6 and
products with repeated factors.  Such an automorphism sigma, a permutation
of the nodes that keeps the Cartan matrix, permutes the fundamental weights,
fixes rho and preserves the form, so V(sigma lam) (x) V(sigma mu) is
sigma(V(lam) (x) V(mu)), and |.|^2 and c(.) are sigma-invariant (Humphreys,
Lie Algebras, 12.2; Bourbaki, Lie VI, Plates).  Their group Γ maps the box
of a sweep onto itself, so the engine decomposes only the first unordered
pair of each Γ-orbit of pairs, in sweep order, and the sweeps account for
the orbit's other pairs, its mates, from that decomposition: a mate's
components are the images under sigma, with the same triple count, the same
certificate verdict and the mapped violations.  A table weight need not be
Γ-invariant, so a mate's mapped components are checked against the table's
own values, and a pair none of whose members the table covers is not
decomposed.  ``checked`` and ``triples_checked`` still count every triple of
every pair, mates included.

Slacks c(lam)^{1/2} + c(mu)^{1/2} - c(nu)^{1/2} are evaluated only where a
triple fails.  Every other slack is >= 0 exactly, and the sweep's first
triple, (0, 0, 0), has slack exactly 0, so a passing sweep's smallest slack
is exactly 0 with the zero triple as its witness, and a failing sweep's is
the smallest slack of its violations, each < 0, with the first violation in
sweep order that attains it as the witness.

Logs decide nothing; every violation records them: log w(mu) and 0 for Z1,
log w(nu) and log w(lam) + log w(mu) for Z2, log w(mu) and
log w(conjugate(mu)) for SYM.  They are taken for violations only, so a pair
that passes costs its decomposition, its pair verdict and a count, and no
log.  A log or log sum beyond the decimal range is still an error, named as
when every member took its logs: the range is checked once per sweep, on a
bound from the box's largest f, and only when some log w or log-w sum of the
box may leave it does every Z2 member take its logs, in sweep order, so the
first to leave the range is the one named.

Built-in families:

* ``beta_norm(beta)``: w(mu) = beta^{|mu|} with |mu| = (mu, mu)^{1/2}, a
  central weight for every beta >= 1;
* ``lst(beta)``: w(mu) = exp(beta c(mu)^{1/2}) with c the quadratic Casimir,
  a central weight for every beta >= 0;
* ``table``: explicit positive values per dominant weight.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from . import precision
from .fusion import FusionDecomposition, _component_order, tensor_decompose
from .root_system import RootSystem, Weight, _integral_weight, _Memo


class CentralWeightSpec(NamedTuple):
    """Symbolic description of a candidate weight function on dominant weights."""

    kind: str  # "beta_norm" | "lst" | "table"
    beta: Decimal | None = None
    table: Mapping[Weight, Decimal] | None = None

    @classmethod
    def beta_norm(cls, beta) -> "CentralWeightSpec":
        """beta^{|mu|}, with beta read in ``precision.widen``: near 1 it keeps
        the digits of beta - 1, and so the sign of log beta that Z1 and Z2
        turn on, which rounding to the working precision can lose."""
        wide = precision.widen(beta, precision.make_context(), "beta")
        b = precision.to_decimal(beta, wide, "beta")
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
    """Evaluate w(mu) and log w(mu) in high precision; a table returns its
    own value.

    beta_norm with beta < 1 is permitted here (the Z1 check will fail); a
    missing table entry raises, and so does a value beyond the decimal range.
    """
    mu = rs.check_dominant(mu)
    ctx = precision.make_context()
    log = _log_weight(rs, spec, mu, ctx, _log_scale(spec, ctx))
    if log is None:
        raise KeyError(f"weight table has no entry for {mu}")
    if spec.kind == "table":
        return WeightValue(spec.table[mu], log)
    with precision.decimal_range("w({})", mu):
        return WeightValue(ctx.exp(log), log)


def _log_scale(spec: CentralWeightSpec, ctx: Context) -> Decimal | None:
    """s with log w(mu) = s f(mu)^{1/2}: log beta for ``beta_norm``, beta for
    ``lst``; None for a table."""
    if spec.kind == "table":
        return None
    return precision.ln(spec.beta, ctx, "beta") if spec.kind == "beta_norm" else spec.beta


def _log_weight(rs: RootSystem, spec: CentralWeightSpec, mu: Weight, ctx: Context,
                s: Decimal | None) -> Decimal | None:
    """log w(mu) in ctx, with s = ``_log_scale(spec, ctx)``; None for a
    weight the table does not hold."""
    if spec.kind == "table":
        value = spec.table.get(mu)
        return None if value is None else ctx.ln(value)
    # log w(mu) = s f(mu)^{1/2} with f = |mu|^2 or c(mu); a zero factor gives
    # an exact 0, not a zero carrying the product's exponent.
    f = rs.norm_sq(mu) if spec.kind == "beta_norm" else rs.casimir(mu)
    if f == 0 or s == 0:
        return Decimal(0)
    root = precision.sqrt_fraction(f, ctx)
    with precision.decimal_range("log w({})", mu):
        return ctx.multiply(root, s)


def _box_logs_fit(ctx: Context, s: Decimal, f_top: int, den: int) -> bool:
    """Whether every log w = s f^{1/2} with f <= f_top / den, and every sum
    of two, lies in the exponent range of ctx; decided without raising.

    All of them are at most 2 |s| (f_top / den)^{1/2} in size, and when that
    bound, rounded once more, is below 10^Emax, they are below the largest
    finite Decimal by a factor of nearly 10, far more than the rounding of
    the square root, the product and the sum can take.
    """
    loose = ctx.copy()
    loose.clear_traps()  # an overflowing bound is Infinity, which does not fit
    root = loose.sqrt(loose.divide(Decimal(f_top), Decimal(den)))
    return loose.multiply(loose.multiply(2, abs(s)), root) < Decimal(f"1e{ctx.Emax}")


def _pair_orbits(rs: RootSystem, weights: list[Weight]):
    """Yield the members of the first unordered pair {lam, mu} of each Γ-orbit
    of pairs from ``weights``, in sweep order, lam before mu.

    The members are (lam, mu, None) and then (a, b, sigma) for the orbit's
    other pairs, its mates, a before b, with sigma in Γ taking {lam, mu} to
    {a, b}, as a map of weights.  Mates come later in sweep order, and no
    later pair of the orbit is yielded.

    The orbit is walked breadth-first from the pair, one generator of Γ at a
    time, on the root system's image positions of ``weights``: the cost of a
    pair is its orbit's size times the number of generators, whatever the
    order of Γ, which on products of many isomorphic factors is far larger
    (8! on A1^8).  The elements of Γ the walk reaches are node maps s, with
    sigma(x) = (x[s_0], x[s_1], ...); each gets its ``itemgetter(*s)`` once
    per sweep.  A pair met earlier as a mate costs one set lookup.  With Γ
    trivial, a pair has no mates and no image is read.
    """
    images = rs._symmetry_images(weights)
    n = len(weights)
    if not images:
        for i, lam in enumerate(weights):
            for mu in weights[i:]:
                yield [(lam, mu, None)]
        return
    identity = tuple(range(rs.rank))
    sigmas: dict[tuple[int, ...], itemgetter] = {}
    later: set[int] = set()  # the positions i n + j of mates still to come
    for i, lam in enumerate(weights):
        for j in range(i, n):
            code = i * n + j
            if code in later:
                later.remove(code)
                continue
            members = [(lam, weights[j], None)]
            orbit = {code}
            todo = [(i, j, identity)]
            for a, b, source in todo:
                for image, generator in images:
                    x, y = image[a], image[b]
                    if x > y:
                        x, y = y, x
                    if x * n + y not in orbit:
                        orbit.add(x * n + y)
                        s = generator(source)
                        todo.append((x, y, s))
                        sigma = sigmas.get(s)
                        if sigma is None:
                            sigma = sigmas[s] = itemgetter(*s)
                        members.append((weights[x], weights[y], sigma))
            orbit.remove(code)
            later |= orbit
            yield members


def _pair_sweep(rs: RootSystem, weights: list[Weight], value, sense: int | None):
    """The one loop of both sweeps: yield (members, fd, bad) for the first
    unordered pair {lam, mu} of each Γ-orbit of pairs from ``weights``, in
    sweep order.

    ``members`` are the pair's from ``_pair_orbits``, fd is lam (x) mu and
    bad the pair verdict ``_triangle_violations(value, sense, fd)``, () when
    nothing fails; a mate's violations are the images of bad under its
    sigma, as the built-in values are Γ-invariant.  With sense None, for a
    table, there is no verdict and bad is None; ``value`` returns None for a
    weight the table lacks, and a pair none of whose members has both of its
    values is not decomposed: fd is None.  Only a table is probed.
    """
    for members in _pair_orbits(rs, weights):
        if sense is None and all(value(a) is None or value(b) is None for a, b, _ in members):
            yield members, None, None
            continue
        fd = tensor_decompose(rs, *members[0][:2])
        yield members, fd, None if sense is None else _triangle_violations(value, sense, fd) or ()


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


def _z2_sense(spec: CentralWeightSpec) -> int:
    """Exact Z1 and Z2 for the built-in families.

    log w(mu) is s * t * f(mu)^{1/2} with t > 0, f the scaled norm^2
    (beta_norm) or Casimir (lst), and s the sign of log beta or of beta.  So
    Z1 fails at mu exactly when s * f(mu) < 0, and Z2 holds on a triple
    exactly when s * _triangle_compare(f(nu), f(lam), f(mu)) <= 0; s is
    returned.
    """
    pivot = 1 if spec.kind == "beta_norm" else 0
    return (spec.beta > pivot) - (spec.beta < pivot)


def validate_central_weight(rs: RootSystem, spec: CentralWeightSpec,
                            height: int) -> ValidationReport:
    """Check Z1, Z2 and symmetry for all fusion triples up to the given height.

    Every condition is decided exactly on the values as read (see the module
    docstring).  A passing report certifies the conditions on the truncated
    fusion graph only; for table weights nothing is claimed beyond the
    covered triples.  For ``beta_norm`` with beta >= 1 and ``lst`` with
    beta >= 0, Z2 holds at every height by the dominance certificate; the
    sweep still checks every component, per pair through the certificate,
    and compares every component of a pair it does not cover.  Logs are
    taken for violations only (see the module docstring).  Only the
    first pair of each orbit of the diagram automorphisms is decomposed (see
    the module docstring).  ``checked`` counts every triple either way.  A
    table must be nonempty with dominant keys of the right rank, and a
    report that made no comparison does not pass.
    """
    if height < 1:
        raise ValueError("truncation height must be >= 1")
    table = spec.table if spec.kind == "table" else None
    if table is not None:
        if not table:
            raise ValueError("weight table is empty")
        for mu in table:
            rs.check_dominant(mu)
        value = table.get
        # Table values have at most DIGITS significant digits, so the product
        # of two is exact in twice as many over the widest exponent range.
        exact = Context(prec=2 * precision.DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)
        sense = None  # Z2 is decided per member, on the table's own values
    else:
        sense = _z2_sense(spec)
        value = rs._norm_scaled if spec.kind == "beta_norm" else rs._casimir_scaled
    ctx = precision.make_context()
    notes: list[str] = [f"verified up to height {height}"]
    violations: list[Violation] = []
    weights = rs.dominant_weights_up_to(height)

    # Logs are evaluated only to be recorded, and so only for a violation,
    # unless a log or log sum of the box may leave the decimal range: then
    # every Z2 member takes them, in sweep order, so the first to leave it is
    # the one an error names.  A table's logs and their sums never leave it.
    scale = _log_scale(spec, ctx)
    log_of = _Memo(partial(_log_weight, rs, spec, ctx=ctx, s=scale)).__getitem__
    eager = table is None and not _box_logs_fit(ctx, scale, max(map(value, weights)),
                                                rs._gram_den)
    checked = skipped = 0

    # Z1: w(mu) >= 1.
    for mu in weights:
        w = value(mu)
        if w is None:
            skipped += 1
            continue
        checked += 1
        if (w < 1 if table is not None else sense * w < 0):
            violations.append(Violation("Z1", (mu,), log_of(mu), Decimal(0)))

    # Z2: w(nu) <= w(lam) w(mu) over the truncated fusion graph.  Every
    # comparison is symmetric in (lam, mu), so an unordered pair stands for
    # both orientations: it counts twice and records each violation twice.
    for members, fd, bad in _pair_sweep(rs, weights, value, sense):
        if sense is not None and not bad and not eager:  # the pair and its mates pass
            checked += len(fd._parts) * len(members) * (1 if fd.lam == fd.mu else 2)
            continue
        for a, b, sigma in members:
            orientations = ((a, b),) if a == b else ((a, b), (b, a))
            w_a, w_b = value(a), value(b)
            if w_a is None or w_b is None:
                skipped += len(orientations)
                continue
            if table is None:  # the verdicts of a mate are the mapped ones
                checked += len(orientations) * len(fd._parts)
                found = bad if sigma is None else list(map(sigma, bad))
            else:
                product = exact.multiply(w_a, w_b)
                found = []
                # unsorted: the violations are sorted once, at the end
                for nu in fd._parts if sigma is None else map(sigma, fd._parts):
                    w_nu = value(nu)
                    if w_nu is None:
                        skipped += len(orientations)
                        continue
                    checked += len(orientations)
                    if w_nu > product:
                        found.append(nu)
            if not (found or eager):
                continue
            try:
                rhs = ctx.add(log_of(a), log_of(b))
            except ArithmeticError:
                with precision.decimal_range("log w({}) + log w({})", a, b):
                    raise
            violations.extend(Violation("Z2", (x, y, nu), log_of(nu), rhs)
                              for nu in found for x, y in orientations)

    # SYM: w(mu) = w(conjugate(mu)); |mu|^2 and c(mu) are conjugation invariants.
    for mu in weights:
        conj = rs.conjugate_weight(mu)
        w, w_conj = value(mu), value(conj)
        if w is None or w_conj is None:
            skipped += 1
            continue
        checked += 1
        if w != w_conj:
            violations.append(Violation("SYM", (mu, conj), log_of(mu), log_of(conj)))

    if table is not None:
        w0 = table.get((0,) * rs.rank)
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
    first triple in sweep order that attains it, both found from the
    violations alone (see the module docstring).  Every slack of a triple
    that holds is >= 0, and the sweep starts at the pair (0, 0), whose one
    triple has slack exactly 0.  So a passing sweep has ``min_slack``
    exactly ``Decimal(0)`` and the zero triple as ``witness``, with no square
    root taken.  A failing sweep has the smallest slack of its violations,
    each < 0, as ``min_slack``, and the first violation in sweep order that
    attains it as ``witness``.
    """

    passed: bool
    truncation_height: int
    triples_checked: int
    min_slack: Decimal
    witness: tuple[Weight, Weight, Weight]
    violations: tuple[tuple[Weight, Weight, Weight], ...] = ()


def casimir_subadditivity_check(rs: RootSystem, height: int) -> SubadditivityReport:
    """Verify c(nu)^{1/2} <= c(lam)^{1/2} + c(mu)^{1/2} for fusion triples.

    This is the Z2 sweep of ``lst`` with beta > 0: each triple is decided
    exactly in squared-rational form, on the root system's memoised Casimirs
    scaled to integers, by the pair verdict of the one sweep loop, which the
    dominance certificate settles for every pair at every height (see the
    module docstring).  ``triples_checked`` counts every unordered triple,
    mates included, and the violations are listed in sweep order, each
    pair's in component order.  Slacks are evaluated, with high-precision
    square roots, for the violations alone (see :class:`SubadditivityReport`).
    """
    if height < 1:
        raise ValueError("truncation height must be >= 1")
    weights = rs.dominant_weights_up_to(height)
    cas = rs._casimir_scaled
    checked = 0
    violations: list[tuple[Weight, Weight, Weight]] = []
    for members, fd, bad in _pair_sweep(rs, weights, cas, 1):
        checked += len(fd._parts) * len(members)
        if bad:
            violations.extend((a, b, nu) for a, b, sigma in members for nu in sorted(
                bad if sigma is None else map(sigma, bad), key=_component_order))
    zero = (0,) * rs.rank
    min_slack, witness = Decimal(0), (zero, zero, zero)
    if violations:  # into sweep order, each pair's in component order
        position = {w: i for i, w in enumerate(weights)}
        violations.sort(key=lambda v: (position[v[0]], position[v[1]]))
        ctx = precision.make_context()

        def root(mu):
            return precision.sqrt_fraction(Fraction(cas(mu), rs._gram_den), ctx)

        for lam, mu, nu in violations:
            slack = ctx.subtract(ctx.add(root(lam), root(mu)), root(nu))
            if slack < min_slack:
                min_slack, witness = slack, (lam, mu, nu)
    return SubadditivityReport(
        passed=not violations,
        truncation_height=height,
        triples_checked=checked,
        min_slack=min_slack,
        witness=witness,
        violations=tuple(violations),
    )
