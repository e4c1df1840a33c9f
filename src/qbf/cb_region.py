"""Decision procedure for completely bounded extension of the dual representations.

For deformation parameter q in (0, 1) and weight-family parameter beta >= 1,
the representation labelled by a dominant weight lam extends completely
boundedly if and only if q^{-|lam|} <= beta, equivalently

    norm_sq(lam) <= t^2   with   t = log(beta) / log(1/q).

The decision depends on lam only; the compact-side representation never
enters, which is why the API takes no such argument.  The boundary |lam| = t
counts as extending.  Comparisons run at the fixed working precision of
``precision.DIGITS`` = 50 digits with a relative guard of 1e-30; decisions
inside the guard are flagged as boundary cases so a sharp-threshold
misclassification cannot pass silently.

Each decision carries a certificate: an extending lam has
q^{-(lam,mu)} <= beta^{|mu|} for every mu, with the supremum 1 attained at
mu = 0; a non-extending lam has a divergence ray mu_m = m*lam along which the
ratio grows geometrically with factor exp((lam,lam) log(1/q) - |lam| log beta).
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from typing import NamedTuple

from . import precision
from .qnorm import SessionConfig
from .root_system import RootSystem, Weight

# At DIGITS = 50 each input and each operation is rounded to a relative 1e-49,
# so the computed |lam|^2 - t^2 is within a few units of 1e-49 * scale of its
# exact value; the guard leaves a margin of about 10^18 over that rounding.
BOUNDARY_GUARD = Decimal("1e-30")

# Points m * lam, m = 1.._RAY_STEPS, on which sup_ratio_scan follows the ratio.
_RAY_STEPS = 8


class Certificate(NamedTuple):
    kind: str                      # "bound" | "divergence"
    bound: Decimal | None = None   # sup over mu of the ratio, <= 1
    attained_at: Weight | None = None
    ray_base: Weight | None = None
    growth_factor: Decimal | None = None


class CBDecision(NamedTuple):
    lam: Weight
    beta: Decimal
    q: Fraction
    extends: bool
    boundary: bool
    norm_sq: Fraction
    threshold_sq: Decimal
    beta_min: Decimal              # smallest beta for which lam extends: q^{-|lam|}
    certificate: Certificate


def _shared_constants(cfg: SessionConfig, beta, ctx: Context) -> tuple[Decimal, ...]:
    """(beta, ln beta, ln(1/q), t^2) in ctx: what every decision at (q, beta) shares."""
    b = precision.to_decimal(beta, ctx, "beta")
    if b < 1:
        raise ValueError(f"beta must be >= 1 (weights require w >= 1), got {beta}")
    log_b = ctx.ln(b)
    log_inv_q = ctx.minus(ctx.ln(precision.to_decimal(cfg.q, ctx)))
    t = ctx.divide(log_b, log_inv_q)
    return b, log_b, log_inv_q, ctx.multiply(t, t)


def cb_extends(rs: RootSystem, cfg: SessionConfig, beta, lam, *,
               _shared: tuple[Decimal, ...] | None = None) -> CBDecision:
    """Decide whether the representation labelled by lam admits a CB extension.

    ``_shared`` is for callers that decide many weights at one (q, beta): the
    ``_shared_constants`` they computed once, in a context of the working
    precision, so the decision is the one computed without it.
    """
    lam = rs.check_dominant(lam)
    ctx = precision.make_context()
    b, log_b, log_inv_q, t_sq = _shared or _shared_constants(cfg, beta, ctx)

    ns = rs.norm_sq(lam)
    ns_dec = precision.to_decimal(ns, ctx)
    lam_norm = precision.sqrt_fraction(ns, ctx)
    with precision.decimal_range("beta_min of {}", lam):
        beta_min = ctx.exp(ctx.multiply(lam_norm, log_inv_q))

    diff = ctx.subtract(ns_dec, t_sq)
    scale = max(Decimal(1), ns_dec, t_sq)
    boundary = abs(diff) <= BOUNDARY_GUARD * scale
    extends = boundary or diff <= 0

    if extends:
        cert = Certificate(kind="bound", bound=Decimal(1), attained_at=(0,) * rs.rank)
    else:
        with precision.decimal_range("the growth factor of {}", lam):
            growth = ctx.exp(ctx.subtract(ctx.multiply(ns_dec, log_inv_q),
                                          ctx.multiply(lam_norm, log_b)))
        cert = Certificate(kind="divergence", ray_base=lam, growth_factor=growth)
    return CBDecision(
        lam=lam,
        beta=b,
        q=cfg.q,
        extends=extends,
        boundary=boundary,
        norm_sq=ns,
        threshold_sq=t_sq,
        beta_min=beta_min,
        certificate=cert,
    )


def cb_region_enumerate(rs: RootSystem, cfg: SessionConfig, beta,
                        height: int) -> list[CBDecision]:
    """Decisions for every dominant lam with coordinates <= height.

    Ordered by total coordinate sum, then lexicographically.  The logarithms
    and the threshold are computed once for the whole enumeration.
    """
    weights = rs.dominant_weights_up_to(height)
    shared = _shared_constants(cfg, beta, precision.make_context())
    return [cb_extends(rs, cfg, beta, lam, _shared=shared) for lam in weights]


class ScanReport(NamedTuple):
    lam: Weight
    beta: Decimal
    height: int
    max_log_ratio: Decimal
    argmax: Weight
    ray: tuple[Decimal, ...]       # log-ratio along mu = m*lam, m = 1..len(ray)
    decision: CBDecision
    consistent: bool


def sup_ratio_scan(rs: RootSystem, cfg: SessionConfig, beta, lam, height: int) -> ScanReport:
    """Empirical scan of the log-ratio r(mu) = (lam,mu) log(1/q) - |mu| log(beta).

    Reports the maximum over all dominant mu up to the given height, the
    maximiser, and the restriction of r to the ray mu = m*lam.  The report is
    marked consistent when it matches the closed-form decision: bounded by 0
    for an extending lam, strictly increasing along the ray otherwise.
    """
    lam = rs.check_dominant(lam)
    ctx = precision.make_context()
    shared = _shared_constants(cfg, beta, ctx)
    decision = cb_extends(rs, cfg, beta, lam, _shared=shared)
    _, log_b, log_inv_q, _ = shared

    def log_ratio(mu: Weight) -> Decimal:
        ip = precision.to_decimal(rs.inner_product(lam, mu), ctx)
        norm = precision.sqrt_fraction(rs.norm_sq(mu), ctx)
        return ctx.subtract(ctx.multiply(ip, log_inv_q), ctx.multiply(norm, log_b))

    best: Decimal | None = None
    argmax: Weight | None = None
    for mu in rs.dominant_weights_up_to(height):
        r = log_ratio(mu)
        if best is None or r > best:
            best, argmax = r, mu

    ray = tuple(log_ratio(tuple(m * c for c in lam)) for m in range(1, _RAY_STEPS + 1))

    eps = Decimal(10) ** -(precision.DIGITS - 10)
    if decision.extends:
        consistent = best <= eps
    else:
        consistent = all(b - a > eps for a, b in zip(ray, ray[1:])) and ray[-1] > 0
    return ScanReport(
        lam=lam,
        beta=decision.beta,
        height=height,
        max_log_ratio=best,
        argmax=argmax,
        ray=ray,
        decision=decision,
        consistent=consistent,
    )
