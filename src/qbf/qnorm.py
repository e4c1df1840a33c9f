"""Norm formulas as exact exponent arithmetic.

Every operator norm here is a power q^e with an exact rational exponent e, so
norms are carried as exponents and never as evaluated powers (q^{-(lam,mu)}
overflows floating point almost immediately).  Two routes are provided for
the same quantity and are cross-checked in the test suite:

* the closed form, exponent -(lam, mu);
* the fusion route, which enumerates the tensor components nu of mu (x) lam,
  forms E(nu) = (mu, mu+2rho) + (lam, lam+2rho) - (nu, nu+2rho) and takes half
  of the minimal exponent (the supremum of q^E over components, square-rooted).

The minimum is attained exactly at nu = lam + mu, which makes the two routes
agree identically.
"""

from __future__ import annotations

import re
from decimal import Context, Decimal
from fractions import Fraction
from typing import NamedTuple

# fusion as a module, so cb_region, which needs only SessionConfig here,
# does not run fusion's code.
from . import fusion, precision
from .root_system import RootSystem, Weight


class QExponent(NamedTuple):
    """The quantity q^value for the session's q in (0, 1).

    Ordering of the represented norms is the reverse of the ordering of the
    exponents: a smaller exponent means a larger norm.
    """

    value: Fraction

    def q_power(self, q) -> Decimal:
        """Render q^value as a high-precision decimal, from ln q as
        ``precision.ln`` takes it, which keeps the digits of q - 1 when q is
        near 1."""
        ctx = precision.make_context()
        ln_q = precision.ln(_check_q(q), ctx)
        e = precision.to_decimal(self.value, ctx)
        with precision.decimal_range("{}", self):
            return ctx.exp(ctx.multiply(e, ln_q))

    def __str__(self) -> str:
        return f"q^({self.value})"


# q is rendered exactly as p/q, and Python converts at most this many digits
# of an int to a string.
_Q_MAX_DIGITS = 4300
_Q_OUT_OF_RANGE = "deformation parameter q must satisfy 0 < q < 1, got {}"
_Q_TOO_LONG = ("deformation parameter q must be a rational with at most "
               f"{_Q_MAX_DIGITS} digits in its denominator, got {{}}")

# A decimal string as Fraction reads it: significand, exponent.
_DECIMAL_Q = re.compile(r"\s*([+-]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?)"
                        r"(?:[eE]([+-]?\d+(?:_\d+)*))?\s*")


def _check_q(q) -> Fraction:
    if isinstance(q, str) and (m := _DECIMAL_Q.fullmatch(q)):
        # Fraction would build 10^|e|: decide from the adjusted exponent first,
        # comparing exactly in Decimal, which reads an exponent of any length.
        sig, exp = Decimal(m[1]), Decimal(m[2] or 0)
        if sig <= 0 or exp >= -sig.adjusted():
            raise ValueError(_Q_OUT_OF_RANGE.format(q))
        if exp < -_Q_MAX_DIGITS - sig.adjusted():
            raise ValueError(_Q_TOO_LONG.format(q))
    try:
        qf = Fraction(repr(q)) if isinstance(q, float) else Fraction(q)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(
            f"deformation parameter q must be a rational in (0, 1) like 0.5 or 1/2, got {q!r}"
        ) from None
    if not 0 < qf < 1:
        raise ValueError(_Q_OUT_OF_RANGE.format(_shown(q)))
    if qf.denominator >= 10 ** _Q_MAX_DIGITS:
        raise ValueError(_Q_TOO_LONG.format(_shown(q)))
    return qf


def _shown(q) -> str:
    """q as a refusal shows it: exactly, or to 12 digits when an int in it is
    too long for Python to convert to a string."""
    try:
        return str(q)
    except ValueError:
        qf, ctx = Fraction(q), Context(prec=12)
        return f"about {ctx.divide(Decimal(qf.numerator), qf.denominator).normalize(ctx)}"


class SessionConfig(NamedTuple("SessionConfig", [("q", Fraction)])):
    """Deformation parameter for a run.

    Floats are canonicalised through their decimal repr, so q=0.3 is exactly
    3/10.
    """

    __slots__ = ()

    def __new__(cls, q) -> "SessionConfig":
        return super().__new__(cls, _check_q(q))


def lminus_norm_exponent(rs: RootSystem, lam, mu) -> QExponent:
    """Exponent of the closed-form norm q^{-(lam, mu)}."""
    lam = rs.check_dominant(lam)
    mu = rs.check_dominant(mu)
    return QExponent(-rs.inner_product(lam, mu))


class RMatrixExponentDetails(NamedTuple):
    """Fusion-route exponent data: E(nu) per component and the minimiser."""

    lam: Weight
    mu: Weight
    exponent: Fraction            # half of the minimal E(nu)
    table: tuple[tuple[Weight, int, Fraction], ...]   # (nu, mult, E(nu))
    minimizer: Weight
    ties: tuple[Weight, ...]      # all nu attaining the minimal E(nu)


def rmatrix_exponent_details(rs: RootSystem, lam, mu) -> RMatrixExponentDetails:
    lam = rs.check_dominant(lam)
    mu = rs.check_dominant(mu)
    base = rs.casimir(mu) + rs.casimir(lam)
    table = []
    for nu, m in fusion.tensor_decompose(rs, mu, lam).components.items():
        table.append((nu, m, base - rs.casimir(nu)))
    emin = min(e for _, _, e in table)
    ties = tuple(nu for nu, _, e in table if e == emin)
    return RMatrixExponentDetails(
        lam=lam,
        mu=mu,
        exponent=emin / 2,
        table=tuple(table),
        minimizer=ties[0],
        ties=ties,
    )


def rmatrix_sup_exponent(rs: RootSystem, lam, mu) -> QExponent:
    """Exponent of the norm via the R-matrix eigenvalue route.

    Deliberately recomputed through the fusion decomposition rather than the
    closed form, as an in-library cross-check.
    """
    return QExponent(rmatrix_exponent_details(rs, lam, mu).exponent)


def i_norm_exponent(rs: RootSystem, lam, mu) -> QExponent:
    """Exponent of the positive-operator norm, exactly twice the closed form."""
    return QExponent(2 * lminus_norm_exponent(rs, lam, mu).value)
