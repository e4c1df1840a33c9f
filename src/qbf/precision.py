"""High-precision decimal helpers shared by the weight validators and region code.

All non-rational arithmetic in this package (square roots, logarithms,
exponentials) runs in a :mod:`decimal` context of ``DIGITS`` significant
digits.  The precision is fixed: the tolerances of the callers are sized for
it.  ``to_decimal`` is also the one coercion of user-supplied reals, and
``decimal_range`` the one translation of a result beyond the context's
exponent range into a ``ValueError``.
"""

from __future__ import annotations

from contextlib import contextmanager
from decimal import Context, Decimal, Overflow
from fractions import Fraction

DIGITS = 50


def working_digits() -> int:
    """Number of significant digits for high-precision work."""
    return DIGITS


def make_context() -> Context:
    return Context(prec=working_digits())


@contextmanager
def decimal_range(label: str, *args):
    """Raise a ``decimal.Overflow`` in the block as a one-line ``ValueError``.

    The message names the quantity ``label.format(*args)``, formatted only on
    overflow, so hot callers pay nothing for it.
    """
    try:
        yield
    except Overflow:
        raise ValueError(f"{label.format(*args)} is out of the decimal range "
                         f"(exponent above {make_context().Emax})") from None


def to_decimal(x, ctx: Context) -> Decimal:
    """Convert int/str/float/Fraction/Decimal to Decimal in the given context.

    Floats go through their shortest decimal repr, so 0.3 means 3/10.  A value
    beyond the context's exponent range is a ``ValueError``, like any other
    unusable user real.
    """
    with decimal_range("{}", x):
        if isinstance(x, Decimal):
            return ctx.plus(x)
        if isinstance(x, Fraction):
            return ctx.divide(Decimal(x.numerator), Decimal(x.denominator))
        if isinstance(x, float):
            return ctx.plus(Decimal(repr(x)))
        return ctx.plus(Decimal(x))


def sqrt_fraction(fr: Fraction, ctx: Context) -> Decimal:
    if fr < 0:
        raise ValueError("square root of a negative rational")
    return ctx.sqrt(to_decimal(fr, ctx))


def render(x: Decimal, digits: int) -> str:
    """Deterministic fixed-significance rendering of a Decimal."""
    ctx = Context(prec=digits)
    return str(ctx.plus(x))
