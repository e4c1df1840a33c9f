"""High-precision decimal helpers shared by the weight validators and region code.

All non-rational arithmetic in this package (square roots, logarithms,
exponentials) runs in a :mod:`decimal` context of ``DIGITS`` significant
digits.  The precision is fixed: the tolerances of the callers are sized for
it.  ``to_decimal`` is the one screening of user-supplied reals: every
caller that takes a real from outside the package (beta, table values)
passes it through ``to_decimal`` and adds only its own domain bound.
``decimal_range`` is the one translation of a result beyond the context's
exponent range, above it or rounded away below it, into a ``ValueError``.
"""

from __future__ import annotations

from contextlib import contextmanager
from decimal import Context, Decimal, InvalidOperation, Overflow, Underflow
from fractions import Fraction

DIGITS = 50


def working_digits() -> int:
    """Number of significant digits for high-precision work."""
    return DIGITS


def make_context() -> Context:
    return Context(prec=working_digits())


@contextmanager
def decimal_range(label: str, *args):
    """Raise a ``decimal.Overflow`` or a trapped ``decimal.Underflow`` in the
    block as a one-line ``ValueError``.

    The message names the quantity ``label.format(*args)``, formatted only on
    failure, so hot callers pay nothing for it.
    """
    try:
        yield
    except Overflow:
        raise ValueError(f"{label.format(*args)} is out of the decimal range "
                         f"(exponent above {make_context().Emax})") from None
    except Underflow:
        raise ValueError(f"{label.format(*args)} is out of the decimal range "
                         f"(rounded below exponent {make_context().Emin})") from None


def to_decimal(x, ctx: Context, name: str = "value") -> Decimal:
    """Convert int/str/float/Fraction/Decimal to a finite Decimal in the given context.

    Floats go through their shortest decimal repr, so 0.3 means 3/10.  A bool,
    any other type, a string ``Decimal`` cannot read, NaN, an infinity, a
    value beyond the context's exponent range and a value that loses digits
    in the subnormal range or rounds to zero (``decimal.Underflow``) are each
    a one-line ``ValueError``; ``name`` only sets the wording of that error.
    An exact subnormal is kept.
    """
    with decimal_range("{} = {}", name, x):
        if isinstance(x, Fraction):
            convert, args = Context.divide, (Decimal(x.numerator), Decimal(x.denominator))
        else:
            if isinstance(x, float):
                x = repr(x)
            elif isinstance(x, bool) or not isinstance(x, (int, str, Decimal)):
                raise ValueError(f"{name} must be a decimal number, got {x!r}")
            try:
                d = Decimal(x)
            except InvalidOperation:
                raise ValueError(f"{name} must be a decimal number, got {x!r}") from None
            if not d.is_finite():
                raise ValueError(f"{name} must be finite, got {x}")
            convert, args = Context.plus, (d,)
        result = convert(ctx, *args)
        if result.adjusted() < ctx.Emin:
            # Zero or subnormal: convert again with Underflow trapped, which
            # raises only when digits were rounded away.
            trapping = ctx.copy()
            trapping.traps[Underflow] = True
            convert(trapping, *args)
        return result


def sqrt_fraction(fr: Fraction, ctx: Context) -> Decimal:
    if fr < 0:
        raise ValueError("square root of a negative rational")
    return ctx.sqrt(to_decimal(fr, ctx))


def render(x: Decimal, digits: int) -> str:
    """Deterministic fixed-significance rendering of a Decimal."""
    ctx = Context(prec=digits)
    return str(ctx.plus(x))
