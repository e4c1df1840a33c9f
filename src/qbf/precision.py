"""High-precision decimal helpers shared by the weight validators and region code.

All non-rational arithmetic in this package (square roots, logarithms,
exponentials) runs in a :mod:`decimal` context of ``DIGITS`` significant
digits.  The precision is fixed, and two tolerances are sized for it, both
in ``cb_region``.  The boundary guard ``BOUNDARY_GUARD`` = 1e-30 is relative
to the scale of the two sides of a threshold, far above the rounding of the
few operations behind a decision, and a decision inside it is flagged and
counts as extending.  ``sup_ratio_scan`` tests its log-ratios against an
absolute eps = 10^-(DIGITS - 10): their maximum against 0, which the zero
weight attains exactly, and the steps along a ray against each other, where
a relative guard has no scale to refer to.  eps leaves room for the
rounding of a few operations on values of modest size, and it only marks an
empirical scan consistent; no decision reads it.

``to_decimal`` is the one screening of user-supplied reals: every caller
that takes a real from outside the package (beta, table values) passes it
through ``to_decimal`` and adds only its own domain bound.
``decimal_range`` is the one translation of a result beyond the context's
exponent range, above it or rounded away below it, into a ``ValueError``.
``widen`` is the one rule for reading a real x near 1, whose logarithm lives
in the digits of x - 1, and ``ln`` takes logarithms by it: of q for
``ln(1/q)`` and of beta; when x - 1 has more than 2 ``DIGITS`` leading zeros
it returns x - 1 rounded once instead, in bounded time, since ln x is then
within (x - 1)^2 < 10^-(2 DIGITS) |x - 1| of it.
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


def widen(x, ctx: Context, name: str = "value") -> Context:
    """ctx with as many more digits as x - 1 has leading zeros, x screened as
    ``to_decimal`` screens it.

    Near 1, ln x is about x - 1, and x rounded to ctx keeps only the digits
    of x - 1 that fit after its leading zeros, or none: 1 - 10^-60 rounds to
    1 at 50 digits.  Read in the returned context, x keeps the working
    digits of x - 1 and so the sign of ln x.  The zeros are counted exactly
    on x as given; for |x - 1| >= 0.1 there are none.
    """
    wide = ctx.copy()
    if Decimal("0.5") < to_decimal(x, ctx, name) < 2:  # so x is cheap to read exactly
        if isinstance(x, float):
            x = repr(x)
        d = abs((x if isinstance(x, Fraction) else Fraction(Decimal(x))) - 1)
        # With k the difference of the digit counts of its terms, d < 1 lies
        # in [10^-k, 10^(1-k)), with k - 1 leading zeros, or below, with k.
        k = Decimal(d.denominator).adjusted() - Decimal(d.numerator).adjusted()
        wide.prec += k - 1 if d.numerator * 10**k >= d.denominator else k
    return wide


def ln(x, ctx: Context, name: str = "value") -> Decimal:
    """ln x for a real x > 0, rounded to ctx of at most ``DIGITS`` digits,
    taken on x as read in ``widen(x, ctx)`` and first rounded there.

    ``Context.ln`` at the widened precision costs about the cube of the
    leading zeros of x - 1, so beyond 2 ``DIGITS`` of them ln x is x - 1
    as read, rounded once to ctx.
    """
    wide = widen(x, ctx, name)
    read = to_decimal(x, wide, name)
    if wide.prec - ctx.prec > 2 * DIGITS:
        # d = read - 1 is exact, with |d| < 10^-(2 DIGITS) and at most
        # DIGITS significant digits, and ln(1 + d) = d - d^2/2 + ... is
        # within d^2 < 10^-(2 DIGITS) |d| of d: far below half a unit in the
        # last digit of d, so d rounded to ctx is ln x rounded to ctx.
        return ctx.plus(wide.subtract(read, 1))
    return ctx.plus(wide.ln(read))


def sqrt_fraction(fr: Fraction, ctx: Context) -> Decimal:
    if fr < 0:
        raise ValueError("square root of a negative rational")
    return ctx.sqrt(to_decimal(fr, ctx))


def render(x: Decimal, digits: int) -> str:
    """Deterministic fixed-significance rendering of a Decimal."""
    ctx = Context(prec=digits)
    return str(ctx.plus(x))
