import ast
import inspect
import os
import subprocess
import sys
from decimal import Decimal, InvalidOperation, Overflow, Underflow
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qbf
from qbf import precision
from qbf.central_weights import _triangle_compare


def test_default_digits():
    assert precision.working_digits() == precision.DIGITS == 50
    assert precision.make_context().prec == precision.DIGITS


def test_to_decimal_float_uses_repr():
    ctx = precision.make_context()
    assert precision.to_decimal(0.3, ctx) == Decimal("0.3")
    assert precision.to_decimal(Fraction(1, 4), ctx) == Decimal("0.25")


def _as_today(x, ctx):
    """The conversion of a finite real that ``to_decimal`` keeps, with
    ``decimal.Underflow`` trapped: digits rounded away below the subnormal
    range are an error, an exact subnormal is not."""
    ctx = ctx.copy()
    ctx.traps[Underflow] = True
    if isinstance(x, Fraction):
        return ctx.divide(Decimal(x.numerator), Decimal(x.denominator))
    return ctx.plus(Decimal(x))


finite_reals = st.one_of(st.integers(), st.fractions(),
                         st.decimals(allow_nan=False, allow_infinity=False))


@given(finite_reals, st.booleans())
@example(Decimal("1e999999"), True)
@example(Decimal("-0"), True)
@example(Decimal("1e-1000100"), True)
@example(Decimal("-1.25e-1000047"), False)
@example(Decimal("1e-999990"), True)
@example(Decimal("0E-1000100"), False)
@example(Fraction(1, 10 ** 1000), False)
def test_to_decimal_converts_finite_reals(x, as_text):
    ctx = precision.make_context()
    if as_text and not isinstance(x, Fraction):
        x = str(x)
    try:
        expected = _as_today(x, ctx)
    except (Overflow, Underflow):
        with pytest.raises(ValueError, match="^beta = .* is out of the decimal range"):
            precision.to_decimal(x, ctx, "beta")
        return
    got = precision.to_decimal(x, ctx, "beta")
    assert str(got) == str(expected)


def _unreadable(text):
    try:
        Decimal(text)
    except InvalidOperation:
        return True
    return False


rejected_reals = st.one_of(
    st.booleans(), st.none(), st.lists(st.integers(), max_size=3),
    st.tuples(st.integers()), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from([(0, (1,), 0), "nan", "-NaN", "sNaN", "inf", "-Infinity",
                     Decimal("NaN"), Decimal("sNaN"), Decimal("-Infinity"),
                     float("nan"), float("inf"), float("-inf")]),
    st.text().filter(_unreadable))


@given(rejected_reals, st.sampled_from(["beta", "table value at (1,)"]))
def test_to_decimal_rejects_with_one_line_naming_the_value(x, name):
    with pytest.raises(ValueError) as info:
        precision.to_decimal(x, precision.make_context(), name)
    message = str(info.value)
    assert message.startswith(name + " must be ") and "\n" not in message
    assert ("finite" in message) != ("decimal number" in message)


@pytest.mark.parametrize("value", [True, (0, (1,), 0), [1], None, "abc", "nan", "inf", "-inf",
                                   "1e-1000100"])
@pytest.mark.parametrize("entry", ["beta_norm", "lst", "from_table", "cb_extends",
                                   "cb_region_enumerate", "sup_ratio_scan"])
def test_every_entry_point_screens_its_real(entry, value):
    rs, cfg = qbf.build_root_system("A2"), qbf.SessionConfig("1/2")
    calls = {
        "beta_norm": lambda: qbf.CentralWeightSpec.beta_norm(value),
        "lst": lambda: qbf.CentralWeightSpec.lst(value),
        "from_table": lambda: qbf.CentralWeightSpec.from_table([((0, 0), 1), ((1, 0), value)]),
        "cb_extends": lambda: qbf.cb_extends(rs, cfg, value, (5, 5)),
        "cb_region_enumerate": lambda: qbf.cb_region_enumerate(rs, cfg, value, 1),
        "sup_ratio_scan": lambda: qbf.sup_ratio_scan(rs, cfg, value, (1, 0), 2),
    }
    # A positive value too small to hold is out of range, not rounded to zero.
    problem = "= 1e-1000100 is out of the decimal range" if value == "1e-1000100" else "must be "
    with pytest.raises(ValueError, match=f"^(beta|table value at \\(1, 0\\)) {problem}"):
        calls[entry]()


def test_decimal_range_names_the_quantity():
    ctx = precision.make_context()
    with pytest.raises(ValueError, match=r"^w\(\(1, 2\)\) is out of the decimal range "
                                         r"\(exponent above 999999\)$"):
        with precision.decimal_range("w({})", (1, 2)):
            ctx.exp(Decimal("1e7"))

    trapping = ctx.copy()
    trapping.traps[Underflow] = True
    with pytest.raises(ValueError, match=r"^beta is out of the decimal range "
                                         r"\(rounded below exponent -999999\)$"):
        with precision.decimal_range("beta"):
            trapping.plus(Decimal("1e-1000100"))

    class Unrendered:
        def __str__(self):
            raise AssertionError("the label was rendered without an overflow")

    with precision.decimal_range("{}", Unrendered()):
        assert ctx.exp(Decimal(0)) == 1


def test_sqrt_fraction():
    ctx = precision.make_context()
    root = precision.sqrt_fraction(Fraction(2), ctx)
    assert abs(root * root - 2) < Decimal("1e-48")
    with pytest.raises(ValueError, match="negative"):
        precision.sqrt_fraction(Fraction(-1), ctx)


def test_render_fixed_significance():
    assert precision.render(Decimal("2.665144142690225"), 12) == "2.66514414269"
    assert precision.render(Decimal(1), 12) == "1"


small = st.fractions(min_value=0, max_value=1000, max_denominator=1000)


@st.composite
def triangle_triples(draw):
    """(a, b, c) drawn independently, with a = b + c, or on or next to
    sqrt(a) = sqrt(b) + sqrt(c)."""
    x, y = draw(small), draw(small)
    kind = draw(st.sampled_from(("free", "sum", "square")))
    if kind == "free":
        return draw(small), x, y
    if kind == "sum":
        return x + y, x, y
    shift = draw(st.sampled_from((0, Fraction(1, 10**6), -Fraction(1, 10**6))))
    return max(Fraction(0), (x + y) ** 2 + shift), x * x, y * y


@given(triangle_triples())
@example((Fraction(9), Fraction(1), Fraction(4)))
@example((Fraction(2), Fraction(1), Fraction(1)))
def test_triangle_compare_matches_decimal_sign(triple):
    a, b, c = triple
    ctx = precision.make_context()
    value = ctx.subtract(precision.sqrt_fraction(a, ctx),
                         ctx.add(precision.sqrt_fraction(b, ctx),
                                 precision.sqrt_fraction(c, ctx)))
    # Drawn values keep a nonzero exact difference far above this rounding bound.
    eps = Decimal(10) ** -(precision.DIGITS - 10)
    sign = _triangle_compare(a, b, c)
    if sign == 0:
        assert abs(value) <= eps
    else:
        assert abs(value) > eps and (value > 0) == (sign > 0)


@given(triangle_triples(), st.integers(1, 10**6))
def test_triangle_compare_on_scaled_integers(triple, scale):
    den = scale * lcm(*(x.denominator for x in triple))
    scaled = [int(x * den) for x in triple]
    assert _triangle_compare(*scaled) == _triangle_compare(*triple)


def _public_callables():
    for name in qbf.__all__:
        obj = getattr(qbf, name)
        if inspect.isclass(obj):
            yield f"{name}()", obj
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_digits_parameter():
    callables = dict(_public_callables())
    assert "QExponent.q_power" in callables and "cb_extends" in callables
    for name, fn in callables.items():
        try:
            params = inspect.signature(fn).parameters
        except ValueError:
            continue
        assert "digits" not in params, name


def test_no_module_reads_the_environment():
    for path in sorted(Path(qbf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"environ", "environb", "getenv", "getenvb"}, path.name


def test_precision_env_var_has_no_effect():
    # The exact-boundary case beta = q^{-|lam|} (A1, q = 1/2, lam = (2,)) must
    # be decided as an inclusive boundary whatever the environment says.
    code = (
        "from decimal import Context, Decimal\n"
        "from qbf import SessionConfig, build_root_system, cb_extends\n"
        "ctx = Context(prec=50)\n"
        "beta = ctx.exp(ctx.multiply(ctx.sqrt(Decimal(2)), ctx.ln(Decimal(2))))\n"
        "d = cb_extends(build_root_system('A1'), SessionConfig('0.5'), beta, (2,))\n"
        "print(d.extends, d.boundary)\n"
    )
    env = dict(os.environ, QBF_PRECISION="12")
    src = str(Path(qbf.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["True", "True"]
