"""The packed-key Weyl-group kernel against a plain tuple reference.

Everything on the reference side is written here on tuples of ints and exact
Fractions: the simple reflection s_i(x) = x - x_i a_i, reflection into the
dominant chamber in the first negative coordinate, the orbit as a frontier
search over every nonzero coordinate, and Freudenthal's recursion, which
stops each string at the first weight outside the character instead of at
the norm bound, and counts the dimension from the reference orbits.  The
kernel side is :class:`qbf.root_system._Fields` with the memos built on it,
read through the library's own entry points.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbf.characters import weight_multiplicities
from qbf.fusion import tensor_decompose
from qbf.root_system import _MIN_FIELD, build_root_system

TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4", "E6", "E7", "E8",
         "B2xA1")


def reflect(rs, x, i):
    return tuple(c - x[i] * a for c, a in zip(x, rs.simple_roots[i]))


def dominant_form(rs, x):
    sign = 1
    while min(x) < 0:
        x = reflect(rs, x, next(i for i, c in enumerate(x) if c < 0))
        sign = -sign
    return x, sign, 0 in x


def orbit(rs, x):
    seen = {x}
    frontier = [x]
    while frontier:
        frontier = [y for w in frontier for i in range(rs.rank) if w[i]
                    for y in [reflect(rs, w, i)] if y not in seen and not seen.add(y)]
    return sorted(seen)


def form(rs, x, y):
    return sum(x[i] * rs.gram[i][j] * y[j] for i in range(rs.rank) for j in range(rs.rank))


def character(rs, mu):
    """(dominant multiplicities, dimension) of V(mu), all on tuples."""
    below = {mu}
    stack = [mu]
    while stack:
        nu = stack.pop()
        for alpha in rs.positive_roots:
            x = tuple(a - b for a, b in zip(nu, alpha))
            if min(x) >= 0 and x not in below:
                below.add(x)
                stack.append(x)

    def shifted_norm(nu):
        shifted = tuple(c + 1 for c in nu)
        return form(rs, shifted, shifted)

    mults = {}
    for nu in sorted(below, key=lambda nu: (-shifted_norm(nu), nu)):
        if nu == mu:
            mults[nu] = 1
            continue
        total = Fraction(0)
        for alpha in rs.positive_roots:
            k = 1
            while True:
                xi = tuple(c + k * a for c, a in zip(nu, alpha))
                m = mults.get(dominant_form(rs, xi)[0])
                if not m:  # a string of weights is unbroken
                    break
                total += m * form(rs, xi, alpha)
                k += 1
        m = 2 * total / (shifted_norm(mu) - shifted_norm(nu))
        assert m.denominator == 1 and m > 0, (mu, nu, m)
        mults[nu] = int(m)
    return mults, sum(m * len(orbit(rs, nu)) for nu, m in mults.items())


def unit(rank, i):
    return tuple(int(i == j) for j in range(rank))


# Dominant weights small enough for the reference character per type: every
# weight with coordinate sum <= the bound, and for E7 and E8 a few fundamental
# weights (the E8 ones of dimension 248 and 3875).
CHARACTER_SUMS = {"A1": 6, "A2": 4, "A3": 3, "A4": 2, "B2": 4, "B3": 2, "B4": 1, "C3": 2,
                  "D4": 1, "G2": 3, "F4": 1, "E6": 1, "B2xA1": 2}
EXTRA_CHARACTERS = {"E7": [unit(7, 0), unit(7, 6)], "E8": [unit(8, 7), unit(8, 0)]}


def small_dominant(rs, bound):
    weights = rs.dominant_weights_up_to(bound)
    return [nu for nu in weights if sum(nu) <= bound]


@pytest.mark.parametrize("typ", TYPES)
def test_characters_match_the_tuple_recursion(typ):
    rs = build_root_system(typ)
    weights = (small_dominant(rs, CHARACTER_SUMS[typ]) if typ in CHARACTER_SUMS
               else EXTRA_CHARACTERS[typ])
    for mu in weights:
        char = weight_multiplicities(rs, mu)
        mults, dim = character(rs, mu)
        assert (dict(char.dominant), char.dim) == (mults, dim), mu
        assert dim == rs.weyl_dim(mu)


# Orbits the reference enumerates quickly: all weights with coordinates in
# [0, 2] for rank <= 4, coordinate sum <= 1 beyond (E8 only its adjoint).
def orbit_weights(rs):
    if rs.rank <= 4:
        return rs.dominant_weights_up_to(2)
    if rs.rank == 8:
        return [(0,) * 8, unit(8, 7), unit(8, 0)]
    return small_dominant(rs, 1)


@pytest.mark.parametrize("typ", TYPES)
def test_orbits_match_the_frontier_search(typ):
    rs = build_root_system(typ)
    for nu in orbit_weights(rs):
        expected = orbit(rs, nu)
        assert rs.weyl_orbit(nu) == expected, nu
        fields = rs._fields[_MIN_FIELD]
        packed = fields.orbits[nu]
        assert len(packed) == len(set(packed)) == rs._orbit_size(nu)
        assert sorted(fields.weight(k + fields.top) for k in packed) == expected
        # any point of the orbit gives the same sorted orbit
        assert rs.weyl_orbit(expected[len(expected) // 2]) == expected


@st.composite
def lattice_points(draw, scale=6):
    rs = build_root_system(draw(st.sampled_from(TYPES)))
    coordinate = st.integers(-scale, scale)
    return rs, draw(st.tuples(*[coordinate] * rs.rank))


@settings(max_examples=300, deadline=None)
@given(lattice_points())
def test_dominant_form_sign_and_wall(drawn):
    rs, x = drawn
    expected = dominant_form(rs, x)
    assert rs.dominant_representative(x) == expected
    for width in (_MIN_FIELD, _MIN_FIELD + 13):
        fields = rs._fields[width]
        key, sign = fields.dominant(fields.key(x))
        assert (fields.weight(key), sign) == expected[:2]
        assert fields.weight(fields.dominant_keys[fields.key(x)]) == expected[0]


# Coordinates far beyond the 21-bit fields, which need wider ones.
HUGE = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.integers(2 ** 20 - 8, 2 ** 20 + 8),
                 st.integers(-2 ** 20 - 8, -2 ** 20 + 8))


@st.composite
def huge_points(draw):
    rs = build_root_system(draw(st.sampled_from(("A1", "A2", "A3", "B2", "B3", "C3", "G2",
                                                 "D4", "F4", "B2xA1"))))
    return rs, draw(st.tuples(*[st.one_of(HUGE, st.integers(-3, 3))] * rs.rank))


@settings(max_examples=150, deadline=None)
@given(huge_points())
def test_huge_coordinates_take_wider_fields(drawn):
    rs, x = drawn
    expected = dominant_form(rs, x)
    assert rs.dominant_representative(x) == expected
    if rs.rank <= 3:
        assert rs.weyl_orbit(x) == orbit(rs, x)
    assert rs.conjugate_weight(expected[0]) == dominant_form(rs, tuple(-c for c in expected[0]))[0]


@settings(max_examples=40, deadline=None)
@given(huge_points(), st.data())
def test_fusion_around_a_huge_anchor(drawn, data):
    # Brauer-Klimyk on the reference: each weight of the small factor moved
    # to the huge anchor + rho and reflected there on tuples.
    rs, x = drawn
    anchor = dominant_form(rs, x)[0]
    small = data.draw(st.tuples(*[st.integers(0, 1)] * rs.rank))
    acc = {}
    for nu, m in character(rs, small)[0].items():
        for w in orbit(rs, nu):
            y, sign, wall = dominant_form(rs, tuple(a + 1 + c for a, c in zip(anchor, w)))
            if not wall:
                key = tuple(c - 1 for c in y)
                acc[key] = acc.get(key, 0) + sign * m
    expected = {nu: m for nu, m in acc.items() if m}
    assert dict(tensor_decompose(rs, anchor, small)._parts) == expected
