import random
from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbf.central_weights import _triangle_compare
from qbf.fusion import tensor_decompose
from qbf import root_system
from qbf.root_system import (_MIN_FIELD, LieType, LieTypeError, RootSystem, _gauss_jordan,
                             build_root_system)

ACCEPTANCE_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]
# Every series, both products of the prototype checks, and all three E ranks.
GRAM_TYPES = ACCEPTANCE_TYPES + ["E6", "E7", "E8", "C4", "D5", "B2xG2", "A3xA1"]

# Weyl dimensions of the fundamental weights omega_1, ..., omega_n (Bourbaki numbering).
FUNDAMENTAL_DIMS = {
    "G2": [7, 14],
    "F4": [52, 1274, 273, 26],
    "E6": [27, 78, 351, 2925, 351, 27],
    "E7": [133, 912, 8645, 365750, 27664, 1539, 56],
    "E8": [3875, 147250, 6696000, 6899079264, 146325270, 2450240, 30380, 248],
}

CLASSICAL_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9,
    "D4": 12, "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
    "D5": 20, "C4": 16, "B4": 16, "A5": 15,
}


def invert(mat):
    """Independent exact Gauss-Jordan inversion used as the gram oracle."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def leibniz_det(mat):
    """Determinant by the Leibniz expansion, independent of any elimination."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(mat[i][perm[i]] for i in range(n))
    return total


@st.composite
def zero_first_pivot_matrices(draw):
    """A small integer matrix whose (0, 0) entry is 0, so that elimination
    must swap rows at its first pivot."""
    n = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    rows[0][0] = 0
    return rows


def reference_positive_roots(rs):
    """The roots as a reflection closure of the simple roots, kept positive by
    the signs of their rational simple-root coefficients A^{-1} r, sorted by
    height, then by fundamental-weight coordinates."""
    n = rs.rank
    ainv = invert(rs.cartan)
    roots = set(rs.simple_roots)
    frontier = list(rs.simple_roots)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                s = tuple(r[j] - r[i] * rs.cartan[j][i] for j in range(n))
                if s not in roots:
                    roots.add(s)
                    nxt.append(s)
        frontier = nxt
    positive = []
    for r in roots:
        coeffs = [sum(ainv[i][j] * r[j] for j in range(n)) for i in range(n)]
        if all(c >= 0 for c in coeffs):
            positive.append((sum(coeffs), r))
    positive.sort()
    return tuple(r for _, r in positive)


def leading_minors_positive(g):
    n = len(g)
    work = [[Fraction(x) for x in row] for row in g]
    for k in range(n):
        if work[k][k] <= 0:
            return False
        for r in range(k + 1, n):
            f = work[r][k] / work[k][k]
            work[r] = [x - f * y for x, y in zip(work[r], work[k])]
    return True


class TestConstruction:
    def test_gram_a1(self):
        rs = build_root_system("A1")
        assert rs.gram == ((Fraction(1, 2),),)

    def test_gram_a2(self):
        rs = build_root_system("A2")
        assert rs.gram == (
            (Fraction(2, 3), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(2, 3)),
        )

    @pytest.mark.parametrize("typ", GRAM_TYPES)
    def test_gram_solves_g_times_cartan_equals_d(self, typ):
        # Independent oracle: G must satisfy G.A = diag(d), i.e. G = D.A^{-1}.
        rs = build_root_system(typ)
        n = rs.rank
        ainv = invert(rs.cartan)
        expected = [[rs.symmetrizers[i] * ainv[i][j] for j in range(n)] for i in range(n)]
        assert [list(r) for r in rs.gram] == expected
        assert [[x * rs._gram_den for x in row] for row in expected] == [list(r) for r in rs._gram_num]

    @settings(max_examples=200, deadline=None)
    @given(zero_first_pivot_matrices())
    def test_gauss_jordan_inverts_with_row_swaps(self, mat):
        det = leibniz_det(mat)
        assume(det != 0)
        p, X = _gauss_jordan(mat)
        assert abs(p) == abs(det)
        assert [[Fraction(x, p) for x in row] for row in X] == invert(mat)

    @pytest.mark.parametrize("typ", GRAM_TYPES)
    def test_pairings_and_heights_match_the_gram_route(self, typ):
        # The pairing vectors and heights come from simple-root coefficients;
        # recompute them from the Gram matrix and A^{-1}.
        rs = build_root_system(typ)
        n = rs.rank
        ainv = invert(rs.cartan)
        for a, v, h in zip(rs.positive_roots, rs._proot_pairing, rs._proot_heights):
            assert list(v) == [rs._gram_den * sum(rs.gram[i][j] * a[j] for j in range(n))
                               for i in range(n)]
            assert h == sum(ainv[i][j] * a[j] for i in range(n) for j in range(n))

    @pytest.mark.parametrize("typ", ACCEPTANCE_TYPES)
    def test_gram_symmetric_positive_definite(self, typ):
        rs = build_root_system(typ)
        g = rs.gram
        assert all(g[i][j] == g[j][i] for i in range(rs.rank) for j in range(rs.rank))
        assert leading_minors_positive(g)

    @pytest.mark.parametrize("typ", ACCEPTANCE_TYPES + ["E7", "E8", "B2xG2", "A3xA1"])
    def test_positive_roots_match_sign_test_reference(self, typ):
        rs = build_root_system(typ)
        assert rs.positive_roots == reference_positive_roots(rs)

    @pytest.mark.parametrize("typ", list(CLASSICAL_COUNTS))
    def test_positive_root_counts(self, typ):
        rs = build_root_system(typ)
        assert len(rs.positive_roots) == CLASSICAL_COUNTS[typ]

    @pytest.mark.parametrize("typ", ACCEPTANCE_TYPES)
    def test_shortest_root_normalisation(self, typ):
        rs = build_root_system(typ)
        assert min(rs.norm_sq(a) for a in rs.positive_roots) == 2

    def test_a1_shortest_root_is_two_omega(self):
        rs = build_root_system("A1")
        assert rs.simple_roots == ((2,),)
        assert rs.norm_sq((2,)) == 2

    @pytest.mark.parametrize("typ", ACCEPTANCE_TYPES)
    def test_rho_pairs_to_one_with_coroots(self, typ):
        rs = build_root_system(typ)
        for a in rs.simple_roots:
            assert 2 * rs.inner_product(rs.rho, a) / rs.norm_sq(a) == 1

    @pytest.mark.parametrize("typ", ACCEPTANCE_TYPES)
    def test_positive_roots_sum_to_two_rho(self, typ):
        rs = build_root_system(typ)
        total = [0] * rs.rank
        for a in rs.positive_roots:
            total = [t + c for t, c in zip(total, a)]
        assert tuple(total) == tuple(2 * c for c in rs.rho)

    def test_product_type_block_structure(self):
        rs = build_root_system("B2xA1")
        assert rs.rank == 3
        assert len(rs.positive_roots) == 5
        # cross-factor form vanishes
        assert rs.gram[0][2] == 0 and rs.gram[1][2] == 0
        assert rs.gram[2][2] == Fraction(1, 2)
        assert min(rs.norm_sq(a) for a in rs.positive_roots if a[2] == 0) == 2
        assert rs.norm_sq((0, 0, 2)) == 2

    def test_build_is_cached_and_case_insensitive(self):
        assert build_root_system("b2xa1") is build_root_system("B2xA1")


class TestValidation:
    @pytest.mark.parametrize("bad", ["C2", "D3", "B1", "E9", "F3", "G4", "H2", "A0", "", "A"])
    def test_invalid_types_rejected(self, bad):
        with pytest.raises(LieTypeError):
            build_root_system(bad)

    def test_error_names_offending_factor(self):
        with pytest.raises(LieTypeError, match="C2"):
            build_root_system("A2xC2")

    def test_lietype_str_roundtrip(self):
        t = LieType.parse("b2 x a1".replace(" ", ""))
        assert str(t) == "B2xA1"
        assert t.rank == 3

    def test_dimension_mismatch(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError, match="length"):
            rs.inner_product((1,), (1, 0))
        with pytest.raises(ValueError, match="length"):
            rs.norm_sq((1, 0, 0))

    @pytest.mark.parametrize("bad", [(1.9, 0), (Decimal("1.5"), 0), (0, Fraction(1, 2)),
                                     ("1", 0), (float("inf"), 0), (float("nan"), 0),
                                     (True, 0)])
    def test_non_integral_coordinate_rejected(self, bad):
        rs = build_root_system("A2")
        with pytest.raises(ValueError, match=r"weight \(.+\) has a coordinate that is not an integer"):
            rs.check_weight(bad)

    def test_non_integral_weight_is_not_truncated(self):
        rs = build_root_system("A2")
        assert rs.check_weight((1.0, Decimal("2"))) == (1, 2)
        with pytest.raises(ValueError, match=r"weight \(1.9, 0\)"):
            tensor_decompose(rs, (1.9, 0), (0, 1))
        with pytest.raises(ValueError, match=r"weight \(True, 0\) has a coordinate that is not"):
            tensor_decompose(rs, (True, 0), (1, 0))

    def test_non_dominant_rejected(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError, match="dominant"):
            rs.casimir((-1, 0))
        with pytest.raises(ValueError, match="dominant"):
            rs.weyl_dim((0, -2))
        with pytest.raises(ValueError, match="dominant"):
            rs.conjugate_weight((-1, 1))


class TestGeometry:
    def test_inner_product_examples(self):
        a1 = build_root_system("A1")
        assert a1.inner_product((1,), (1,)) == Fraction(1, 2)
        a2 = build_root_system("A2")
        assert a2.inner_product((1, 0), (0, 1)) == Fraction(1, 3)
        assert a2.inner_product((0, 0), (5, -3)) == 0

    def test_norm_sq_examples(self):
        a1 = build_root_system("A1")
        for s2 in range(0, 7):  # 2s = s2
            assert a1.norm_sq((s2,)) == Fraction(s2 * s2, 2)
        a2 = build_root_system("A2")
        assert a2.norm_sq((1, 1)) == 2
        assert a2.norm_sq((0, 0)) == 0

    def test_symmetry_positivity_random(self):
        rng = random.Random(20240)
        for typ in ["A2", "B2", "G2", "B2xA1"]:
            rs = build_root_system(typ)
            for _ in range(40):
                x = tuple(rng.randint(-20, 20) for _ in range(rs.rank))
                y = tuple(rng.randint(-20, 20) for _ in range(rs.rank))
                assert rs.inner_product(x, y) == rs.inner_product(y, x)
                if any(x):
                    assert rs.norm_sq(x) > 0

    def test_cauchy_schwarz_exact(self):
        rng = random.Random(515)
        for typ in ["A2", "B3", "G2"]:
            rs = build_root_system(typ)
            for _ in range(40):
                x = tuple(rng.randint(-20, 20) for _ in range(rs.rank))
                y = tuple(rng.randint(-20, 20) for _ in range(rs.rank))
                assert rs.inner_product(x, y) ** 2 <= rs.norm_sq(x) * rs.norm_sq(y)

    def test_bilinearity(self):
        rs = build_root_system("B2")
        x, y, z = (1, 2), (3, -1), (-2, 5)
        lhs = rs.inner_product(tuple(3 * a - 2 * b for a, b in zip(x, y)), z)
        assert lhs == 3 * rs.inner_product(x, z) - 2 * rs.inner_product(y, z)


class TestCasimirAndDimension:
    def test_casimir_a1(self):
        rs = build_root_system("A1")
        for n in range(0, 8):
            assert rs.casimir((n,)) == Fraction(n * (n + 2), 2)

    def test_casimir_a2(self):
        rs = build_root_system("A2")
        assert rs.casimir((1, 0)) == Fraction(8, 3)
        assert rs.casimir((0, 0)) == 0

    def test_weyl_dim_a1(self):
        rs = build_root_system("A1")
        assert [rs.weyl_dim((n,)) for n in range(6)] == [1, 2, 3, 4, 5, 6]

    def test_weyl_dim_known_values(self):
        a2 = build_root_system("A2")
        assert a2.weyl_dim((1, 1)) == 8
        assert a2.weyl_dim((0, 0)) == 1
        g2 = build_root_system("G2")
        assert g2.weyl_dim((1, 0)) == 7
        assert g2.weyl_dim((0, 1)) == 14
        b2 = build_root_system("B2")
        assert b2.weyl_dim((1, 0)) == 5
        assert b2.weyl_dim((0, 1)) == 4

    def test_weyl_dim_exceptional_anchors(self):
        f4 = build_root_system("F4")
        assert f4.weyl_dim((0, 0, 0, 1)) == 26
        assert f4.weyl_dim((1, 0, 0, 0)) == 52
        e6 = build_root_system("E6")
        assert e6.weyl_dim((1, 0, 0, 0, 0, 0)) == 27
        assert e6.weyl_dim((0, 1, 0, 0, 0, 0)) == 78
        e7 = build_root_system("E7")
        assert e7.weyl_dim((0, 0, 0, 0, 0, 0, 1)) == 56
        e8 = build_root_system("E8")
        assert e8.weyl_dim((0, 0, 0, 0, 0, 0, 0, 1)) == 248

    @pytest.mark.parametrize("typ", list(FUNDAMENTAL_DIMS))
    def test_weyl_dim_of_every_fundamental_weight(self, typ):
        rs = build_root_system(typ)
        omegas = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
        assert [rs.weyl_dim(w) for w in omegas] == FUNDAMENTAL_DIMS[typ]

    @pytest.mark.parametrize("typ", GRAM_TYPES)
    def test_weyl_dim_of_rho_is_two_to_the_positive_roots(self, typ):
        # Weyl's formula at mu = rho is the product of (2 rho, a)/(rho, a) = 2.
        rs = build_root_system(typ)
        assert rs.weyl_dim(rs.rho) == 2 ** len(rs.positive_roots)

    def test_adjoint_casimir_normalisation(self):
        # c(adjoint) = 2 h_vee scaled by the long-root length ratio in the
        # short-root-length-2 normalisation
        g2 = build_root_system("G2")
        assert g2.casimir((0, 1)) == 24  # 2*4*3
        b3 = build_root_system("B3")
        assert b3.casimir((0, 1, 0)) == 20  # 2*5*2

    def test_weyl_dim_conjugation_invariant(self):
        rs = build_root_system("A3")
        for mu in rs.dominant_weights_up_to(2):
            assert rs.weyl_dim(mu) == rs.weyl_dim(rs.conjugate_weight(mu))


MEMO_TYPES = ["A2", "B2", "G2", "B3", "A1xA1"]


@st.composite
def dominant_triples(draw):
    """A root system from MEMO_TYPES and three dominant weights of height <= 9."""
    rs = build_root_system(draw(st.sampled_from(MEMO_TYPES)))
    weight = st.tuples(*[st.integers(0, 9)] * rs.rank)
    return rs, draw(weight), draw(weight), draw(weight)


def gram_form(rs, x, y):
    """(x, y) straight from the exact Gram matrix of fundamental weights."""
    return sum(x[i] * rs.gram[i][j] * y[j] for i in range(rs.rank) for j in range(rs.rank))


@settings(max_examples=60, deadline=None)
@given(dominant_triples())
def test_memoised_scaled_invariants_match_fraction_definitions(drawn):
    rs, lam, mu, nu = drawn
    for w in (lam, mu, nu):
        casimir = gram_form(rs, w, tuple(c + 2 for c in w))
        norm_sq = gram_form(rs, w, w)
        for _ in range(2):  # the first call fills the memo, the second reads it
            assert rs._casimir_scaled(w) == casimir * rs._gram_den
            assert rs._norm_scaled(w) == norm_sq * rs._gram_den
            assert rs.casimir(w) == casimir and rs.norm_sq(w) == norm_sq
    # A common positive scale leaves the exact triangle sign unchanged.
    for scaled, exact in ((rs._casimir_scaled, rs.casimir), (rs._norm_scaled, rs.norm_sq)):
        assert (_triangle_compare(scaled(nu), scaled(lam), scaled(mu))
                == _triangle_compare(exact(nu), exact(lam), exact(mu)))


MEMOS = {"_casimir_memo": "_casimir_scaled", "_norm_memo": "_norm_scaled",
         "_dim_memo": "_weyl_dim", "_terms_memo": "_fusion_terms",
         "_orbit_size_memo": "_orbit_size"}
# The memos of keys that the fields of each width hold, and fusion's tables there.
WIDTH_MEMOS = ("dominant_keys", "orbits", "anchors")
FUSION_TABLES = ("layouts", "reflection")


def counting(filled, fill):
    def fill_and_count(key):
        filled.append(key)
        return fill(key)
    return fill_and_count


@pytest.mark.parametrize("typ", MEMO_TYPES)
def test_self_filling_memos_fill_each_value_once(typ):
    # A fresh instance starts with every memo empty, its construction
    # included; each memo is read through its bound __getitem__ (the orbit
    # sizes through _orbit_size, which keys them by the zero coordinates) and
    # computes a missing entry once.
    interned = build_root_system(typ)
    fresh = RootSystem(LieType.parse(typ))
    assert all(vars(fresh)[memo] == {} for memo in MEMOS)
    assert fresh._fields == fresh._checked == fresh._char_memo == {}
    # _fields is the one per-width table: every other dict is a memo above
    assert ({name for name, value in vars(fresh).items() if isinstance(value, dict)}
            == {*MEMOS, "_fields", "_checked", "_char_memo"})
    fields = fresh._fields[_MIN_FIELD]
    assert all(getattr(fields, table) == {} for table in (*WIDTH_MEMOS, *FUSION_TABLES))
    fills = {memo: [] for memo in MEMOS}
    for memo in MEMOS:
        table = vars(fresh)[memo]
        table.fill = counting(fills[memo], table.fill)
    weights = fresh.dominant_weights_up_to(2)
    lattice = [tuple(c - 1 for c in w) for w in weights]
    for _ in range(2):  # the first pass fills the memos, the second reads them
        for memo, read in MEMOS.items():
            for w in lattice if memo == "_norm_memo" else weights:
                assert getattr(fresh, read)(w) == getattr(interned, read)(w)
    for memo in MEMOS:
        filled = fills[memo]
        assert len(filled) == len(set(filled)) == len(vars(fresh)[memo]), memo
    assert fresh.casimir((1,) * fresh.rank) == interned.casimir((1,) * fresh.rank)
    assert fills["_casimir_memo"].count((1,) * fresh.rank) == 1


@pytest.mark.parametrize("typ", MEMO_TYPES)
def test_width_memos_fill_each_value_once(typ):
    # The fields of a fresh instance, and their dominant keys, packed orbits
    # and anchor keys, are filled on first read, once per width (and key or
    # weight), and agree with the tuple API of the interned instance.
    interned = build_root_system(typ)
    fresh = RootSystem(LieType.parse(typ))
    widths = []
    fresh._fields.fill = counting(widths, fresh._fields.fill)
    fills = {}

    def fields_of(width):
        fields = fresh._fields[width]
        if width not in fills:
            fills[width] = {memo: [] for memo in WIDTH_MEMOS}
            for memo in WIDTH_MEMOS:
                table = getattr(fields, memo)
                table.fill = counting(fills[width][memo], table.fill)
        return fields

    weights = fresh.dominant_weights_up_to(2)
    lattice = [tuple(c - 1 for c in w) for w in weights]
    wide = _MIN_FIELD + 9
    for _ in range(2):  # the first pass fills the memos, the second reads them
        for width in (_MIN_FIELD, wide):
            fields = fields_of(width)
            for x in lattice:
                y = fields.weight(fields.dominant_keys[fields.key(x)])
                assert y == interned.dominant_representative(x)[0]
            for nu in weights:
                orbit = fields.orbits[nu]
                assert sorted(fields.weight(k + fields.top) for k in orbit) == interned.weyl_orbit(nu)
                anchor = fields.anchors[nu]
                assert anchor == fields.key(tuple(c + 1 for c in nu))
                assert fields.weight(anchor - fields.rho) == nu
    assert widths == [_MIN_FIELD, wide]
    for width in (_MIN_FIELD, wide):
        fields = fresh._fields[width]
        assert fills[width]["dominant_keys"] == [fields.key(x) for x in lattice]
        assert fills[width]["orbits"] == fills[width]["anchors"] == weights
        for memo in WIDTH_MEMOS:
            assert len(getattr(fields, memo)) == len(fills[width][memo])


class TestWeylGroup:
    def test_dominant_stays_fixed(self):
        rs = build_root_system("B2")
        assert rs.dominant_representative((2, 3)) == ((2, 3), 1, False)

    def test_a1_single_reflection(self):
        rs = build_root_system("A1")
        assert rs.dominant_representative((-3,)) == ((3,), -1, False)

    def test_wall_input_is_singular(self):
        rs = build_root_system("A1")
        assert rs.dominant_representative((0,)) == ((0,), 1, True)
        rs2 = build_root_system("A2")
        assert rs2.dominant_representative((3, 0))[2] is True

    def test_result_is_in_orbit_and_dominant(self):
        rng = random.Random(99)
        for typ in ["A2", "G2", "B3"]:
            rs = build_root_system(typ)
            for _ in range(25):
                x = tuple(rng.randint(-6, 6) for _ in range(rs.rank))
                dom, sign, _ = rs.dominant_representative(x)
                assert all(c >= 0 for c in dom)
                assert sign in (1, -1)
                assert x in rs.weyl_orbit(dom)

    def test_orbit_sizes_divide_group_order(self):
        g2 = build_root_system("G2")
        assert len(g2.weyl_orbit((1, 1))) == 12
        assert len(g2.weyl_orbit((1, 0))) == 6
        assert len(g2.weyl_orbit((0, 0))) == 1

    # E6 runs at height 1, where each of its 64 zero sets J occurs once;
    # its height-2 orbits would take minutes to enumerate.
    @pytest.mark.parametrize("typ,height", [("A1", 2), ("A3", 2), ("B3", 2), ("C3", 2),
                                            ("D4", 2), ("G2", 2), ("F4", 2), ("E6", 1),
                                            ("B2xA1", 2)])
    def test_orbit_size_matches_the_enumerated_orbit(self, typ, height):
        rs = build_root_system(typ)
        for nu in rs.dominant_weights_up_to(height):
            assert rs._orbit_size(nu) == len(rs.weyl_orbit(nu)), nu

    def test_orbit_size_of_rho_is_the_group_order(self):
        assert build_root_system("E8")._orbit_size((1,) * 8) == 696729600
        assert build_root_system("E8")._orbit_size((0,) * 8) == 1

    def test_conjugate_examples(self):
        a1 = build_root_system("A1")
        assert a1.conjugate_weight((5,)) == (5,)
        a2 = build_root_system("A2")
        assert a2.conjugate_weight((1, 0)) == (0, 1)
        assert a2.conjugate_weight((0, 0)) == (0, 0)
        a3 = build_root_system("A3")
        assert a3.conjugate_weight((1, 2, 0)) == (0, 2, 1)

    def test_conjugation_is_involution(self):
        for typ in ["A3", "D4", "B2xA1"]:
            rs = build_root_system(typ)
            for mu in rs.dominant_weights_up_to(2):
                assert rs.conjugate_weight(rs.conjugate_weight(mu)) == mu

    def test_dominant_enumeration_order(self):
        rs = build_root_system("A2")
        ws = rs.dominant_weights_up_to(1)
        assert ws == [(0, 0), (0, 1), (1, 0), (1, 1)]


def diagram_maps(rs):
    """Every node permutation p with A[p_i][p_j] = A[i][j], by brute force."""
    n, A = rs.rank, rs.cartan
    return {p for p in permutations(range(n))
            if all(A[p[i]][p[j]] == A[i][j] for i in range(n) for j in range(n))}


def generated(generators, n):
    """The group of node permutations the generators generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        reached = []
        for p in frontier:
            for g in generators:
                q = tuple(g[i] for i in p)
                if q not in group:
                    group.add(q)
                    reached.append(q)
        frontier = reached
    return group


class TestDiagramSymmetries:
    @pytest.mark.parametrize("typ,order", [
        *((t, 2) for t in ["A2", "A3", "A4", "A7", "A12", "D5", "D6", "D9", "E6", "A1xA1"]),
        ("D4", 6), ("A1xA1xA1", 6), ("A2xA2", 8), ("D4xD4", 72), ("A1xA1xA1xA1xA1xA1", 720),
        *((t, 1) for t in ["A1", "B2", "B3", "B6", "C3", "C5", "G2", "F4", "E7", "E8", "B2xA1"]),
    ])
    def test_order(self, typ, order):
        rs = build_root_system(typ)
        assert len(generated(rs._symmetries, rs.rank)) == order

    @pytest.mark.parametrize("typ", ["A2", "A5", "D4", "D5", "E6", "A1xA1xA1", "A2xA2",
                                     "A1xA2xA1", "D4xD4", "B2xG2", "E7", "A1xB2xA1", "A2xA1xA2",
                                     "G2xB2xG2", "A3xD4", "A1xA1xA1xA1xA1xA1", "D4xA1xA1"])
    def test_generators_generate_every_diagram_map(self, typ):
        rs = build_root_system(typ)
        assert generated(rs._symmetries, rs.rank) == diagram_maps(rs)

    @pytest.mark.parametrize("typ", ["A2", "A5", "D4", "D7", "E6", "A1xA1xA1", "D4xD4",
                                     "A1xB2xA1", "E6xA2xE6", "A1xA1xA1xA1xA1xA1"])
    def test_every_generator_is_an_involution(self, typ):
        # _symmetry_images takes each generator as its own inverse.
        rs = build_root_system(typ)
        assert rs._symmetries
        for p in rs._symmetries:
            assert p != tuple(range(rs.rank)) and tuple(p[i] for i in p) == tuple(range(rs.rank))

    def test_build_does_not_compute_the_symmetries(self, monkeypatch):
        def refused(lie_type):
            raise AssertionError("the build computed the diagram symmetries")

        monkeypatch.setattr(root_system, "_diagram_symmetries", refused)
        for typ in ["A3", "D4", "E6", "A1xA1"]:
            rs = RootSystem(LieType.parse(typ))
            assert "_symmetries" not in vars(rs)

    @pytest.mark.parametrize("typ,height", [("A3", 2), ("D4", 1), ("A1xA1xA1", 2)])
    def test_images_are_positions_of_the_mapped_weights(self, typ, height):
        # sigma takes omega_i to omega_p(i): its i-th coordinate moves to p(i).
        rs = build_root_system(typ)
        weights = rs.dominant_weights_up_to(height)
        images = rs._symmetry_images(weights)
        assert len(images) == len(rs._symmetries)
        for p, (image, sigma) in zip(rs._symmetries, images):
            for w, i in zip(weights, image):
                moved = [0] * rs.rank
                for k, c in enumerate(w):
                    moved[p[k]] = c
                assert weights[i] == sigma(w) == tuple(moved)
