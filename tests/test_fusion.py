import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbf import fusion
from qbf.characters import character_product_decompose, full_weights, weight_multiplicities
from qbf.fusion import FusionDecomposition, contains_trivial, tensor_decompose
from qbf.root_system import _MIN_FIELD, LieType, RootSystem, _width_for, build_root_system


def triangle_violated(ns_nu, ns_lam, ns_mu):
    """Exact check of |nu| > |lam| + |mu| in squared-rational form."""
    s = ns_nu - ns_lam - ns_mu
    return s > 0 and s * s > 4 * ns_lam * ns_mu


def brauer_klimyk(rs, expand, anchor):
    """Brauer-Klimyk with the weight system of ``expand`` around ``anchor``,
    every weight reflected through the public checked reflection."""
    acc = {}
    for w, m in full_weights(rs, expand).items():
        y, sign, singular = rs.dominant_representative(
            tuple(a + 1 + c for a, c in zip(anchor, w)))
        if not singular:
            nu = tuple(c - 1 for c in y)
            acc[nu] = acc.get(nu, 0) + sign * m
    return {nu: m for nu, m in acc.items() if m}


# Heights well beyond the character-product cross-check above.
DEEP_HEIGHTS = {"A2": 5, "B2": 4, "G2": 3, "A3": 2}


@st.composite
def deep_pairs(draw):
    rs = build_root_system(draw(st.sampled_from(sorted(DEEP_HEIGHTS))))
    weight = st.tuples(*[st.integers(0, DEEP_HEIGHTS[str(rs.lie_type)])] * rs.rank)
    return rs, draw(weight), draw(weight)


@st.composite
def triples(draw):
    rs = build_root_system(draw(st.sampled_from(["A2", "B2", "G2"])))
    weight = st.tuples(*[st.integers(0, 2)] * rs.rank)
    return rs, draw(weight), draw(weight), draw(weight)


def fuse_through(outer, inner_pairs):
    """Multiset sum of m * outer(x) over the (x, m) in inner_pairs."""
    total = Counter()
    for x, m in inner_pairs:
        for nu, k in outer(x):
            total[nu] += m * k
    return total


class TestDeepInvariants:
    @settings(max_examples=25, deadline=None)
    @given(deep_pairs())
    def test_commutativity(self, drawn):
        # Either factor may be expanded: the fast path expands the smaller one.
        rs, lam, mu = drawn
        components = tensor_decompose(rs, lam, mu).components
        assert components == brauer_klimyk(rs, lam, mu) == brauer_klimyk(rs, mu, lam)
        assert components == tensor_decompose(rs, mu, lam).components

    @settings(max_examples=25, deadline=None)
    @given(triples())
    def test_associativity(self, drawn):
        # (lam (x) mu) (x) nu == lam (x) (mu (x) nu) as multisets of components
        rs, lam, mu, nu = drawn
        left = fuse_through(lambda eta: tensor_decompose(rs, eta, nu),
                            tensor_decompose(rs, lam, mu))
        right = fuse_through(lambda theta: tensor_decompose(rs, lam, theta),
                             tensor_decompose(rs, mu, nu))
        assert left == right
        dims = rs.weyl_dim(lam) * rs.weyl_dim(mu) * rs.weyl_dim(nu)
        assert sum(m * rs.weyl_dim(x) for x, m in left.items()) == dims

    @settings(max_examples=25, deadline=None)
    @given(deep_pairs())
    def test_weyl_dimension_multiplicativity(self, drawn):
        rs, lam, mu = drawn
        assert tensor_decompose(rs, lam, mu).dimension(rs) == rs.weyl_dim(lam) * rs.weyl_dim(mu)

    @settings(max_examples=25, deadline=None)
    @given(deep_pairs(), st.data())
    def test_conjugation_duality(self, drawn, data):
        # mult of nu in lam (x) mu == mult of lam in nu (x) mu*, zero included
        rs, lam, mu = drawn
        mu_star = rs.conjugate_weight(mu)
        components = tensor_decompose(rs, lam, mu).components
        inside = data.draw(st.sampled_from(sorted(components)))
        top = tuple(a + b for a, b in zip(lam, mu))
        outside = data.draw(st.tuples(*[st.integers(0, c + 1) for c in top]))
        for nu in (inside, outside):
            assert (components.get(nu, 0)
                    == tensor_decompose(rs, nu, mu_star).components.get(lam, 0))


# Heights of the sweeps the packed path serves.
PACKED_HEIGHTS = {"A2": 4, "B2": 4, "G2": 3, "A3": 2, "B3": 2}
# Anchor coordinates around the largest one the 21-bit field holds.
FIELD_EDGE = 2 ** (_MIN_FIELD - 1)


def per_width(rs, table):
    """{(width, key): value} over one table of the fields of every width."""
    return {(width, key): value for width, fields in rs._fields.items()
            for key, value in getattr(fields, table).items()}


@st.composite
def packed_pairs(draw):
    """A pair from one of PACKED_HEIGHTS, or a small weight against an anchor
    whose coordinates straddle the edge of the 21-bit field."""
    rs = build_root_system(draw(st.sampled_from(sorted(PACKED_HEIGHTS))))
    small = st.tuples(*[st.integers(0, PACKED_HEIGHTS[str(rs.lie_type)])] * rs.rank)
    if draw(st.booleans()):
        return rs, draw(small), draw(small)
    near_edge = st.integers(FIELD_EDGE - 12, FIELD_EDGE + 12)
    anchor = draw(st.tuples(*[st.one_of(st.integers(0, 2), near_edge)] * rs.rank))
    return rs, anchor, draw(st.tuples(*[st.integers(0, 1)] * rs.rank))


def cartan_coefficients(rs, x):
    """Coefficients of x in the basis of simple roots (exact rationals): the
    solution c of A.c = x, by Gauss-Jordan elimination over Fractions."""
    n = rs.rank
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rs.cartan, x)]
    for k in range(n):
        p = next(r for r in range(k, n) if aug[r][k])
        aug[k], aug[p] = aug[p], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for r in range(n):
            f = aug[r][k]
            if r != k and f:
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[k])]
    return [row[n] for row in aug]


@st.composite
def sweep_pairs(draw):
    """A pair from the weights of one benchmark sweep."""
    typ, height = draw(st.sampled_from([("A2", 8), ("B2", 6), ("G2", 5), ("B3", 3)]))
    rs = build_root_system(typ)
    weight = st.tuples(*[st.integers(0, height)] * rs.rank)
    return rs, draw(weight), draw(weight)


class TestPackedPath:
    @settings(max_examples=60, deadline=None)
    @given(packed_pairs())
    def test_matches_reference(self, drawn):
        rs, lam, mu = drawn
        assert tensor_decompose(rs, lam, mu).components == brauer_klimyk(rs, mu, lam)

    def test_width_rule(self):
        # One rule sizes every field: the smallest width >= 21 whose fields
        # hold each coordinate below the radius.
        assert _width_for(FIELD_EDGE - 1) == _MIN_FIELD
        assert _width_for(FIELD_EDGE) == _MIN_FIELD + 1
        # Fusion takes as radius the anchor radius of the anchor plus the
        # expand radius of the expanded factor.  (1,) against the anchor a
        # bounds every coordinate by a + 4: |a + rho| and |(1,)| give a + 1
        # and 1 exactly, plus one per radius for the rounding.  The width a
        # decomposition used is the one whose reflection table it filled.
        for a, width in ((FIELD_EDGE - 5, _MIN_FIELD), (FIELD_EDGE - 4, _MIN_FIELD + 1),
                         (10 ** 14, (10 ** 14 + 4).bit_length() + 1)):
            fresh = RootSystem(LieType.parse("A1"))
            assert tensor_decompose(fresh, (a,), (1,)).components == {(a + 1,): 1, (a - 1,): 1}
            assert [w for w, fields in fresh._fields.items() if fields.reflection] == [width]
        for typ, height in PACKED_HEIGHTS.items():
            rs = build_root_system(typ)
            top = rs.dominant_weights_up_to(2 * height)[-1]
            radius = rs._fusion_terms(top)[1] + rs._fusion_terms(top)[2]
            assert _width_for(radius) == _MIN_FIELD  # sweeps share one width

    def test_concurrent_first_decompositions_agree(self):
        # Threads racing on a fresh instance may build a width's fields, a
        # layout or a reflection entry twice; every reader still gets the
        # complete value, and one set of fields serves every width.
        shared = build_root_system("B2")
        weights = shared.dominant_weights_up_to(2)
        pairs = [(lam, mu) for lam in weights for mu in weights]
        expected = {pair: tensor_decompose(shared, *pair).components for pair in pairs}
        fresh = RootSystem(LieType.parse("B2"))
        results = []

        def work():
            for lam, mu in pairs:
                results.append(((lam, mu), tensor_decompose(fresh, lam, mu).components))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8 * len(pairs)
        assert all(components == expected[pair] for pair, components in results)
        fields = fresh._fields[_MIN_FIELD]
        assert list(fresh._fields) == [_MIN_FIELD]
        assert set(fields.layouts) == {min(pair, key=fresh.weyl_dim) for pair in pairs}
        for key, hit in fields.reflection.items():
            y, sign, singular = fresh.dominant_representative(fields.weight(key))
            assert hit == (None if singular else (tuple(c - 1 for c in y), sign))

    def test_layout_memo_lives_on_its_root_system(self, monkeypatch):
        shared = build_root_system("B2")
        fresh = RootSystem(LieType.parse("B2"))
        assert fresh._fields == {}
        assert (tensor_decompose(fresh, (2, 1), (1, 2)).components
                == tensor_decompose(shared, (2, 1), (1, 2)).components)
        shared_sizes = {w: len(fields.reflection) for w, fields in shared._fields.items()}
        # (width, expanded factor) of each decomposition: the factor of smaller dimension
        expanded = [(_MIN_FIELD, (1, 2))]
        tensor_decompose(fresh, (FIELD_EDGE, 3), (1, 0))
        terms = fresh._fusion_terms
        expanded.append((_width_for(terms((FIELD_EDGE, 3))[1] + terms((1, 0))[2]), (1, 0)))
        orbits_before = per_width(fresh, "orbits")
        layouts_before = per_width(fresh, "layouts")
        built = []
        original = fusion.weight_multiplicities

        def counting(rs, mu):
            built.append(mu)
            return original(rs, mu)

        monkeypatch.setattr(fusion, "weight_multiplicities", counting)
        for lam, mu in (((3, 3), (2, 2)), ((2, 2), (4, 4)), ((1, 2), (2, 1))):
            tensor_decompose(fresh, lam, mu)
        expanded.append((_MIN_FIELD, (2, 2)))
        # one weight system read per new layout, none for a layout already built
        assert built == [(2, 2)]
        layouts = per_width(fresh, "layouts")
        assert set(layouts) == set(expanded)
        assert all(layouts[key] is layout for key, layout in layouts_before.items())
        reflecting = {w: fields.reflection for w, fields in fresh._fields.items()
                      if fields.reflection}
        assert set(reflecting) == {w for w, _ in expanded}
        assert len(reflecting) == 2 and min(reflecting) == _MIN_FIELD
        for width, table in reflecting.items():
            for key, hit in table.items():
                y, sign, singular = fresh.dominant_representative(fresh._fields[width].weight(key))
                if singular:
                    assert hit is None
                else:
                    assert type(hit) is tuple and type(hit[0]) is tuple
                    assert hit == (tuple(c - 1 for c in y), sign)
        # each orbit is stored once, in the root system's orbit memo, and
        # shared by the layouts holding it: (2, 2) reuses the orbits (1, 2)
        # already packed, as the same objects
        orbits = per_width(fresh, "orbits")
        assert all(orbits[key] is orbit for key, orbit in orbits_before.items())
        assert (set(orbits) - set(orbits_before)
                == {(_MIN_FIELD, nu) for nu in ((2, 2), (3, 0), (0, 4))})
        for (width, nu), orbit in orbits.items():
            assert type(orbit) is tuple and all(type(k) is int for k in orbit)
            fields = fresh._fields[width]
            assert sorted(fields.weight(k + fields.top) for k in orbit) == fresh.weyl_orbit(nu)
        for width, weight in expanded:
            dominant = weight_multiplicities(fresh, weight).dominant
            layout = layouts[(width, weight)]
            assert [m for _, m in layout] == list(dominant.values())
            for nu, (orbit, _) in zip(dominant, layout):
                assert orbit is orbits[(width, nu)]
            assert sum(m * len(orbit) for orbit, m in layout) == fresh.weyl_dim(weight)
        # the shared instance saw none of the fresh instance's new points
        assert {w: len(fields.reflection) for w, fields in shared._fields.items()} == shared_sizes

    @settings(max_examples=60, deadline=None)
    @given(sweep_pairs())
    def test_dominance_certificate(self, drawn):
        # every component nu satisfies nu <= lam + mu: lam + mu - nu is a
        # nonnegative integer combination of simple roots, and c(nu) <= c(lam + mu)
        rs, lam, mu = drawn
        top = tuple(a + b for a, b in zip(lam, mu))
        for nu in tensor_decompose(rs, lam, mu).components:
            coefficients = cartan_coefficients(rs, [t - n for t, n in zip(top, nu)])
            assert all(k.denominator == 1 and k >= 0 for k in coefficients)
            assert rs.casimir(nu) <= rs.casimir(top)


class TestTensorDecompose:
    def test_a1_fundamental_square(self):
        rs = build_root_system("A1")
        assert tensor_decompose(rs, (1,), (1,)).components == {(2,): 1, (0,): 1}

    def test_components_sorted_on_first_read(self):
        rs = build_root_system("G2")
        fd = tensor_decompose(rs, (2, 1), (1, 1))
        assert "components" not in vars(fd)
        ordered = fd.components
        assert list(ordered) == sorted(fd._parts, key=lambda nu: (-sum(nu), nu))
        assert ordered == fd._parts and fd.components is ordered
        assert fd.dimension(rs) == rs.weyl_dim((2, 1)) * rs.weyl_dim((1, 1))
        # equality compares multiplicities, not their order
        assert fd == FusionDecomposition(fd.lam, fd.mu, dict(reversed(fd._parts.items())))

    def test_from_parts_is_the_one_check(self):
        # it drops the sums that cancelled to zero, keeps lam + mu as the
        # Cartan component, and refuses a negative sum or a Cartan
        # multiplicity other than 1
        fd = FusionDecomposition.from_parts((1, 0), (0, 1), {(1, 1): 1, (2, 2): 0, (0, 0): 1})
        assert fd._parts == {(1, 1): 1, (0, 0): 1} and fd.cartan == (1, 1)
        with pytest.raises(AssertionError, match="nonpositive"):
            FusionDecomposition.from_parts((1, 0), (0, 1), {(1, 1): 1, (0, 0): -1})
        for parts in ({(1, 1): 2, (0, 0): 1}, {(1, 1): 0, (0, 0): 1}):
            with pytest.raises(AssertionError, match="Cartan component"):
                FusionDecomposition.from_parts((1, 0), (0, 1), parts)

    def test_unit(self):
        rs = build_root_system("G2")
        for mu in rs.dominant_weights_up_to(2):
            assert tensor_decompose(rs, (0, 0), mu).components == {mu: 1}

    def test_g2_seven_squared(self):
        rs = build_root_system("G2")
        fd = tensor_decompose(rs, (1, 0), (1, 0))
        assert fd.dimension(rs) == rs.weyl_dim((1, 0)) ** 2
        assert fd.components == character_product_decompose(rs, (1, 0), (1, 0)).components

    def test_b2_spin_square(self):
        rs = build_root_system("B2")
        fd = tensor_decompose(rs, (0, 1), (0, 1))
        # 4 x 4 = 10 + 5 + 1
        assert fd.components == {(0, 2): 1, (1, 0): 1, (0, 0): 1}

    def test_classical_tables(self):
        # anchors from the standard representation tables
        b3 = build_root_system("B3")
        assert tensor_decompose(b3, (0, 0, 1), (0, 0, 1)).components == {
            (0, 0, 2): 1, (0, 1, 0): 1, (1, 0, 0): 1, (0, 0, 0): 1}  # 8x8 = 35+21+7+1
        g2 = build_root_system("G2")
        assert tensor_decompose(g2, (0, 1), (0, 1)).components == {
            (3, 0): 1, (0, 2): 1, (2, 0): 1, (0, 1): 1, (0, 0): 1}  # 14x14, two 77s
        c3 = build_root_system("C3")
        assert tensor_decompose(c3, (1, 0, 0), (1, 0, 0)).components == {
            (2, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 1}  # 6x6 = 21+14+1
        d4 = build_root_system("D4")
        assert tensor_decompose(d4, (1, 0, 0, 0), (1, 0, 0, 0)).components == {
            (2, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 0, 0): 1}  # 8x8 = 35+28+1

    @pytest.mark.parametrize("typ,height", [("A1", 4), ("A2", 4), ("B2", 4), ("G2", 4)])
    def test_matches_character_oracle(self, typ, height):
        rs = build_root_system(typ)
        ws = rs.dominant_weights_up_to(height)
        for i, lam in enumerate(ws):
            for mu in ws[i:]:
                assert (tensor_decompose(rs, lam, mu).components
                        == character_product_decompose(rs, lam, mu).components)

    @pytest.mark.parametrize("typ", ["A2", "B2", "G2"])
    def test_commutativity(self, typ):
        rs = build_root_system(typ)
        ws = rs.dominant_weights_up_to(2)
        for lam in ws:
            for mu in ws:
                assert (tensor_decompose(rs, lam, mu).components
                        == tensor_decompose(rs, mu, lam).components)

    def test_cartan_component(self):
        rs = build_root_system("B3")
        for lam in rs.dominant_weights_up_to(1):
            for mu in rs.dominant_weights_up_to(1):
                top = tuple(a + b for a, b in zip(lam, mu))
                assert tensor_decompose(rs, lam, mu).components[top] == 1

    @pytest.mark.parametrize("typ", ["A2", "B2"])
    def test_conjugation_equivariance(self, typ):
        rs = build_root_system(typ)
        ws = rs.dominant_weights_up_to(2)
        for lam in ws:
            for mu in ws:
                fd = tensor_decompose(rs, lam, mu).components
                fdc = tensor_decompose(rs, rs.conjugate_weight(lam),
                                       rs.conjugate_weight(mu)).components
                assert {rs.conjugate_weight(nu): m for nu, m in fd.items()} == fdc

    @pytest.mark.parametrize("typ", ["A2", "B2", "G2"])
    def test_norm_triangle_bound(self, typ):
        rs = build_root_system(typ)
        ws = rs.dominant_weights_up_to(2)
        for i, lam in enumerate(ws):
            for mu in ws[i:]:
                for nu, _ in tensor_decompose(rs, lam, mu):
                    assert not triangle_violated(rs.norm_sq(nu), rs.norm_sq(lam), rs.norm_sq(mu))

    @pytest.mark.parametrize("typ", ["A2", "B2", "G2"])
    def test_casimir_inequality_chain(self, typ):
        rs = build_root_system(typ)
        ws = rs.dominant_weights_up_to(2)
        for i, lam in enumerate(ws):
            for mu in ws[i:]:
                top = tuple(a + b for a, b in zip(lam, mu))
                cap = rs.casimir(top)
                for nu, _ in tensor_decompose(rs, lam, mu):
                    assert rs.casimir(nu) <= cap

    def test_non_dominant_rejected(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError, match="dominant"):
            tensor_decompose(rs, (1, -1), (1, 0))

    @pytest.mark.parametrize("bad,match", [
        ((True, 0), r"weight \(True, 0\) has a coordinate that is not an integer"),
        ((1, False), r"weight \(1, False\) has a coordinate that is not an integer"),
        ((1.5, 0), r"weight \(1.5, 0\) has a coordinate that is not an integer"),
        ((1, 0, 0), r"weight \(1, 0, 0\) has length 3, expected rank 2"),
        ((-1, 0), r"weight \(-1, 0\) is not dominant"),
        (([1], 0), r"weight \(\[1\], 0\) has a coordinate that is not an integer"),
    ])
    def test_sweep_weights_skip_the_check_but_inputs_do_not(self, bad, match):
        # A sweep's weights come from dominant_weights_up_to and are not
        # checked again; an input equal to one of them in value still is.
        rs = RootSystem(LieType.parse("A2"))
        weights = rs.dominant_weights_up_to(2)
        calls = []
        original = rs.check_dominant

        def counting(x):
            calls.append(x)
            return original(x)

        rs.check_dominant = counting
        for _ in range(2):  # the second sweep finds every weight system built
            calls.clear()
            for i, lam in enumerate(weights):
                for mu in weights[i:]:
                    tensor_decompose(rs, lam, mu)
        assert calls == []
        for lam, mu in ((bad, (1, 0)), ((1, 0), bad)):
            with pytest.raises(ValueError, match=match):
                tensor_decompose(rs, lam, mu)
        # an equal weight that is not the checked object is checked, then read
        assert (tensor_decompose(rs, [1.0, 0], (0, 1)).components
                == tensor_decompose(rs, (1, 0), (0, 1)).components == {(1, 1): 1, (0, 0): 1})
        assert [1.0, 0] in calls

    def test_product_type_factorises(self):
        # fusion on B2xA1 is the product of the factor fusions
        rs = build_root_system("B2xA1")
        b2 = build_root_system("B2")
        a1 = build_root_system("A1")
        lam, mu = (1, 0, 1), (0, 1, 1)
        fd = tensor_decompose(rs, lam, mu)
        expected = {}
        for nu1, m1 in tensor_decompose(b2, (1, 0), (0, 1)):
            for nu2, m2 in tensor_decompose(a1, (1,), (1,)):
                expected[nu1 + nu2] = m1 * m2
        assert fd.components == expected
        assert fd.dimension(rs) == rs.weyl_dim(lam) * rs.weyl_dim(mu)
        assert (character_product_decompose(rs, lam, mu).components == expected)


class TestContainsTrivial:
    def test_examples(self):
        a1 = build_root_system("A1")
        assert contains_trivial(a1, (1,), (1,)) is True
        assert contains_trivial(a1, (0,), (0,)) is True
        a2 = build_root_system("A2")
        assert contains_trivial(a2, (1, 0), (1, 0)) is False
        assert contains_trivial(a2, (1, 0), (0, 1)) is True

    @pytest.mark.parametrize("typ", ["A2", "B2"])
    def test_iff_conjugate(self, typ):
        rs = build_root_system(typ)
        ws = rs.dominant_weights_up_to(2)
        for lam in ws:
            for mu in ws:
                assert contains_trivial(rs, lam, mu) == (mu == rs.conjugate_weight(lam))
