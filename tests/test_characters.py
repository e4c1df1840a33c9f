import sys
import threading
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbf import characters, fusion
from qbf.characters import (
    _dominant_candidates,
    character_product_decompose,
    full_weights,
    weight_multiplicities,
)
from qbf.fusion import tensor_decompose
from qbf.root_system import _MIN_FIELD, LieType, RootSystem, build_root_system


def sl2_ladder(n):
    """Brute-force rank-one weight system: the string n, n-2, ..., -n."""
    return {(n - 2 * j,): 1 for j in range(n + 1)}


def box_candidates(rs, mu):
    """Reference enumeration: every nonnegative coefficient vector k with
    k_j <= (mu, w_j)/d_j, w_j the fundamental weights, kept when mu - sum k_j a_j
    is dominant."""
    N = rs.rank
    bounds = [int(sum(rs.gram[i][j] * mu[i] for i in range(N)) / rs.symmetrizers[j])
              for j in range(N)]
    found = set()
    for ks in product(*(range(b + 1) for b in bounds)):
        nu = tuple(mu[i] - sum(k * rs.simple_roots[j][i] for j, k in enumerate(ks))
                   for i in range(N))
        if min(nu) >= 0:
            found.add(nu)
    return found


def reference_freudenthal(rs, mu):
    """(dominant multiplicities, dimension) of V(mu) from the signed reflection
    loop: each xi = nu + k a is built from scratch and reflected by
    ``RootSystem._dominant_rep``, the norms come from ``_ip_scaled``."""
    den_ip = rs._ip_scaled
    mu_norm = den_ip(mu, mu)
    shifted_mu = tuple(c + 1 for c in mu)
    mu_rho_norm = den_ip(shifted_mu, shifted_mu)

    def rho_norm(nu):
        shifted = tuple(c + 1 for c in nu)
        return den_ip(shifted, shifted)

    candidates = sorted(_dominant_candidates(rs, mu), key=lambda nu: (-rho_norm(nu), nu))

    # |nu + k a|^2 = |nu|^2 + 2k (nu, a) + k^2 |a|^2 and (nu + k a, a) =
    # (nu, a) + k |a|^2, all scaled by _gram_den, from the pairing vectors.
    roots = [(alpha, v, sum(a * c for a, c in zip(alpha, v)))
             for alpha, v in zip(rs.positive_roots, rs._proot_pairing)]
    mults = {}
    for nu in candidates:
        if nu == mu:
            mults[mu] = 1
            continue
        nu_norm = den_ip(nu, nu)
        total = 0
        for alpha, v, alpha_norm in roots:
            pairing = sum(c * x for c, x in zip(nu, v))
            k = 1
            while nu_norm + k * (2 * pairing + k * alpha_norm) <= mu_norm:
                xi = tuple(c + k * a for c, a in zip(nu, alpha))
                m = mults.get(rs._dominant_rep(xi)[0], 0)
                if m:
                    total += m * (pairing + k * alpha_norm)
                k += 1
        if total:
            denom = mu_rho_norm - rho_norm(nu)
            m, r = divmod(2 * total, denom)
            if r:
                raise AssertionError(f"non-integer Freudenthal multiplicity at {nu}")
            mults[nu] = m

    dim = sum(m * rs._orbit_size(nu) for nu, m in mults.items())
    return mults, dim


def assert_true_dominant_forms(rs):
    """The dominant-key memo of some width is filled, and each entry x -> y,
    read back as weights, has y dominant and x in the Weyl orbit of y, built
    by the orbit search and not by the reflection loop that filled the memo."""
    filled = [fields for fields in rs._fields.values() if fields.dominant_keys]
    assert filled
    for fields in filled:
        for x, y in fields.dominant_keys.items():
            x, y = fields.weight(x), fields.weight(y)
            assert min(y) >= 0 and x in rs.weyl_orbit(y), (x, y)


# Largest coordinate per type for the comparison with the reference recursion.
REFERENCE_HEIGHTS = {"A1": 12, "A2": 5, "A3": 3, "B2": 5, "B3": 2, "C3": 2, "G2": 4,
                     "A1xA1": 5, "B2xA1": 2}


@st.composite
def typed_weights(draw):
    typ = draw(st.sampled_from(sorted(REFERENCE_HEIGHTS)))
    rs = build_root_system(typ)
    height = REFERENCE_HEIGHTS[typ]
    return typ, tuple(draw(st.integers(0, height)) for _ in range(rs.rank))


# Largest coordinate sum per type, chosen to keep the reference box small.
DESCENT_SUMS = {"A1": 12, "A2": 6, "A3": 4, "A4": 3, "B2": 6, "B3": 4, "C3": 4, "C4": 2,
                "D4": 2, "G2": 5, "F4": 2, "E6": 1, "B2xA1": 4}


class TestDominantDescent:
    @pytest.mark.parametrize("typ", sorted(DESCENT_SUMS))
    def test_descent_matches_the_coefficient_box(self, typ):
        rs = build_root_system(typ)
        weights = [mu for mu in product(range(DESCENT_SUMS[typ] + 1), repeat=rs.rank)
                   if sum(mu) <= DESCENT_SUMS[typ]]
        for mu in weights:
            assert _dominant_candidates(rs, mu) == box_candidates(rs, mu), mu

    def test_e8_adjoint(self):
        rs = build_root_system("E8")
        omega8 = (0,) * 7 + (1,)
        char = weight_multiplicities(rs, omega8)
        assert char.dominant == {omega8: 1, (0,) * 8: 8}
        assert char.dim == 248


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(typed_weights())
    def test_small_heights(self, drawn):
        typ, mu = drawn
        rs = build_root_system(typ)
        char = weight_multiplicities(rs, mu)
        assert (dict(char.dominant), char.dim) == reference_freudenthal(rs, mu)

    @pytest.mark.parametrize("typ", ["F4", "E6", "E7", "E8"])
    def test_exceptional_fundamental_weights(self, typ):
        rs = build_root_system(typ)
        for i in range(rs.rank):
            mu = tuple(int(i == j) for j in range(rs.rank))
            char = weight_multiplicities(rs, mu)
            assert (dict(char.dominant), char.dim) == reference_freudenthal(rs, mu), mu

    def test_fresh_instance_fills_the_dominant_memo(self):
        # A fresh instance computes every character anew, reading dominant
        # forms through its own memo, as keys of the 21-bit fields only.
        interned = build_root_system("B2xA1")
        weights = interned.dominant_weights_up_to(2)
        expected = {mu: weight_multiplicities(interned, mu) for mu in weights}
        fresh = RootSystem(LieType.parse("B2xA1"))
        for mu in weights:
            assert weight_multiplicities(fresh, mu) == expected[mu]
        assert list(fresh._fields) == [_MIN_FIELD]
        assert_true_dominant_forms(fresh)


class TestWeightMultiplicities:
    def test_equality_by_value_and_only_between_characters(self):
        char = weight_multiplicities(build_root_system("A2"), (1, 0))
        fresh = weight_multiplicities(RootSystem(LieType.parse("A2")), (1, 0))
        assert char == fresh and char is not fresh
        assert char.__eq__(object()) is NotImplemented
        assert char != object() and char != char.dominant

    @pytest.mark.parametrize("n", range(0, 9))
    def test_a1_matches_ladder_oracle(self, n):
        rs = build_root_system("A1")
        assert full_weights(rs, (n,)) == sl2_ladder(n)

    def test_trivial_weight(self):
        rs = build_root_system("A2")
        char = weight_multiplicities(rs, (0, 0))
        assert char.dominant == {(0, 0): 1}
        assert char.dim == 1

    def test_a2_adjoint(self):
        rs = build_root_system("A2")
        char = weight_multiplicities(rs, (1, 1))
        assert char.dominant[(0, 0)] == 2
        assert char.dim == 8

    def test_b2_and_g2_zero_weight_multiplicities(self):
        b2 = build_root_system("B2")
        assert weight_multiplicities(b2, (0, 1)).dominant == {(0, 1): 1}  # spin rep, dim 4
        g2 = build_root_system("G2")
        seven = weight_multiplicities(g2, (1, 0))
        assert seven.dominant == {(1, 0): 1, (0, 0): 1}

    @pytest.mark.parametrize("typ,height", [("A2", 3), ("B2", 3), ("G2", 2), ("A3", 2)])
    def test_total_count_equals_weyl_dim(self, typ, height):
        rs = build_root_system(typ)
        for mu in rs.dominant_weights_up_to(height):
            char = weight_multiplicities(rs, mu)
            assert char.dim == rs.weyl_dim(mu)
            assert sum(m * len(rs.weyl_orbit(nu)) for nu, m in char.dominant.items()) == char.dim

    def test_highest_weight_multiplicity_one(self):
        rs = build_root_system("G2")
        for mu in rs.dominant_weights_up_to(2):
            assert weight_multiplicities(rs, mu).dominant[mu] == 1

    def test_weyl_symmetry_on_samples(self):
        rs = build_root_system("B2")
        fw = full_weights(rs, (2, 1))
        for w, m in fw.items():
            for orbit_point in rs.weyl_orbit(w):
                assert fw[orbit_point] == m

    def test_support_lies_in_root_lattice_shift(self):
        # every weight of V(mu) differs from mu by an integer combination of
        # Cartan columns
        rs = build_root_system("A2")
        mu = (2, 1)
        for w in full_weights(rs, mu):
            diff = tuple(a - b for a, b in zip(mu, w))
            # solve cartan . k = diff over the rationals
            k0 = Fraction(2 * diff[0] + diff[1], 3)
            k1 = Fraction(diff[0] + 2 * diff[1], 3)
            assert k0.denominator == 1 and k1.denominator == 1

    def test_memoised(self):
        rs = build_root_system("A2")
        assert weight_multiplicities(rs, (1, 1)) is weight_multiplicities(rs, [1, 1])
        assert full_weights(rs, (1, 1)) is weight_multiplicities(rs, (1, 1)).weights

    def test_memo_lives_on_its_root_system(self):
        # A fresh instance computes its own weight systems: equal values, other objects.
        interned = build_root_system("A2")
        fresh = RootSystem(LieType.parse("A2"))
        for mu in interned.dominant_weights_up_to(2):
            mine = weight_multiplicities(fresh, mu)
            assert mine == weight_multiplicities(interned, mu)
            assert mine is not weight_multiplicities(interned, mu)
            assert mine is weight_multiplicities(fresh, mu)

    def test_no_module_level_cache(self):
        # Caches live on the RootSystem instance, never in these modules.
        for module in (characters, fusion):
            for name, value in vars(module).items():
                assert not hasattr(value, "cache_info"), f"{module.__name__}.{name}"

    def test_cached_results_are_read_only(self):
        rs = build_root_system("A2")
        with pytest.raises(TypeError):
            full_weights(rs, (1, 0))[(10, 8)] = 5
        char = weight_multiplicities(rs, (1, 0))
        with pytest.raises(TypeError):
            char.dominant[(0, 0)] = 5
        with pytest.raises(TypeError):
            char.weights[(10, 8)] = 5
        assert full_weights(rs, (1, 0)) == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}
        assert tensor_decompose(rs, (1, 0), (1, 0)).components == {(2, 0): 1, (0, 1): 1}
        tensor_decompose(rs, (1, 0), (1, 0)).components[(2, 0)] = 7
        assert tensor_decompose(rs, (1, 0), (1, 0)).components == {(2, 0): 1, (0, 1): 1}

    @pytest.mark.parametrize("typ,height", [("A2", 3), ("B2", 2), ("G2", 2), ("B2xA1", 1)])
    def test_weights_are_the_orbit_expansion(self, typ, height):
        rs = build_root_system(typ)
        for mu in rs.dominant_weights_up_to(height):
            char = weight_multiplicities(rs, mu)
            expanded = {w: m for nu, m in char.dominant.items() for w in rs.weyl_orbit(nu)}
            assert char.weights == expanded
            assert char.dim == sum(expanded.values()) == rs.weyl_dim(mu)

    @pytest.mark.parametrize("typ,height,max_sum", [("B3", 2, 6), ("E6", 1, 2)])
    def test_dominant_and_dim_build_no_orbit(self, typ, height, max_sum, monkeypatch):
        # The dimension check sums m(nu) |W nu| from stabiliser orders, and
        # the orbit expansion waits for a read of ``weights``.
        interned = build_root_system(typ)
        weights = [mu for mu in interned.dominant_weights_up_to(height) if sum(mu) <= max_sum]
        expected = {mu: weight_multiplicities(interned, mu).dominant for mu in weights}
        fresh = RootSystem(LieType.parse(typ))

        def forbidden(*args, **kwargs):
            raise AssertionError("a Weyl orbit was built")

        monkeypatch.setattr(RootSystem, "weyl_orbit", forbidden)
        for mu in weights:
            char = weight_multiplicities(fresh, mu)
            assert char.dominant == expected[mu]
            assert char.dim == fresh.weyl_dim(mu)
        assert fresh._fields and all(fields.orbits == {} for fields in fresh._fields.values())
        with pytest.raises(AssertionError, match="orbit was built"):
            char.weights

    def test_concurrent_first_reads_agree(self):
        # Lazy fills race on a fresh instance: every reader must see the
        # complete, deterministic value, and later reads the stored one.
        fresh = RootSystem(LieType.parse("B2"))
        weights = fresh.dominant_weights_up_to(2)
        expected = {mu: dict(full_weights(build_root_system("B2"), mu)) for mu in weights}
        results = []

        def work():
            for mu in weights:
                results.append((mu, weight_multiplicities(fresh, mu).dim,
                                dict(full_weights(fresh, mu))))

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
        assert len(results) == 8 * len(weights)
        for mu, dim, weights_of_mu in results:
            assert dim == fresh.weyl_dim(mu) and weights_of_mu == expected[mu]
        for mu in weights:
            assert full_weights(fresh, mu) is weight_multiplicities(fresh, mu).weights
        # The dominant-form memo the readers filled holds only true dominant forms.
        assert_true_dominant_forms(fresh)

    def test_non_dominant_rejected(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError, match="dominant"):
            weight_multiplicities(rs, (1, -1))


class TestCharacterProduct:
    def test_a1_fundamental_square(self):
        rs = build_root_system("A1")
        fd = character_product_decompose(rs, (1,), (1,))
        assert fd.components == {(2,): 1, (0,): 1}

    def test_unit_of_fusion(self):
        rs = build_root_system("B2")
        for mu in rs.dominant_weights_up_to(2):
            fd = character_product_decompose(rs, (0, 0), mu)
            assert fd.components == {mu: 1}

    def test_a2_three_times_threebar(self):
        rs = build_root_system("A2")
        fd = character_product_decompose(rs, (1, 0), (0, 1))
        assert fd.components == {(1, 1): 1, (0, 0): 1}
        assert rs.weyl_dim((1, 0)) * rs.weyl_dim((0, 1)) == 8 + 1

    def test_dimension_identity_g2(self):
        rs = build_root_system("G2")
        fd = character_product_decompose(rs, (1, 0), (0, 1))
        assert fd.dimension(rs) == 7 * 14
