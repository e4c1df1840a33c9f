"""Tensor-product (fusion) decomposition via the Brauer-Klimyk algorithm.

For dominant lam, mu the product V(lam) (x) V(mu) decomposes into irreducibles
with multiplicities.  The algorithm runs over the weight system of the factor
with smaller Weyl dimension: each weight w contributes its multiplicity, with
the sign of the Weyl element moving lam + w + rho back into the (strict)
dominant chamber; contributions on a chamber wall cancel and are dropped.
Negative intermediate sums are normal; a nonpositive final entry would be an
internal error, never a user error.

The inner loop runs on the packed integer keys of :mod:`qbf.root_system`:
the biased key of the point anchor + rho plus the unbiased key of a weight w
of the expanded factor is the key of anchor + rho + w, so each weight costs
one integer add and one dict lookup.  The layout of an expanded factor pairs
the packed Weyl orbit of each of its dominant weights, taken from the root
system's orbit memo, with the weight's multiplicity; it is built once from
the factor's :class:`Character`, so a decomposition does no per-weight
setup.  The reflection memo maps the key of a point to (nu, sign), nu + rho
being its dominant form, or to None on a chamber wall; the loop computes a
missing entry when its lookup fails.  Both are kept on the root system per
field width W, the smallest width, and at least 21 bits, whose fields hold
every coordinate of a point and of its dominant form; ordinary sweeps
therefore share the 21-bit tables, while a huge anchor runs through the same
loop with wider fields.  Per pair, the weights are checked only when the root system
did not produce or check them itself, and their dimensions, the radius terms
of the width and the anchor's key are read from the root system's per-weight
memo.  Sums that cancel to zero are dropped only when the loop left one.

Decompositions themselves are not cached: the sweeps decompose each
unordered pair once, and a fusion cache measured a repeat ratio of 0.  The
weight system is memoised on the root system by :mod:`qbf.characters`.  A
decomposition keeps its components in the order the loop found them; the
sorted ``components`` mapping is built on first read, so the sweeps, which
read every component of every pair but need no order, never pay for a sort.
"""

from __future__ import annotations

from functools import cached_property
from operator import add

from .characters import _read_only, weight_multiplicities
from .root_system import _MIN_FIELD, RootSystem, Weight, _Fields


class FusionDecomposition:
    """Multiplicities {nu: m_nu} of the irreducibles inside lam (x) mu.

    ``components`` is sorted by decreasing coordinate sum, then
    lexicographically; it is built from the unsorted ``_parts`` on first
    read and then kept.  Fields cannot be reassigned, and equality compares
    the multiplicities, not their order.
    """

    def __init__(self, lam: Weight, mu: Weight, _parts: dict[Weight, int]):
        fields = self.__dict__
        fields["lam"], fields["mu"], fields["_parts"] = lam, mu, _parts

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return f"FusionDecomposition(lam={self.lam!r}, mu={self.mu!r})"

    def __eq__(self, other):
        if other.__class__ is not FusionDecomposition:
            return NotImplemented
        return (self.lam, self.mu, self._parts) == (other.lam, other.mu, other._parts)

    @classmethod
    def from_parts(cls, rs: RootSystem, lam: Weight, mu: Weight,
                   components: dict[Weight, int]) -> "FusionDecomposition":
        cartan = tuple(map(add, lam, mu))
        if components.get(cartan) != 1:
            raise AssertionError(f"Cartan component {cartan} missing or mult != 1 in {components}")
        if min(components.values()) <= 0:
            raise AssertionError(f"nonpositive fusion multiplicity in {components}")
        return cls(lam, mu, components)

    @cached_property
    def components(self) -> dict[Weight, int]:
        return dict(sorted(self._parts.items(), key=lambda kv: (-sum(kv[0]), kv[0])))

    def dimension(self, rs: RootSystem) -> int:
        return sum(m * rs.weyl_dim(nu) for nu, m in self._parts.items())

    def __iter__(self):
        return iter(self.components.items())


# _field_width exceeds _MIN_FIELD exactly when the radius terms sum to this or more.
_WIDE = (1 << (_MIN_FIELD - 1)) - 2


def _field_width(rs: RootSystem, expand: Weight, anchor: Weight) -> int:
    """Smallest admissible field width for the points x = anchor + rho + w.

    Every simple root a_i has (a_i, a_i) >= 2, so a coordinate of x, or of its
    dominant form y, is at most sqrt(2) |y| = sqrt(2) |x|, and
    |x| <= |anchor + rho| + |expand| because a weight w of V(expand) has
    |w| <= |expand|.  The two roots, rounded down, are the radius terms that
    ``RootSystem._fusion_terms`` memoises per weight; 2 covers the rounding.
    """
    radius = rs._fusion_terms(anchor)[1] + rs._fusion_terms(expand)[2] + 2
    return max(_MIN_FIELD, radius.bit_length() + 1)


def _reflect_point(fields: _Fields, key: int):
    """(nu, sign) with nu + rho the dominant form of the point key; None on a wall."""
    key, sign = fields.dominant(key)
    nu = fields.weight(key - fields.top // fields.bias)  # top // bias packs rho
    return None if -1 in nu else (nu, sign)


def _layout(rs: RootSystem, width: int, expand: Weight) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(packed Weyl orbit, multiplicity) per dominant weight of V(expand).

    The orbits come from the root system's orbit memo, shared between
    layouts.  A width's reflection memo is created with its first layout.
    """
    rs._reflection_memo.setdefault(width, {})
    orbits = rs._orbit_memo
    return tuple((orbits[(width, eta)], m)
                 for eta, m in weight_multiplicities(rs, expand).dominant.items())


def tensor_decompose(rs: RootSystem, lam, mu) -> FusionDecomposition:
    """Brauer-Klimyk decomposition of V(lam) (x) V(mu)."""
    checked = rs._checked
    try:  # the weights of a sweep were checked when they were enumerated
        known = checked.get(lam) is lam and checked.get(mu) is mu
    except TypeError:  # unhashable: refused or converted by the check
        known = False
    if not known:
        lam, mu = rs.check_dominant(lam), rs.check_dominant(mu)
    dim_lam, anchor_lam, expand_lam, key_lam = rs._fusion_terms(lam)
    dim_mu, anchor_mu, expand_mu, key_mu = rs._fusion_terms(mu)
    if dim_lam <= dim_mu:
        expand, anchor, radius, base = lam, mu, anchor_mu + expand_lam, key_mu
    else:
        expand, anchor, radius, base = mu, lam, anchor_lam + expand_mu, key_lam
    width = _MIN_FIELD
    if radius >= _WIDE:  # a huge weight: the same loop with wider fields
        width = _field_width(rs, expand, anchor)
        base = rs._fields[width].key([c + 1 for c in anchor])
    layout = rs._layout_memo.get((width, expand))
    if layout is None:
        layout = rs._layout_memo[(width, expand)] = _layout(rs, width, expand)
    # A plain dict, filled on a miss here: CPython specialises subscripts of
    # exact dicts only, and this lookup is the loop.
    reflection = rs._reflection_memo[width]
    acc: dict[Weight, int] = {}
    get = acc.get
    for keys, m in layout:
        for k in keys:
            point = base + k
            try:
                hit = reflection[point]
            except KeyError:
                hit = reflection[point] = _reflect_point(rs._fields[width], point)
            if hit is not None:
                nu, sign = hit
                acc[nu] = get(nu, 0) + sign * m
    if min(acc.values()) <= 0:  # a sum cancelled: drop the zeros, keep any error
        acc = {nu: m for nu, m in acc.items() if m}
    return FusionDecomposition.from_parts(rs, lam, mu, acc)


def contains_trivial(rs: RootSystem, lam, mu) -> bool:
    """Whether the trivial representation occurs in lam (x) mu.

    This happens exactly when mu is the conjugate weight of lam.
    """
    lam = rs.check_dominant(lam)
    mu = rs.check_dominant(mu)
    zero = (0,) * rs.rank
    return zero in tensor_decompose(rs, lam, mu).components
