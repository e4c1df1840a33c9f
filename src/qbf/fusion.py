"""Tensor-product (fusion) decomposition via the Brauer-Klimyk algorithm.

For dominant lam, mu the product V(lam) (x) V(mu) decomposes into irreducibles
with multiplicities.  The algorithm runs over the weight system of the factor
with smaller Weyl dimension: each weight w contributes its multiplicity, with
the sign of the Weyl element moving lam + w + rho back into the (strict)
dominant chamber; contributions on a chamber wall cancel and are dropped.
Negative intermediate sums are normal; a nonpositive final entry would be an
internal error, never a user error.

The inner loop runs on packed integer keys.  A weight x is packed as
sum x_i 2^(W i) over fields of W bits, plus a bias of 2^(W - 1) in every
field for a point anchor + rho + w; so each weight of the expanded factor
costs one integer add and one dict lookup.  Three memos on the root system
serve it, each keyed by the field width W.  The layout of an expanded
factor pairs the packed Weyl orbit of each of its dominant weights with the
weight's multiplicity; it is built once from the factor's :class:`Character`,
so a decomposition does no per-weight setup.  The packed orbits are packed
once and shared between layouts.  The reflection memo maps the key of a
point to (nu, sign), nu + rho being its dominant form, or to None on a
chamber wall, and computes a missing entry on lookup.  W is the smallest
width, and at least 21 bits, whose fields hold every coordinate of a point
and of its dominant form; ordinary sweeps therefore share the 21-bit tables,
while a huge anchor runs through the same loop with wider fields.  Sums that
cancel to zero are dropped only when the loop left one.

Decompositions themselves are not cached: the sweeps decompose each
unordered pair once, and a fusion cache measured a repeat ratio of 0.  The
weight system is memoised on the root system by :mod:`qbf.characters`.  A
decomposition keeps its components in the order the loop found them; the
sorted ``components`` mapping is built on first read, so the sweeps, which
read every component of every pair but need no order, never pay for a sort.
"""

from __future__ import annotations

from functools import cached_property, partial
from math import isqrt
from operator import add

from .characters import _read_only, weight_multiplicities
from .root_system import RootSystem, Weight, _Memo


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


# Ordinary sweeps keep every rho-shifted coordinate far below 2^20, so they
# all share the tables of this field width.
_MIN_FIELD = 21


def _pack(x, width: int) -> int:
    """sum x_i 2^(width i): injective while every |x_i| < 2^(width - 1)."""
    return sum(c << (width * i) for i, c in enumerate(x))


def _field_width(rs: RootSystem, expand: Weight, anchor: Weight) -> int:
    """Smallest admissible field width for the points x = anchor + rho + w.

    Every simple root a_i has (a_i, a_i) >= 2, so a coordinate of x, or of its
    dominant form y, is at most sqrt(2) |y| = sqrt(2) |x|, and
    |x| <= |anchor + rho| + |expand| because a weight w of V(expand) has
    |w| <= |expand|.  The squared norms come from the memoised invariants,
    |anchor + rho|^2 being c(anchor) + |rho|^2.
    """
    den = rs._gram_den
    shifted = rs._casimir_scaled(anchor) + rs._norm_scaled(rs.rho)
    bound = isqrt(2 * shifted // den) + isqrt(2 * rs._norm_scaled(expand) // den) + 2
    return max(_MIN_FIELD, bound.bit_length() + 1)


def _unpack(key: int, width: int, bias: int, rank: int) -> Weight:
    """Inverse of ``_pack`` on a key biased by ``bias`` in every field."""
    mask = (1 << width) - 1
    return tuple(((key >> (width * i)) & mask) - bias for i in range(rank))


def _reflect_packed(rs: RootSystem, key: int, width: int, bias: int):
    """(nu, sign) with nu + rho the dominant form of the point key; None when singular."""
    y, sign, singular = rs._dominant_rep(_unpack(key, width, bias, rs.rank))
    return None if singular else (tuple(c - 1 for c in y), sign)


def _layout(rs: RootSystem, width: int, expand: Weight) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(packed Weyl orbit, multiplicity) per dominant weight of V(expand).

    Each orbit is packed once per width and shared between layouts.  A
    width's reflection memo is created with its first layout.
    """
    rs._reflection_memo.setdefault(
        width, _Memo(partial(_reflect_packed, rs, width=width, bias=1 << (width - 1))))
    orbits = rs._orbit_memo
    layout = []
    for eta, m in weight_multiplicities(rs, expand).dominant.items():
        keys = orbits.get((width, eta))
        if keys is None:
            keys = orbits[(width, eta)] = tuple(_pack(w, width) for w in rs.weyl_orbit(eta))
        layout.append((keys, m))
    return tuple(layout)


def tensor_decompose(rs: RootSystem, lam, mu) -> FusionDecomposition:
    """Brauer-Klimyk decomposition of V(lam) (x) V(mu)."""
    lam = rs.check_dominant(lam)
    mu = rs.check_dominant(mu)
    expand, anchor = (lam, mu) if rs._weyl_dim(lam) <= rs._weyl_dim(mu) else (mu, lam)
    width = _field_width(rs, expand, anchor)
    bias = 1 << (width - 1)
    layout = rs._layout_memo.get((width, expand))
    if layout is None:
        layout = rs._layout_memo[(width, expand)] = _layout(rs, width, expand)
    reflection = rs._reflection_memo[width]
    base = _pack([c + 1 + bias for c in anchor], width)  # biased key of anchor + rho
    acc: dict[Weight, int] = {}
    get = acc.get
    for keys, m in layout:
        for k in keys:
            hit = reflection[base + k]
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
