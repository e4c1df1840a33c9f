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
one integer add and one dict lookup.  All the loop reads lives on the root
system's :class:`_Fields` of one width: the anchor's key, from its
``anchors``; the layout of the expanded factor, which pairs the packed Weyl
orbit of each of its dominant weights, from ``orbits``, with the weight's
multiplicity, built once from the factor's :class:`Character`; and the
reflection table, which maps the key of a point to (nu, sign), nu + rho
being its dominant form, or to None on a chamber wall, and which the loop
fills when its lookup fails.  The width is the root system's one rule,
``_width_for``, applied to the anchor radius of the anchor plus the expand
radius of the expanded factor.  That sum exceeds sqrt(2) (|anchor + rho| +
|expand|) >= sqrt(2) |x| for every point x, and as each simple root has
length^2 >= 2, it bounds every coordinate of x and of its dominant form.
Ordinary sweeps therefore share the 21-bit fields, while a huge anchor runs
through the same loop with wider ones.  Per pair, the weights are checked
only when the root system did not produce or check them itself, and their
dimensions and radii are read from the root system's per-weight memo.
:meth:`FusionDecomposition.from_parts` is the one check of every result: it
drops the sums that cancelled to zero and refuses a negative one.

Decompositions themselves are not cached: the sweeps decompose one
unordered pair per orbit of the diagram automorphisms, and a fusion cache
measured a repeat ratio of 0.  The weight system is memoised on the root
system by :mod:`qbf.characters`.  A decomposition keeps its components in
the order the loop found them; the sorted ``components`` mapping is built on
first read, so the sweeps, which read every component of every pair but need
no order, never pay for a sort.
"""

from __future__ import annotations

from functools import cached_property
from operator import add

from .characters import _read_only, weight_multiplicities
from .root_system import RootSystem, Weight, _Fields, _width_for


class FusionDecomposition:
    """Multiplicities {nu: m_nu} of the irreducibles inside lam (x) mu.

    ``cartan`` is the Cartan component lam + mu.  ``components`` is sorted
    by decreasing coordinate sum, then lexicographically; it is built from
    the unsorted ``_parts`` on first read and then kept.  Fields cannot be
    reassigned, and equality compares the multiplicities, not their order.
    """

    def __init__(self, lam: Weight, mu: Weight, _parts: dict[Weight, int]):
        fields = self.__dict__
        fields["lam"], fields["mu"], fields["_parts"] = lam, mu, _parts
        fields["cartan"] = tuple(map(add, lam, mu))

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return f"FusionDecomposition(lam={self.lam!r}, mu={self.mu!r})"

    def __eq__(self, other):
        if other.__class__ is not FusionDecomposition:
            return NotImplemented
        return (self.lam, self.mu, self._parts) == (other.lam, other.mu, other._parts)

    @classmethod
    def from_parts(cls, lam: Weight, mu: Weight,
                   components: dict[Weight, int]) -> "FusionDecomposition":
        """The decomposition with ``components`` less the sums that cancelled
        to zero; a negative sum, or a Cartan component that is missing or
        not 1, is an internal error.

        It takes ownership of ``components``: the zeros are deleted from
        that dict, which becomes the decomposition's ``_parts``, so a caller
        hands in a dict it does not use again."""
        if min(components.values()) <= 0:  # a sum cancelled: drop the zeros
            for nu in [nu for nu, m in components.items() if not m]:
                del components[nu]
            if min(components.values()) < 0:
                raise AssertionError(f"nonpositive fusion multiplicity in {components}")
        fd = cls(lam, mu, components)
        if components.get(fd.cartan) != 1:
            raise AssertionError(
                f"Cartan component {fd.cartan} missing or mult != 1 in {components}")
        return fd

    @cached_property
    def components(self) -> dict[Weight, int]:
        parts = self._parts
        return {nu: parts[nu] for nu in sorted(parts, key=_component_order)}

    def dimension(self, rs: RootSystem) -> int:
        return sum(m * rs.weyl_dim(nu) for nu, m in self._parts.items())

    def __iter__(self):
        return iter(self.components.items())


def _component_order(nu: Weight) -> tuple:
    """The sort key of ``components``: decreasing coordinate sum, then
    lexicographic."""
    return -sum(nu), nu


def _reflect_point(fields: _Fields, key: int):
    """(nu, sign) with nu + rho the dominant form of the point key; None on a wall."""
    key, sign = fields.dominant(key)
    nu = fields.weight(key - fields.rho)
    return None if -1 in nu else (nu, sign)


def _layout(rs: RootSystem, fields: _Fields, expand: Weight) -> tuple[tuple[tuple, int], ...]:
    """(packed Weyl orbit, multiplicity) per dominant weight of V(expand), the
    orbits taken from the fields' memo and so shared between layouts."""
    orbits = fields.orbits
    return tuple((orbits[eta], m) for eta, m in weight_multiplicities(rs, expand).dominant.items())


def tensor_decompose(rs: RootSystem, lam, mu) -> FusionDecomposition:
    """Brauer-Klimyk decomposition of V(lam) (x) V(mu)."""
    checked = rs._checked
    try:  # the weights of a sweep were checked when they were enumerated
        known = checked.get(lam) is lam and checked.get(mu) is mu
    except TypeError:  # unhashable: refused or converted by the check
        known = False
    if not known:
        lam, mu = rs.check_dominant(lam), rs.check_dominant(mu)
    dim_lam, anchor_lam, expand_lam = rs._fusion_terms(lam)
    dim_mu, anchor_mu, expand_mu = rs._fusion_terms(mu)
    if dim_lam <= dim_mu:
        expand, anchor, radius = lam, mu, anchor_mu + expand_lam
    else:
        expand, anchor, radius = mu, lam, anchor_lam + expand_mu
    fields = rs._fields[_width_for(radius)]
    base = fields.anchors[anchor]
    layout = fields.layouts.get(expand)
    if layout is None:
        layout = fields.layouts[expand] = _layout(rs, fields, expand)
    # A plain dict, filled on a miss here: CPython specialises subscripts of
    # exact dicts only, and this lookup is the loop.
    reflection = fields.reflection
    acc: dict[Weight, int] = {}
    get = acc.get
    for keys, m in layout:
        for k in keys:
            point = base + k
            try:
                hit = reflection[point]
            except KeyError:
                hit = reflection[point] = _reflect_point(fields, point)
            if hit is not None:
                nu, sign = hit
                acc[nu] = get(nu, 0) + sign * m
    return FusionDecomposition.from_parts(lam, mu, acc)


def contains_trivial(rs: RootSystem, lam, mu) -> bool:
    """Whether the trivial representation occurs in lam (x) mu.

    This happens exactly when mu is the conjugate weight of lam.
    """
    lam = rs.check_dominant(lam)
    mu = rs.check_dominant(mu)
    zero = (0,) * rs.rank
    return zero in tensor_decompose(rs, lam, mu).components
