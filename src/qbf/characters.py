"""Weight systems of irreducible representations.

Multiplicities are computed on the dominant chamber with Freudenthal's
recursion, on the packed integer keys of :mod:`qbf.root_system`; the
expansion to full Weyl orbits is built on first read, from the root system's
orbits.  The dominant weights below a highest weight are found by descent on
keys: subtract every packed positive root and keep the keys whose fields are
all nonnegative.  The recursion walks each string xi = nu + k a by adding the
packed a, with the norms and pairings on scaled ints, and reads the
multiplicity at the key of the dominant form of xi; those keys come from the
memo of the root system's fields, shared by every weight system built on it,
and the order and the denominators come from its memoised Casimirs.  The
dimension is checked against Weyl's formula as sum m(nu) |W nu|, from the
orbit sizes of the root system, so no orbit is built for it.  The module
also provides a character-product decomposition (multiply two weight systems
pointwise, then repeatedly strip the highest remaining weight) which serves
as an independent cross-check for the fusion algorithm at small heights.

Each weight system is memoised once, in a dict on its :class:`RootSystem`, and
stored only when complete, so concurrent readers never see partial results.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from operator import mul
from types import MappingProxyType

from . import fusion
from .root_system import RootSystem, Weight, _Fields


def _read_only(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class Character:
    """Weight system of one irreducible.

    ``dominant`` holds the dominant multiplicities and ``dim`` their total
    over the Weyl orbits.  ``weights``, the orbit expansion, is built from
    the root system on first read.  Both mappings are read-only: instances
    are memoised on their root system and shared by every caller, and the
    lazy fill is an idempotent write of a deterministic value.  Fields
    cannot be reassigned, and equality does not look at the root system
    instance.
    """

    def __init__(self, highest_weight: Weight, dominant: Mapping[Weight, int], dim: int,
                 _rs: RootSystem):
        fields = self.__dict__
        fields["highest_weight"], fields["dominant"] = highest_weight, dominant
        fields["dim"], fields["_rs"] = dim, _rs

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return (f"Character(highest_weight={self.highest_weight!r}, "
                f"dominant={self.dominant!r}, dim={self.dim!r})")

    def __eq__(self, other):
        if other.__class__ is not Character:
            return NotImplemented
        return (self.highest_weight, self.dominant, self.dim) == (
            other.highest_weight, other.dominant, other.dim)

    @cached_property
    def weights(self) -> Mapping[Weight, int]:
        return MappingProxyType({w: m for nu, m in self.dominant.items()
                                 for w in self._rs.weyl_orbit(nu)})

    def multiplicity(self, rs: RootSystem, weight) -> int:
        return self.weights.get(rs.check_weight(weight), 0)


def _candidate_keys(fields: _Fields, key: int) -> set[int]:
    """Keys of the dominant nu with mu - nu a nonnegative integer combination
    of simple roots, mu the weight of ``key``.

    Each cover of the dominance order on dominant weights is a positive root
    (Stembridge, "The partial order of dominant weights", 1998), so descent
    from mu by positive roots through dominant weights reaches every such nu.
    A key is dominant when ``~key & top`` is zero: every field's top bit is set.
    """
    top, roots = fields.top, fields.positive
    found = {key}
    stack = [key]
    while stack:
        nu = stack.pop()
        for alpha in roots:
            x = nu - alpha
            if not ~x & top and x not in found:
                found.add(x)
                stack.append(x)
    return found


def _dominant_candidates(rs: RootSystem, mu: Weight) -> set[Weight]:
    """:func:`_candidate_keys` of a checked dominant weight, as weights."""
    fields = rs._fields[rs._width(rs._ip_scaled(mu, mu))]
    return set(map(fields.weight, _candidate_keys(fields, fields.key(mu))))


def weight_multiplicities(rs: RootSystem, mu) -> Character:
    """Weight system of the irreducible with highest weight mu.

    Freudenthal's recursion, processed in order of decreasing
    (nu + rho, nu + rho) so every multiplicity referenced on the right-hand
    side is already known.
    """
    return _weight_multiplicities(rs, rs.check_dominant(mu))


def _weight_multiplicities(rs: RootSystem, mu: Weight) -> Character:
    char = rs._char_memo.get(mu)
    if char is not None:
        return char
    # |nu + rho|^2 - |rho|^2 is the Casimir (nu, nu + 2 rho), so the memoised
    # scaled Casimirs give both the processing order and the denominators.
    cas = rs._casimir_scaled
    norm_of = rs._norm_scaled
    mu_cas = cas(mu)
    mu_norm = norm_of(mu)
    # Every xi below has |xi| <= |mu|, so one field width holds its orbit.
    fields = rs._fields[rs._width(mu_norm)]
    candidates = sorted(((fields.weight(k), k) for k in _candidate_keys(fields, fields.key(mu))),
                        key=lambda nk: (-cas(nk[0]), nk[0]))

    # Along the string xi = nu + k a, k = 1, 2, ..., the key of xi grows by
    # the packed a, the scaled pairing p = (xi, a) by |a|^2 and |xi|^2 by
    # 2 p + |a|^2, all on ints.  Only the dominant form of xi is read, as a
    # key from the fields' memo, and the multiplicities are keyed by the keys
    # of the dominant weights.
    dominant = fields.dominant_keys.__getitem__
    roots = [(alpha, v, sum(map(mul, a, v)))
             for alpha, a, v in zip(fields.positive, rs.positive_roots, rs._proot_pairing)]
    by_key: dict[int, int] = {}
    mults: dict[Weight, int] = {}
    for nu, key in candidates:
        if nu == mu:
            by_key[key] = mults[mu] = 1
            continue
        nu_norm = norm_of(nu)
        total = 0
        for alpha, v, alpha_norm in roots:
            xi = key
            p = sum(map(mul, nu, v))
            norm = nu_norm + 2 * p + alpha_norm
            p += alpha_norm
            while norm <= mu_norm:
                xi += alpha
                m = by_key.get(dominant(xi))
                if m:
                    total += m * p
                norm += 2 * p + alpha_norm
                p += alpha_norm
        if total:
            m, r = divmod(2 * total, mu_cas - cas(nu))
            if r:
                raise AssertionError(f"non-integer Freudenthal multiplicity at {nu}")
            by_key[key] = mults[nu] = m

    dim = sum(m * rs._orbit_size(nu) for nu, m in mults.items())
    expected = rs._weyl_dim(mu)
    if dim != expected:
        raise AssertionError(f"character of {mu} has size {dim}, Weyl dimension {expected}")
    char = rs._char_memo[mu] = Character(mu, MappingProxyType(mults), dim, rs)
    return char


def full_weights(rs: RootSystem, mu) -> Mapping[Weight, int]:
    """Orbit-expanded weight system {weight: multiplicity}, as a read-only mapping."""
    return _weight_multiplicities(rs, rs.check_dominant(mu)).weights


def _height_key(rs: RootSystem, w: Weight) -> tuple:
    # (w, rho) strictly decreases when a positive root is subtracted, so
    # descending height processes maximal weights first; lex breaks ties
    # between incomparable weights of equal height.
    rho = (1,) * rs.rank
    return (-rs._ip_scaled(w, rho), tuple(-c for c in w))


def character_product_decompose(rs: RootSystem, lam, mu) -> fusion.FusionDecomposition:
    """Decompose the pointwise product of two characters.

    Computes the product's dominant multiplicities by convolving the smaller
    weight system against the larger, then repeatedly strips the highest
    remaining weight.  Contract-identical to fusion.tensor_decompose; intended
    as an independent cross-check at small heights.
    """
    lam = rs.check_dominant(lam)
    mu = rs.check_dominant(mu)
    small, big = (lam, mu) if rs.weyl_dim(lam) <= rs.weyl_dim(mu) else (mu, lam)
    fw_small = full_weights(rs, small)
    fw_big = full_weights(rs, big)

    top = tuple(a + b for a, b in zip(lam, mu))
    candidates = _dominant_candidates(rs, top)
    remaining: dict[Weight, int] = {}
    for eta in candidates:
        total = 0
        for w, m in fw_small.items():
            n = fw_big.get(tuple(e - c for e, c in zip(eta, w)))
            if n:
                total += m * n
        if total:
            remaining[eta] = total

    components: dict[Weight, int] = {}
    for eta in sorted(candidates, key=lambda w: _height_key(rs, w)):
        m = remaining.get(eta, 0)
        if m == 0:
            continue
        if m < 0:
            raise AssertionError(f"negative residual multiplicity {m} at {eta}")
        components[eta] = m
        for nu, mult in _weight_multiplicities(rs, eta).dominant.items():
            remaining[nu] = remaining.get(nu, 0) - m * mult
    leftovers = {w: m for w, m in remaining.items() if m}
    if leftovers:
        raise AssertionError(f"character product did not resolve: {leftovers}")
    return fusion.FusionDecomposition.from_parts(lam, mu, components)
