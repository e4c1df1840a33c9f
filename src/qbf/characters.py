"""Weight systems of irreducible representations.

Multiplicities are computed on the dominant chamber with Freudenthal's
recursion; the expansion to full Weyl orbits is built on first read.  The
dominant weights below a highest weight are found by descent: subtract every
positive root and keep the dominant results.  The dimension is checked against
Weyl's formula as sum m(nu) |W nu|, from the orbit sizes of the root system,
so no orbit is built for it.  The module also provides a character-product
decomposition (multiply two weight systems pointwise, then repeatedly strip
the highest remaining weight) which serves as an independent cross-check for
the fusion algorithm at small heights.

Each weight system is memoised once, in a dict on its :class:`RootSystem`, and
stored only when complete, so concurrent readers never see partial results.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .root_system import RootSystem, Weight


@dataclass(frozen=True)
class Character:
    """Weight system of one irreducible.

    ``dominant`` holds the dominant multiplicities and ``dim`` their total
    over the Weyl orbits.  ``weights``, the orbit expansion, is built from
    the root system on first read.  Both mappings are read-only: instances
    are memoised on their root system and shared by every caller, and the
    lazy fill is an idempotent write of a deterministic value.  Equality
    does not look at the root system instance.
    """

    highest_weight: Weight
    dominant: Mapping[Weight, int]
    dim: int
    _rs: RootSystem = field(compare=False, repr=False)

    @cached_property
    def weights(self) -> Mapping[Weight, int]:
        return MappingProxyType({w: m for nu, m in self.dominant.items()
                                 for w in self._rs.weyl_orbit(nu)})

    def multiplicity(self, rs: RootSystem, weight) -> int:
        return self.weights.get(rs.check_weight(weight), 0)


def _dominant_candidates(rs: RootSystem, mu: Weight) -> set[Weight]:
    """Dominant nu with mu - nu a nonnegative integer combination of simple roots.

    Each cover of the dominance order on dominant weights is a positive root
    (Stembridge, "The partial order of dominant weights", 1998), so descent
    from mu by positive roots through dominant weights reaches every such nu.
    """
    found = {mu}
    stack = [mu]
    while stack:
        nu = stack.pop()
        for alpha in rs.positive_roots:
            x = tuple(c - a for c, a in zip(nu, alpha))
            if min(x) >= 0 and x not in found:
                found.add(x)
                stack.append(x)
    return found


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
    den_ip = rs._ip_scaled
    mu_norm = den_ip(mu, mu)
    shifted_mu = tuple(c + 1 for c in mu)
    mu_rho_norm = den_ip(shifted_mu, shifted_mu)

    def rho_norm(nu: Weight) -> int:
        shifted = tuple(c + 1 for c in nu)
        return den_ip(shifted, shifted)

    candidates = sorted(_dominant_candidates(rs, mu), key=lambda nu: (-rho_norm(nu), nu))

    # |nu + k a|^2 = |nu|^2 + 2k (nu, a) + k^2 |a|^2 and (nu + k a, a) =
    # (nu, a) + k |a|^2, all scaled by _gram_den, from the pairing vectors.
    roots = [(alpha, v, sum(a * c for a, c in zip(alpha, v)))
             for alpha, v in zip(rs.positive_roots, rs._proot_pairing)]
    mults: dict[Weight, int] = {}
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


def character_product_decompose(rs: RootSystem, lam, mu) -> "FusionDecomposition":
    """Decompose the pointwise product of two characters.

    Computes the product's dominant multiplicities by convolving the smaller
    weight system against the larger, then repeatedly strips the highest
    remaining weight.  Contract-identical to fusion.tensor_decompose; intended
    as an independent cross-check at small heights.
    """
    from .fusion import FusionDecomposition  # deferred: fusion imports this module

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
    return FusionDecomposition.from_parts(rs, lam, mu, components)
