"""Tensor-product (fusion) decomposition via the Brauer-Klimyk algorithm.

For dominant lam, mu the product V(lam) (x) V(mu) decomposes into irreducibles
with multiplicities.  The algorithm runs over the weight system of the factor
with smaller Weyl dimension: each weight w contributes its multiplicity, with
the sign of the Weyl element moving lam + w + rho back into the (strict)
dominant chamber; contributions on a chamber wall cancel and are dropped.
Negative intermediate sums are normal; a nonpositive final entry would be an
internal error, never a user error.

Decompositions are not cached: the sweeps decompose each unordered pair once,
and a fusion cache measured a repeat ratio of 0.  The expanded weight system
is memoised on the root system by :mod:`qbf.characters`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import full_weights
from .root_system import RootSystem, Weight


@dataclass(frozen=True)
class FusionDecomposition:
    """Multiplicities {nu: m_nu} of the irreducibles inside lam (x) mu."""

    lam: Weight
    mu: Weight
    components: dict[Weight, int]

    @classmethod
    def from_parts(cls, rs: RootSystem, lam: Weight, mu: Weight,
                   components: dict[Weight, int]) -> "FusionDecomposition":
        ordered = dict(sorted(components.items(), key=lambda kv: (-sum(kv[0]), kv[0])))
        cartan = tuple(a + b for a, b in zip(lam, mu))
        if ordered.get(cartan) != 1:
            raise AssertionError(f"Cartan component {cartan} missing or mult != 1 in {ordered}")
        if any(m <= 0 for m in ordered.values()):
            raise AssertionError(f"nonpositive fusion multiplicity in {ordered}")
        return cls(lam, mu, ordered)

    def dimension(self, rs: RootSystem) -> int:
        return sum(m * rs.weyl_dim(nu) for nu, m in self.components.items())

    def __iter__(self):
        return iter(self.components.items())


def tensor_decompose(rs: RootSystem, lam, mu) -> FusionDecomposition:
    """Brauer-Klimyk decomposition of V(lam) (x) V(mu)."""
    lam = rs.check_dominant(lam)
    mu = rs.check_dominant(mu)
    expand, anchor = (lam, mu) if rs._weyl_dim(lam) <= rs._weyl_dim(mu) else (mu, lam)
    shifted = tuple(c + 1 for c in anchor)
    acc: dict[Weight, int] = {}
    for w, m in full_weights(rs, expand).items():
        x = tuple(s + c for s, c in zip(shifted, w))
        if min(x) > 0:  # already strictly dominant: no reflection, sign +1
            nu = tuple(c - 1 for c in x)
            acc[nu] = acc.get(nu, 0) + m
            continue
        y, sign, singular = rs._dominant_rep(x)
        if singular:
            continue
        nu = tuple(c - 1 for c in y)
        acc[nu] = acc.get(nu, 0) + sign * m
    return FusionDecomposition.from_parts(rs, lam, mu, {nu: m for nu, m in acc.items() if m})


def contains_trivial(rs: RootSystem, lam, mu) -> bool:
    """Whether the trivial representation occurs in lam (x) mu.

    This happens exactly when mu is the conjugate weight of lam.
    """
    lam = rs.check_dominant(lam)
    mu = rs.check_dominant(mu)
    zero = (0,) * rs.rank
    return zero in tensor_decompose(rs, lam, mu).components
