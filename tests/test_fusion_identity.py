"""Every pair of the sweep boxes against the full-torus fusion identity.

By Weyl's character formula (Humphreys, *Introduction to Lie Algebras and
Representation Theory*, §24.3) the character of V(lam) is A_{lam+rho} / A_rho,
with the alternant A_x = sum over w in W of eps(w) e^{w x}.  So
V(lam) (x) V(mu) = sum_nu m_nu V(nu) holds exactly when

    A_{lam+rho} A_{mu+rho} = A_rho sum_nu m_nu A_{nu+rho}

in the group ring of the weight lattice; the alternants of distinct strictly
dominant weights are independent, so the identity fixes every m_nu.  It reads
only the Cartan matrix: W is generated by the simple reflections as integer
matrices on fundamental-weight coordinates, s_i(x) = x - x_i alpha_i, with
alpha_i the i-th column of the Cartan matrix.  Nothing is shared with the
characters or fusion modules, and unlike the q-dimension (the principal
specialisation) the identity sees a component swapped for its image under a
diagram automorphism.

Both sides are evaluated at a point t of the torus (F_p^*)^r, p = 2^61 - 1,
where e^x(t) = prod_i t_i^{x_i}.  The point is t_i = g^{a_i} with g a
primitive root, so that e^{w x}(t) = g^{b . x}, b = M_w^T a for the matrix
M_w of w; each term tabulates the powers of its bases g^{b_j} as far as
they are needed.  For a wrong decomposition the difference of the two sides
is a nonzero Laurent polynomial; times prod_i t_i^C, C the largest
|coordinate| of an exponent on either side, it is a polynomial of total
degree at most D = 2 r C, so it vanishes at a point drawn uniformly from
(F_p^*)^r with probability at most D / (p - 1) (Schwartz, JACM 1980;
Zippel, EUROSAM 1979).  In the boxes here C <= 60 and D <= 240, so the bound
is below 10^-15 per pair.  The exponents a_i are drawn once from a generator
seeded by the type, so every run checks the same points and is
deterministic.  E types are skipped: |W| >= 51,840 alternant terms per
weight.
"""

import random

import pytest

from qbf.central_weights import _pair_orbits
from qbf.fusion import tensor_decompose
from qbf.root_system import build_root_system

P = 2 ** 61 - 1
G = 37  # a primitive root mod P
# p - 1 = 2 * 3^2 * 5^2 * 7 * 11 * 13 * 31 * 41 * 61 * 151 * 331 * 1321.
P_MINUS_1_PRIMES = (2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321)

# The sweep boxes of the benchmark, then larger boxes of rank 3 and 4.
BOXES = [("B2", 6), ("G2", 5), ("A2", 8), ("B3", 2), ("A3", 5), ("B3", 3), ("D4", 2)]


def weyl_group(cartan):
    """(M_w, eps(w)) for every w in W, M_w acting on fundamental-weight
    coordinates; breadth-first from the identity along the simple reflections."""
    r = len(cartan)
    reflections = [tuple(tuple(int(i == j) - (j == k) * cartan[i][k] for j in range(r))
                         for i in range(r)) for k in range(r)]
    identity = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    seen = {identity: 1}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for s in reflections:
                w = tuple(tuple(sum(s[i][k] * m[k][j] for k in range(r)) for j in range(r))
                          for i in range(r))
                if w not in seen:
                    seen[w] = -seen[m]
                    nxt.append(w)
        frontier = nxt
    return list(seen.items())


class FusionIdentity(dict):
    """The two sides of the identity at one point of the torus, for one type:
    maps a weight nu to A_{nu+rho}(t) mod p, computed on first lookup."""

    def __init__(self, lie_type):
        super().__init__()
        rs = build_root_system(lie_type)
        r = rs.rank
        exponents = random.Random(lie_type).choices(range(1, P - 1), k=r)
        # e^{w x}(t) = prod_j u_j^{x_j} with u_j = g^{b_j}, b = M_w^T a; each
        # term keeps the powers u_j^k, k = 0, 1, ..., as far as they were needed.
        self.terms = [(sign, [[1, pow(G, sum(m[i][j] * exponents[i] for i in range(r)), P)]
                              for j in range(r)])
                      for m, sign in weyl_group(rs.cartan)]
        self.zero = (0,) * r

    def __missing__(self, nu):
        x = [c + 1 for c in nu]
        top = max(x)
        total = 0
        for sign, rows in self.terms:
            term = 1
            for row, c in zip(rows, x):
                while len(row) <= top:
                    row.append(row[-1] * row[1] % P)
                term = term * row[c] % P
            total += sign * term
        self[nu] = total % P
        return self[nu]

    def residual(self, lam, mu, components):
        """A_{lam+rho} A_{mu+rho} - A_rho sum_nu m_nu A_{nu+rho} at the point, mod p."""
        right = sum(m * self[nu] for nu, m in components.items())
        return (self[lam] * self[mu] - self[self.zero] * right) % P


def test_the_base_generates_the_multiplicative_group():
    rest = P - 1
    for ell in P_MINUS_1_PRIMES:
        assert all(ell % d for d in range(2, ell)) and rest % ell == 0
        while rest % ell == 0:
            rest //= ell
        assert pow(G, (P - 1) // ell, P) != 1
    assert rest == 1


@pytest.mark.parametrize("lie_type, order", [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12),
                                             ("A3", 24), ("B3", 48), ("D4", 192)])
def test_weyl_group_order_and_signs(lie_type, order):
    group = weyl_group(build_root_system(lie_type).cartan)
    assert len(group) == order
    assert sum(sign for _, sign in group) == 0


@pytest.mark.parametrize("lie_type, height", BOXES, ids=[f"{t}-h{h}" for t, h in BOXES])
def test_every_pair_of_the_box(lie_type, height):
    """Every unordered pair, decomposed, satisfies the identity; so does each
    Γ-mate's decomposition read as the images of its representative's under
    sigma, as the sweeps read it; and a +1 planted on a component fails."""
    rs = build_root_system(lie_type)
    identity = FusionIdentity(lie_type)
    pairs = mates = 0
    for (lam, mu, _), *others in _pair_orbits(rs, rs.dominant_weights_up_to(height)):
        components = tensor_decompose(rs, lam, mu).components
        assert identity.residual(lam, mu, components) == 0, (lam, mu)
        planted = dict(components)
        planted[next(iter(planted))] += 1
        assert identity.residual(lam, mu, planted) != 0, (lam, mu)
        pairs += 1
        for a, b, sigma in others:
            mapped = {sigma(nu): m for nu, m in components.items()}
            assert identity.residual(a, b, mapped) == 0, (a, b)
            assert identity.residual(a, b, tensor_decompose(rs, a, b).components) == 0, (a, b)
            mates += 1
    n = len(rs.dominant_weights_up_to(height))
    assert pairs + mates == n * (n + 1) // 2
    assert mates > 0 or not rs._symmetries


def test_a_component_swapped_for_its_diagram_image_fails():
    # On A2, (1,0) (x) (1,0) = (2,0) + (0,1); the mirror image of (2,0) is (0,2).
    identity = FusionIdentity("A2")
    assert identity.residual((1, 0), (1, 0), {(2, 0): 1, (0, 1): 1}) == 0
    assert identity.residual((1, 0), (1, 0), {(0, 2): 1, (0, 1): 1}) != 0
    assert identity.residual((1, 0), (1, 0), {(2, 0): 1, (1, 0): 1}) != 0
