"""Exact root-system data and weight-lattice geometry.

Everything here is exact, in the basis of fundamental weights, and built on
ints: the Gram matrix by fraction-free Gauss-Jordan on the Cartan matrix,
whose pivots prove it positive definite, and root pairings from simple-root
coefficients.  Conventions:

* Cartan matrices use ``A[i][j] = 2(a_i, a_j)/(a_i, a_i)`` with Bourbaki node
  numbering for every series.
* The bilinear form is normalised so that in each simple factor the shortest
  root ``a`` satisfies ``(a, a) = 2``; the symmetrizers are
  ``d_i = (a_i, a_i)/2`` and ``diag(d) . A`` is symmetric.
* A weight is a plain tuple of integers (coefficients in the fundamental
  weight basis).  Dominance means all coordinates are nonnegative.

Semisimple (non-simple) types are supported as products of simple factors,
assembled block-diagonally with zero cross-factor form, e.g. ``"B2xA1"``.

Every Weyl-group operation runs here, on packed integer keys (:class:`_Fields`):
a weight x is the int sum (x_i + 2^(W-1)) 2^(W i) over fields of W bits, so
adding two keys adds the weights, and a field's top bit is set exactly when
its coordinate is >= 0.  One reflection loop, :meth:`_Fields.dominant`, takes
a key to the dominant chamber; one breadth-first search, :meth:`_Fields.orbit`,
builds a Weyl orbit.  The tuple API (:meth:`RootSystem.dominant_representative`,
:meth:`RootSystem.conjugate_weight`, :meth:`RootSystem.weyl_orbit`) packs and
unpacks around them, and the characters and fusion modules work on the keys
directly.  The width W is at least 21 bits, and wider for a weight whose
orbit would not fit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iproduct
from math import gcd, isqrt, lcm, prod
from operator import itemgetter, lshift, mul
from typing import NamedTuple

Weight = tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}
_FIXED_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

# The largest rank of a Lie type.  The root system's build and every weight
# loop grow with the rank (fusion of zero weights: 0.50 s at A50, 13.5 s at
# A200), and a box check raises height + 1 to the rank.  Every type the
# tests, the benchmark and the README use has rank <= 14.
MAX_RANK = 64

_POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


class LieTypeError(ValueError):
    """Raised for an invalid series/rank combination or a malformed type string."""


class LieType(NamedTuple("LieType", [("factors", tuple[tuple[str, int], ...])])):
    """An ordered product of simple factors, e.g. A2 or B2xA1."""

    __slots__ = ()

    def __new__(cls, factors: tuple[tuple[str, int], ...]) -> "LieType":
        if not factors:
            raise LieTypeError("a Lie type needs at least one simple factor")
        for series, rank in factors:
            _validate_factor(series, rank)
        lie_type = super().__new__(cls, factors)
        if lie_type.rank > MAX_RANK:
            raise LieTypeError(f"type {lie_type} has rank {lie_type.rank}, above the bound {MAX_RANK}")
        return lie_type

    @classmethod
    def parse(cls, text: str) -> "LieType":
        factors = []
        for part in str(text).strip().split("x"):
            m = re.fullmatch(r"\s*([A-Ga-g])\s*(\d+)\s*", part)
            if not m:
                raise LieTypeError(f"cannot parse Lie type factor {part!r}")
            factors.append((m.group(1).upper(), int(m.group(2))))
        return cls(tuple(factors))

    def __str__(self) -> str:
        return "x".join(f"{s}{r}" for s, r in self.factors)

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.factors)


def _validate_factor(series: str, rank: int) -> None:
    if series in _MIN_RANK:
        if rank < _MIN_RANK[series]:
            raise LieTypeError(
                f"invalid factor {series}{rank}: {series} series requires rank >= {_MIN_RANK[series]}"
            )
    elif series in _FIXED_RANKS:
        if rank not in _FIXED_RANKS[series]:
            allowed = ",".join(map(str, _FIXED_RANKS[series]))
            raise LieTypeError(f"invalid factor {series}{rank}: {series} allows rank {allowed}")
    else:
        raise LieTypeError(f"invalid factor {series}{rank}: unknown series {series!r}")


def _simple_cartan(series: str, rank: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix and symmetrizers of one simple factor (Bourbaki numbering)."""
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        A[i][j] = aij
        A[j][i] = aji

    d = [1] * rank
    if series == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif series == "B":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -1, -2)  # a_rank is the short root
        d = [2] * (rank - 1) + [1]
    elif series == "C":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -2, -1)  # a_rank is the long root
        d = [1] * (rank - 1) + [2]
    elif series == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif series == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 hangs off node 4.
        chain = [0] + list(range(2, rank))
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif series == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # a3, a4 short
        bond(2, 3)
        d = [2, 2, 1, 1]
    elif series == "G":
        bond(0, 1, -3, -1)  # a1 short, a2 long
        d = [1, 3]
    return A, d


def _diagram_symmetries(lie_type: LieType) -> tuple[tuple[int, ...], ...]:
    """Generators of the automorphism group Γ of the Dynkin diagram of
    ``lie_type``, each the tuple p of node images, with A[p_i][p_j] = A[i][j]
    for its Cartan matrix A; none when Γ is trivial.

    Γ is read off the classification (Bourbaki, Lie Groups and Lie Algebras,
    ch. VI, Plates; Humphreys, Introduction to Lie Algebras, 12.2).  With
    Bourbaki nodes 1..r inside a factor, a simple factor has the flip
    i <-> r+1-i for A_r, r >= 2, the swap r-1 <-> r for D_r, with 1 <-> 3
    besides for D4 (together they give S3), 1 <-> 6 with 3 <-> 5 for E6, and
    nothing else.  Γ of a product also permutes isomorphic factors: each
    factor exchanges its nodes with those of the last earlier factor of the
    same series and rank, and these transpositions of neighbours in each
    class generate its symmetric group.  Every generator is an involution.
    """
    generators = []
    last: dict[tuple[str, int], int] = {}  # factor -> first node of its last copy so far
    lo = 0
    for factor in lie_type.factors:
        series, r = factor
        swaps = []  # each a list of node pairs, one generator
        if series == "A" and r >= 2:
            swaps.append([(lo + i, lo + r - 1 - i) for i in range(r // 2)])
        elif series == "D":
            swaps.append([(lo + r - 2, lo + r - 1)])
            if r == 4:
                swaps.append([(lo, lo + 2)])
        elif factor == ("E", 6):
            swaps.append([(lo, lo + 5), (lo + 2, lo + 4)])
        if factor in last:
            swaps.append([(last[factor] + i, lo + i) for i in range(r)])
        last[factor] = lo
        for pairs in swaps:
            p = list(range(lie_type.rank))
            for i, j in pairs:
                p[i], p[j] = j, i
            generators.append(tuple(p))
        lo += r
    return tuple(generators)


def _check_box(lie_type: LieType, height: int) -> None:
    """Refuse a box of more than 5,000,000 dominant weights, those of
    ``lie_type`` with every coordinate at most ``height`` >= 0; it reads the
    type only, so a caller can refuse before building the root system."""
    count = (height + 1) ** lie_type.rank
    if count > 5_000_000:
        raise ValueError(f"enumerating {count} dominant weights for {lie_type} at height "
                         f"{height} is not desk scale; lower the height")


def _integral_weight(x) -> Weight:
    """The coordinates of x as ints; a bool or a coordinate c with int(c) != c
    is a ValueError."""
    x = tuple(x)
    try:
        t = tuple(map(int, x))
    except (TypeError, ValueError, ArithmeticError):
        t = None
    if t != x or bool in map(type, x):
        raise ValueError(f"weight ({', '.join(map(str, x))}) has a coordinate that is not an integer")
    return t


def _gauss_jordan(mat) -> tuple[int, list[list[int]]]:
    """(det, X) with mat.X = det.I, for an integer matrix whose leading
    principal minors are all positive.

    Fraction-free Gauss-Jordan on [mat | I] with no row exchange: Bareiss's
    update of every other row divides exactly by the previous pivot, the k-th
    pivot is the k-th leading principal minor, and the last one, det, is left
    on the diagonal (Bareiss, Math. Comp. 1968).  A pivot <= 0 is an
    ``AssertionError`` that names its k.
    """
    n = len(mat)
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        top = aug[k]
        pivot = top[k]
        if pivot <= 0:
            raise AssertionError(f"leading principal minor {k + 1} is {pivot}, not positive")
        aug = [row if row is top else [(pivot * x - row[k] * y) // prev for x, y in zip(row, top)]
               for row in aug]
        prev = pivot
    return prev, [row[n:] for row in aug]


def _scaled(rows) -> tuple[int, list[list[int]]]:
    """(d, d * rows) for a rational matrix and the lcm d of its denominators."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


class _Memo(dict):
    """A dict that computes a missing entry as ``fill(key)`` on lookup and keeps it.

    Its bound ``__getitem__`` serves as the memoised function: a hit is one
    C-level dict lookup, and only a miss runs Python code, once per key.
    """

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        return self.setdefault(key, self.fill(key))


# Ordinary weights, and every point of the sweeps, keep their coordinates far
# below 2^20, so they all share the keys of this field width.
_MIN_FIELD = 21


def _width_for(radius: int) -> int:
    """The field width for weights whose coordinates c all have |c| < radius."""
    return max(_MIN_FIELD, radius.bit_length() + 1)


class _Fields:
    """Packed integer keys of weights at one field width.

    The key of x is sum (x_i + bias) 2^(width i), bias = 2^(width - 1); it
    stands for x while every coordinate has |x_i| < bias.  ``top``, the bias
    in every field, is the key of the zero weight and also the mask of every
    field's top bit, which is set exactly when that coordinate is >= 0.  The
    roots and ``rho`` are packed without the bias, so ``key + root`` is the
    key of the sum.  Each memo of keys at this width lives here:
    ``dominant_keys`` (key -> key of its dominant form), ``orbits`` (dominant
    weight -> :meth:`orbit`) and ``anchors`` (dominant mu -> key of mu + rho),
    each a :class:`_Memo`, and the tables that :mod:`qbf.fusion` fills.
    """

    __slots__ = ("width", "mask", "bias", "top", "rho", "shifts", "simple", "positive",
                 "dominant_keys", "orbits", "anchors", "layouts", "reflection")

    def __init__(self, width: int, simple: tuple[Weight, ...], positive: tuple[Weight, ...]):
        self.width, self.mask, self.bias = width, (1 << width) - 1, 1 << (width - 1)
        self.shifts = shifts = tuple(range(0, width * len(simple), width))
        self.top = sum(self.bias << s for s in shifts)
        self.rho = self.top // self.bias
        self.simple = tuple(sum(map(lshift, a, shifts)) for a in simple)
        self.positive = tuple(sum(map(lshift, a, shifts)) for a in positive)
        self.dominant_keys = _Memo(lambda key: self.dominant(key)[0])
        self.orbits = _Memo(self.orbit)
        self.anchors = _Memo(lambda mu: self.key(mu) + self.rho)
        self.layouts: dict[Weight, tuple] = {}
        self.reflection: dict[int, tuple | None] = {}

    def key(self, x) -> int:
        return sum(map(lshift, x, self.shifts), self.top)

    def weight(self, key: int) -> Weight:
        mask, bias = self.mask, self.bias
        return tuple([((key >> s) & mask) - bias for s in self.shifts])

    def dominant(self, key: int) -> tuple[int, int]:
        """(key of the dominant form, (-1)^(number of reflections)).

        The lowest set bit of ``~key & top`` is the top bit of the first
        negative field, the simple reflection s_i(x) = x - x_i a_i there is
        one subtraction, and the loop ends when no field is negative.
        """
        width, mask, bias, top, simple = self.width, self.mask, self.bias, self.top, self.simple
        sign = 1
        negative = ~key & top
        while negative:
            shift = (negative & -negative).bit_length() - width
            key -= (((key >> shift) & mask) - bias) * simple[shift // width]
            sign = -sign
            negative = ~key & top
        return key, sign

    def orbit(self, nu: Weight) -> tuple[int, ...]:
        """The keys of the Weyl orbit of the dominant weight nu, with the bias
        taken off, so that adding one to a key adds the orbit point.

        Breadth-first from nu, reflecting only in positive coordinates: s_i
        of a weight y with y_i < 0 is higher and has a positive i-th
        coordinate, so every orbit point is reached that way.
        """
        mask, bias, top = self.mask, self.bias, self.top
        steps = tuple(zip(self.shifts, self.simple))
        orbit = [self.key(nu)]
        seen = set(orbit)
        for y in orbit:
            for shift, root in steps:
                c = ((y >> shift) & mask) - bias
                if c > 0:
                    z = y - c * root
                    if z not in seen:
                        seen.add(z)
                        orbit.append(z)
        return tuple([k - top for k in orbit])


class RootSystem:
    """Immutable root-system data for a (product of) simple Lie type(s).

    Instances are created through :func:`build_root_system`, are safe to share
    between threads, and all methods are pure functions of their arguments.
    Memoised in dicts on the instance, each empty when the instance is built:

    * per-weight invariants: the scaled Casimir and norm^2, the Weyl dimension
      and the fusion terms of a weight (:meth:`_fusion_terms_of`), each a
      :class:`_Memo` that computes a missing entry on lookup, read through its
      bound ``__getitem__`` (``_casimir_scaled``, ``_norm_scaled``,
      ``_weyl_dim``, ``_fusion_terms``);
    * the Weyl orbit size of a dominant weight, a :class:`_Memo` keyed by its
      zero coordinates;
    * ``_checked``, every dominant weight this instance checked or produced,
      mapped to itself: a weight ``x`` with ``_checked.get(x) is x`` needs no
      second check;
    * ``_fields``, the :class:`_Fields` of each field width, which hold
      every memo of packed keys, fusion's tables included;
    * the weight systems of :mod:`qbf.characters`;
    * ``_symmetries``, the generators of the diagram automorphisms, read
      off the type on the first sweep, not by the build.

    Those dicts only ever receive idempotent writes of complete, read-only,
    deterministic values: a :class:`_Memo` stores an entry, by one atomic
    ``setdefault``, only once it is computed.  So concurrent readers and
    writers can at worst compute an entry twice (a width's :class:`_Fields`
    too), and sharing stays safe.
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        blocks = [_simple_cartan(s, r) for s, r in lie_type.factors]
        N = lie_type.rank
        self.rank = N

        cartan = [[0] * N for _ in range(N)]
        d: list[int] = []
        slices = []
        for A, dd in blocks:
            lo = len(d)
            for i, row in enumerate(A):
                cartan[lo + i][lo:lo + len(dd)] = row
            d.extend(dd)
            slices.append((lo, len(d)))
        self._factor_slices: tuple[tuple[int, int], ...] = tuple(slices)
        self.cartan: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in cartan)
        self.symmetrizers: tuple[int, ...] = tuple(d)

        # Gram matrix of fundamental weights: G.A = D, so G = D.X/p for
        # A.X = p.I, kept in lowest terms as _gram_num/_gram_den.  The pivots
        # are A's leading minors, each a finite-type Cartan determinant in
        # Bourbaki numbering, and refused unless positive; that proves
        # G = D (DA)^-1 D positive definite (Sylvester: DA is symmetric and
        # d_i > 0).  It runs before the positive-root closure, which would
        # not end on a table not of finite type.
        p, X = _gauss_jordan(cartan)
        DX = [[di * x for x in row] for di, row in zip(d, X)]
        g = gcd(p, *(x for row in DX for x in row))
        self._gram_den = den = p // g
        self._gram_num = tuple(tuple(x // g for x in row) for row in DX)
        self.gram: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction(x, den) for x in row) for row in self._gram_num)

        # Simple roots are the columns of the Cartan matrix.
        self.simple_roots: tuple[Weight, ...] = tuple(zip(*cartan))
        self.rho: Weight = (1,) * N
        self.positive_roots, coefficients = self._generate_positive_roots()
        self._proot_heights = tuple(map(sum, coefficients))

        # Per positive root a = sum c_j a_j: v with dot(x, v) = (x, a) den,
        # v_j = den d_j c_j, as (omega_i, a_j) = d_j delta_ij.
        scale = [den * x for x in d]
        self._proot_pairing = tuple(tuple(map(mul, scale, c)) for c in coefficients)
        self._rho_pairing = tuple(map(sum, self._proot_pairing))

        # Per-weight memos, keyed by checked weights; see the class docstring.
        # Each is read through its bound __getitem__, which takes an already
        # checked weight (dominant but for the norm):
        # (mu, mu + 2 rho) * _gram_den, (x, x) * _gram_den, dim V(mu), and
        # the fusion terms of mu.
        self._casimir_memo = _Memo(lambda mu: self._ip_scaled(mu, tuple(c + 2 for c in mu)))
        self._norm_memo = _Memo(lambda x: self._ip_scaled(x, x))
        self._dim_memo = _Memo(self._weyl_dimension)
        self._terms_memo = _Memo(self._fusion_terms_of)
        self._casimir_scaled = self._casimir_memo.__getitem__
        self._norm_scaled = self._norm_memo.__getitem__
        self._weyl_dim = self._dim_memo.__getitem__
        self._fusion_terms = self._terms_memo.__getitem__
        self._orbit_size_memo = _Memo(self._stabiliser_index)
        self._checked: dict[Weight, Weight] = {}
        # Packed keys and their memos, per field width; see the class docstring.
        self._fields = _Memo(lambda width: _Fields(width, self.simple_roots, self.positive_roots))
        self._char_memo: dict = {}  # Weight -> qbf.characters.Character

        self._self_check()

    # -- construction ------------------------------------------------------

    def _generate_positive_roots(self) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
        """The positive roots in fundamental-weight coordinates, sorted by
        height, then by those coordinates, and their simple-root coefficients.

        s_i permutes the positive roots other than a_i (Humphreys, Lie
        Algebras, 10.2 Lemma B), and every positive root of height > 1 is s_i
        of a lower one, so closing the simple roots under the simple
        reflections, s_i(b) = b - b_i a_i for b != a_i, gives every positive
        root and nothing else; it runs on the keys of :class:`_Fields`, as
        every reflection does.  Each reflection takes b_i simple roots a_i
        off b: the coefficients of s_i b, packed in the same fields, are
        those of b less b_i at i.
        """
        fields = _Fields(_MIN_FIELD, self.simple_roots, ())
        mask, bias = fields.mask, fields.bias
        simple = [fields.key(a) for a in self.simple_roots]
        steps = tuple(zip(fields.shifts, fields.simple, simple))
        coefficients = {a: fields.top + (1 << shift) for shift, _, a in steps}
        frontier = simple
        while frontier:
            nxt = []
            for b in frontier:
                for shift, root, a in steps:
                    c = ((b >> shift) & mask) - bias
                    if c and b != a:
                        s = b - c * root
                        if s not in coefficients:
                            coefficients[s] = coefficients[b] - (c << shift)
                            nxt.append(s)
            frontier = nxt
        positive = sorted((sum(c), fields.weight(b), c)
                          for b, c in zip(coefficients, map(fields.weight, coefficients.values())))
        return tuple(b for _, b, _ in positive), tuple(c for _, _, c in positive)

    def _self_check(self) -> None:
        A, d = self.cartan, self.symmetrizers
        if any(d[i] * A[i][j] != d[j] * A[j][i] for i in range(self.rank) for j in range(i)):
            raise AssertionError("diag(d).A is not symmetric")
        expected = sum(_POSITIVE_ROOT_COUNTS[s](r) for s, r in self.lie_type.factors)
        if len(self.positive_roots) != expected:
            raise AssertionError(f"positive root count {len(self.positive_roots)} "
                                 f"!= classical {expected}")
        roots = list(zip(self.positive_roots, self._proot_pairing))
        for lo, hi in self._factor_slices:
            shortest = min(sum(map(mul, a, v)) for a, v in roots if any(a[lo:hi]))
            if shortest != 2 * self._gram_den:
                raise AssertionError(f"shortest root has squared length "
                                     f"{Fraction(shortest, self._gram_den)}, not 2")
        if tuple(map(sum, zip(*self.positive_roots))) != tuple(2 * c for c in self.rho):
            raise AssertionError("positive roots do not sum to 2*rho")

    # -- basic geometry ----------------------------------------------------

    def check_weight(self, x) -> Weight:
        t = _integral_weight(x)
        if len(t) != self.rank:
            raise ValueError(
                f"weight {t} has length {len(t)}, expected rank {self.rank}"
            )
        return t

    def check_dominant(self, x) -> Weight:
        """x as a checked dominant weight: the tuple of ints that ``_checked``
        holds for it."""
        t = self.check_weight(x)
        if min(t) < 0:
            raise ValueError(f"weight {t} is not dominant")
        return self._checked.setdefault(t, t)

    def inner_product(self, x, y) -> Fraction:
        """Bilinear form (x, y) in the normalisation with short roots of length^2 = 2."""
        x, y = self.check_weight(x), self.check_weight(y)
        return Fraction(self._ip_scaled(x, y), self._gram_den)

    def _ip_scaled(self, x: Weight, y: Weight) -> int:
        return sum(map(mul, x, [sum(map(mul, row, y)) for row in self._gram_num]))

    def norm_sq(self, x) -> Fraction:
        """(x, x); the squared length |x|^2, always a nonnegative rational."""
        return Fraction(self._norm_scaled(self.check_weight(x)), self._gram_den)

    def casimir(self, mu) -> Fraction:
        """Quadratic Casimir eigenvalue (mu, mu + 2 rho) of a dominant weight."""
        return Fraction(self._casimir_scaled(self.check_dominant(mu)), self._gram_den)

    def weyl_dim(self, mu) -> int:
        """Dimension of the irreducible with highest weight mu (Weyl formula)."""
        return self._weyl_dim(self.check_dominant(mu))

    def _weyl_dimension(self, mu: Weight) -> int:
        """Weyl dimension of an already checked dominant weight; memoised as
        ``_weyl_dim``."""
        shifted = [c + 1 for c in mu]
        den = prod(self._rho_pairing)
        num = prod([sum(map(mul, shifted, v)) for v in self._proot_pairing])
        dim, r = divmod(num, den)
        if r:
            raise AssertionError(f"Weyl dimension of {mu} is not an integer: {Fraction(num, den)}")
        return dim

    # -- Weyl group --------------------------------------------------------

    def _width(self, norm: int) -> int:
        """The field width for the Weyl orbits of the weights of scaled
        squared norm <= norm, with room for a root added to any of them.

        A coordinate of y is y_i = 2 (y, a_i)/(a_i, a_i), and (a_i, a_i) >= 2,
        so |y_i| <= sqrt(2) |y|; a root adds at most 3 to a coordinate.
        """
        return _width_for(isqrt(2 * norm // self._gram_den) + 4)

    def _fusion_terms_of(self, mu: Weight) -> tuple[int, int, int]:
        """(dim V(mu), anchor radius, expand radius) of an already checked
        dominant weight: the radii are sqrt(2) |mu + rho| and sqrt(2) |mu|,
        each rounded down and plus one, so strictly above the root.
        Memoised as ``_fusion_terms``; :mod:`qbf.fusion` sizes its fields
        from the radii.
        """
        den = self._gram_den
        anchor = isqrt(2 * (self._casimir_scaled(mu) + self._norm_scaled(self.rho)) // den)
        return self._weyl_dim(mu), anchor + 1, isqrt(2 * self._norm_scaled(mu) // den) + 1

    def dominant_representative(self, x) -> tuple[Weight, int, bool]:
        """Reflect x into the dominant chamber.

        Returns ``(weight, sign, singular)`` where sign is (-1)^(number of
        simple reflections applied) and singular is True when the result lies
        on a chamber wall (some coordinate is zero).  The singular flag is
        what the fusion algorithm consumes on rho-shifted inputs; callers on
        the unshifted lattice can ignore it.
        """
        return self._dominant_rep(self.check_weight(x))

    def _dominant_rep(self, x: Weight) -> tuple[Weight, int, bool]:
        """:meth:`dominant_representative` of an already checked weight,
        through :meth:`_Fields.dominant`."""
        fields = self._fields[self._width(self._ip_scaled(x, x))]
        key, sign = fields.dominant(fields.key(x))
        y = fields.weight(key)
        return y, sign, 0 in y

    def _orbit_size(self, nu: Weight) -> int:
        """|W nu| for an already checked dominant weight, without building the
        orbit: the index |W|/|W_J| of its stabiliser W_J, J = {i : nu_i = 0},
        memoised by J in ``_orbit_size_memo``."""
        return self._orbit_size_memo[tuple(i for i, c in enumerate(nu) if c == 0)]

    def _stabiliser_index(self, J: tuple[int, ...]) -> int:
        """|W|/|W_J| for the parabolic subgroup W_J of the simple reflections in J.

        The positive roots of W_J are those orthogonal to a dominant nu with
        zero set J.  As (nu, a) sums nu_i (omega_i, a) with every term >= 0,
        they are the roots a whose pairing vector is zero outside J.  The order of a Weyl group is the
        product of (ht a + 1)/ht a over its positive roots (its Poincare
        polynomial at t = 1: Macdonald, "The Poincare series of a Coxeter
        group", Math. Ann. 1972), and heights in W_J are heights in W, so
        |W|/|W_J| is a product over the other positive roots.
        """
        num = den = 1
        for h, w in zip(self._proot_heights, self._proot_pairing):
            if any(x for i, x in enumerate(w) if i not in J):
                num *= h + 1
                den *= h
        v, r = divmod(num, den)
        if r:
            raise AssertionError(f"Weyl orbit size for the zero set {J} is not an integer: "
                                 f"{num}/{den}")
        return v

    @cached_property
    def _symmetries(self) -> tuple[tuple[int, ...], ...]:
        """Generators of Γ, the automorphism group of the Dynkin diagram,
        read on first use (:func:`_diagram_symmetries`)."""
        return _diagram_symmetries(self.lie_type)

    def _symmetry_images(self, weights: list[Weight]) -> tuple[tuple[tuple[int, ...], itemgetter], ...]:
        """Per generator σ of Γ: the position in ``weights`` of σ(w) for each
        w in ``weights``, which Γ must map onto itself, and the map
        ``itemgetter(*p)`` with σ(x) = (x[p_0], x[p_1], ...); empty when Γ
        is trivial.

        σ permutes the fundamental weights, omega_i to omega_p(i), so it
        reads coordinates through the inverse of the node images p, which is
        p itself, as every generator is an involution; σ fixes rho and keeps
        the form.
        """
        position = {w: i for i, w in enumerate(weights)}
        images = []
        for p in self._symmetries:
            sigma = itemgetter(*p)
            images.append((tuple([position[sigma(w)] for w in weights]), sigma))
        return tuple(images)

    def conjugate_weight(self, mu) -> Weight:
        """Highest weight of the conjugate representation: the dominant form of -mu."""
        mu = self.check_dominant(mu)
        return self._dominant_rep(tuple(-c for c in mu))[0]

    def weyl_orbit(self, x) -> list[Weight]:
        """The full Weyl orbit of x, sorted for determinism."""
        x = self.check_weight(x)
        fields = self._fields[self._width(self._ip_scaled(x, x))]
        top, weight = fields.top, fields.weight
        nu = weight(fields.dominant(fields.key(x))[0])
        return sorted(weight(k + top) for k in fields.orbits[nu])

    # -- enumeration -------------------------------------------------------

    def dominant_weights_up_to(self, height: int) -> list[Weight]:
        """All dominant weights with every coordinate <= height.

        Sorted by total coordinate sum, then lexicographically; this is the
        deterministic enumeration order used by validators and the CLI.  The
        weights are the ones ``_checked`` holds, so they need no second check.
        """
        if height < 0:
            raise ValueError("height must be >= 0")
        _check_box(self.lie_type, height)
        weights = list(iproduct(range(height + 1), repeat=self.rank))
        weights.sort(key=lambda w: (sum(w), w))
        checked = self._checked
        return [checked.setdefault(w, w) for w in weights]

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type})"


_build_cached = lru_cache(maxsize=None)(RootSystem)


def build_root_system(lie_type: LieType | str) -> RootSystem:
    """Construct (and cache) the root system for a type like ``"A2"`` or ``"B2xA1"``."""
    return _build_cached(lie_type if isinstance(lie_type, LieType) else LieType.parse(lie_type))
