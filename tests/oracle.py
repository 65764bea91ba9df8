"""The Fraction reference the tests check the package's kernels against.

Block membership, the convexity weight, mod-1 progressions, the weight
slices of the block product, shifted embeddings and CRT decoding, each
restated from the paper in exact Fractions; the pair loops that list a
set's progressions, which the certificates' scans replaced; and the
sphere-shell listings, by dict and by digit grid, with the behrend scan
over them, which the shell counts replaced.  The package computes the
same facts with scaled integers and counts (``apfree.baselines``,
``apfree.gridscan``, ``apfree.groups``, ``apfree.integers``,
``apfree.verify``); nothing here
shares code with those kernels, so a fault in one cannot hide in the
other.  The block's pieces and weight are
the ones stated in the ``apfree.blocks`` docstring.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from apfree.blocks import BuildingBlock, OutsideDomainError

HALF = Fraction(1, 2)


class NotInBlockError(ValueError):
    """The queried point is not a member of the block."""


def halfmod_square(t: Fraction) -> Fraction:
    """Square of t reduced mod 1/2: t^2 on [0,1/2), (t-1/2)^2 on [1/2,1)."""
    if not 0 <= t < 1:
        raise OutsideDomainError(f"t={t} outside [0,1)")
    if t < HALF:
        return t * t
    return (t - HALF) ** 2


class Block(BuildingBlock):
    """The block T(eps) with Fraction membership and weight."""

    def piece_of(self, p) -> int:
        """0 if p is outside the block, else the piece index 1, 2 or 3."""
        for c in p:
            if not 0 <= c < 1:
                raise OutsideDomainError(f"coordinate {c} outside [0,1)")
        a, b = p
        s = a + b
        eps = self.epsilon
        if a >= HALF and Fraction(2, 3) < s <= Fraction(7, 6):
            return 1
        if Fraction(7, 6) + eps <= s <= Fraction(17, 12):
            if a >= HALF and b < HALF:
                return 2
            if a < HALF and b >= HALF and 2 * a + b >= Fraction(3, 2) + eps:
                return 3
        return 0

    def weight(self, p) -> Fraction:
        """Exact weight of an in-block point, in [0, 100/eps^2]; raises
        NotInBlockError outside."""
        if self.piece_of(p) == 0:
            raise NotInBlockError(f"point {p} not in block (eps={self.epsilon})")
        a, b = p
        return 24 / self.epsilon**2 * (a + b) ** 2 + 6 * halfmod_square(a)


def polygon_contains(poly, p) -> bool:
    """Membership in a ``blocks.PiecePolygon`` honoring its open/closed edge
    tags: a boundary point belongs iff every edge whose line it lies on is
    closed (a vertex lies on two edges and needs both closed)."""
    x, y = p
    on_open = False
    n = len(poly.vertices)
    for k in range(n):
        (x1, y1), (x2, y2) = poly.vertices[k], poly.vertices[(k + 1) % n]
        side = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if side < 0:
            return False
        if side == 0 and not poly.closed_edges[k]:
            on_open = True
    return not on_open


def is_progression_mod1(x, y, z) -> bool:
    """True iff x_i + z_i - 2*y_i is an integer for every coordinate."""
    if not (len(x) == len(y) == len(z)):
        raise ValueError("dimension mismatch")
    return all((xi + zi - 2 * yi).denominator == 1 for xi, yi, zi in zip(x, y, z))


def midpoint_candidates(x, z) -> list[tuple[Fraction, ...]]:
    """All y in [0,1)^n with x + z = 2y mod 1: per coordinate the plain
    half-sum or the half-sum shifted by 1/2, giving 2^n candidates."""
    if len(x) != len(z):
        raise ValueError("dimension mismatch")
    per_coord = []
    for xi, zi in zip(x, z):
        base = (xi + zi) / 2 % 1
        per_coord.append((base, (base + HALF) % 1))
    return [tuple(c) for c in product(*per_coord)]


def weight_sum(block: Block, p) -> Fraction:
    """Sum of the block weight over the n/2 consecutive coordinate pairs.

    Raises NotInBlockError naming the first pair outside the block.
    """
    if len(p) % 2 != 0:
        raise ValueError(f"dimension {len(p)} is odd")
    total = Fraction(0)
    for h in range(len(p) // 2):
        pair = (p[2 * h], p[2 * h + 1])
        if block.piece_of(pair) == 0:
            raise NotInBlockError(f"pair {h} = {pair} not in block")
        total += block.weight(pair)
    return total


def slice_index_of(delta: Fraction, s: Fraction) -> int:
    """The unique j with j*w <= s < (j+1)*w for w = delta^2/2 (floor(2s/d^2))."""
    if s < 0:
        raise ValueError(f"weight sum {s} negative")
    return int((2 * s) // delta**2)


def in_delta_box(p, delta: Fraction) -> bool:
    """The n=2 fallback region [0,delta)^n: progressions mod 1 inside it are
    genuine equalities, so outer points agree within delta."""
    return all(0 <= c < delta for c in p)


def embed_point(moduli, shift, residues) -> tuple[Fraction, ...]:
    """(a_i + r_i/m_i) mod 1 per coordinate, exact."""
    moduli = tuple(moduli)
    if not len(moduli) == len(shift) == len(residues):
        raise ValueError("dimension mismatch")
    for r, m in zip(residues, moduli):
        if not 0 <= r < m:
            raise ValueError(f"residue {r} out of range for modulus {m}")
    return tuple((Fraction(a) + Fraction(r, m)) % 1 for a, r, m in zip(shift, residues, moduli))


def crt_decode(moduli, x: int) -> tuple[int, ...]:
    """The residues of x modulo each modulus."""
    return tuple(x % m for m in moduli)


def halve_mod(s, m):
    """All y in {0,...,m-1} with 2*y = s (mod m): one solution for odd m,
    zero or two for even m."""
    s %= m
    if m % 2 == 1:
        return ((s * ((m + 1) // 2)) % m,)
    if s % 2 == 1:
        return ()
    return (s // 2, s // 2 + m // 2)


def loop_group_progressions(moduli, elements):
    """The pair scan the verifier replaced, kept as its oracle: pairs {x, z}
    lexicographically, then the midpoint solutions y in product order."""
    elems = sorted(elements)
    member = set(elems)
    return [
        {"x": list(x), "y": list(y), "z": list(z)}
        for ai, x in enumerate(elems)
        for z in elems[ai + 1:]
        for y in product(*(halve_mod(xi + zi, m) for xi, zi, m in zip(x, z, moduli)))
        if y in member
    ]


def loop_integer_progressions(elements):
    """The integer pair scan the verifier replaced, kept as its oracle."""
    elems = sorted(elements)
    member = set(elems)
    return [
        {"x": x, "y": (x + z) // 2, "z": z}
        for ai, x in enumerate(elems)
        for z in elems[ai + 1:]
        if (x + z) % 2 == 0 and (x + z) // 2 in member
    ]


def dict_shells(base, dim):
    """The shell table the numpy grid replaced, kept as its oracle: digit
    tuples of {0,...,(base-1)//2}^dim in product order, by squared radius."""
    shells = {}
    for digits in product(range((base - 1) // 2 + 1), repeat=dim):
        shells.setdefault(sum(d * d for d in digits), []).append(digits)
    return shells


def grid_shell(base, dim):
    """The digit-grid listing the shell counts replaced, kept as their
    oracle: the most populous sphere shell of {0,...,(base-1)//2}^dim, ties
    going to the smaller radius, as its squared radius and its digit rows in
    product order, read off every row's squared radius."""
    side = (base - 1) // 2 + 1
    squares = np.arange(side, dtype=np.int64) ** 2
    radii = np.zeros(1, dtype=np.int64)
    for _ in range(dim):
        radii = (radii[:, None] + squares).ravel()
    radius_sq = int(np.argmax(np.bincount(radii)))
    index = np.flatnonzero(radii == radius_sq)
    return radius_sq, index[:, None] // side ** np.arange(dim - 1, -1, -1) % side


def nthroot_floor(N, k):
    """The largest b with b**k <= N, by bisection."""
    lo, hi = 1, 1 << (N.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**k <= N else (lo, mid - 1)
    return lo


def loop_behrend(N):
    """The behrend scan the shell counts replaced, kept as its oracle:
    every dimension k >= 2 with base floor(N^(1/k)) >= 3 lists its grid's
    best shell, and the largest shell wins, ties going to the smaller k;
    below N = 8 the set is {1, 2}.  (k, base, radius_sq, elements)."""
    best = None
    k = 2
    while 2**k <= N:
        base = nthroot_floor(N, k)
        if base >= 3:
            radius_sq, digits = grid_shell(base, k)
            elements = (1 + digits @ base ** np.arange(k)).tolist()
            key = (-len(elements), k)
            if best is None or key < best[0]:
                best = (key, k, base, radius_sq, elements)
        k += 1
    if best is None:
        return 1, N, 1, [1, 2]
    return best[1:]
