"""The Fraction reference the tests check the package's kernels against.

Block membership, the convexity weight, mod-1 progressions, the weight
slices of the block product, shifted embeddings and CRT decoding, each
restated from the paper in exact Fractions, and the pair loops that list a
set's progressions, which the certificates' scans replaced.  The package
computes the same facts with scaled integers (``apfree.gridscan``,
``apfree.groups``, ``apfree.integers``, ``apfree.verify``); nothing here
shares code with those kernels, so a fault in one cannot hide in the
other.  The block's pieces and weight are
the ones stated in the ``apfree.blocks`` docstring.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

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
