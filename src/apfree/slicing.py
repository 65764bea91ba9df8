"""Mod-1 arithmetic in n dimensions and the weight-slice decomposition.

Points of the n-torus are tuples of Fractions in [0,1).  A triple (x,y,z)
is a progression mod 1 when x+z-2y is an integer vector.  For even n the
block product (pairs of consecutive coordinates each in the block) is cut
into slices by the running weight sum: slice j collects the points whose
sum lands in [j*delta^2/2, (j+1)*delta^2/2).  Within one slice, any mod-1
progression has its outer points within delta in every coordinate.
This is the Fraction reference the tests check the constructions against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .blocks import BuildingBlock, NotInBlockError, Point2
from .rational import mod1

PointN = tuple[Fraction, ...]

HALF = Fraction(1, 2)


def is_progression_mod1(x: PointN, y: PointN, z: PointN) -> bool:
    """True iff x_i + z_i - 2*y_i is an integer for every coordinate."""
    if not (len(x) == len(y) == len(z)):
        raise ValueError("dimension mismatch")
    return all((xi + zi - 2 * yi).denominator == 1 for xi, yi, zi in zip(x, y, z))


def midpoint_candidates(x: PointN, z: PointN) -> list[PointN]:
    """All y in [0,1)^n with x + z = 2y mod 1: per coordinate the plain
    half-sum or the half-sum shifted by 1/2, giving 2^n candidates."""
    if len(x) != len(z):
        raise ValueError("dimension mismatch")
    per_coord = []
    for xi, zi in zip(x, z):
        base = mod1((xi + zi) / 2)
        per_coord.append((base, mod1(base + HALF)))
    return [tuple(c) for c in product(*per_coord)]


def pairs_of(p: PointN) -> list[Point2]:
    if len(p) % 2 != 0:
        raise ValueError(f"dimension {len(p)} is odd")
    return [(p[2 * h], p[2 * h + 1]) for h in range(len(p) // 2)]


def weight_sum(block: BuildingBlock, p: PointN) -> Fraction:
    """Sum of the block weight over the n/2 consecutive coordinate pairs.

    Raises NotInBlockError naming the first pair outside the block.
    """
    total = Fraction(0)
    for h, pair in enumerate(pairs_of(p)):
        if block.piece_of(pair) == 0:
            raise NotInBlockError(f"pair {h} = {pair} not in block")
        total += block.weight(pair)
    return total


@dataclass(frozen=True)
class SliceParams:
    """Parameters of one slice of the block product."""

    n: int
    delta: Fraction
    epsilon: Fraction | None = None
    j: int = 0

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n={self.n} must be even and >= 2")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta={self.delta} outside (0,1)")
        eps = self.epsilon if self.epsilon is not None else Fraction(1, self.n)
        object.__setattr__(self, "epsilon", Fraction(eps))
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon={self.epsilon} outside (0,1)")
        if not 0 <= self.j <= self.max_index():
            raise ValueError(f"slice index {self.j} outside [0, {self.max_index()}]")

    def width(self) -> Fraction:
        return self.delta**2 / 2

    def weight_sum_bound(self) -> Fraction:
        # crude per-pair bound 100/eps^2 taken n times; equals 100*n^3 at
        # the default eps = 1/n
        return self.n * 100 / self.epsilon**2

    def max_index(self) -> int:
        return int(self.weight_sum_bound() * 2 / self.delta**2)

    def block(self) -> BuildingBlock:
        return BuildingBlock(self.epsilon)


def slice_index_of(params: SliceParams, s: Fraction) -> int:
    """The unique j with j*w <= s < (j+1)*w for w = delta^2/2 (floor(2s/d^2))."""
    if s < 0:
        raise ValueError(f"weight sum {s} negative")
    return int((2 * s) // params.delta**2)


def in_slice(block: BuildingBlock, params: SliceParams, p: PointN) -> bool:
    """True iff every pair of p is in the block and the weight sum lands in
    slice params.j.  Non-membership returns False rather than raising."""
    try:
        s = weight_sum(block, p)
    except NotInBlockError:
        return False
    return slice_index_of(params, s) == params.j


def in_delta_box(p: PointN, delta: Fraction) -> bool:
    """The trivial n=2 fallback region [0,delta)^n: progressions mod 1 inside
    it are genuine equalities, so outer points agree within delta."""
    return all(0 <= c < delta for c in p)
