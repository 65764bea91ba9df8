"""The two-dimensional building block and its convexity weight.

The block ``T(eps)`` lives in the half-open unit square [0,1)^2 and is the
disjoint union of three convex polygonal pieces controlled by a width
parameter ``eps``:

  piece 1 "low"   : [1/2,1) x [0,1)   with  2/3 <  a+b <= 7/6
  piece 2 "right" : [1/2,1) x [0,1/2) with  7/6+eps <= a+b <= 17/12
  piece 3 "top"   : [0,1/2) x [1/2,1) with  7/6+eps <= a+b <= 17/12
                                      and   2a+b >= 3/2+eps

Membership mixes strict and non-strict comparisons exactly as written
above; the polygon representation mirrors the same conventions by tagging
every edge open or closed, so point-in-polygon tests agree with the
inequalities even on the boundary.

The weight of an in-block point is

    w(p) = (24/eps^2) * (p1+p2)^2 + 6 * g(p1),

where g(t) is the square of t reduced modulo 1/2.  This weight is the
potential driving the slice constructions: for any three block points
forming a progression modulo 1 it dominates twice the middle weight plus
the squared coordinate gap between the outer points.

The exact kernel below tests and weighs the grid points (U/D, V/D) on
their integer numerators, against integer bounds solved once from the
block's inequalities (``_piece_bounds``).  A region test (the block, or
the [0,delta)^2 box, whose points all weigh 0) stays below
``region_factor`` times D, and a weight below ``weight_factor`` times
D^2, bounds that ``rational.exact_dtype`` turns into a dtype.  A grid
whose Q times the eps denominator exceeds 2_000_000 is refused
(``_check_scale``), which keeps the sweeps of ``apfree.gridscan`` in int64.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import budget
from .clipping import clipped_area
from .rational import point_strs

Point2 = tuple[Fraction, Fraction]

PIECE_LABELS = {1: "low", 2: "right", 3: "top"}


class OutsideDomainError(ValueError):
    """Input outside the declared domain (e.g. a coordinate not in [0,1))."""


class DegeneratePieceError(ValueError):
    """A piece polygon is empty or loses its stated shape at this eps."""

    def __init__(self, piece: int, epsilon: Fraction):
        self.piece = piece
        super().__init__(
            f"piece {piece} ({PIECE_LABELS[piece]}) is degenerate at eps={epsilon}"
        )


def polygon_area(vertices: Sequence[Point2]) -> Fraction:
    """Exact shoelace area of a simple polygon (positive for ccw order)."""
    total = Fraction(0)
    n = len(vertices)
    for k in range(n):
        (x1, y1), (x2, y2) = vertices[k], vertices[(k + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2


@dataclass(frozen=True)
class PiecePolygon:
    """Convex polygon with per-edge open/closed boundary tags.

    Edge k runs from vertices[k] to vertices[k+1] (cyclically); it is part
    of the region iff closed_edges[k].  Vertices are listed ccw.
    """

    piece: int
    vertices: tuple[Point2, ...]
    closed_edges: tuple[bool, ...]

    def area(self) -> Fraction:
        return polygon_area(self.vertices)

    def to_jsonable(self) -> dict:
        return {
            "piece": PIECE_LABELS[self.piece],
            "vertices": [point_strs(v) for v in self.vertices],
            "closed_edges": list(self.closed_edges),
        }


class BuildingBlock:
    """The region T(eps): eps validation, the stated piece polygons and
    their exact areas."""

    def __init__(self, epsilon: Fraction):
        epsilon = Fraction(epsilon)
        if not 0 < epsilon < 1:
            raise OutsideDomainError(f"epsilon={epsilon} outside (0,1)")
        self.epsilon = epsilon

    def piece_polygons(self) -> dict[int, PiecePolygon]:
        """The three stated vertex lists, ccw, with open/closed edge tags.

        Raises DegeneratePieceError for the first piece whose stated list
        stops being a strictly convex polygon inside the unit square
        (piece 2 at eps >= 1/4, piece 3 at eps >= 1/6).
        """
        eps = self.epsilon
        f = Fraction
        polys = {
            1: PiecePolygon(
                1,
                (
                    (f(1), f(0)),
                    (f(1), f(1, 6)),
                    (f(1, 2), f(2, 3)),
                    (f(1, 2), f(1, 6)),
                    (f(2, 3), f(0)),
                ),
                # edges: a=1 open, a+b=7/6 closed, a=1/2 closed,
                #        a+b=2/3 open (strict), b=0 closed
                (False, True, True, False, True),
            ),
            2: PiecePolygon(
                2,
                (
                    (f(1), f(1, 6) + eps),
                    (f(1), f(5, 12)),
                    (f(11, 12), f(1, 2)),
                    (f(2, 3) + eps, f(1, 2)),
                ),
                # edges: a=1 open, a+b=17/12 closed, b=1/2 open,
                #        a+b=7/6+eps closed
                (False, True, False, True),
            ),
            3: PiecePolygon(
                3,
                (
                    (f(1, 2), f(11, 12)),
                    (f(5, 12), f(1)),
                    (f(1, 4) + eps / 2, f(1)),
                    (f(1, 3), f(5, 6) + eps),
                    (f(1, 2), f(2, 3) + eps),
                ),
                # edges: a+b=17/12 closed, b=1 open, 2a+b=3/2+eps closed,
                #        a+b=7/6+eps closed, a=1/2 open
                (True, False, True, True, False),
            ),
        }
        for piece, poly in polys.items():
            if not _strictly_convex_in_unit_square(poly.vertices):
                raise DegeneratePieceError(piece, eps)
        return polys

    def piece_areas(self) -> dict[int, Fraction]:
        """Exact area of each piece via the shoelace over the stated vertices.

        For eps past a piece's validity threshold this falls back to
        half-plane clipping for every piece (degenerate pieces get area 0)
        and emits a warning.
        """
        try:
            return {k: poly.area() for k, poly in self.piece_polygons().items()}
        except DegeneratePieceError as exc:
            warnings.warn(
                f"{exc}; computing areas by half-plane clipping instead",
                stacklevel=2,
            )
            return {k: clipped_area(hp) for k, hp in piece_clip_specs(self.epsilon).items()}

    def area(self) -> Fraction:
        """Exact area of the block; always >= 7/24 - eps."""
        return sum(self.piece_areas().values(), Fraction(0))


def _strictly_convex_in_unit_square(vertices: Sequence[Point2]) -> bool:
    n = len(vertices)
    if len(set(vertices)) != n:
        return False
    for x, y in vertices:
        if not (0 <= x <= 1 and 0 <= y <= 1):
            return False
    for k in range(n):
        ax, ay = vertices[k]
        bx, by = vertices[(k + 1) % n]
        cx, cy = vertices[(k + 2) % n]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if cross <= 0:
            return False
    return True


def piece_clip_specs(epsilon: Fraction) -> dict[int, list]:
    """Bounding box + half-plane description of each piece.

    Used by the independent clipping area oracle; deliberately does not
    share anything with the stated vertex lists above.  Half-planes are
    (A, B, C) meaning A*a + B*b <= C; box corners are ccw.
    """
    f = Fraction
    box_right = [(f(1, 2), f(0)), (f(1), f(0)), (f(1), f(1)), (f(1, 2), f(1))]
    box_low = [(f(1, 2), f(0)), (f(1), f(0)), (f(1), f(1, 2)), (f(1, 2), f(1, 2))]
    box_top = [(f(0), f(1, 2)), (f(1, 2), f(1, 2)), (f(1, 2), f(1)), (f(0), f(1))]
    lower_band = (f(-1), f(-1), -(f(7, 6) + epsilon))  # a+b >= 7/6+eps
    upper_band = (f(1), f(1), f(17, 12))  # a+b <= 17/12
    return {
        1: [box_right, (f(-1), f(-1), f(-2, 3)), (f(1), f(1), f(7, 6))],
        2: [box_low, lower_band, upper_band],
        3: [box_top, lower_band, upper_band, (f(-2), f(-1), -(f(3, 2) + epsilon))],
    }


def clipped_piece_areas(epsilon: Fraction) -> dict[int, tuple[Fraction, bool]]:
    """(area, degenerate-flag) of each piece by successive half-plane clipping."""
    out = {}
    for piece, clip_spec in piece_clip_specs(epsilon).items():
        # clipped_area is 0 when fewer than three vertices survive
        area = clipped_area(clip_spec)
        out[piece] = (area, area == 0)
    return out


_SCALE_LIMIT = 2_000_000


def _check_scale(eps: Fraction, Q: int) -> None:
    if eps.denominator * Q > _SCALE_LIMIT:
        raise ValueError(
            f"eps denominator {eps.denominator} times grid {Q} exceeds the "
            f"int64-exactness budget {_SCALE_LIMIT}"
        )


def _piece_bounds(eps: Fraction, D: int) -> tuple[int, ...]:
    """The block's inequalities on numerators (U, V) over D, each solved
    exactly for one integer bound, (h, s1, s2, b1, b2, c):
    2U >= D iff U >= h, and 2V < D iff V < h;
    piece 1 is U >= h and s1 <= U + V <= s2 (2/3 < a+b <= 7/6);
    pieces 2 and 3 lie in the band b1 <= U + V <= b2 (7/6+eps <= a+b <= 17/12),
    piece 2 with U >= h and V < h, piece 3 with U < h, V >= h and
    2U + V >= c (2a+b >= 3/2+eps)."""
    en, ed = eps.numerator, eps.denominator
    return (-(-D // 2), 2 * D // 3 + 1, 7 * D // 6,
            -(-(7 * ed + 6 * en) * D // (6 * ed)), 17 * D // 12,
            -(-(3 * ed + 2 * en) * D // (2 * ed)))


def scaled_in_block(eps: Fraction, D: int, U, V):
    """Whether the points (U/D, V/D) lie in the block, in one of its three
    pieces, by the bounds of ``_piece_bounds``; numpy arrays (broadcast) or
    Python ints.  The pieces are disjoint for 0 < eps < 1."""
    h, s1, s2, b1, b2, c = _piece_bounds(eps, D)
    S = U + V
    high = U >= h
    band = (S >= b1) & (S <= b2)
    in_t1 = high & (S >= s1) & (S <= s2)
    in_t2 = high & (V < h) & band
    in_t3 = (U < h) & (V >= h) & band & (U + S >= c)
    return in_t1 | in_t2 | in_t3


def scaled_below(delta: Fraction, D: int, U):
    """Membership of the coordinates U/D, 0 <= U < D, in [0,delta); numpy
    arrays or Python ints."""
    return delta.denominator * U < delta.numerator * D


def scaled_box(delta: Fraction, D: int, U, V):
    """Membership of the points (U/D, V/D) in the box [0,delta)^2."""
    return scaled_below(delta, D, U) & scaled_below(delta, D, V)


def region_factor(eps: Fraction | None, delta: Fraction) -> int:
    """scaled_in_block (eps) or scaled_box (eps None, 0 < delta < 1) on
    numerators in [0, D) keeps every intermediate below this times D."""
    return delta.denominator if eps is None else 16 * eps.denominator


def scaled_weight(eps: Fraction, D: int, U, V):
    """F4 = weight((U/D, V/D)) * 4 * en^2 * D^2 for 0 <= U, V < D,
    meaningful where scaled_in_block holds; numpy arrays (broadcast) or
    Python ints."""
    en, ed = eps.numerator, eps.denominator
    S = U + V
    # 4 * D^2 * g(U/D): (2U)^2 below one half, (2U - D)^2 above
    G = (2 * U % D) ** 2
    return 96 * ed * ed * S * S + 6 * en * en * G


def weight_factor(eps: Fraction) -> int:
    """scaled_weight on numerators in [0, D) keeps every intermediate, and
    scaled_in_block every one of its own, below this times D^2."""
    return 384 * eps.denominator ** 2 + 6 * eps.numerator ** 2


def _piece_rows(eps: Fraction, D: int, U) -> list:
    """Per piece, (lo, hi): for each numerator U of the array U, the least
    and the greatest integer V with (U/D, V/D) in the piece, by the bounds
    of ``_piece_bounds`` (the row holds none when lo > hi).  The rows with
    U >= h belong to pieces 1 and 2, the others to piece 3."""
    h, s1, s2, b1, b2, c = _piece_bounds(eps, D)
    high, low = U[U >= h], U[U < h]
    return [
        (s1 - high, s2 - high),
        (b1 - high, np.minimum(b2 - high, h - 1)),
        (np.maximum(np.maximum(b1 - low, h), c - 2 * low), b2 - low),
    ]


def density_count(eps: Fraction, m: int) -> int:
    """Number of cell midpoints ((2i+1)/(2m), (2j+1)/(2m)) inside the block,
    counted by rows: for each odd numerator U = 2i+1 over D = 2m, every
    piece's V-range is one interval (``_piece_rows``), and the odd V in
    it are counted; the pieces are disjoint, so the counts add up.  Time
    and memory are O(m).  The m^2 cells are charged to budget.GRID first."""
    _check_scale(eps, 2 * m)
    budget.charge("GRID", f"density grid of {m}x{m} cells", m * m)
    eps, D = BuildingBlock(eps).epsilon, 2 * m
    rows = _piece_rows(eps, D, 2 * np.arange(m, dtype=np.int64) + 1)

    def odd_upto(v):
        # the odd V in [0, v] that lie below D
        return (np.clip(v, -1, D) + 1) // 2

    return sum(int(np.maximum(odd_upto(hi) - odd_upto(lo - 1), 0).sum()) for lo, hi in rows)
