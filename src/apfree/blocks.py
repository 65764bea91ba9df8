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
potential driving the slice constructions, which weigh points with the
scaled-integer kernels of :mod:`apfree.gridscan`: for any three block
points forming a progression modulo 1 it dominates twice the middle weight
plus the squared coordinate gap between the outer points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .clipping import clipped_area

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
        from .rational import rat_str

        return {
            "piece": PIECE_LABELS[self.piece],
            "vertices": [[rat_str(x), rat_str(y)] for x, y in self.vertices],
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
