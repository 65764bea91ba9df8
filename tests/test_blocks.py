"""Block geometry: membership, weight, polygons, areas, boundary conventions."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apfree.blocks import (
    BuildingBlock,
    DegeneratePieceError,
    OutsideDomainError,
    clipped_piece_areas,
    polygon_area,
)
from oracle import Block, NotInBlockError, halfmod_square, polygon_contains

EPS_LADDER = [F(1, 12), F(1, 24), F(1, 48), F(1, 100), F(1, 7), F(3, 40)]

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=997).filter(
    lambda x: x < 1
)


def grid_points(q):
    return [(F(i, q), F(j, q)) for i in range(q) for j in range(q)]


class TestHalfmodSquare:
    def test_examples(self):
        assert halfmod_square(F(0)) == 0
        assert halfmod_square(F(1, 2)) == 0
        assert halfmod_square(F(3, 4)) == F(1, 16)

    def test_domain_errors(self):
        for bad in (F(-1, 8), F(1), F(5, 4)):
            with pytest.raises(OutsideDomainError):
                halfmod_square(bad)

    @given(unit_fractions)
    def test_bounded_by_quarter(self, t):
        assert 0 <= halfmod_square(t) <= F(1, 4)

    @given(unit_fractions)
    def test_half_shift_invariance(self, t):
        # 2t = 2t' mod 1 holds exactly for t' = t + 1/2 mod 1
        assert halfmod_square(t) == halfmod_square((t + F(1, 2)) % 1)

    def test_half_shift_on_grid(self):
        q = 120
        for i in range(q):
            t, t2 = F(i, q), (F(i, q) + F(1, 2)) % 1
            assert 2 * t % 1 == 2 * t2 % 1
            assert halfmod_square(t) == halfmod_square(t2)


class TestMembership:
    def test_piece1_example(self):
        assert Block(F(1, 100)).piece_of((F(3, 4), F(1, 8))) == 1

    def test_piece3_example(self):
        assert Block(F(1, 100)).piece_of((F(2, 5), F(4, 5))) == 3

    @pytest.mark.parametrize("eps", EPS_LADDER)
    def test_lower_left_quadrant_empty(self, eps):
        block = Block(eps)
        assert block.piece_of((F(1, 4), F(1, 4))) == 0
        q = 24
        for i in range(q // 2):
            for j in range(q // 2):
                assert block.piece_of((F(i, q), F(j, q))) == 0

    def test_domain_check(self):
        with pytest.raises(OutsideDomainError):
            Block(F(1, 12)).piece_of((F(1), F(0)))

    def test_epsilon_validation(self):
        for bad in (F(0), F(1), F(-1, 3), F(7, 5)):
            with pytest.raises(OutsideDomainError):
                BuildingBlock(bad)


class TestWeight:
    def test_frozen_values(self):
        # independent re-evaluation: 384*(49/64) + 6*(1/16) and 384*1 + 6*(9/64)
        block = Block(F(1, 4))
        assert block.weight((F(3, 4), F(1, 8))) == F(2355, 8)
        assert block.weight((F(7, 8), F(1, 8))) == F(12315, 32)

    def test_matches_formula_on_grid(self):
        eps = F(1, 12)
        block = Block(eps)
        for p in grid_points(24):
            if block.piece_of(p):
                expected = 24 / eps**2 * (p[0] + p[1]) ** 2 + 6 * halfmod_square(p[0])
                assert block.weight(p) == expected

    def test_deterministic(self):
        block = Block(F(1, 12))
        p = (F(7, 10), F(1, 5))
        assert block.weight(p) == block.weight(p)

    def test_outside_raises(self):
        with pytest.raises(NotInBlockError):
            Block(F(1, 12)).weight((F(1, 4), F(1, 4)))

    @pytest.mark.parametrize("eps", [F(1, 12), F(1, 24)])
    def test_range_bound(self, eps):
        block = Block(eps)
        bound = 100 / eps**2
        for p in grid_points(48):
            if block.piece_of(p):
                assert 0 <= block.weight(p) <= bound


class TestPolygons:
    def test_stated_vertices(self):
        eps = F(1, 12)
        polys = BuildingBlock(eps).piece_polygons()
        assert polys[1].vertices == (
            (F(1), F(0)), (F(1), F(1, 6)), (F(1, 2), F(2, 3)),
            (F(1, 2), F(1, 6)), (F(2, 3), F(0)),
        )
        assert polys[2].vertices == (
            (F(1), F(1, 6) + eps), (F(1), F(5, 12)),
            (F(11, 12), F(1, 2)), (F(2, 3) + eps, F(1, 2)),
        )
        assert polys[3].vertices == (
            (F(1, 2), F(11, 12)), (F(5, 12), F(1)), (F(1, 4) + eps / 2, F(1)),
            (F(1, 3), F(5, 6) + eps), (F(1, 2), F(2, 3) + eps),
        )

    def test_degenerate_piece3(self):
        with pytest.raises(DegeneratePieceError) as err:
            BuildingBlock(F(1, 5)).piece_polygons()
        assert err.value.piece == 3

    def test_degenerate_piece2(self):
        with pytest.raises(DegeneratePieceError) as err:
            BuildingBlock(F(1, 3)).piece_polygons()
        assert err.value.piece == 2

    @pytest.mark.parametrize("eps", [F(1, 12), F(1, 48)])
    def test_agreement_with_inequalities(self, eps):
        """Point-in-polygon with edge tags equals inequality membership on a
        grid hitting every boundary line exactly."""
        block = Block(eps)
        polys = block.piece_polygons()
        q = 48
        for p in grid_points(q):
            tag = block.piece_of(p)
            poly_tags = [k for k, poly in polys.items() if polygon_contains(poly, p)]
            assert poly_tags == ([tag] if tag else [])

    def test_agreement_on_vertices_and_edge_midpoints(self):
        eps = F(1, 12)
        block = Block(eps)
        polys = block.piece_polygons()
        for k, poly in polys.items():
            n = len(poly.vertices)
            probes = list(poly.vertices)
            for e in range(n):
                (x1, y1), (x2, y2) = poly.vertices[e], poly.vertices[(e + 1) % n]
                probes.append(((x1 + x2) / 2, (y1 + y2) / 2))
            for p in probes:
                if not (0 <= p[0] < 1 and 0 <= p[1] < 1):
                    continue
                assert polygon_contains(poly, p) == (block.piece_of(p) == k)


class TestAreas:
    @pytest.mark.parametrize("eps", EPS_LADDER)
    def test_piece1_area_constant(self, eps):
        assert BuildingBlock(eps).piece_areas()[1] == F(7, 36)

    def test_piece2_frozen_value(self):
        # oracle: clip [1/2,1)x[0,1/2) by 7/6+eps <= a+b <= 17/12 at eps=1/24
        assert BuildingBlock(F(1, 24)).piece_areas()[2] == F(15, 384)

    @pytest.mark.parametrize("eps", EPS_LADDER)
    def test_total_lower_bound(self, eps):
        assert BuildingBlock(eps).area() >= F(7, 24) - eps

    @pytest.mark.parametrize("eps", EPS_LADDER)
    def test_shoelace_equals_clipping(self, eps):
        stated = BuildingBlock(eps).piece_areas()
        clipped = {k: a for k, (a, _) in clipped_piece_areas(eps).items()}
        assert stated == clipped

    @pytest.mark.parametrize("eps", [F(1, 12), F(1, 24), F(1, 48), F(1, 100), F(1, 7)])
    def test_closed_forms(self, eps):
        # third route: closed forms in eps, derived once by expanding the
        # shoelace sums symbolically
        areas = BuildingBlock(eps).piece_areas()
        assert areas[2] == F(15, 288) - eps / 3 + eps**2 / 2
        assert areas[3] == F(13, 288) - eps / 4 + eps**2 / 4
        total = sum(areas.values())
        assert total == F(7, 24) - F(7, 12) * eps + F(3, 4) * eps**2

    def test_monotone_in_epsilon(self):
        ladder = [F(1, 100), F(1, 48), F(1, 24), F(1, 12), F(1, 8)]
        areas = [BuildingBlock(e).area() for e in ladder]
        assert all(a > b for a, b in zip(areas, areas[1:]))

    def test_pieces_disjoint_and_additive(self):
        block = Block(F(1, 12))
        areas = block.piece_areas()
        assert block.area() == sum(areas.values())
        # disjointness on a fine grid: piece_of returns a single tag
        for p in grid_points(36):
            assert block.piece_of(p) in (0, 1, 2, 3)

    def test_degenerate_epsilon_clipping_fallback(self):
        block = BuildingBlock(F(1, 5))
        with pytest.warns(UserWarning):
            areas = block.piece_areas()
        clipped = {k: a for k, (a, _) in clipped_piece_areas(F(1, 5)).items()}
        assert areas == clipped
        assert sum(areas.values()) >= F(7, 24) - F(1, 5)

    def test_shoelace_orientation(self):
        square = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
        assert polygon_area(square) == 1


class TestAlgebraicFacts:
    rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**6)

    @given(rationals, rationals)
    def test_split_square_identity(self, s, t):
        assert s**2 + t**2 == 2 * (s / 2 + t / 2) ** 2 + (s - t) ** 2 / 2

    @given(rationals, rationals)
    def test_shifted_square_bound(self, s, t):
        assert (s + t) ** 2 + t**2 >= s**2 / 2

    @given(rationals.filter(lambda t: t >= 0))
    def test_half_shift_growth(self, t):
        assert (t + F(1, 2)) ** 2 >= t**2 + F(1, 4)
