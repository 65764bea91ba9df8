"""The oracle's mod-1 progressions, midpoint candidates, weight sums and slices."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import (
    Block,
    NotInBlockError,
    in_delta_box,
    is_progression_mod1,
    midpoint_candidates,
    slice_index_of,
    weight_sum,
)

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=499).filter(
    lambda x: x < 1
)
points2 = st.tuples(unit_fractions, unit_fractions)


class TestProgressionMod1:
    def test_equal_points(self):
        x = (F(1, 3), F(2, 5), F(0), F(7, 8))
        assert is_progression_mod1(x, x, x)

    def test_wraparound(self):
        assert is_progression_mod1((F(3, 4), F(0)), (F(1, 4), F(0)), (F(3, 4), F(0)))

    def test_negative_case(self):
        assert not is_progression_mod1((F(0), F(0)), (F(0), F(0)), (F(1, 2), F(0)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_progression_mod1((F(0),), (F(0), F(0)), (F(0),))


class TestMidpointCandidates:
    def test_equal_endpoints(self):
        got = set(midpoint_candidates((F(3, 4), F(1, 8)), (F(3, 4), F(1, 8))))
        assert got == {
            (F(3, 4), F(1, 8)), (F(1, 4), F(1, 8)),
            (F(3, 4), F(5, 8)), (F(1, 4), F(5, 8)),
        }

    def test_frozen_example(self):
        got = set(midpoint_candidates((F(3, 4), F(1, 8)), (F(7, 8), F(1, 8))))
        assert got == {
            (F(13, 16), F(1, 8)), (F(13, 16), F(5, 8)),
            (F(5, 16), F(1, 8)), (F(5, 16), F(5, 8)),
        }

    @given(points2, points2)
    def test_candidates_are_progressions(self, x, z):
        cands = midpoint_candidates(x, z)
        assert len(set(cands)) == 4
        for y in cands:
            assert is_progression_mod1(x, y, z)

    def test_matches_grid_enumeration(self):
        # oracle: enumerate every y on the 1/32 grid solving the congruence
        q = 16
        for xi, zi in [(3, 7), (0, 0), (5, 14), (9, 2)]:
            x = (F(xi, q), F((xi * 3) % q, q))
            z = (F(zi, q), F((zi * 5) % q, q))
            brute = {
                (F(u, 2 * q), F(v, 2 * q))
                for u in range(2 * q)
                for v in range(2 * q)
                if is_progression_mod1(x, (F(u, 2 * q), F(v, 2 * q)), z)
            }
            assert brute == set(midpoint_candidates(x, z))


class TestWeightSum:
    def test_single_pair_is_weight(self):
        block = Block(F(1, 12))
        p = (F(3, 4), F(1, 8))
        assert weight_sum(block, p) == block.weight(p)

    def test_additivity(self):
        block = Block(F(1, 12))
        p = (F(3, 4), F(1, 8))
        assert weight_sum(block, p + p) == 2 * block.weight(p)

    def test_frozen_sum(self):
        block = Block(F(1, 4))
        p = (F(3, 4), F(1, 8), F(7, 8), F(1, 8))
        assert weight_sum(block, p) == F(21735, 32)

    def test_membership_error_names_pair(self):
        block = Block(F(1, 12))
        bad = (F(3, 4), F(1, 8), F(1, 4), F(1, 4))
        with pytest.raises(NotInBlockError, match="pair 1"):
            weight_sum(block, bad)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            weight_sum(Block(F(1, 12)), (F(3, 4), F(1, 8), F(3, 4)))

    def test_range_bound_default_epsilon(self):
        # at eps = 1/n the sum stays within the coarse n*100/eps^2 = 100 n^3
        n = 4
        block = Block(F(1, n))
        bound = 100 * n**3
        q = 24
        base = [
            (F(i, q), F(j, q))
            for i in range(q)
            for j in range(q)
            if block.piece_of((F(i, q), F(j, q)))
        ]
        for p1 in base[::7]:
            for p2 in base[::11]:
                assert 0 <= weight_sum(block, p1 + p2) <= bound


class TestSliceIndex:
    def test_zero(self):
        assert slice_index_of(F(1, 3), F(0)) == 0

    def test_worked_example(self):
        assert slice_index_of(F(1, 2), F(3, 10)) == 2

    def test_left_closed_boundary(self):
        delta = F(1, 5)
        for k in (0, 1, 7, 120):
            assert slice_index_of(delta, k * delta**2 / 2) == k

    @given(st.fractions(min_value=0, max_value=1000, max_denominator=10**4))
    def test_floor_property(self, s):
        width = F(1, 7) ** 2 / 2
        j = slice_index_of(F(1, 7), s)
        assert j * width <= s < (j + 1) * width

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            slice_index_of(F(1, 2), F(-1, 10))


class TestFarApartWithinSlice:
    """Within one slice, mod-1 progressions have outer points within delta
    coordinatewise, and the weight inequality propagates.  Exhaustive on a
    rational grid for n = 2 (n = 4 is covered in the acceptance suite)."""

    def test_exhaustive_grid_n2(self):
        eps, delta, q = F(1, 12), F(9, 10), 24
        block = Block(eps)
        by_slice = {}
        for i in range(q):
            for j in range(q):
                p = (F(i, q), F(j, q))
                if block.piece_of(p):
                    by_slice.setdefault(
                        slice_index_of(delta, weight_sum(block, p)), set()
                    ).add(p)
        multi = [pts for pts in by_slice.values() if len(pts) > 1]
        assert multi  # the parameters above really do group grid points
        triples = 0
        for pts in by_slice.values():
            for x in pts:
                for z in pts:
                    for y in midpoint_candidates(x, z):
                        if y not in pts:
                            continue
                        triples += 1
                        assert max(abs(a - b) for a, b in zip(x, z)) < delta
                        gap = sum((a - b) ** 2 for a, b in zip(x, z))
                        assert (
                            weight_sum(block, x) + weight_sum(block, z)
                            >= 2 * weight_sum(block, y) + gap
                        )
        assert triples > sum(len(pts) for pts in by_slice.values())


class TestDeltaBox:
    def test_membership(self):
        assert in_delta_box((F(1, 20), F(0)), F(1, 12))
        assert not in_delta_box((F(1, 12), F(0)), F(1, 12))

    def test_progressions_inside_box_are_tame(self):
        # inside [0,d)^n the congruence collapses to equality, so the outer
        # points agree within d coordinatewise
        d = F(1, 5)
        pts = [
            (F(a, 25), F(b, 25))
            for a in range(5)
            for b in range(5)
        ]
        assert all(in_delta_box(p, d) for p in pts)
        for x in pts:
            for z in pts:
                for y in midpoint_candidates(x, z):
                    if in_delta_box(y, d) and is_progression_mod1(x, y, z):
                        assert all(xi + zi == 2 * yi for xi, yi, zi in zip(x, y, z))
                        assert all(abs(xi - zi) < d for xi, zi in zip(x, z))
