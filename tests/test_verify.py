"""Exhaustive verifiers, grid-sweep kernels, area oracle and density."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apfree.blocks import BuildingBlock
from apfree.gridscan import (
    density_count,
    grid_points,
    membership_table,
    run_sweep,
    weight_table,
)
from apfree.slicing import is_progression_mod1, midpoint_candidates
from apfree.verify import (
    area_oracle,
    check_all,
    density_estimate,
    verify_group_set,
    verify_integer_set,
)


class TestGroupVerifier:
    def test_wraparound_violation_in_z5(self):
        report = verify_group_set((5,), [(0,), (1,), (3,)])
        assert not report.passed
        assert report.counterexample == {"x": [0], "y": [3], "z": [1]}

    def test_same_set_passes_in_z8(self):
        report = verify_group_set((8,), [(0,), (1,), (3,)])
        assert report.passed

    def test_even_modulus_two_midpoints(self):
        # 2y = 2 (mod 4) has solutions y in {1, 3}
        report = verify_group_set((4,), [(0,), (1,), (2,)])
        assert not report.passed
        assert report.counterexample == {"x": [0], "y": [1], "z": [2]}

    def test_trivial_sets_pass(self):
        assert verify_group_set((5, 7), []).passed
        assert verify_group_set((5, 7), [(2, 3)]).passed

    def test_checked_is_pair_count(self):
        elements = [(i, 0) for i in range(0, 12, 3)]
        report = verify_group_set((12, 2), elements)
        assert report.checked == math.comb(len(elements), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            verify_group_set((5,), [(5,)])

    def test_wrapped_sum_in_even_modulus(self):
        # pair sum 1+3 = 4 wraps to 0 mod 4, whose halvings are {0, 2}
        report = verify_group_set((4,), [(0,), (1,), (3,)])
        assert not report.passed
        assert report.counterexample == {"x": [1], "y": [0], "z": [3]}

    @pytest.mark.parametrize("moduli", [(4,), (6,), (4, 3), (2, 2, 3), (8, 9)])
    def test_matches_all_triples_bruteforce(self, moduli):
        """Oracle: scan every ordered triple of distinct elements directly."""
        import random
        from itertools import product as iproduct

        rng = random.Random(hash(moduli) & 0xFFFF)
        universe = list(iproduct(*(range(m) for m in moduli)))
        for _ in range(30):
            elements = rng.sample(universe, rng.randrange(2, min(10, len(universe)) + 1))
            brute_violation = any(
                x != z
                and y != x
                and y != z
                and all(
                    (xi + zi - 2 * yi) % m == 0
                    for xi, yi, zi, m in zip(x, y, z, moduli)
                )
                for x in elements
                for y in elements
                for z in elements
            )
            report = verify_group_set(moduli, elements)
            assert report.passed == (not brute_violation), (moduli, sorted(elements))

    def test_counterexample_recheckable(self):
        report = verify_group_set((9, 4), [(0, 0), (1, 2), (2, 0), (0, 2)])
        if not report.passed:
            ce = report.counterexample
            x, y, z = (tuple(ce[k]) for k in ("x", "y", "z"))
            assert all(
                (x[i] + z[i] - 2 * y[i]) % m == 0 for i, m in enumerate((9, 4))
            )


class TestIntegerVerifier:
    def test_simple_violation(self):
        report = verify_integer_set(10, [1, 2, 3])
        assert not report.passed
        assert report.counterexample == {"x": 1, "y": 2, "z": 3}

    def test_passing_set(self):
        assert verify_integer_set(10, [1, 2, 4, 5]).passed

    def test_checked_count(self):
        report = verify_integer_set(100, [1, 2, 4, 5, 10, 11, 13, 14])
        assert report.checked == math.comb(8, 2)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            verify_integer_set(10, [0, 3])
        with pytest.raises(ValueError):
            verify_integer_set(10, [3, 11])

    @given(
        st.sets(st.integers(min_value=1, max_value=60), min_size=2, max_size=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60)
    def test_affine_invariance(self, elements, c, d):
        base = verify_integer_set(60, sorted(elements)).passed
        image = sorted(c * x + d for x in elements)
        mapped = verify_integer_set(c * 60 + d, image).passed
        assert base == mapped


def brute_group_progressions(moduli, elements):
    """Every (x, y, z) with x < z and 2y = x + z coordinatewise, by trying
    every y of the set; sorted by (x, z, y), the verifier's scan order."""
    elems = sorted(elements)
    return [
        {"x": list(x), "y": list(y), "z": list(z)}
        for ai, x in enumerate(elems)
        for z in elems[ai + 1:]
        for y in elems
        if all((xi + zi - 2 * yi) % m == 0 for xi, yi, zi, m in zip(x, y, z, moduli))
    ]


def brute_integer_progressions(elements):
    elems = sorted(elements)
    return [
        {"x": x, "y": y, "z": z}
        for ai, x in enumerate(elems)
        for z in elems[ai + 1:]
        for y in elems
        if x + z == 2 * y
    ]


group_sets = st.sampled_from([(4,), (9,), (4, 3), (6, 6), (2, 3, 4), (8, 5)]).flatmap(
    lambda moduli: st.tuples(
        st.just(moduli),
        st.sets(st.tuples(*(st.integers(0, m - 1) for m in moduli)), max_size=14),
    )
)


class TestAllCounterexamples:
    @given(group_sets)
    @settings(max_examples=80, deadline=None)
    def test_group_lists_bruteforce_triples_in_scan_order(self, case):
        moduli, elements = case
        expected = brute_group_progressions(moduli, elements)
        report = verify_group_set(moduli, elements, all_counterexamples=True)
        assert report.counts["all_counterexamples"] == expected
        assert report.passed == (not expected)
        assert report.counterexample == (expected[0] if expected else None)
        assert report.checked == math.comb(len(elements), 2)

    @given(st.sets(st.integers(min_value=1, max_value=80), max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_integer_lists_bruteforce_triples_in_scan_order(self, elements):
        expected = brute_integer_progressions(elements)
        report = verify_integer_set(80, elements, all_counterexamples=True)
        assert report.counts["all_counterexamples"] == expected
        assert report.passed == (not expected)
        assert report.counterexample == (expected[0] if expected else None)
        assert report.checked == math.comb(len(elements), 2)

    def test_first_hit_mode_leaves_counts_empty(self):
        report = verify_integer_set(10, [1, 2, 3, 4, 5])
        assert report.counts == {}
        assert report.counterexample == {"x": 1, "y": 2, "z": 3}


class TestCheckedOnFailingSets:
    @given(st.sets(st.integers(min_value=1, max_value=40), min_size=3, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_integer_checked_is_pair_count(self, elements):
        elements = elements | {1, 2, 3}  # always a progression
        report = verify_integer_set(40, elements)
        assert not report.passed
        assert report.checked == math.comb(len(elements), 2)

    def test_group_checked_is_pair_count(self):
        elements = [(i, j) for i in range(5) for j in range(3)]
        report = verify_group_set((5, 3), elements)
        assert not report.passed
        assert report.checked == math.comb(len(elements), 2)


class TestSweepKernels:
    def test_membership_table_matches_api(self):
        eps, q = F(1, 12), 48
        block = BuildingBlock(eps)
        tab = membership_table(eps, q)
        for i in range(q):
            for j in range(q):
                assert int(tab[i, j]) == block.piece_of((F(i, q), F(j, q)))

    def test_weight_table_matches_api(self):
        eps, q = F(1, 24), 48
        block = BuildingBlock(eps)
        tab = membership_table(eps, q)
        wt = weight_table(eps, q)
        scale = 4 * eps.numerator**2 * q * q
        for i in range(q):
            for j in range(q):
                if tab[i, j]:
                    assert int(wt[i, j]) == block.weight((F(i, q), F(j, q))) * scale
                else:
                    assert wt[i, j] == -1

    def test_block_sweep_matches_bruteforce(self):
        eps, q = F(1, 12), 24
        block = BuildingBlock(eps)
        pts = [
            (F(i, q), F(j, q))
            for i in range(q)
            for j in range(q)
            if block.piece_of((F(i, q), F(j, q)))
        ]
        pairs = cands = viols = 0
        for ai in range(len(pts)):
            for zi in range(ai, len(pts)):
                x, z = pts[ai], pts[zi]
                pairs += 1
                for y in midpoint_candidates(x, z):
                    if block.piece_of(y):
                        cands += 1
                        lhs = block.weight(x) + block.weight(z)
                        rhs = (
                            2 * block.weight(y)
                            + (x[0] - z[0]) ** 2
                            + (x[1] - z[1]) ** 2
                        )
                        viols += lhs < rhs
        counts, violation = run_sweep("block", eps, q)
        assert violation is None and viols == 0
        assert counts["grid_points"] == len(pts)
        assert counts["pairs"] == pairs
        assert counts["candidates"] == cands

    def test_grid_points_scan_order(self):
        I, J = grid_points(F(1, 12), 24)
        order = list(zip(I.tolist(), J.tolist()))
        assert order == sorted(order)

    @pytest.mark.parametrize("eps", [F(1, 12), F(1, 24), F(1, 48)])
    @pytest.mark.parametrize("grid", [48, 120])
    def test_sweep_matrix(self, eps, grid):
        for report in check_all(eps, grid):
            assert report.passed, report.subject
            assert report.counts["violations"] == 0

    def test_intermediate_counts_match_bruteforce(self):
        """The sweeps' side counts (near-equal candidates, applicable pairs)
        agree with a direct Fraction scan, so the predicates are genuinely
        exercised rather than vacuously green."""
        eps, q = F(1, 12), 24
        block = BuildingBlock(eps)
        pts = [
            (F(i, q), F(j, q))
            for i in range(q)
            for j in range(q)
            if block.piece_of((F(i, q), F(j, q)))
        ]
        near_cands = x1z1_app = facts_app = 0
        for ai in range(len(pts)):
            for zi in range(ai, len(pts)):
                x, z = pts[ai], pts[zi]
                near = abs(x[0] + x[1] - z[0] - z[1]) < eps
                for y in midpoint_candidates(x, z):
                    if block.piece_of(y) and near:
                        near_cands += 1
                if near and (x[0] >= F(1, 2) or z[0] >= F(1, 2)):
                    x1z1_app += 1
                if x[0] + z[0] < 1:
                    facts_app += 1
        counts, _ = run_sweep("midpoint", eps, q)
        assert counts["near_equal_candidates"] == near_cands
        counts, _ = run_sweep("x1z1", eps, q)
        assert counts["applicable"] == x1z1_app
        counts, _ = run_sweep("facts", eps, q)
        assert counts["applicable"] == facts_app

    def test_block_sweep_detects_injected_violation(self, monkeypatch):
        """Corrupting one weight-table entry must surface as a reported
        violation pointing at that midpoint."""
        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 24
        real_table = gridscan.weight_table(eps, 2 * q)
        pts = __import__("numpy").argwhere(real_table[::2, ::2] >= 0)
        i0, j0 = int(pts[0][0]), int(pts[0][1])

        def corrupted(e, d):
            table = real_table.copy()
            table[2 * i0, 2 * j0] += 10**9
            return table

        monkeypatch.setattr(gridscan, "weight_table", corrupted)
        counts, violation = gridscan.run_sweep("block", eps, q)
        assert counts["violations"] > 0
        assert violation is not None
        assert violation["y"] == [str(F(i0, q)), str(F(j0, q))]

    def test_midpoint_sweep_detects_injected_violation(self, monkeypatch):
        """Corrupting the half-grid g table must trip the near-equal
        g-inequality (code 3)."""
        import numpy as np

        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 24
        gq, g2 = gridscan._g_tables(q)
        g2 = g2.copy()
        # x = z = first in-block point, candidate 0: u = 2*i0 is reachable
        table = gridscan.weight_table(eps, 2 * q)
        i0 = int(np.argwhere(table[::2, ::2] >= 0)[0][0])
        g2[2 * i0] += 10**9
        monkeypatch.setattr(gridscan, "_g_tables", lambda Q: (gq, g2))
        counts, violation = gridscan.run_sweep("midpoint", eps, q)
        assert counts["violations"] > 0
        assert violation is not None and violation["code"] == 3

    def test_threads_do_not_change_reports(self):
        eps, q = F(1, 12), 48
        serial = run_sweep("midpoint", eps, q, threads=1)
        parallel = run_sweep("midpoint", eps, q, threads=2)
        assert serial == parallel

    def test_scale_guard(self):
        with pytest.raises(ValueError, match="budget"):
            run_sweep("block", F(1, 99991), 48)

    def test_grid_multiple_of_24_required(self):
        with pytest.raises(ValueError, match="24"):
            run_sweep("block", F(1, 12), 50)


class TestWorkedTriple:
    """One fully worked pair at eps = 1/4 with frozen exact values."""

    def test_only_one_candidate_in_block(self):
        block = BuildingBlock(F(1, 4))
        x, z = (F(3, 4), F(1, 8)), (F(7, 8), F(1, 8))
        inside = [y for y in midpoint_candidates(x, z) if block.piece_of(y)]
        assert inside == [(F(13, 16), F(1, 8))]

    def test_frozen_inequality_values(self):
        block = BuildingBlock(F(1, 4))
        x, z = (F(3, 4), F(1, 8)), (F(7, 8), F(1, 8))
        y = (F(13, 16), F(1, 8))
        lhs = block.weight(x) + block.weight(z)
        rhs = 2 * block.weight(y) + (x[0] - z[0]) ** 2 + (x[1] - z[1]) ** 2
        assert lhs == F(21735, 32)
        assert rhs == F(10819, 16)
        assert lhs > rhs

    def test_midpoint_sum_first_alternative(self):
        x, z = (F(3, 4), F(1, 8)), (F(7, 8), F(1, 8))
        y = (F(13, 16), F(1, 8))
        assert y[0] + y[1] == (x[0] + x[1]) / 2 + (z[0] + z[1]) / 2
        assert is_progression_mod1(x, y, z)


class TestAreaOracle:
    @pytest.mark.parametrize("eps", [F(1, 12), F(1, 24), F(1, 48), F(1, 100)])
    def test_bounds_hold(self, eps):
        report = area_oracle(eps)
        assert report.passed
        areas = report.parameters["areas"]
        assert F(areas["low"]) == F(7, 36)

    def test_frozen_piece2(self):
        report = area_oracle(F(1, 24))
        assert F(report.parameters["areas"]["right"]) == F(15, 384)
        assert F(15, 384) >= F(15, 288) - F(1, 48)

    def test_matches_stated_vertex_route(self):
        for eps in (F(1, 12), F(1, 30), F(1, 100)):
            report = area_oracle(eps)
            stated = BuildingBlock(eps).piece_areas()
            labels = {1: "low", 2: "right", 3: "top"}
            for k, label in labels.items():
                assert F(report.parameters["areas"][label]) == stated[k]

    def test_degenerate_pieces_flagged(self):
        report = area_oracle(F(1, 3))
        assert "right" in report.parameters["degenerate_pieces"]
        assert report.passed  # bounds are vacuous at large eps


class TestDensity:
    def test_examples(self):
        for m in (24, 96):
            report = density_estimate(F(1, 12), m)
            assert report.passed
            est = F(report.parameters["estimate"])
            assert 0 <= est <= 1

    def test_count_matches_fraction_membership(self):
        eps, m = F(1, 12), 24
        block = BuildingBlock(eps)
        brute = sum(
            1
            for i in range(m)
            for j in range(m)
            if block.piece_of((F(2 * i + 1, 2 * m), F(2 * j + 1, 2 * m)))
        )
        assert density_count(eps, m) == brute

    def test_minimum_grid(self):
        with pytest.raises(ValueError):
            density_estimate(F(1, 12), 23)


class TestReportShape:
    def test_jsonable_excludes_elapsed_by_default(self):
        report = verify_integer_set(10, [1, 2])
        payload = report.to_jsonable()
        assert "elapsed_seconds" not in payload
        assert payload["pass"] is True
        with_elapsed = report.to_jsonable(include_elapsed=True)
        assert "elapsed_seconds" in with_elapsed

    def test_failed_report_carries_counterexample(self):
        report = verify_integer_set(10, [1, 2, 3])
        assert report.counterexample is not None
        x, y, z = (report.counterexample[k] for k in ("x", "y", "z"))
        assert x + z == 2 * y
