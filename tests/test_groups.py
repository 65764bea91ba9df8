"""Shifted embeddings, slice pre-images, shift search and fiber reduction."""

import math
import random
import re
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apfree import budget, groups
from apfree.blocks import BuildingBlock
from apfree.budget import BudgetError
from apfree.gridscan import scaled_below, scaled_piece, scaled_weight
from apfree.groups import (
    BuildOptions,
    trial_rng,
    best_slice,
    build_fpn_set,
    build_group_set,
    embed_point,
    fiber_reduce,
    pick_slice,
    sample_shift,
    search_shift,
    slice_ratio,
)
from apfree.dsets import DiscreteSet
from apfree.slicing import (
    SliceParams,
    in_delta_box,
    is_progression_mod1,
    slice_index_of,
    weight_sum,
)


def hist_dict(histogram):
    """best_slice's (values, counts) histogram as {j: count}."""
    values, counts = histogram
    return dict(zip(values.tolist(), counts.tolist()))


def preimage(moduli, shift, j, epsilon, delta):
    """The residue tuples of slice j, from one best_slice walk."""
    return best_slice(moduli, shift, epsilon, delta, j=j)[3]


class TestEmbedding:
    def test_zero_shift(self):
        assert embed_point((3, 4), (F(0), F(0)), (2, 3)) == (F(2, 3), F(3, 4))

    def test_no_wrap(self):
        assert embed_point((3, 4), (F(1, 6), F(1, 8)), (2, 3)) == (F(5, 6), F(7, 8))

    def test_wraparound(self):
        assert embed_point((3, 4), (F(1, 2), F(1, 2)), (2, 3)) == (F(1, 6), F(1, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed_point((3, 4), (F(0),), (2, 3))

    def test_residue_range(self):
        with pytest.raises(ValueError):
            embed_point((3, 4), (F(0), F(0)), (3, 3))

    @pytest.mark.parametrize("moduli", [(3, 4), (2, 5), (6, 6)])
    def test_spacing_exhaustive(self, moduli):
        """Distinct residues embed either equal or >= 1/m_i apart per
        coordinate, for several grid shifts."""
        rng = random.Random(7)
        shifts = [tuple(F(0) for _ in moduli)] + [
            sample_shift(rng, moduli) for _ in range(3)
        ]
        tuples = list(product(*(range(m) for m in moduli)))
        for shift in shifts:
            embedded = {r: embed_point(moduli, shift, r) for r in tuples}
            for r in tuples:
                for r2 in tuples:
                    if r == r2:
                        continue
                    q, q2 = embedded[r], embedded[r2]
                    assert any(
                        qi != q2i for qi, q2i in zip(q, q2)
                    )
                    for i, (qi, q2i) in enumerate(zip(q, q2)):
                        assert qi == q2i or abs(qi - q2i) >= F(1, moduli[i])

    def test_progression_transfer_exhaustive(self):
        """Componentwise congruences x+z = 2y mod m_i transfer to mod-1
        progressions of the embeddings."""
        moduli = (3, 4)
        shift = (F(1, 7), F(2, 9))
        tuples = list(product(*(range(m) for m in moduli)))
        for x, y, z in product(tuples, tuples, tuples):
            congruent = all(
                (x[i] + z[i] - 2 * y[i]) % moduli[i] == 0 for i in range(2)
            )
            embedded_progression = is_progression_mod1(
                embed_point(moduli, shift, x),
                embed_point(moduli, shift, y),
                embed_point(moduli, shift, z),
            )
            assert not congruent or embedded_progression


class TestSlicePreimage:
    MOD = (12, 12)
    SHIFT = (F(1, 24), F(1, 24))
    EPS = F(1, 12)
    DELTA = F(1, 12)

    def test_out_of_range_slice_empty(self):
        j, count, hist, elements = best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA,
                                              j=10**12)
        assert (j, count, elements) == (10**12, 0, [])
        assert sum(hist_dict(hist).values()) > 0
        dset = build_group_set(self.MOD, BuildOptions(epsilon=self.EPS, delta=self.DELTA,
                                                      shift=self.SHIFT, slice_index=10**12))
        assert dset.size == 0 and dset.provenance["slice_index"] == 10**12

    def test_partition_over_slices(self):
        j, count, hist, elements = best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA)
        hist = hist_dict(hist)
        assert hist[j] == count == max(hist.values()) == len(elements)
        total = sum(hist.values())
        sizes = sum(
            len(preimage(self.MOD, self.SHIFT, jj, self.EPS, self.DELTA)) for jj in hist
        )
        assert sizes == total

    def test_best_slice_ties_to_smallest(self):
        _, _, hist, _ = best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA)
        j, count, _, _ = best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA)
        assert j == min(jj for jj, c in hist_dict(hist).items() if c == count)

    def test_best_slice_deterministic(self):
        (j1, c1, h1, e1), (j2, c2, h2, e2) = (
            best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA) for _ in range(2))
        assert (j1, c1, hist_dict(h1), e1) == (j2, c2, hist_dict(h2), e2)

    def test_single_nonempty_slice_is_chosen(self):
        # (2,2) with zero shift embeds one tuple into the block, so exactly
        # one slice is nonempty and it must be selected
        j, count, hist, elements = best_slice((2, 2), (F(0), F(0)), self.EPS, F(1, 2))
        assert count == 1 and hist_dict(hist) == {j: 1} and len(elements) == 1

    def test_preimage_certified(self):
        j, _, _, _ = best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA)
        dset = build_group_set(self.MOD, BuildOptions(epsilon=self.EPS, delta=self.DELTA,
                                                      shift=self.SHIFT, slice_index=j))
        assert dset.size > 0
        assert dset.verify().passed
        assert dset.provenance["certified_by_construction"] is True

    def test_odd_moduli_count_rejected(self):
        with pytest.raises(ValueError, match="even number of moduli"):
            best_slice((3, 4, 5), (F(0),) * 3, self.EPS, F(1, 5))


class TestPickSlice:
    def test_fullest_ties_to_smallest(self):
        J = np.array([7, 3, 7, 3, 9])
        j, count, (values, counts), hit = pick_slice(J)
        assert (j, count, values.tolist(), counts.tolist(), hit.tolist()) == (
            3, 2, [3, 7, 9], [2, 2, 1], [1, 3])
        assert type(j) is int and type(count) is int

    def test_given_slice(self):
        J = np.array([7, 3, 7, 3, 9])
        assert pick_slice(J, 9)[:2] == (9, 1) and pick_slice(J, 9)[3].tolist() == [4]
        assert pick_slice(J, 4)[:2] == (4, 0)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_empty(self, dtype):
        j, count, (values, counts), hit = pick_slice(np.zeros(0, dtype=dtype))
        assert (j, count, len(values), len(counts), len(hit)) == (0, 0, 0, 0, 0)


def fraction_slices(moduli, shift, epsilon, delta):
    """In-block residue tuples by slice index, by the Fraction reference
    code: embed_point, then slicing.weight_sum, then slice_index_of."""
    block = BuildingBlock(epsilon)
    params = SliceParams(n=len(moduli), delta=delta, epsilon=epsilon)
    slices = {}
    for residues in product(*(range(m) for m in moduli)):
        p = embed_point(moduli, shift, residues)
        if all(block.piece_of(p[k:k + 2]) for k in range(0, len(p), 2)):
            j = slice_index_of(params, weight_sum(block, p))
            slices.setdefault(j, []).append(residues)
    return slices


@st.composite
def slice_instances(draw):
    n = draw(st.sampled_from([2, 4, 6]))
    top = {2: 14, 4: 6, 6: 3}[n]
    moduli = tuple(draw(st.integers(2, top)) for _ in range(n))
    # explicit shifts off the sampling grid: any denominator, any sign
    shift = tuple(
        F(draw(st.integers(-30, 30)), draw(st.sampled_from([1, 7, 11, 13, 16 * m])))
        for m in moduli
    )
    epsilon = draw(st.sampled_from([F(1, n), F(1, 12), F(1, 24)]))
    delta = F(1, max(moduli)) * F(draw(st.integers(1, 5)), draw(st.integers(5, 9)))
    return moduli, shift, epsilon, delta


class TestScaledIntegerKernel:
    @given(slice_instances())
    @settings(max_examples=40, deadline=None)
    def test_histogram_matches_fraction_oracle(self, instance):
        moduli, shift, epsilon, delta = instance
        j, count, histogram, elements = best_slice(moduli, shift, epsilon, delta)
        slices = fraction_slices(moduli, shift, epsilon, delta)
        assert hist_dict(histogram) == {jj: len(slices[jj]) for jj in sorted(slices)}
        assert count == hist_dict(histogram).get(j, 0)
        assert elements == slices.get(j, [])

    def test_sevenths_shift_preimage_matches_oracle(self):
        moduli, shift = (6, 5, 7, 4), (F(1, 7), F(3, 7), F(5, 7), F(-2, 7))
        epsilon, delta = F(1, 12), F(1, 7)
        j, _, _, elements = best_slice(moduli, shift, epsilon, delta)
        assert len(elements) > 0
        assert elements == fraction_slices(moduli, shift, epsilon, delta)[j]

    @pytest.mark.parametrize("epsilon", [F(0), F(1), F(-1, 12)])
    def test_epsilon_validated(self, epsilon):
        with pytest.raises(ValueError):
            best_slice((4, 4), (F(0), F(0)), epsilon, F(1, 4))


class TestSearchShift:
    def test_single_trial_matches_sampled_shift(self):
        moduli = (8, 10)
        expected_shift = sample_shift(trial_rng(5, "shift", 0), moduli)
        shift, j, dset = search_shift(moduli, F(1, 12), F(1, 10), trials=1, seed=5)
        assert shift == expected_shift
        jj, count, _, elements = best_slice(moduli, shift, F(1, 12), F(1, 10))
        assert (j, dset.size, list(dset.elements)) == (jj, count, elements)

    def test_argmax_property(self):
        moduli = (12, 12)
        shift, j, dset = search_shift(moduli, F(1, 12), F(1, 12), trials=8, seed=3)
        for trial in range(8):
            s = sample_shift(trial_rng(3, "shift", trial), moduli)
            _, count, _, _ = best_slice(moduli, s, F(1, 12), F(1, 12))
            assert dset.size >= count

    def test_trial_rng_split_is_stable_and_independent(self):
        a = trial_rng(7, "shift", 0).randrange(10**9)
        b = trial_rng(7, "shift", 0).randrange(10**9)
        c = trial_rng(7, "shift", 1).randrange(10**9)
        d = trial_rng(7, "direction", 0).randrange(10**9)
        assert a == b and len({a, c, d}) == 3

    def test_output_certified(self):
        _, _, dset = search_shift((12, 12), F(1, 12), F(1, 12), trials=16, seed=1)
        assert dset.verify().passed

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            search_shift((4, 4), F(1, 12), F(1, 4), trials=0, seed=0)


class TestFiberReduce:
    def _dset(self, moduli, elements):
        return DiscreteSet(kind="group", moduli=moduli, elements=elements,
                           provenance={"construction": "zm"})

    def test_single_fiber_returned_intact(self):
        dset = self._dset((5, 3), [(0, 1), (2, 1), (3, 1)])
        reduced = fiber_reduce(dset)
        assert reduced.moduli == (5,)
        assert reduced.elements == ((0,), (2,), (3,))
        assert reduced.provenance["fiber_residue"] == 1

    def test_pigeonhole_bound(self):
        rng = random.Random(11)
        for _ in range(20):
            elements = {
                (rng.randrange(7), rng.randrange(4)) for _ in range(rng.randrange(1, 15))
            }
            dset = self._dset((7, 4), sorted(elements))
            reduced = fiber_reduce(dset)
            assert reduced.size * 4 >= dset.size

    def test_tie_breaks_to_smallest_residue(self):
        dset = self._dset((5, 3), [(0, 2), (1, 0)])
        assert fiber_reduce(dset).provenance["fiber_residue"] == 0

    def test_empty_input(self):
        reduced = fiber_reduce(self._dset((5, 3), []))
        assert reduced.size == 0 and reduced.moduli == (5,)


class TestDriver:
    def test_n1_pipeline(self):
        dset = build_group_set((5,), BuildOptions(seed=1))
        assert dset.moduli == (5,)
        assert dset.verify().passed
        assert "fiber_residue" in dset.provenance

    def test_odd_n_pipeline(self):
        dset = build_fpn_set(5, 3, BuildOptions(seed=1, epsilon=F(1, 12)))
        assert dset.moduli == (5, 5, 5)
        assert dset.verify().passed
        assert dset.provenance["fiber_modulus"] == 5

    def test_even_n_slice_route(self):
        dset = build_group_set((12, 12), BuildOptions(epsilon=F(1, 12), seed=1))
        assert dset.provenance["route"] == "slice"
        assert dset.size > 0 and dset.verify().passed

    def test_shift_grid_level_is_fixed(self):
        # the shift grid is {k/(16 m)}; sidecars still record its level
        assert "grid_level" not in BuildOptions.__dataclass_fields__
        dset = build_group_set((6, 6), BuildOptions(epsilon=F(1, 12), seed=1))
        assert dset.provenance["grid_level"] == groups.SHIFT_GRID_LEVEL == 16
        assert all((16 * 6 * F(a)).denominator == 1 for a in dset.provenance["shift"])

    def test_provenance_histogram_consistent(self):
        dset = build_group_set((12, 12), BuildOptions(epsilon=F(1, 12), seed=1))
        hist = dset.provenance["slice_histogram"]
        assert len(hist) == dset.provenance["slices_nonempty"]
        assert sum(hist.values()) == dset.provenance["in_block_total"]
        assert hist[str(dset.provenance["slice_index"])] == dset.size
        assert dset.size == max(hist.values())

    def test_histogram_capped_in_provenance(self):
        moduli, shift, epsilon, delta = (12, 12), (F(1, 24), F(1, 24)), F(1, 12), F(1, 12)
        walk = best_slice(moduli, shift, epsilon, delta)
        slices = len(walk[2][0])
        assert slices > 1
        at_cap = groups._slice_set(moduli, shift, epsilon, delta, walk, cap=slices).provenance
        assert at_cap["slice_histogram"] == {str(j): c for j, c in hist_dict(walk[2]).items()}
        over = groups._slice_set(moduli, shift, epsilon, delta, walk, cap=slices - 1).provenance
        assert "slice_histogram" not in over
        assert over["slices_nonempty"] == slices
        assert over["in_block_total"] == sum(hist_dict(walk[2]).values())

    def test_n2_box_fallback(self):
        dset = build_group_set((9, 7), BuildOptions(seed=2))
        assert dset.provenance["route"] == "box"
        assert dset.verify().passed
        # every element embeds into [0, delta)^2
        delta = F(1, 9)
        shift = tuple(F(s) for s in dset.provenance["shift"])
        for e in dset.elements:
            q = embed_point((9, 7), shift, e)
            assert all(c < delta for c in q)

    def test_determinism(self):
        a = build_group_set((10, 6), BuildOptions(epsilon=F(1, 12), seed=9))
        b = build_group_set((10, 6), BuildOptions(epsilon=F(1, 12), seed=9))
        assert a.elements == b.elements and a.provenance == b.provenance

    def test_loose_delta_warns_and_flags(self):
        with pytest.warns(UserWarning, match="guarantee"):
            dset = build_group_set(
                (6, 6), BuildOptions(epsilon=F(1, 12), delta=F(1, 3), seed=0)
            )
        assert dset.provenance["certified_by_construction"] is False
        # brute-force certification still decides the outcome
        dset.verify()

    def test_fixed_shift_and_slice(self):
        opts = BuildOptions(epsilon=F(1, 12), shift=(F(1, 24), F(1, 24)), slice_index=None)
        dset = build_group_set((12, 12), opts)
        j, count, _, _ = best_slice((12, 12), (F(1, 24), F(1, 24)), F(1, 12), F(1, 12))
        assert dset.size == count and dset.provenance["slice_index"] == j

    def test_moduli_validation(self):
        with pytest.raises(ValueError):
            build_group_set((1, 5), BuildOptions())

    def test_box_elements_helper(self):
        with pytest.warns(UserWarning, match="guarantee"):
            dset = build_group_set((4, 4), BuildOptions(shift=(F(0), F(0)), delta=F(1, 3)))
        assert list(dset.elements) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_box_route_is_slice_zero(self):
        dset = build_group_set((9, 7), BuildOptions(seed=2))
        prov = dset.provenance
        assert prov["epsilon"] is None and prov["slice_index"] == 0
        assert prov["slice_histogram"] == {"0": dset.size} == {"0": prov["in_block_total"]}

    def test_box_route_rejects_slice_index(self):
        with pytest.raises(ValueError, match="slice index"):
            build_group_set((9, 7), BuildOptions(seed=2, slice_index=0))

    @pytest.mark.parametrize("epsilon", [None, F(1, 12)])
    @pytest.mark.parametrize("delta", [F(1), F(3, 2), F(0), F(-1, 5)])
    def test_delta_outside_unit_interval(self, epsilon, delta):
        with pytest.raises(ValueError, match=r"outside \(0,1\)"):
            build_group_set((6, 6), BuildOptions(epsilon=epsilon, delta=delta, seed=0))

    @pytest.mark.parametrize("epsilon", [None, F(1, 12)])
    def test_public_slice_entry_points_check_delta(self, epsilon):
        shift = (F(0), F(0))
        with pytest.raises(ValueError, match=r"outside \(0,1\)"):
            best_slice((6, 6), shift, epsilon, F(1), j=0)
        with pytest.raises(ValueError, match=r"outside \(0,1\)"):
            best_slice((6, 6), shift, epsilon, F(1))


@st.composite
def box_instances(draw):
    moduli = (draw(st.integers(2, 16)), draw(st.integers(2, 16)))
    grid = draw(st.booleans())
    shift = tuple(
        F(draw(st.integers(0, 16 * m - 1)), 16 * m) if grid
        else F(draw(st.integers(-30, 30)), draw(st.sampled_from([1, 7, 11, 13])))
        for m in moduli
    )
    delta = F(1, max(moduli)) * F(draw(st.integers(1, 5)), draw(st.integers(5, 9)))
    return moduli, shift, delta


class TestBoxKernel:
    @given(box_instances())
    @settings(max_examples=60, deadline=None)
    def test_box_elements_match_fraction_oracle(self, instance):
        """The box route keeps exactly the residues whose Fraction embedding
        lies in [0, delta)^2, in lexicographic order, all in slice 0."""
        moduli, shift, delta = instance
        dset = build_group_set(moduli, BuildOptions(shift=shift, delta=delta))
        oracle = [r for r in product(*(range(m) for m in moduli))
                  if in_delta_box(embed_point(moduli, shift, r), delta)]
        assert list(dset.elements) == oracle
        assert dset.provenance["route"] == "box"
        assert dset.provenance["in_block_total"] == len(oracle)

    @pytest.mark.parametrize("epsilon", [None, F(1, 12)])
    def test_huge_shift_denominators_match_oracle(self, epsilon):
        """Shift denominators near 10^18 put the pair grid far past 2^63;
        the region test and the weights stay exact on Python ints."""
        moduli, delta = (12, 10), F(1, 12)
        shift = (F(1, 10**18 + 9), F(-5 * 10**17, 10**18 + 7))
        assert math.lcm(12, 10, 10**18 + 9, 10**18 + 7) > 1 << 63
        if epsilon is None:
            dset = build_group_set(moduli, BuildOptions(shift=shift, delta=delta))
            oracle = [r for r in product(range(12), range(10))
                      if in_delta_box(embed_point(moduli, shift, r), delta)]
            assert list(dset.elements) == oracle and oracle
        else:
            slices = fraction_slices(moduli, shift, epsilon, delta)
            _, _, histogram, _ = best_slice(moduli, shift, epsilon, delta)
            assert hist_dict(histogram) == {j: len(slices[j]) for j in sorted(slices)}


# -- the slot-product kernel against the per-tuple reference loop -----------


def reference_slots(moduli, shift, epsilon, delta):
    """Per coordinate pair, the in-region residue pairs with their weights on
    the common scale L, one Python-int region test and weight each."""
    pairs = []
    for h in range(len(moduli) // 2):
        m1, m2 = moduli[2 * h], moduli[2 * h + 1]
        a1, a2 = F(shift[2 * h]), F(shift[2 * h + 1])
        D = math.lcm(m1, m2, a1.denominator, a2.denominator)
        b1 = a1.numerator * (D // a1.denominator)
        b2 = a2.numerator * (D // a2.denominator)
        us = [(b1 + r1 * (D // m1)) % D for r1 in range(m1)]
        vs = [(b2 + r2 * (D // m2)) % D for r2 in range(m2)]
        if epsilon is None:
            kept = [((r1, r2), 0)
                    for r1 in range(m1) if scaled_below(delta, D, us[r1])
                    for r2 in range(m2) if scaled_below(delta, D, vs[r2])]
        else:
            kept = [((r1, r2), scaled_weight(epsilon, D, u, v))
                    for r1, u in enumerate(us) for r2, v in enumerate(vs)
                    if scaled_piece(epsilon, D, u, v)]
        pairs.append((D, kept))
    L = math.lcm(*(D * D for D, _ in pairs))
    return [[(r, w * (L // (D * D))) for r, w in kept] for D, kept in pairs], L


def reference_scan(moduli, shift, epsilon, delta):
    """(residue_tuple, slice_index) over itertools.product of the slots, one
    tuple, one sum and one floor division at a time."""
    slots, L = reference_slots(moduli, shift, epsilon, delta)
    num, den = slice_ratio(epsilon, delta, L)
    for combo in product(*slots):
        residues = tuple(r for (pair, _) in combo for r in pair)
        yield residues, (num * sum(w for _, w in combo)) // den


def reference_best_slice(moduli, shift, epsilon, delta):
    histogram = {}
    for _, j in reference_scan(moduli, shift, epsilon, delta):
        histogram[j] = histogram.get(j, 0) + 1
    best_j = min(histogram, key=lambda j: (-histogram[j], j), default=0)
    return best_j, histogram.get(best_j, 0), dict(sorted(histogram.items()))


@st.composite
def kernel_instances(draw):
    n = draw(st.sampled_from([2, 4, 6]))
    top = {2: 16, 4: 8, 6: 4}[n]
    moduli = tuple(draw(st.integers(2, top)) for _ in range(n))
    if draw(st.booleans()):  # on the sampling grid
        shift = tuple(F(draw(st.integers(0, 16 * m - 1)), 16 * m) for m in moduli)
    else:
        shift = tuple(F(draw(st.integers(-30, 30)), draw(st.sampled_from([1, 7, 11, 13])))
                      for m in moduli)
    epsilon = draw(st.sampled_from([None, F(1, n), F(1, 12)] if n == 2 else [F(1, n), F(1, 12)]))
    delta = F(1, max(moduli)) * F(draw(st.integers(1, 5)), draw(st.integers(5, 9)))
    return moduli, shift, epsilon, delta


def assert_kernel_matches_reference(moduli, shift, epsilon, delta):
    j, count, histogram, elements = best_slice(moduli, shift, epsilon, delta)
    assert (j, count, hist_dict(histogram)) == reference_best_slice(moduli, shift, epsilon, delta)
    assert type(j) is int and type(count) is int
    for jj in {j, j + 1}:
        expected = sorted(r for r, js in reference_scan(moduli, shift, epsilon, delta) if js == jj)
        assert preimage(moduli, shift, jj, epsilon, delta) == expected
        if jj == j:
            assert elements == expected


class TestSlotProductKernel:
    @given(kernel_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_loop(self, instance):
        assert_kernel_matches_reference(*instance)

    @given(kernel_instances(), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop_across_chunks(self, instance, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups, "_PRODUCT_CHUNK", chunk)
            assert_kernel_matches_reference(*instance)

    def test_chunked_walk_is_product_order(self, monkeypatch):
        moduli, shift, epsilon, delta = (6, 5, 7, 4), (F(1, 7), F(3, 7), F(5, 7), F(-2, 7)), F(1, 12), F(1, 7)
        monkeypatch.setattr(groups, "_PRODUCT_CHUNK", 5)
        sums, slice_indices = [], groups.slice_indices
        monkeypatch.setattr(groups, "slice_indices",
                            lambda s, *args: (sums.append(len(s)), slice_indices(s, *args))[1])
        slots, shape, J = groups._slice_scan(moduli, shift, epsilon, delta)
        assert len(J) == math.prod(shape) and shape == tuple(len(w) for *_, w in slots)
        assert max(sums) <= 5 and sum(sums) == len(J) and len(sums) == -(-len(J) // 5)
        idx = np.unravel_index(np.arange(len(J)), shape)
        cols = [r[i].tolist() for (r1, r2, _), i in zip(slots, idx) for r in (r1, r2)]
        walked = list(zip(zip(*cols), J.tolist()))
        assert walked == list(reference_scan(moduli, shift, epsilon, delta))

    @pytest.mark.parametrize("epsilon", [None, F(1, 12), F(1, 4)])
    def test_object_path_past_int64(self, epsilon):
        """Shift denominators near 10^18 put D^2 and the weights past 2^62:
        the kernel runs on Python ints and still matches the reference."""
        moduli, delta = (12, 10, 6, 8), F(1, 12)
        shift = (F(1, 10**18 + 9), F(-5 * 10**17, 10**18 + 7), F(1, 3), F(5, 16 * 8))
        if epsilon is None:
            moduli, shift = moduli[:2], shift[:2]
        slots, L = groups._pair_slots(moduli, shift, epsilon, delta)
        assert L > 1 << 62
        if epsilon is not None:
            assert slots[0][2].dtype == object
            assert sum(int(w.max()) for *_, w in slots) > 1 << 62
        assert groups._slice_scan(moduli, shift, epsilon, delta)[2].dtype == object
        assert_kernel_matches_reference(moduli, shift, epsilon, delta)

    def test_box_slice_division_past_int64(self):
        """A tiny delta puts num past 2^62 while every box weight is 0: the
        division runs on Python ints instead of overflowing int64."""
        moduli, shift, delta = (4, 4), (0, 0), F(1, 10**13)
        slots, L = groups._pair_slots(moduli, shift, None, delta)
        num, den = slice_ratio(None, delta, L)
        assert num > 1 << 62 and groups._slice_dtype(0, num, den) is object
        j, count, histogram, elements = best_slice(moduli, shift, None, delta)
        assert (j, count, hist_dict(histogram), elements) == (0, 1, {0: 1}, [(0, 0)])
        dset = build_group_set(moduli, BuildOptions(shift=shift, delta=delta))
        assert dset.elements == ((0, 0),)

    def test_int64_path_on_grid_shifts(self):
        moduli, epsilon, delta = (16, 16, 16, 16), F(1, 12), F(1, 16)
        shift = sample_shift(trial_rng(1, "shift", 0), moduli)
        slots, _ = groups._pair_slots(moduli, shift, epsilon, delta)
        assert all(w.dtype == np.int64 for *_, w in slots)
        assert groups._slice_scan(moduli, shift, epsilon, delta)[2].dtype == np.int64
        assert_kernel_matches_reference(moduli, shift, epsilon, delta)


class TestWorkBudget:
    def test_slot_product_over_budget(self, monkeypatch):
        moduli, shift = (12, 12, 12, 12), (F(1, 24),) * 4
        _, count, histogram, _ = best_slice(moduli, shift, F(1, 12), F(1, 12))
        total = int(histogram[1].sum())
        monkeypatch.setattr(budget, "PRODUCT", 3 * total - 1)
        with pytest.raises(BudgetError, match="work budget"):
            best_slice(moduli, shift, F(1, 12), F(1, 12), walks=3)
        monkeypatch.setattr(budget, "PRODUCT", 3 * total)
        assert best_slice(moduli, shift, F(1, 12), F(1, 12), walks=3)[1] == count

    def test_pair_grid_over_budget(self, monkeypatch):
        """The block tests all m1 * m2 grid points, the box m1 + m2."""
        monkeypatch.setattr(budget, "PRODUCT", 143)
        with pytest.raises(BudgetError, match="pair grid 12x12"):
            best_slice((12, 12), (0, 0), F(1, 12), F(1, 12))
        monkeypatch.setattr(budget, "PRODUCT", 24)
        assert best_slice((12, 12), (0, 0), None, F(1, 12))[1] == 1
        with pytest.raises(BudgetError, match="pair grid 12x12, walked 2 times"):
            best_slice((12, 12), (0, 0), None, F(1, 12), walks=2)

    def test_pair_grids_charged_together(self, monkeypatch):
        # each 12x12 block grid fits a budget of 144 points, but not both
        monkeypatch.setattr(budget, "PRODUCT", 287)
        with pytest.raises(BudgetError, match="pair grid 12x12 with the 1 before it"):
            best_slice((12, 12, 12, 12), (0,) * 4, F(1, 12), F(1, 12))

    def test_search_refused_before_sampling(self, monkeypatch):
        """fpn --p 4 --n 1000000 once tested 58255 pair grids (25 s) and
        fpn --p 7 --n 1000000 --trials 3 10927 (3 s) before the budget
        refused them: every pair grid's points are charged for all the
        search's walks before a shift is drawn, m1 * m2 each for the block
        and m1 + m2 for the box."""
        def no_shift(rng, moduli):
            raise AssertionError("a shift was sampled")

        monkeypatch.setattr(groups, "sample_shift", no_shift)
        with pytest.raises(BudgetError,
                           match="500000 pair grids of 8000000 points, walked 17 times"):
            search_shift((4,) * 10**6, F(1, 12), F(1, 4), 16, 0)
        with pytest.raises(BudgetError,
                           match="500000 pair grids of 24500000 points, walked 4 times"):
            search_shift((7,) * 10**6, F(1, 12), F(1, 7), 3, 0)
        # two 4x4 block grids, 32 points walked twice; box grids 8 points each
        monkeypatch.setattr(budget, "PRODUCT", 2 * 32 - 1)
        with pytest.raises(BudgetError, match="2 pair grids of 32 points, walked 2 times"):
            search_shift((4,) * 4, F(1, 12), F(1, 4), 1, 0)
        monkeypatch.setattr(budget, "PRODUCT", 2 * 32)
        with pytest.raises(AssertionError, match="sampled"):
            search_shift((4,) * 4, F(1, 12), F(1, 4), 1, 0)
        monkeypatch.setattr(budget, "PRODUCT", 3 * 8 - 1)
        with pytest.raises(BudgetError, match="1 pair grids of 8 points, walked 3 times"):
            search_shift((4, 4), None, F(1, 4), 2, 0)
        monkeypatch.setattr(budget, "PRODUCT", 3 * 8)
        with pytest.raises(AssertionError, match="sampled"):
            search_shift((4, 4), None, F(1, 4), 2, 0)

    def test_object_points_cost_more(self, monkeypatch):
        """A shift denominator near 10^7 puts the pair grids and the slot
        product on object arrays, where each point counts OBJECT_COST times:
        two 12x12 grids (288 points) and 36 * 36 tuples."""
        moduli, shift, eps = (12, 12, 12, 12), (F(1, 10**7 + 19),) * 4, F(1, 12)
        assert groups._slice_scan(moduli, shift, eps, eps)[2].dtype == object
        cost = budget.OBJECT_COST
        monkeypatch.setattr(budget, "PRODUCT", 144 * cost - 1)
        with pytest.raises(BudgetError, match="pair grid 12x12, walked 1 times"):
            best_slice(moduli, shift, eps, eps)
        monkeypatch.setattr(budget, "PRODUCT", 288 * cost - 1)
        with pytest.raises(BudgetError, match="pair grid 12x12 with the 1 before it"):
            best_slice(moduli, shift, eps, eps)
        monkeypatch.setattr(budget, "PRODUCT", 36 * 36 * cost - 1)
        with pytest.raises(BudgetError, match="slot product of 1296 tuples"):
            best_slice(moduli, shift, eps, eps)
        monkeypatch.setattr(budget, "PRODUCT", 36 * 36 * cost)
        assert best_slice(moduli, shift, eps, eps)[1] > 0

    @pytest.mark.parametrize("options, walks", [
        (BuildOptions(trials=5), [6] * 16 + [1] * 3),
        (BuildOptions(shift=(F(1, 7),) * 4), [1] * 3),
        (BuildOptions(shift=(F(1, 7),) * 4, slice_index=3), [1] * 3),
    ])
    def test_builds_charge_every_walk(self, monkeypatch, options, walks):
        """A search walks its trials and then the winner once more, for its
        pre-image and histogram; each trial is charged for all of them, and
        the search first charges its pair grids for all of them.  An
        explicit shift walks once, with or without a slice."""
        charged, charge = [], budget.charge

        def spy(name, what, cost):
            charged.append(int(re.search(r"walked (\d+) times", what)[1]))
            charge(name, what, cost)

        monkeypatch.setattr(budget, "charge", spy)
        build_group_set((6, 6, 6, 6), options)
        assert charged == walks  # two pair grids and one product per walk

    @pytest.mark.parametrize("moduli, options, walks", [
        ((6, 6, 6, 6), BuildOptions(trials=5), 6),
        ((6, 6, 6, 6), BuildOptions(trials=1), 2),
        ((6, 6, 6, 6), BuildOptions(shift=(F(1, 7),) * 4), 1),
        ((6, 6, 6, 6), BuildOptions(shift=(F(1, 7),) * 4, slice_index=3), 1),
        ((6, 6, 6, 6), BuildOptions(shift=(F(1, 7),) * 4, slice_index=10**12), 1),
        ((9, 7), BuildOptions(trials=5), 6),
        ((9, 7), BuildOptions(shift=(F(1, 7),) * 2), 1),
        ((5,), BuildOptions(trials=3), 4),
        ((5,), BuildOptions(shift=(F(1, 7),)), 1),
    ])
    def test_builds_walk_the_product_once_per_shift(self, monkeypatch, moduli, options, walks):
        """A search walks the slot product trials + 1 times, an explicit
        shift once, whether or not a slice is given."""
        scans, scan = [], groups._slice_scan
        monkeypatch.setattr(groups, "_slice_scan",
                            lambda *args: (scans.append(args[1]), scan(*args))[1])
        build_group_set(moduli, options)
        assert len(scans) == walks
        if options.shift is None:  # the winner's walk repeats a trial's shift
            assert scans[-1] in scans[:-1]
