"""Shifted embeddings, slice pre-images, shift search and fiber reduction."""

import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apfree.blocks import BuildingBlock
from apfree.groups import (
    BuildOptions,
    trial_rng,
    best_slice,
    build_fpn_set,
    build_group_set,
    embed_point,
    fiber_reduce,
    sample_shift,
    search_shift,
    slice_preimage_set,
)
from apfree.dsets import DiscreteSet
from apfree.slicing import (
    SliceParams,
    in_delta_box,
    is_progression_mod1,
    slice_index_of,
    weight_sum,
)


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
        dset = slice_preimage_set(self.MOD, self.SHIFT, 10**12, self.EPS, self.DELTA)
        assert dset.size == 0

    def test_partition_over_slices(self):
        j, count, hist = best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA)
        assert hist[j] == count == max(hist.values())
        total = sum(hist.values())
        sizes = sum(
            slice_preimage_set(self.MOD, self.SHIFT, jj, self.EPS, self.DELTA).size
            for jj in hist
        )
        assert sizes == total

    def test_best_slice_ties_to_smallest(self):
        _, _, hist = best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA)
        j, count, _ = best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA)
        assert j == min(jj for jj, c in hist.items() if c == count)

    def test_best_slice_deterministic(self):
        assert best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA) == best_slice(
            self.MOD, self.SHIFT, self.EPS, self.DELTA
        )

    def test_single_nonempty_slice_is_chosen(self):
        # (2,2) with zero shift embeds one tuple into the block, so exactly
        # one slice is nonempty and it must be selected
        j, count, hist = best_slice((2, 2), (F(0), F(0)), self.EPS, F(1, 2))
        assert count == 1 and hist == {j: 1}

    def test_preimage_certified(self):
        j, _, _ = best_slice(self.MOD, self.SHIFT, self.EPS, self.DELTA)
        dset = slice_preimage_set(self.MOD, self.SHIFT, j, self.EPS, self.DELTA)
        assert dset.size > 0
        assert dset.verify().passed
        assert dset.provenance["certified_by_construction"] is True

    def test_odd_moduli_count_rejected(self):
        with pytest.raises(ValueError):
            slice_preimage_set((3, 4, 5), (F(0),) * 3, 0, self.EPS, F(1, 5))


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
        j, count, histogram = best_slice(moduli, shift, epsilon, delta)
        slices = fraction_slices(moduli, shift, epsilon, delta)
        assert histogram == {jj: len(slices[jj]) for jj in sorted(slices)}
        assert count == histogram.get(j, 0)

    def test_sevenths_shift_preimage_matches_oracle(self):
        moduli, shift = (6, 5, 7, 4), (F(1, 7), F(3, 7), F(5, 7), F(-2, 7))
        epsilon, delta = F(1, 12), F(1, 7)
        j, _, _ = best_slice(moduli, shift, epsilon, delta)
        dset = slice_preimage_set(moduli, shift, j, epsilon, delta)
        assert dset.size > 0
        assert list(dset.elements) == fraction_slices(moduli, shift, epsilon, delta)[j]

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
        jj, count, _ = best_slice(moduli, shift, F(1, 12), F(1, 10))
        assert (j, dset.size) == (jj, count)

    def test_argmax_property(self):
        moduli = (12, 12)
        shift, j, dset = search_shift(moduli, F(1, 12), F(1, 12), trials=8, seed=3)
        for trial in range(8):
            s = sample_shift(trial_rng(3, "shift", trial), moduli)
            _, count, _ = best_slice(moduli, s, F(1, 12), F(1, 12))
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

    def test_provenance_histogram_consistent(self):
        dset = build_group_set((12, 12), BuildOptions(epsilon=F(1, 12), seed=1))
        hist = dset.provenance["slice_histogram"]
        assert len(hist) == dset.provenance["slices_nonempty"]
        assert sum(hist.values()) == dset.provenance["in_block_total"]
        assert hist[str(dset.provenance["slice_index"])] == dset.size
        assert dset.size == max(hist.values())

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
        j, count, _ = best_slice((12, 12), (F(1, 24), F(1, 24)), F(1, 12), F(1, 12))
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
            slice_preimage_set((6, 6), shift, 0, epsilon, F(1))
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
            _, _, histogram = best_slice(moduli, shift, epsilon, delta)
            assert histogram == {j: len(slices[j]) for j in sorted(slices)}
