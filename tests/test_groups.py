"""Shifted embeddings, slice pre-images, shift search and fiber reduction."""

import math
import random
import re
import sys
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apfree import budget, groups, rational
from apfree.baselines import behrend_set
from apfree.blocks import scaled_below, scaled_in_block, scaled_weight
from apfree.budget import BudgetError
from apfree.groups import (
    BuildOptions,
    trial_rng,
    best_slice,
    build_fpn_set,
    build_group_set,
    fiber_reduce,
    region_epsilon,
    sample_numerators,
    search_shift,
    slice_ratio,
    slice_runs,
)
from apfree.dsets import DiscreteSet
from apfree.integers import build_integer_set, build_integer_set_direct
from apfree.rational import point_strs
from oracle import (
    Block,
    embed_point,
    in_delta_box,
    is_progression_mod1,
    slice_index_of,
    weight_sum,
)


def hist_dict(histogram):
    """best_slice's (values, counts) histogram as {j: count}."""
    values, counts = histogram
    return dict(zip(values.tolist(), counts.tolist()))


def sample_shift(rng, moduli):
    """The shift that sample_numerators draws, as Fractions."""
    return tuple(F(k, groups.SHIFT_GRID_LEVEL * m)
                 for k, m in zip(sample_numerators(rng, moduli), moduli))


def batch_of(moduli, shifts, epsilon, delta, walks=1):
    """_pair_slots of Fraction (or int) shifts, given as numerators over
    each coordinate's common denominator."""
    shifts = [tuple(map(F, shift)) for shift in shifts]
    dens = [math.lcm(*(shift[i].denominator for shift in shifts)) for i in range(len(moduli))]
    nums = [[int(a * d) for a, d in zip(shift, dens)] for shift in shifts]
    return groups._pair_slots(moduli, nums, dens, epsilon, delta, walks)


def shift_slots(batch, t):
    """([(r1, r2, w), ...], L, s_max) of shift t of a SlotBatch, its
    weights in its own dtype."""
    slots = [(r1, r2, w) for (r1, r2), w in zip(batch.residues(t), batch.weights(t))]
    return slots, batch.Ls[t], batch.bounds[t]


def pair_slots(moduli, shift, epsilon, delta):
    """The (slots, L, s_max) of one shift, from a batch of one."""
    return shift_slots(batch_of(moduli, [shift], epsilon, delta), 0)


def one_shift_batch(slots, L, s_max):
    """A SlotBatch of one shift from its [(r1, r2, w), ...], L and s_max."""
    pairs = [(r1, r2, w, [0, len(w)]) for r1, r2, w in slots]
    dtype = object if any(w.dtype == object for *_, w in slots) else np.int64
    return groups.SlotBatch(pairs, [L], [s_max], [dtype])


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
        j, count, (values, counts) = slice_runs(np.sort(np.array([7, 3, 7, 3, 9])))
        assert (j, count, values.tolist(), counts.tolist()) == (3, 2, [3, 7, 9], [2, 2, 1])
        assert type(j) is int and type(count) is int

    def test_given_slice(self, monkeypatch):
        """best_slice matches J == j once, on J in product order: the
        fullest slice unless j is given, an empty slice included; the
        histogram is always the whole walk's."""
        J = np.array([7, 3, 7, 3, 9])
        slots = (one_shift_batch([(np.arange(5), np.arange(5) * 10,
                                   np.zeros(5, dtype=np.int64))], 1, 0), 0)
        monkeypatch.setattr(groups, "_slice_scan", lambda *args: (slots, (5,), J.copy()))
        for j, expected in [(None, (3, 2, [(1, 10), (3, 30)])), (9, (9, 1, [(4, 40)])),
                            (4, (4, 0, []))]:
            got_j, count, histogram, elements = best_slice(None, None, None, None, j=j)
            assert (got_j, count, elements) == expected
            assert hist_dict(histogram) == {3: 2, 7: 2, 9: 1}

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_empty(self, dtype):
        j, count, (values, counts) = slice_runs(np.zeros(0, dtype=dtype))
        assert (j, count, len(values), len(counts)) == (0, 0, 0, 0)
        unique = np.unique(np.zeros(0, dtype=dtype), return_counts=True)
        assert (values.dtype, counts.dtype) == (unique[0].dtype, unique[1].dtype)

    @given(st.sampled_from([np.int64, object]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_runs_are_np_unique_and_the_loop(self, dtype, data):
        """slice_runs of sorted J is np.unique's histogram, values and
        counts with their dtypes, and its (j, count) the fullest slice of a
        plain loop, ties to the smallest index: empty J, one value, runs of
        equal length, and object indices past 2^63 among them."""
        top = 3 if dtype is np.int64 else data.draw(st.sampled_from([3, 1 << 70]))
        values = data.draw(st.lists(st.integers(-top, top), max_size=30)
                           | st.lists(st.just(top), min_size=1, max_size=3))
        J = np.array(values, dtype=dtype)
        j, count, (runs, counts) = slice_runs(np.sort(J))
        unique, unique_counts = np.unique(J, return_counts=True)
        assert (runs.dtype, counts.dtype) == (unique.dtype, unique_counts.dtype)
        assert (runs.tolist(), counts.tolist()) == (unique.tolist(), unique_counts.tolist())
        tally = {}
        for v in values:
            tally[v] = tally.get(v, 0) + 1
        best = min(tally, key=lambda v: (-tally[v], v), default=0)
        assert (j, count) == (best, tally.get(best, 0))
        assert type(j) is int and type(count) is int


def fraction_slices(moduli, shift, epsilon, delta):
    """In-block residue tuples by slice index, by the Fraction reference
    code: embed_point, then weight_sum, then slice_index_of."""
    block = Block(epsilon)
    slices = {}
    for residues in product(*(range(m) for m in moduli)):
        p = embed_point(moduli, shift, residues)
        if all(block.piece_of(p[k:k + 2]) for k in range(0, len(p), 2)):
            j = slice_index_of(delta, weight_sum(block, p))
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

    # (moduli, epsilon, delta, trials, seed): block, box, n = 4, and odd n,
    # searched with the last modulus repeated, on the block and the box
    ARGMAX_CASES = [
        ((12, 12), F(1, 12), F(1, 12), 8, 3),
        ((12, 12), None, F(1, 12), 8, 3),
        ((6, 6, 6, 6), None, F(1, 6), 5, 1),
        ((7, 9, 11), F(1, 12), F(1, 11), 6, 2),
        ((5,), None, F(1, 5), 4, 0),
    ]

    def test_argmax_property(self):
        """The search keeps the minimum of (-count, shift, j) over the
        trials' own walks, with that walk's pre-image, and the build
        records it."""
        for moduli, epsilon, delta, trials, seed in self.ARGMAX_CASES:
            searched = moduli + (max(moduli),) if len(moduli) % 2 else moduli
            region = region_epsilon(epsilon, len(searched))
            walks = []
            for trial in range(trials):
                s = sample_shift(trial_rng(seed, "shift", trial), searched)
                j, count, _, elements = best_slice(searched, s, region, delta)
                walks.append((-count, s, j, elements))
            best = min(walks, key=lambda walk: walk[:3])
            shift, j, dset = search_shift(searched, region, delta, trials, seed)
            assert (-dset.size, shift, j, list(dset.elements)) == best
            built = build_group_set(moduli, BuildOptions(epsilon=epsilon, delta=delta,
                                                         trials=trials, seed=seed))
            assert (built.provenance["shift"], built.provenance["slice_index"]) == (
                point_strs(shift), j)
            if searched != moduli:
                assert built.elements == fiber_reduce(dset).elements

    @given(st.lists(st.integers(2, 40), min_size=1, max_size=4).flatmap(
        lambda moduli: st.lists(st.tuples(*(st.sampled_from([0, 1, 16 * m - 1])
                                            | st.integers(0, 16 * m - 1) for m in moduli)),
                                min_size=2, max_size=2).map(lambda pair: (moduli, pair))))
    @settings(max_examples=200, deadline=None)
    def test_numerators_order_as_their_shifts(self, case):
        """The search orders shifts by their numerators over SHIFT_GRID_LEVEL
        * m_i: the same order, ties included, as the Fraction shifts."""
        moduli, (a, b) = case
        fa, fb = ([F(k, groups.SHIFT_GRID_LEVEL * m) for k, m in zip(nums, moduli)]
                  for nums in (a, b))
        assert (a < b, a == b) == (fa < fb, fa == fb)

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

    @pytest.mark.parametrize("p", [4, 6, 9, 15, 25, 49, 1000000000])
    def test_fpn_refuses_a_composite_p(self, monkeypatch, p):
        """A composite p is refused before any shift is drawn.  The budget
        is raised so that n * p fits it for every p here; past it, the
        build's own charges refuse the build first."""
        monkeypatch.setattr(groups, "sample_numerators",
                            lambda rng, moduli: pytest.fail("sampled"))
        monkeypatch.setattr(budget, "PRODUCT", 1 << 31)
        with pytest.raises(ValueError, match=f"^p={p} is not prime$"):
            build_fpn_set(p, 1)

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

    def test_histogram_capped_in_provenance(self, monkeypatch):
        moduli, shift, epsilon, delta = (12, 12), (F(1, 24), F(1, 24)), F(1, 12), F(1, 12)
        walk = best_slice(moduli, shift, epsilon, delta)
        slices = len(walk[2][0])
        assert slices > 1
        monkeypatch.setattr(groups, "_HISTOGRAM_CAP", slices)
        at_cap = groups._slice_set(moduli, shift, epsilon, delta, walk).provenance
        assert at_cap["slice_histogram"] == {str(j): c for j, c in hist_dict(walk[2]).items()}
        monkeypatch.setattr(groups, "_HISTOGRAM_CAP", slices - 1)
        over = groups._slice_set(moduli, shift, epsilon, delta, walk).provenance
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

    @pytest.mark.parametrize("moduli", [(4, 4), (3, 3, 3), (6, 6, 6, 6)])
    def test_negative_slice_index_is_refused(self, moduli):
        # a slice index counts slices from 0; no slice lies below it
        options = BuildOptions(epsilon=F(1, 4), shift=(F(0),) * len(moduli), slice_index=-1)
        with pytest.raises(ValueError, match="slice index -1 is negative"):
            build_group_set(moduli, options)

    @pytest.mark.parametrize("moduli", [(3, 3), (3, 3, 3), (6, 6, 6, 6)])
    def test_slice_index_without_shift_is_refused(self, moduli):
        # the shift search chooses its own slice, so a given one cannot be used
        with pytest.raises(ValueError, match="needs an explicit shift"):
            build_group_set(moduli, BuildOptions(epsilon=F(1, 2), slice_index=0))

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
                    if scaled_in_block(epsilon, D, u, v)]
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
        """Every slice_indices call of a walk takes at most _PRODUCT_CHUNK
        sums, and the calls take the product's sums once each, in product
        order: parts of one row of the last pair's 6 weights (chunk 1, 5),
        whole rows of it (6, 20), of the last two pairs' 36 sums (36, 100)
        or of all 288 (288, 1000)."""
        moduli = (6, 5, 7, 4, 5, 6)
        shift = (F(1, 7), F(3, 7), F(5, 7), F(-2, 7), F(1, 5), F(2, 9))
        epsilon, delta = F(1, 12), F(1, 7)
        reference = list(reference_scan(moduli, shift, epsilon, delta))
        sums, slice_indices = [], groups.slice_indices
        monkeypatch.setattr(groups, "slice_indices",
                            lambda s, *args: (sums.append(s.ravel().tolist()),
                                              slice_indices(s, *args))[1])
        for chunk in (1, 5, 6, 20, 36, 100, 288, 1000):
            monkeypatch.setattr(groups, "_PRODUCT_CHUNK", chunk)
            sums.clear()
            (batch, t), shape, J = groups._slice_scan(moduli, shift, epsilon, delta)
            slots = shift_slots(batch, t)[0]
            assert shape == (8, 6, 6) and shape == tuple(len(w) for *_, w in slots)
            assert len(J) == math.prod(shape)
            assert max(map(len, sums)) <= chunk and sum(map(len, sums)) == len(J)
            assert sum(sums, []) == [sum(c) for c in product(*(w.tolist() for *_, w in slots))]
            idx = np.unravel_index(np.arange(len(J)), shape)
            cols = [r[i].tolist() for (r1, r2, _), i in zip(slots, idx) for r in (r1, r2)]
            assert list(zip(zip(*cols), J.tolist())) == reference

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_outer_sums_are_the_gathered_sums(self, data):
        """J of the outer-sum walk against the unravel-and-gather walk it
        replaced and the per-tuple loop, on slots made up here: int64 or
        object weights (sums past 2^62 among them), pairs with no slots,
        pairs longer than the patched _PRODUCT_CHUNK and chunks that split
        the trailing pairs' sums."""
        obj = data.draw(st.booleans())
        top = data.draw(st.sampled_from([10**6, 1 << 70])) if obj else 1 << 40
        sizes = data.draw(st.lists(st.integers(0, 12) | st.just(1), min_size=1, max_size=4))
        weights = [np.array(data.draw(st.lists(st.integers(1, top), min_size=k, max_size=k)),
                            dtype=object if obj else np.int64) for k in sizes]
        chunk = data.draw(st.integers(1, 40))
        L, epsilon, delta = data.draw(st.sampled_from([1, 7 * 10**20])), F(1, 12), F(1, 7)
        total = math.prod(sizes)
        s_max = sum(int(w.max()) for w in weights) if total else 0
        slots = [(np.arange(len(w)), np.arange(len(w)), w) for w in weights]
        sums, slice_indices = [], groups.slice_indices
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups, "_PRODUCT_CHUNK", chunk)
            mp.setattr(groups, "slice_indices",
                       lambda s, *args: (sums.append(s.size), slice_indices(s, *args))[1])
            _, shape, J = groups._slice_scan(None, None, epsilon, delta,
                                             slots=(one_shift_batch(slots, L, s_max), 0))
        num, den = slice_ratio(epsilon, delta, L)
        assert max(sums, default=0) <= chunk and sum(sums) == total
        idx = np.unravel_index(np.arange(total), sizes)
        gathered = groups.slice_indices(sum(w[i] for w, i in zip(weights, idx)), s_max, num, den)
        assert shape == tuple(sizes) and J.dtype == gathered.dtype
        assert J.tolist() == gathered.tolist()
        assert J.tolist() == [num * sum(c) // den for c in product(*(w.tolist() for w in weights))]

    @pytest.mark.parametrize("epsilon", [None, F(1, 12), F(1, 4)])
    def test_object_path_past_int64(self, epsilon):
        """Shift denominators near 10^18 put D^2 and the weights past 2^62:
        the kernel runs on Python ints and still matches the reference."""
        moduli, delta = (12, 10, 6, 8), F(1, 12)
        shift = (F(1, 10**18 + 9), F(-5 * 10**17, 10**18 + 7), F(1, 3), F(5, 16 * 8))
        if epsilon is None:
            moduli, shift = moduli[:2], shift[:2]
        slots, L, s_max = pair_slots(moduli, shift, epsilon, delta)
        assert L > 1 << 62
        assert s_max == sum(int(w.max()) for *_, w in slots)
        if epsilon is not None:
            assert slots[0][2].dtype == object
            assert s_max > 1 << 62
        assert groups._slice_scan(moduli, shift, epsilon, delta)[2].dtype == object
        assert_kernel_matches_reference(moduli, shift, epsilon, delta)

    def test_box_slice_division_past_int64(self):
        """A tiny delta puts num past 2^62 while every box weight is 0: the
        division runs on Python ints instead of overflowing int64."""
        moduli, shift, delta = (4, 4), (0, 0), F(1, 10**13)
        slots, L, s_max = pair_slots(moduli, shift, None, delta)
        assert s_max == 0
        num, den = slice_ratio(None, delta, L)
        assert num > 1 << 62 and groups._slice_dtype(0, num, den) is object
        j, count, histogram, elements = best_slice(moduli, shift, None, delta)
        assert (j, count, hist_dict(histogram), elements) == (0, 1, {0: 1}, [(0, 0)])
        dset = build_group_set(moduli, BuildOptions(shift=shift, delta=delta))
        assert dset.elements == ((0, 0),)

    def test_int64_path_on_grid_shifts(self):
        moduli, epsilon, delta = (16, 16, 16, 16), F(1, 12), F(1, 16)
        shift = sample_shift(trial_rng(1, "shift", 0), moduli)
        slots, _, s_max = pair_slots(moduli, shift, epsilon, delta)
        assert all(w.dtype == np.int64 for *_, w in slots)
        assert s_max == sum(int(w.max()) for *_, w in slots) <= 1 << 62
        assert groups._slice_scan(moduli, shift, epsilon, delta)[2].dtype == np.int64
        assert_kernel_matches_reference(moduli, shift, epsilon, delta)



# -- one batch of pair slots for all the shifts of a search ----------------

# shift denominators that give the shifts of one batch different grids D
DENOMINATORS = [1, 3, 7, 16, 48, 143]
# a first pair with these denominators puts its grid past 2^62: object arrays
HUGE = (F(1, 10**18 + 9), F(-5 * 10**17, 10**18 + 7))


@st.composite
def batch_instances(draw):
    n = draw(st.sampled_from([2, 4, 6]))
    top = {2: 14, 4: 8, 6: 4}[n]
    moduli = tuple(draw(st.integers(2, top)) for _ in range(n))
    shifts = [tuple(F(draw(st.integers(-40, 40)), draw(st.sampled_from(DENOMINATORS + [16 * m])))
                    for m in moduli)
              for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):  # one shift on the object path among int64 ones
        shifts.insert(draw(st.integers(0, len(shifts))), HUGE + shifts[0][2:])
    epsilon = draw(st.sampled_from([None, F(1, n), F(1, 12)] if n == 2 else [F(1, n), F(1, 12)]))
    delta = F(1, max(moduli)) * F(draw(st.integers(1, 5)), draw(st.integers(5, 9)))
    chunk = draw(st.sampled_from([None, 1, 5, 17, 64, 300]))
    return moduli, shifts, epsilon, delta, chunk


def assert_batch_is_each_shift_alone(moduli, shifts, epsilon, delta, chunk=None):
    """The batch's arrays against each shift taken alone.  Per pair, the
    cuts mark each shift's part [cut[t], cut[t + 1]), and w is in the
    batch's dtype; that part of r1, r2 and w equals the shift's slots
    from a batch of one and the reference's.  Per shift, L, s_max (the
    sum of the pairs' weight maxima, 0 when a pair has no slots) and the
    dtype its weights are cast to equal the shift's alone."""
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(groups, "_PRODUCT_CHUNK", chunk)
        batch = batch_of(moduli, shifts, epsilon, delta)
    T = len(shifts)
    assert len(batch.pairs) == len(moduli) // 2
    assert len(batch.Ls) == len(batch.bounds) == len(batch.dtypes) == T
    for r1, r2, w, cut in batch.pairs:
        assert len(cut) == T + 1 and cut[0] == 0 and np.all(np.diff(cut) >= 0)
        assert cut[-1] == len(r1) == len(r2) == len(w)
        assert w.dtype == (object if object in batch.dtypes else np.int64)
    for t, shift in enumerate(shifts):
        alone = batch_of(moduli, [shift], epsilon, delta)
        slots, L, s_max = shift_slots(alone, 0)
        assert (batch.Ls[t], batch.bounds[t], batch.dtypes[t]) == (L, s_max, alone.dtypes[0])
        for (r1, r2, w, cut), (a1, a2, aw) in zip(batch.pairs, slots, strict=True):
            part = slice(cut[t], cut[t + 1])
            assert (r1[part].tolist(), r2[part].tolist(), w[part].tolist()) == (
                a1.tolist(), a2.tolist(), aw.tolist())
        assert [w.dtype for w in batch.weights(t)] == [aw.dtype for *_, aw in slots]
        reference, reference_L = reference_slots(moduli, shift, epsilon, delta)
        assert L == reference_L
        assert [list(zip(zip(r1.tolist(), r2.tolist()), w.tolist())) for r1, r2, w in slots] == reference
        maxima = [max(w for _, w in pair) for pair in reference if pair]
        assert s_max == (sum(maxima) if len(maxima) == len(reference) else 0)


class TestBatchedSlots:
    @given(batch_instances())
    @settings(max_examples=60, deadline=None)
    def test_each_shift_as_if_alone(self, instance):
        assert_batch_is_each_shift_alone(*instance)

    @pytest.mark.parametrize("epsilon", [None, F(1, 12)])
    def test_object_shift_among_int64_shifts(self, epsilon):
        """The first pair's stack runs on object arrays for all three shifts,
        and each shift's weights keep the dtype it needs alone; 25 points a
        step split each 12x10 grid every two rows."""
        moduli, delta = (12, 10, 6, 8), F(1, 12)
        shifts = [(F(1, 24),) * 4, HUGE + (F(1, 3), F(5, 128)), (F(1, 7), F(3, 7), F(5, 7), F(-2, 7))]
        if epsilon is None:
            moduli, shifts = moduli[:2], [shift[:2] for shift in shifts]
        grids = [math.lcm(12, 10, *(a.denominator for a in shift[:2])) for shift in shifts]
        assert grids[0] != grids[2] and grids[1] > 1 << 63
        batch = batch_of(moduli, shifts, epsilon, delta)
        dtypes = [w.dtype for t in range(3) for w in batch.weights(t)]
        assert dtypes == ([np.int64] * 3 if epsilon is None else
                          [np.int64, np.int64, object, object, np.int64, np.int64])
        assert_batch_is_each_shift_alone(moduli, shifts, epsilon, delta, chunk=25)

    # a shift whose first pair has no slots on moduli (2, 2, 12, 10)
    EMPTY_FIRST = (F(5, 24), F(23, 48))

    @pytest.mark.parametrize("kinds", ["int64", "object", "mixed"])
    def test_each_shift_gets_its_weight_bound(self, kinds):
        """Each shift of a batch is handed s_max, the sum over its pairs of
        the largest scaled weight, which the walk takes as its bound: on
        int64 weights, on object weights past 2^62, and on a batch of both;
        0 for a shift with a pair that has no slots."""
        moduli, epsilon, delta = (2, 2, 12, 10), F(1, 12), F(1, 12)
        int64 = [(F(1, 24),) * 4, (F(1, 7), F(3, 7), F(5, 7), F(-2, 7)),
                 self.EMPTY_FIRST + (F(1, 24),) * 2]
        huge = [(F(1, 24),) * 2 + HUGE, (F(1, 3), F(5, 128)) + HUGE, self.EMPTY_FIRST + HUGE]
        shifts = {"int64": int64, "object": huge, "mixed": int64[:2] + huge[1:]}[kinds]
        batch = batch_of(moduli, shifts, epsilon, delta)
        bounds = batch.bounds
        sums = [sum(int(w.max()) for w in ws) if all(len(w) for w in ws) else 0
                for ws in map(batch.weights, range(len(shifts)))]
        assert bounds == sums and bounds[-1] == 0 and all(bounds[:-1])
        past = [bound > 1 << 62 for bound in bounds[:-1]]
        assert past == {"int64": [False] * 2, "object": [True] * 2,
                        "mixed": [False, False, True]}[kinds]
        assert_batch_is_each_shift_alone(moduli, shifts, epsilon, delta)

    @pytest.mark.parametrize("chunk, sizes", [(None, [5]), (144, [2, 2, 1]), (1, [1] * 5)])
    def test_search_tests_its_grids_once(self, monkeypatch, chunk, sizes):
        """A search tests its trials' grids in batches of at most
        _PRODUCT_CHUNK points (here 72 a trial), each trial once, in trial
        order, and each walk, the winner's included, reads a trial's slots
        from them; the batches do not change the result."""
        moduli, expected = (6, 6, 6, 6), search_shift((6, 6, 6, 6), F(1, 4), F(1, 6), 5, 0)
        batches, scans, pair_slots, scan = [], [], groups._pair_slots, groups._slice_scan
        monkeypatch.setattr(groups, "_pair_slots", lambda *args: (
            batches.append(args[1]), pair_slots(*args))[1])
        monkeypatch.setattr(groups, "_slice_scan", lambda *args: (
            scans.append(args[5]), scan(*args))[1])
        if chunk is not None:
            monkeypatch.setattr(groups, "_PRODUCT_CHUNK", chunk)
        shift, j, dset = search_shift(moduli, F(1, 4), F(1, 6), 5, 0)
        assert [len(batch) for batch in batches] == sizes
        assert sum(batches, []) == [sample_numerators(trial_rng(0, "shift", t), moduli)
                                    for t in range(5)]
        assert len(scans) == 6 and all(slots is not None for slots in scans)
        assert scans[-1] in scans[:-1]
        assert (shift, j, dset.elements, dset.provenance) == (
            expected[0], expected[1], expected[2].elements, expected[2].provenance)

    @pytest.mark.parametrize("moduli, epsilon, delta, trials", [
        ((6, 6, 6, 6), F(1, 4), F(1, 6), 16), ((12, 12), None, F(1, 12), 5),
        ((5, 5, 5, 5), F(1, 12), F(1, 5), 1), ((7, 4, 5, 6), F(1, 12), F(1, 7), 3),
    ])
    def test_trials_pick_and_the_winner_decodes(self, monkeypatch, moduli, epsilon, delta,
                                                 trials):
        """A search walks best_slice once per trial and once more for its
        winner: the trials read only (j, count), and only the last walk
        decodes a pre-image, the one the set holds."""
        calls, walk = [], groups.best_slice

        def spy(*args, **kwargs):
            result = walk(*args, **kwargs)
            calls.append((kwargs.get("pre_image", True), result))
            return result

        monkeypatch.setattr(groups, "best_slice", spy)
        shift, j, dset = search_shift(moduli, epsilon, delta, trials, 0)
        assert [pre_image for pre_image, _ in calls] == [False] * trials + [True]
        assert all(result[2:] == (None, None) for _, result in calls[:-1])
        last = calls[-1][1]
        assert (last[0], last[1], last[3]) == (j, dset.size, list(dset.elements))
        assert (j, dset.size) in [result[:2] for _, result in calls[:-1]]


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
        with pytest.raises(BudgetError) as exc:
            best_slice((12, 12), (0, 0), F(1, 12), F(1, 12))
        assert str(exc.value) == ("1 pair grids of a shift, 144 points, walked 1 times,"
                                  " exceeds the work budget of 143 points")
        monkeypatch.setattr(budget, "PRODUCT", 24)
        assert best_slice((12, 12), (0, 0), None, F(1, 12))[1] == 1
        with pytest.raises(BudgetError) as exc:
            best_slice((12, 12), (0, 0), None, F(1, 12), walks=2)
        assert str(exc.value) == ("1 pair grids of a shift, 24 points, walked 2 times,"
                                  " exceeds the work budget of 24 points")

    def test_pair_grids_charged_together(self, monkeypatch):
        """Each 12x12 block grid fits a budget of 144 points, but not both:
        a shift's grids are one charge, and past it the product is next."""
        monkeypatch.setattr(budget, "PRODUCT", 287)
        with pytest.raises(BudgetError) as exc:
            best_slice((12, 12, 12, 12), (0,) * 4, F(1, 12), F(1, 12))
        assert str(exc.value) == ("2 pair grids of a shift, 288 points, walked 1 times,"
                                  " exceeds the work budget of 287 points")
        monkeypatch.setattr(budget, "PRODUCT", 288)
        with pytest.raises(BudgetError) as exc:
            best_slice((12, 12, 12, 12), (0,) * 4, F(1, 12), F(1, 12))
        assert str(exc.value) == ("slot product of 1521 tuples, walked 1 times,"
                                  " exceeds the work budget of 288 points")

    def test_search_refused_before_sampling(self, monkeypatch):
        """zm with 10^6 moduli 4 once tested 58255 pair grids (25 s) and
        fpn --p 7 --n 1000000 --trials 3 10927 (3 s) before the budget
        refused them: every pair grid's points are charged for all the
        search's walks before a shift is drawn, m1 * m2 each for the block
        and m1 + m2 for the box."""
        def no_shift(rng, moduli):
            raise AssertionError("a shift was sampled")

        monkeypatch.setattr(groups, "sample_numerators", no_shift)
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
        for limit in (144 * cost - 1, 288 * cost - 1):
            monkeypatch.setattr(budget, "PRODUCT", limit)
            with pytest.raises(BudgetError) as exc:
                best_slice(moduli, shift, eps, eps)
            assert str(exc.value) == ("2 pair grids of a shift, 2304 points, walked 1 times,"
                                      f" exceeds the work budget of {limit} points")
        monkeypatch.setattr(budget, "PRODUCT", 36 * 36 * cost - 1)
        with pytest.raises(BudgetError) as exc:
            best_slice(moduli, shift, eps, eps)
        assert str(exc.value) == ("slot product of 1296 tuples, walked 1 times,"
                                  " exceeds the work budget of 10367 points")
        monkeypatch.setattr(budget, "PRODUCT", 36 * 36 * cost)
        assert best_slice(moduli, shift, eps, eps)[1] > 0

    @pytest.mark.parametrize("options, walks", [
        (BuildOptions(trials=5), [6] * 11 + [1]),
        (BuildOptions(shift=(F(1, 7),) * 4), [1] * 2),
        (BuildOptions(shift=(F(1, 7),) * 4, slice_index=3), [1] * 2),
    ])
    def test_builds_charge_every_walk(self, monkeypatch, options, walks):
        """A search walks its trials and then the winner once more, for its
        pre-image and histogram; each trial's grids (one charge) and product
        are charged for all of them, and the search first charges its pair
        grids for all of them.  The winner's walk reuses its trial's slots,
        so only its product is charged.  An explicit shift walks once, with
        or without a slice."""
        charged, charge = [], budget.charge

        def spy(name, what, cost):
            charged.append(int(re.search(r"walked (\d+) times", what)[1]))
            charge(name, what, cost)

        monkeypatch.setattr(budget, "charge", spy)
        build_group_set((6, 6, 6, 6), options)
        assert charged == walks  # one grid charge and one product per tested shift

    # the refusal one point below each charge of two admitted 5-trial
    # searches: the default 6^4 search, whose grid charges all equal the
    # search's first charge, and a 12^4 search whose second and fourth shifts
    # run on object arrays, where the second shift's grids (13824 points) are
    # refused before trial 0 is walked
    EDGES = {
        "6^4": {
            47: "2 pair grids of 72 points, walked 6 times, exceeds the work budget of 47 points",
            287: "2 pair grids of 72 points, walked 6 times, exceeds the work budget of 287 points",
            383: "2 pair grids of 72 points, walked 6 times, exceeds the work budget of 383 points",
            431: "2 pair grids of 72 points, walked 6 times, exceeds the work budget of 431 points",
        },
        "mixed": {
            1680: "2 pair grids of 288 points, walked 6 times,"
                  " exceeds the work budget of 1680 points",
            1727: "2 pair grids of 288 points, walked 6 times,"
                  " exceeds the work budget of 1727 points",
            7775: "2 pair grids of a shift, 2304 points, walked 6 times,"
                  " exceeds the work budget of 7775 points",
            10085: "2 pair grids of a shift, 2304 points, walked 6 times,"
                   " exceeds the work budget of 10085 points",
            13823: "2 pair grids of a shift, 2304 points, walked 6 times,"
                   " exceeds the work budget of 13823 points",
            62207: "slot product of 1296 tuples, walked 6 times,"
                   " exceeds the work budget of 62207 points",
            70847: "slot product of 1476 tuples, walked 6 times,"
                   " exceeds the work budget of 70847 points",
        },
    }
    MIXED = [(F(1, 24),) * 4, (F(1, 10**7 + 19),) * 4, (F(5, 192), F(7, 192), F(1, 16), F(0)),
             (F(1, 24), F(1, 10**7 + 19), F(1, 24), F(1, 24)), (F(3, 96),) * 4]

    @pytest.mark.parametrize("case, admitted, chunk", [
        ("6^4", 432, None), ("mixed", 70848, None), ("mixed", 70848, 576)])
    def test_search_refusals_at_every_charge_edge(self, monkeypatch, case, admitted, chunk):
        """Testing the trials' grids in batches (one, or of two trials at
        576 points a batch) refuses the same searches with the same
        message: every shift of a batch is charged before the batch is
        tested, so a shift's grids over the budget stop the search at once."""
        if chunk is not None:
            monkeypatch.setattr(groups, "_PRODUCT_CHUNK", chunk)

        def build():
            if case == "6^4":
                return build_group_set((6, 6, 6, 6), BuildOptions(trials=5))
            # the MIXED shifts as numerators over a grid of 192 * (10^7 + 19)
            # points a unit, which reduce to the shifts' own denominators
            level = 16 * (10**7 + 19)
            shifts = iter([[int(a * level * 12) for a in shift] for shift in self.MIXED])
            monkeypatch.setattr(groups, "SHIFT_GRID_LEVEL", level)
            monkeypatch.setattr(groups, "sample_numerators", lambda rng, moduli: next(shifts))
            return build_group_set((12,) * 4, BuildOptions(epsilon=F(1, 12), trials=5))

        for limit, message in self.EDGES[case].items():
            monkeypatch.setattr(budget, "PRODUCT", limit)
            with pytest.raises(BudgetError) as exc:
                build()
            assert str(exc.value) == message
        monkeypatch.setattr(budget, "PRODUCT", admitted)
        assert build().size == {"6^4": 2, "mixed": 16}[case]

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
                            lambda *args: (scans.append(args[5]), scan(*args))[1])
        build_group_set(moduli, options)
        assert len(scans) == walks
        if options.shift is None:  # the winner's walk repeats a trial's slots
            assert scans[-1] in scans[:-1]


# -- the object-path twin ---------------------------------------------------

# the benchmark's builds, with the modules whose exact_dtype calls each makes
BENCHMARK_BUILDS = {
    "zm 16^4 --epsilon 1/12": (lambda seed: build_group_set(
        (16,) * 4, BuildOptions(epsilon=F(1, 12), seed=seed)), {"groups", "verify"}),
    "fpn 11^3": (lambda seed: build_fpn_set(11, 3, BuildOptions(seed=seed)),
                 {"groups", "verify"}),
    "int --N 500000 --trials 4": (lambda seed: build_integer_set(
        500000, BuildOptions(trials=4, seed=seed)), {"groups", "verify"}),
    "zm 6^4": (lambda seed: build_group_set((6,) * 4, BuildOptions(seed=seed)),
               {"groups", "verify"}),
    "int --N 5000": (lambda seed: build_integer_set(5000, BuildOptions(seed=seed)),
                     {"groups", "verify"}),
    "int-direct --N 2000 --n-override 4": (lambda seed: build_integer_set_direct(
        2000, n=4, options=BuildOptions(seed=seed)), {"groups", "integers", "verify"}),
    "int-direct --N 100000 --trials 4": (lambda seed: build_integer_set_direct(
        100000, options=BuildOptions(trials=4, seed=seed)), {"groups", "integers", "verify"}),
    "behrend --N 10000": (lambda seed: behrend_set(10000, True), {"baselines", "verify"}),
}


def test_the_twin_reaches_every_exact_dtype_caller():
    callers = set().union(*(modules for _, modules in BENCHMARK_BUILDS.values()))
    assert callers == {"baselines", "groups", "integers", "verify"}


@pytest.mark.parametrize("build", BENCHMARK_BUILDS)
def test_object_twin_of_the_benchmark_builds(monkeypatch, build):
    """Forcing exact_dtype, the one switch of groups, integers, verify and
    baselines, to object arrays changes no element, provenance or
    certificate.  Each call is recorded with its calling module, so a call
    site that bound exact_dtype by name, which the patch cannot reach,
    fails here."""
    builder, modules = BENCHMARK_BUILDS[build]

    def outputs(seed):
        dset = builder(seed)
        return dset.elements, dset.provenance, dset.verify().to_jsonable()

    int64 = [outputs(seed) for seed in (0, 1)]
    callers = []

    def forced(bound):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return object

    monkeypatch.setattr(rational, "exact_dtype", forced)
    assert [outputs(seed) for seed in (0, 1)] == int64
    assert set(callers) == {f"apfree.{module}" for module in modules}
