"""Exhaustive verifiers, grid-sweep kernels, area oracle and density."""

import contextlib
import functools
import math
import random
import re
from fractions import Fraction as F
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apfree.dsets as dsets
import apfree.verify as verify_module
from apfree import (DiscreteSet, behrend_set, build_fpn_set, build_group_set, build_integer_set,
                    build_integer_set_direct, halfbox_set)
from apfree.blocks import BuildingBlock
from apfree.gridscan import (
    _piece_masks,
    density_count,
    run_sweeps,
    scaled_in_block,
    weight_table,
)
from apfree.verify import (
    SWEEP_SUBJECTS,
    area_oracle,
    check_sweeps,
    density_estimate,
    verify_group_set,
    verify_integer_set,
)
from apfree.storage import read_set, write_set
from oracle import (Block, halve_mod, is_progression_mod1, loop_group_progressions,
                    loop_integer_progressions, midpoint_candidates)


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

    @pytest.mark.parametrize("moduli, elements, message", [
        # the first out-of-range element in sorted order is named
        ((5, 5), [(1, 7), (0, 9), (3, -1), (2, 2)], "element (0, 9) out of range"),
        ((5, 5), [(4, 4), (9, 9), (-1, 0)], "element (-1, 0) out of range"),
        ((5,), [(1,), (6,), (5,)], "element (5,) out of range for moduli (5,)"),
        # duplicates are reported before any range error
        ((5, 5), [(1, 2), (9, 9), (1, 2)], "duplicate elements"),
        ((5, 5), [(True, 0), (1, 0)], "duplicate elements"),
        # ragged, past-int64 and huge-moduli input
        ((5, 5), [(1, 2, 3), (0, 1)], "element (1, 2, 3) out of range"),
        ((5, 5), [(10**30, 1), (0, 0)], f"element ({10**30}, 1) out of range"),
        ((2**40, 2**40), [(2**40, 0), (3, 2**41)], f"element (3, {2**41}) out of range"),
    ])
    def test_invalid_elements_rejected(self, moduli, elements, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_group_set(moduli, elements)

    def test_unsorted_generator_input(self):
        elements = [(2, 2), (0, 0), (1, 1)]
        report = verify_group_set((5, 5), iter(elements), all_counterexamples=True)
        assert report.counterexample == {"x": [0, 0], "y": [1, 1], "z": [2, 2]}
        assert report.to_jsonable() == verify_group_set(
            (5, 5), sorted(elements), all_counterexamples=True).to_jsonable()

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
        with pytest.raises(ValueError, match=re.escape("elements outside 1..10")):
            verify_integer_set(10, [0, 3])
        with pytest.raises(ValueError, match=re.escape("elements outside 1..10")):
            verify_integer_set(10, [3, 11])
        # duplicates are reported before any range error, as for group sets
        with pytest.raises(ValueError, match="duplicate elements"):
            verify_integer_set(10, [11, 3, 3])

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


class TestElementsCheckedOnce:
    """A set's elements are normalised once, when its DiscreteSet is made,
    and its certificate scans them as they are."""

    @pytest.fixture
    def normalised(self, monkeypatch):
        """The list of what each normaliser call returned, filled by spies
        where verify and dsets bind the normalisers."""
        results = []
        for name in ("group_elements", "integer_elements"):
            def spy(*args, real=getattr(verify_module, name)):
                results.append(real(*args))
                return results[-1]
            monkeypatch.setattr(verify_module, name, spy)
            monkeypatch.setattr(dsets, name, spy)
        return results

    @pytest.mark.parametrize("build", [
        lambda: build_group_set((6, 6, 6, 6)),
        lambda: build_fpn_set(5, 3),  # its Z_5^4 set is normalised too, once
        lambda: build_integer_set(5000),  # and so is its group set
        lambda: build_integer_set_direct(2000, n=4),
        lambda: behrend_set(10000),
        lambda: halfbox_set(5, 4),
    ])
    def test_build_then_verify(self, normalised, build):
        dset = build()
        made = list(normalised)
        assert [e is dset.elements for e in made].count(True) == 1
        assert dset.verify(all_counterexamples=True).passed
        assert normalised == made

    def test_read_then_verify(self, normalised, tmp_path):
        write_set(halfbox_set(5, 4), tmp_path, "h")
        dset = read_set(tmp_path / "h.set")
        assert len(normalised) == 2 and normalised[1] is dset.elements
        assert dset.verify().passed
        assert len(normalised) == 2

    def test_public_verifiers_normalise_their_input(self, normalised):
        assert verify_group_set((5, 5), [(2, 2), (0, 0)]).passed
        assert verify_integer_set(10, [3, 1]).passed
        assert len(normalised) == 2

    def test_checked_for_another_universe_is_checked_again(self):
        dset = DiscreteSet(kind="group", moduli=(6, 6), elements=[(0, 5), (1, 0)])
        with pytest.raises(ValueError, match=re.escape("element (0, 5) out of range")):
            verify_group_set((5, 5), dset.elements)
        with pytest.raises(ValueError, match="outside 1..4"):
            verify_integer_set(4, DiscreteSet(kind="integer", bound=9, elements=[2, 5]).elements)


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

    def test_list_cap(self, monkeypatch):
        """{1..5} has four progressions: a cap of 4 lists them, a cap of 3
        refuses the list, and the first-hit scan ignores the cap."""
        from apfree import budget

        elements = [1, 2, 3, 4, 5]
        monkeypatch.setattr(budget, "COUNTEREXAMPLES", 4)
        report = verify_integer_set(5, elements, all_counterexamples=True)
        assert len(report.counts["all_counterexamples"]) == 4
        monkeypatch.setattr(budget, "COUNTEREXAMPLES", 3)
        with pytest.raises(budget.BudgetError, match="work budget of 3 progressions"):
            verify_integer_set(5, elements, all_counterexamples=True)
        with pytest.raises(budget.BudgetError, match="work budget of 3 progressions"):
            verify_group_set((7,), [(e,) for e in elements], all_counterexamples=True)
        assert not verify_integer_set(5, elements).passed

    @pytest.mark.parametrize("kind", ["group", "integer"])
    def test_list_is_a_read_only_sequence(self, kind):
        """The list reads as the oracle's list: by index, negative too, by
        slice and in full; each read is fresh, so changing one leaves later
        reads alone, and the list itself cannot be changed."""
        rng = random.Random(5)
        if kind == "group":
            elements = sorted({tuple(rng.randrange(9) for _ in range(3)) for _ in range(60)})
            listed = verify_group_set((9, 9, 9), elements, all_counterexamples=True)
            expected = loop_group_progressions((9, 9, 9), elements)
        else:
            elements = sorted(rng.sample(range(1, 300), 60))
            listed = verify_integer_set(300, elements, all_counterexamples=True)
            expected = loop_integer_progressions(elements)
        listed = listed.counts["all_counterexamples"]
        n = len(expected)
        assert n > 10 and len(listed) == n
        assert listed == expected and expected == listed and list(listed) == expected
        assert listed != expected[:-1] and listed != tuple(expected) and listed != expected[0]
        for i in (0, 3, n - 1, -1, -n):
            assert listed[i] == expected[i]
        for part in (slice(None), slice(2, 9), slice(None, None, -3), slice(-5, None),
                     slice(n + 5, 2), slice(1, -1, 2)):
            assert listed[part] == expected[part]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                listed[i]
        first = listed[0]
        first["y"] = None
        if kind == "group":
            first["x"].append(99)
            for item in listed:
                item["z"].clear()
        assert listed[0] == expected[0] and list(listed) == expected
        with pytest.raises(TypeError):
            listed[0] = first
        with pytest.raises(TypeError):
            hash(listed)
        with pytest.raises(ValueError):
            listed.xyz[0, 0] = 1

    def test_first_hit_mode_leaves_counts_empty(self):
        report = verify_integer_set(10, [1, 2, 3, 4, 5])
        assert report.counts == {}
        assert report.counterexample == {"x": 1, "y": 2, "z": 3}


def check_scan(verify_set, universe, elements, expected):
    """Both modes of one verifier against the oracle's progression list."""
    first = verify_set(universe, elements)
    every = verify_set(universe, elements, all_counterexamples=True)
    for report in (first, every):
        assert report.passed == (not expected)
        assert report.counterexample == (expected[0] if expected else None)
        assert report.checked == math.comb(len(elements), 2)
    assert first.counts == {}
    assert every.counts["all_counterexamples"] == expected
    return expected


def check_group(moduli, elements):
    return check_scan(verify_group_set, moduli, elements,
                      loop_group_progressions(moduli, elements))


def check_integer(bound, elements):
    return check_scan(verify_integer_set, bound, elements, loop_integer_progressions(elements))


def pair_index(elements, x, z):
    """Position of the pair {x, z} in the row-major scan of sorted elements."""
    elems = sorted(elements)
    a, b = elems.index(x), elems.index(z)
    return a * (2 * len(elems) - a - 1) // 2 + (b - a - 1)


def planted(rng, moduli, count):
    """count random progressions (x, y, z) in the group, flattened."""
    out = []
    for _ in range(count):
        x = tuple(rng.randrange(m) for m in moduli)
        d = tuple(rng.randrange(m) for m in moduli)
        out += [x, tuple((xi + di) % m for xi, di, m in zip(x, d, moduli)),
                tuple((xi + 2 * di) % m for xi, di, m in zip(x, d, moduli))]
    return out


def group_key(moduli, y):
    """Mixed-radix code of y with each coordinate of an even modulus m
    reduced mod m/2: the key the group scan gives an element, and, for the
    smallest midpoint root of a pair, the pair's base."""
    key = 0
    for r, m in zip(y, moduli):
        key = key * m + r % (m // 2 if m % 2 == 0 else m)
    return key


def presence_passes(moduli, elements):
    """The pairs x < z of the sorted elements that pass the parity filter
    and whose base shares a presence slot with some element's key, for a
    table of 2^b >= _SLOTS·n slots and slot (key ^ (key >> b)) mod 2^b:
    the pairs the group scan looks up, by a pair loop."""
    elems = sorted(elements)
    b = (verify_module._SLOTS * len(elems) - 1).bit_length()
    slot = lambda key: (key ^ (key >> b)) % (1 << b)  # noqa: E731
    marked = {slot(group_key(moduli, y)) for y in elems}
    roots = lambda x, z: [halve_mod(xi + zi, m) for xi, zi, m in zip(x, z, moduli)]  # noqa: E731
    return [(x, z) for i, x in enumerate(elems) for z in elems[i + 1:]
            if all(roots(x, z))
            and slot(group_key(moduli, [r[0] for r in roots(x, z)])) in marked]


def planted_triples(draw, universe, count):
    """count progressions (x, x + d, x + 2d) drawn in Z_m1 x ... (universe a
    tuple of moduli) or in 1..N (universe an int), flattened."""
    out = []
    for _ in range(count):
        if isinstance(universe, int):
            d = draw(st.integers(1, universe // 3))
            x = draw(st.integers(1, universe - 2 * d))
            out += [x, x + d, x + 2 * d]
        else:
            element = st.tuples(*(st.integers(0, m - 1) for m in universe))
            x, d = draw(element), draw(element)
            out += [tuple((xi + k * di) % m for xi, di, m in zip(x, d, universe)) for k in range(3)]
    return out


@st.composite
def big_group_sets(draw, moduli):
    """Sets in Z_m1 x ... of huge moduli: coordinates near 0, near the top
    (where sums wrap) or anywhere, and up to three planted progressions."""
    coord = lambda m: (st.integers(0, min(20, m - 1)) | st.integers(max(0, m - 20), m - 1)  # noqa: E731
                       | st.integers(0, m - 1))
    elements = draw(st.sets(st.tuples(*(coord(m) for m in moduli)), max_size=12))
    return sorted(elements | set(planted_triples(draw, moduli, draw(st.integers(0, 3)))))


@st.composite
def big_integer_sets(draw, bound):
    near = st.integers(1, 30) | st.integers(bound - 30, bound) | st.integers(1, bound)
    elements = draw(st.sets(near, max_size=15))
    return sorted(elements | set(planted_triples(draw, bound, draw(st.integers(0, 3)))))


def even_coordinate(m):
    """Any residue, or an even one, so that pairs often pass the parity filter."""
    return st.integers(0, m - 1) | st.integers(0, m // 2 - 1).map(lambda h: 2 * h)


even_group_sets = st.sampled_from(
    [(2, 4, 6), (4, 4, 3, 4), (8, 2, 2, 2, 5), (2,) * 5 + (6,), (12, 10)]
).flatmap(
    lambda moduli: st.tuples(
        st.just(moduli),
        st.sets(st.tuples(*(even_coordinate(m) if m % 2 == 0 else st.integers(0, m - 1)
                            for m in moduli)), max_size=30),
    )
)


mixed_group_sets = st.sampled_from(
    [(4,), (7,), (4, 3), (6, 5, 2), (2, 9, 4), (8, 3, 6, 5), (2, 2, 2, 3), (4, 4, 6),
     (8, 2, 12)]
).flatmap(
    lambda moduli: st.tuples(
        st.just(moduli),
        st.sets(st.tuples(*(st.integers(0, m - 1) for m in moduli)), max_size=30),
    )
)


@contextlib.contextmanager
def steps_within(chunk):
    """Run the scans with _CHUNK = chunk and check every lookup: at most
    chunk keys per call, and at most chunk hits per step unless the step
    holds the hits of one pair alone.  Yields the list of (keys, [hits per
    step]) of each call."""
    lookup, calls = verify_module._members, []

    def members(keys, base):
        steps = []
        calls.append((len(base), steps))
        for p, k in lookup(keys, base):
            steps.append(len(p) if len(p) <= chunk or (p == p[0]).all() else None)
            yield p, k

    with mock.patch.object(verify_module, "_CHUNK", chunk), \
            mock.patch.object(verify_module, "_members", members):
        yield calls
    assert all(keys <= chunk and None not in steps for keys, steps in calls)


class TestScanAgainstLoopOracle:
    """The chunked numpy scans against the pair loop they replaced."""

    @given(mixed_group_sets, st.sampled_from([1, 2, 3, 5, 8, 64]))
    @settings(max_examples=150, deadline=None)
    def test_group_chunk_boundaries(self, case, chunk):
        # tiny chunks: pairs and hits cross many chunk boundaries, and the
        # first hit usually sits in a later chunk
        moduli, elements = case
        with steps_within(chunk):
            check_group(moduli, sorted(elements))

    @given(st.sets(st.integers(1, 300), max_size=40), st.sampled_from([1, 2, 7, 64]))
    @settings(max_examples=150, deadline=None)
    def test_integer_chunk_boundaries(self, elements, chunk):
        with steps_within(chunk):
            check_integer(300, sorted(elements))

    @given(st.sets(st.integers(1, 3000), max_size=30), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_integers_sharing_their_presence_slots(self, multiples, chunk):
        # multiples of 2^20 and their pairs' midpoints share their low 19
        # bits, so they fall in at most eight presence slots, and most pairs
        # reach the exact lookup
        with steps_within(chunk):
            check_integer(3000 << 20, sorted(x << 20 for x in multiples))

    @given(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 7)), max_size=30),
           st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_group_keys_sharing_their_low_bits(self, cells, chunk):
        # keys a·4096 + (c·512 mod 2048) share their low 9 bits
        with steps_within(chunk):
            check_group((9, 4096), sorted((a, c << 9) for a, c in cells))

    @given(even_group_sets, st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_even_moduli_with_many_solutions(self, case, chunk):
        # up to 2^6 midpoint solutions a pair, and pairs that often pass
        # the parity filter
        moduli, elements = case
        with steps_within(chunk):
            check_group(moduli, sorted(elements))

    @given(st.sampled_from([(2**40, 2**70), (2**70,), (5, 2**70), (2**40, 3)]).flatmap(
        lambda moduli: st.tuples(st.just(moduli), big_group_sets(moduli))), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_group_moduli_past_int64(self, case, chunk):
        # object arrays for all but Z_(2^40) x Z_3, whose int64 key sums
        # reach 2^43
        moduli, elements = case
        with steps_within(chunk):
            check_group(moduli, elements)

    @given(st.sampled_from([2**61 + 2**40, 2**70]).flatmap(
        lambda bound: st.tuples(st.just(bound), big_integer_sets(bound))), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_integer_bound_past_2_61(self, case, chunk):
        # twice the bound is past 2^62, so the scan runs on object arrays
        bound, elements = case
        with steps_within(chunk):
            check_integer(bound, elements)

    @pytest.mark.parametrize("moduli, dtype", [
        ((2**61,), np.int64), ((2**61 + 1,), object),
        ((2**30, 2**30), np.int64), ((2**30, 2**30 + 1), object),
        ((3, 2**60 // 3), np.int64), ((3, 2**60 // 3 + 2), object),
    ])
    def test_key_sum_bound_edge(self, monkeypatch, moduli, dtype):
        # the key sums of k moduli stay below 2·k·prod(m): int64 exactly
        # when that is at most 2^62, with the same reports as object arrays
        import apfree.gridscan as gridscan

        assert (2 * len(moduli) * math.prod(moduli) <= 2**62) == (dtype is np.int64)
        assert abs(2 * len(moduli) * math.prod(moduli) - 2**62) <= 2**33
        rng = random.Random(str(moduli))
        elements = set(planted(rng, moduli, 4))
        elements |= {tuple(m - k for m in moduli) for k in (1, 2, 3)}
        elements |= {tuple(rng.randrange(max(0, m - 100), m) for m in moduli) for _ in range(20)}
        elements = sorted(elements)
        exact, chosen = gridscan.exact_dtype, []
        monkeypatch.setattr(gridscan, "exact_dtype",
                            lambda bound: chosen.append(exact(bound)) or chosen[-1])
        reports = [verify_group_set(moduli, elements, all_counterexamples=a).to_jsonable()
                   for a in (False, True)]
        assert chosen == [dtype, dtype]
        monkeypatch.setattr(gridscan, "exact_dtype", lambda bound: object)
        assert [verify_group_set(moduli, elements, all_counterexamples=a).to_jsonable()
                for a in (False, True)] == reports
        progressions = reports[1]["counts"]["all_counterexamples"]
        assert progressions == loop_group_progressions(moduli, elements)
        assert len(progressions) >= 5

    @pytest.mark.parametrize("moduli", [(4, 4, 6), (8, 2, 12), (2,) * 6 + (4, 5), (16, 16, 9)])
    def test_one_key_per_pair_past_the_parity_filter(self, moduli):
        # a pair whose sum is even in every even coordinate, and whose base
        # shares a presence slot with an element's key, looks up its base
        # once, not each of its 2^e midpoint candidates; every other pair
        # looks nothing up
        rng = random.Random(len(moduli))
        elements = {tuple(rng.randrange(m) for m in moduli) for _ in range(40)}
        elements = sorted(elements | set(planted(rng, moduli, 4)))
        kept = sum(all((x + z) % 2 == 0 for x, z, m in zip(u, v, moduli) if m % 2 == 0)
                   for i, u in enumerate(elements) for v in elements[i + 1:])
        # every left-side search of the scan is a key lookup
        searchsorted, keys = np.searchsorted, []

        def search(a, v, side="left", **kwargs):
            if side == "left":
                keys.append(np.size(v))
            return searchsorted(a, v, side=side, **kwargs)

        with mock.patch.object(np, "searchsorted", search):
            report = verify_group_set(moduli, elements, all_counterexamples=True)
        assert report.counts["all_counterexamples"] == loop_group_progressions(moduli, elements)
        assert sum(keys) == len(presence_passes(moduli, elements)) > 0
        assert sum(keys) <= kept
        if moduli == (16, 16, 9):
            # 40 keys among 8·8·9: the table drops most of the kept pairs
            assert 3 * sum(keys) < kept

    def test_pair_with_an_empty_presence_slot_makes_no_search(self):
        # 2 + 4, 2 + 8 and 4 + 8 are even, and their midpoints 3, 5 and 6
        # fold to slots that no element's key marks: nothing is looked up
        searchsorted, keys = np.searchsorted, []

        def search(a, v, side="left", **kwargs):
            if side == "left":
                keys.append(np.size(v))
            return searchsorted(a, v, side=side, **kwargs)

        with mock.patch.object(np, "searchsorted", search):
            assert verify_integer_set(10, [2, 4, 8]).passed
            assert verify_group_set((11,), [(2,), (4,), (8,)]).passed
        assert keys == []
        # an element that agrees with 3 in its low 2b bits marks 3's slot,
        # so the pair (2, 4) makes one lookup, which finds no 3
        b = (verify_module._SLOTS * 4 - 1).bit_length()
        collider = 3 + 4**b
        assert (collider ^ (collider >> b)) % (1 << b) == 3
        with mock.patch.object(np, "searchsorted", search):
            assert verify_integer_set(collider, [2, 4, 8, collider]).passed
        assert keys == [1]

    @pytest.mark.parametrize("chunk", [10, 40])
    def test_hit_steps_split_between_pairs(self, chunk):
        # every pair of (u, 0), (u, 1), (u, 2) in Z_2^4 x Z_3 has all 16
        # elements (v, c) as midpoints: at chunk 40 a step holds two pairs'
        # hits, at chunk 10 one pair's 16 hits are one step
        moduli = (2,) * 4 + (3,)
        elements = sorted(product(*(range(m) for m in moduli)))
        with steps_within(chunk) as calls:
            expected = check_group(moduli, elements)
        assert len(expected) == 48 * 16
        assert max(h for _, steps in calls for h in steps) == (32 if chunk == 40 else 16)

    def test_first_hit_in_later_chunk_at_default_size(self):
        # 0/1 ternary digits are progression-free; the only progression is
        # the top three elements, whose pair comes near the end of the scan
        free = [1 + sum(3**i for i in range(9) if k >> i & 1) for k in range(2**9)]
        top = [30000, 30005, 30010]
        elements = free + top
        expected = check_integer(40000, elements)
        assert expected == [{"x": 30000, "y": 30005, "z": 30010}]
        assert pair_index(elements, 30000, 30010) > verify_module._CHUNK
        # the same set as (x, 0) in Z_M x Z_2: no wrap, an even modulus, and
        # the first hit again past the first chunk of pairs
        group = [(x, 0) for x in elements]
        expected = check_group((80001, 2), group)
        assert expected == [{"x": [30000, 0], "y": [30005, 0], "z": [30010, 0]}]
        assert pair_index(group, (30000, 0), (30010, 0)) > verify_module._CHUNK // 2

    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_sets_below_three_elements(self, size):
        check_integer(10, [3, 7][:size])
        check_group((4, 5), [(0, 1), (2, 3)][:size])

    def test_z2_power_has_no_progression(self):
        rng = random.Random(12)
        moduli = (2,) * 14
        elements = rng.sample(list(product(range(2), repeat=14)), 60)
        assert check_group(moduli, elements) == []

    @pytest.mark.parametrize("n", [40, 70])
    def test_z2_power_past_one_chunk_of_offsets(self, n):
        # distinct elements of Z_2^n have an odd sum in some coordinate, so
        # no pair survives the parity filter and nothing is looked up, for
        # all 2^n midpoint solutions a pair would have (n = 70 takes the
        # object path)
        rng = random.Random(n)
        elements = {tuple(rng.randrange(2) for _ in range(n)) for _ in range(3)}
        lookups = mock.Mock(wraps=verify_module._members)
        with mock.patch.object(verify_module, "_members", lookups):
            assert check_group((2,) * n, sorted(elements)) == []
        assert lookups.call_count == 0

    def test_even_moduli_past_one_chunk_against_loop(self):
        # 17 even moduli, 2^17 midpoint solutions per kept pair, looked up
        # as one key.  Pairs share their Z_2 part, and midpoints take any
        # Z_2 part, so each pair's hits are the elements of every part
        rng = random.Random(17)
        moduli = (2,) * 16 + (4, 5)
        parts = [tuple(rng.randrange(2) for _ in range(16)) for _ in range(3)]
        elements = [u + t for u in parts for t in [(0, 0), (2, 2), (1, 1)]]
        with steps_within(1 << 12) as calls:
            expected = check_group(moduli, elements)
        assert len(expected) > 3 and calls

    def test_many_even_moduli_against_triples(self):
        # 2^12 midpoint solutions per pair, looked up as one key per pair;
        # coordinates in {0, 2} of Z_4 and 0 of Z_2 keep every pair
        rng = random.Random(7)
        moduli = (4,) * 6 + (2,) * 6
        even = rng.sample(list(product((0, 2), repeat=6)), 40)
        elements = {e + (0,) * 6 for e in even} | set(planted(rng, moduli, 6))
        elements |= {tuple(rng.randrange(m) for m in moduli) for _ in range(20)}
        expected = brute_group_progressions(moduli, elements)
        report = verify_group_set(moduli, elements, all_counterexamples=True)
        assert report.counts["all_counterexamples"] == expected
        assert verify_group_set(moduli, elements).counterexample == expected[0]

    def test_first_hit_mode_stops_at_the_first_chunk_with_a_hit(self):
        tiles, pair_tiles = [], verify_module.pair_tiles

        def walked(*args):
            for tile in pair_tiles(*args):
                tiles.append(tile)
                yield tile

        lookups = mock.Mock(wraps=verify_module._members)
        with mock.patch.object(verify_module, "_CHUNK", 1), \
                mock.patch.object(verify_module, "pair_tiles", walked), \
                mock.patch.object(verify_module, "_members", lookups):
            # one pair per tile: (1, 2) has an odd sum and looks nothing up,
            # (1, 3) is the hit
            verify_integer_set(20, [1, 2, 3, 4, 5, 6, 7])
            assert len(tiles) == 2 and lookups.call_count == 1
            verify_integer_set(20, [1, 2, 3, 4, 5, 6, 7], all_counterexamples=True)
            assert len(tiles) == 2 + math.comb(7, 2)

    @pytest.mark.parametrize("moduli", [
        (2**64 + 13, 3),             # elements past int64
        (2**62 + 3,),                # elements in int64, pair sums past it
        (2**32 + 15, 2**31 - 1),     # coordinates in int64, codes past it
        (2**40, 2**30 + 1, 6),
    ])
    def test_group_moduli_product_past_int64_range(self, moduli):
        assert math.prod(moduli) > 2**62
        rng = random.Random(sum(moduli))
        elements = set(planted(rng, moduli, 5))
        # a progression at the top of every coordinate, where int64 codes
        # and pair sums would wrap
        elements |= {tuple(m - k for m in moduli) for k in (1, 2, 3)}
        elements |= {tuple(rng.randrange(max(0, m - 1000), m) for m in moduli) for _ in range(20)}
        assert check_group(moduli, sorted(elements))

    @pytest.mark.parametrize("bound", [2**64 + 100, 2**63 - 1])
    def test_integer_bound_past_int64_range(self, bound):
        rng = random.Random(3)
        elements = {bound - rng.randrange(10**6) for _ in range(40)}
        elements |= {bound - 20, bound - 10, bound, 5, 9}
        assert {"x": bound - 20, "y": bound - 10, "z": bound} in check_integer(bound, elements)


class TestScanBudget:
    """Certificates charge their pairs plus the midpoint candidates of the
    pairs that pass the parity filter before they scan."""

    @pytest.mark.parametrize("verify, args, cost", [
        # 45 pairs, 2 * C(5, 2) of equal parity with one candidate each
        (verify_integer_set, (10, range(1, 11)), 45 + 20),
        # Z_4 x Z_3: pairs of equal Z_4 parity have 2 candidates each
        (verify_group_set, ((4, 3), [(u, v) for u in range(4) for v in range(2)]), 28 + 2 * 12),
    ])
    def test_cost_is_pairs_plus_candidates(self, monkeypatch, verify, args, cost):
        from apfree import budget

        monkeypatch.setattr(budget, "SCAN", cost)
        assert verify(*args).checked > 0
        monkeypatch.setattr(budget, "SCAN", cost - 1)
        with pytest.raises(budget.BudgetError, match="work budget"):
            verify(*args)


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
    def test_piece_masks_match_oracle(self):
        eps, q = F(1, 12), 48
        block = Block(eps)
        u = np.arange(q, dtype=np.int64)
        masks = _piece_masks(eps, q, u[:, None], u[None, :])
        for i in range(q):
            for j in range(q):
                tag = block.piece_of((F(i, q), F(j, q)))
                assert [bool(mask[i, j]) for mask in masks] == [tag == k for k in (1, 2, 3)]

    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 6), F(1, 12), F(1, 24), F(5, 7), F(2, 3)])
    def test_in_block_is_a_nonzero_tag(self, eps):
        """Every numerator pair of small denominators, so every boundary
        line of every piece is hit on both sides: the piece masks are
        disjoint and the block is their union, on arrays and on Python ints.
        Each mask is the oracle's piece wherever D divides 24 or 84, the
        grids on which every boundary line of these epsilons lies."""
        block = Block(eps)
        for D in range(1, 97):
            u = np.arange(D, dtype=np.int64)
            masks = _piece_masks(eps, D, u[:, None], u[None, :])
            inside = scaled_in_block(eps, D, u[:, None], u[None, :])
            assert inside.dtype == bool
            assert np.array_equal(sum(mask.astype(int) for mask in masks), inside)
            if 24 % D and 84 % D:
                continue
            tags = np.array([[block.piece_of((F(i, D), F(j, D))) for j in range(D)]
                             for i in range(D)])
            for k, mask in enumerate(masks, 1):
                assert np.array_equal(mask, tags == k)
        for U, V in product(range(25), repeat=2):
            masks = _piece_masks(eps, 24, U, V)
            assert scaled_in_block(eps, 24, U, V) == any(masks)
            if U < 24 and V < 24:
                tag = block.piece_of((F(U, 24), F(V, 24)))
                assert list(masks) == [tag == k for k in (1, 2, 3)]

    def test_weight_table_matches_api(self):
        eps, q = F(1, 24), 48
        block = Block(eps)
        wt = weight_table(eps, q)
        scale = 4 * eps.numerator**2 * q * q
        for i in range(q):
            for j in range(q):
                if block.piece_of((F(i, q), F(j, q))):
                    assert int(wt[i, j]) == block.weight((F(i, q), F(j, q))) * scale
                else:
                    assert wt[i, j] == -1

    def test_block_sweep_matches_bruteforce(self):
        eps, q = F(1, 12), 24
        block = Block(eps)
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
        counts, violation = run_sweeps(("block",), eps, q)["block"]
        assert violation is None and viols == 0
        assert counts["grid_points"] == len(pts)
        assert counts["pairs"] == pairs
        assert counts["candidates"] == cands

    @pytest.mark.parametrize("eps", [F(1, 12), F(1, 4)])
    def test_candidates_match_oracle(self, eps):
        """``_Grid.candidate`` at every pair of the 1/24 grid and each c, as
        the Fraction reference states it: y = (u, v)/2Q is the oracle's
        candidate c, in the block iff the oracle's piece is nonzero, and
        there each right-hand side less the pair's value is the scaled
        margin of its fact, so a pair fails a fact iff the oracle's does.
        With s the coordinate sum and g = halfmod_square, the facts are
        w(x) + w(z) >= 2 w(y) + |x - z|^2, s(y) - (s(x) + s(z))/2 in
        {0, -1/2} (alt), s(x)^2 + s(z)^2 >= 2 s(y)^2 + eps^2/2 (code 2) and
        g(x1) + g(z1) >= 2 g(y1) + (x1 - z1)^2/2 (code 3)."""
        import apfree.gridscan as gridscan
        from oracle import halfmod_square as g1

        q, block = 24, Block(eps)
        g = gridscan._Grid(eps, q, ("block", "midpoint"))
        a, b = np.triu_indices(g.P)
        pts = [(F(i, q), F(j, q)) for i, j in zip(g.I.tolist(), g.J.tolist())]
        weights = [block.weight(p) for p in pts]
        scales = 16 * eps.numerator ** 2 * q * q, 2 * eps.denominator ** 2 * q * q, 4 * q * q
        ys = []
        for c in range(4):
            y = g.candidate(g.I[a] + g.I[b], g.J[a] + g.J[b], c)
            ys.append(zip(y.u.tolist(), y.v.tolist(), y.inb.tolist(), y.alt.tolist(),
                          (y.block - g.h[a] - g.h[b]).tolist(),
                          (y.code2 - g.ell[a] - g.ell[b]).tolist(),
                          (y.code3 - g.k[a] - g.k[b]).tolist()))
        # per pair, its four candidates
        for xa, za, *at in zip(a.tolist(), b.tolist(), *ys):
            x, z = pts[xa], pts[za]
            for yc, (u, v, inb, alt, *margin) in zip(midpoint_candidates(x, z), at):
                assert (F(u, 2 * q), F(v, 2 * q)) == yc
                assert inb == (block.piece_of(yc) != 0)
                if not inb:
                    continue
                sx, sy, sz = sum(x), sum(yc), sum(z)
                assert F(alt, 2 * q) == sy - (sx + sz) / 2
                expected = (2 * block.weight(yc) + (x[0] - z[0]) ** 2 + (x[1] - z[1]) ** 2
                            - weights[xa] - weights[za],
                            2 * sy ** 2 + eps ** 2 / 2 - sx ** 2 - sz ** 2,
                            2 * g1(yc[0]) + (x[0] - z[0]) ** 2 / 2 - g1(x[0]) - g1(z[0]))
                assert margin == [m * k for m, k in zip(expected, scales)]

    def test_grid_points_scan_order(self):
        """The sweep's grid holds the in-block points of the 1/Q grid in
        scan order (lexicographic by (i, j))."""
        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 24
        g = gridscan._Grid(eps, q, ("x1z1",))
        order = list(zip(g.I.tolist(), g.J.tolist()))
        assert order == sorted(order)
        block = Block(eps)
        assert order == [(i, j) for i in range(q) for j in range(q)
                         if block.piece_of((F(i, q), F(j, q)))]

    @pytest.mark.parametrize("eps", [F(1, 12), F(1, 24), F(1, 48)])
    @pytest.mark.parametrize("grid", [48, 120])
    def test_sweep_matrix(self, eps, grid):
        for report in check_sweeps(SWEEP_SUBJECTS, eps, grid):
            assert report.passed, report.subject
            assert report.counts["violations"] == 0

    def test_intermediate_counts_match_bruteforce(self):
        """The sweeps' side counts (near-equal candidates, applicable pairs)
        agree with a direct Fraction scan, so the predicates are genuinely
        exercised rather than vacuously green."""
        eps, q = F(1, 12), 24
        block = Block(eps)
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
        counts, _ = run_sweeps(("midpoint",), eps, q)["midpoint"]
        assert counts["near_equal_candidates"] == near_cands
        counts, _ = run_sweeps(("x1z1",), eps, q)["x1z1"]
        assert counts["applicable"] == x1z1_app
        counts, _ = run_sweeps(("facts",), eps, q)["facts"]
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
        counts, violation = gridscan.run_sweeps(("block",), eps, q)["block"]
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
        counts, violation = gridscan.run_sweeps(("midpoint",), eps, q)["midpoint"]
        assert counts["violations"] > 0
        assert violation is not None and violation["code"] == 3

    def test_threads_do_not_change_reports(self, monkeypatch):
        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 48
        # a grid this small stays on one process unless told otherwise
        monkeypatch.setattr(gridscan, "_SERIAL_PAIRS", 0)
        serial = run_sweeps(("midpoint",), eps, q, threads=1)["midpoint"]
        parallel = run_sweeps(("midpoint",), eps, q, threads=2)["midpoint"]
        assert serial == parallel

    def test_scale_guard(self):
        with pytest.raises(ValueError, match="budget"):
            run_sweeps(("block",), F(1, 99991), 48)

    def test_grid_multiple_of_24_required(self):
        with pytest.raises(ValueError, match="24"):
            run_sweeps(("block",), F(1, 12), 50)


def plant_faults(monkeypatch, eps, q, seed):
    """Make the sweeps read their tables at grid q with faults planted for
    every fact, and return (table, gq, g2): a few weights moved, two grid
    points outside the block given a weight ((1 - 1/q, 1 - 1/q), and
    (1/2 - 1/q, 1/4 + 1/q) beside the in-block (1/2, 1/4)), one g value
    lowered and one half-grid g value raised."""
    import numpy as np

    import apfree.gridscan as gridscan

    rng = np.random.default_rng(seed)
    table = gridscan.weight_table(eps, 2 * q).copy()
    gq, g2 = (t.copy() for t in gridscan._g_tables(q))
    inside = np.argwhere(table >= 0)
    for _ in range(3):
        u, v = inside[rng.integers(len(inside))]
        table[u, v] += int(rng.integers(-10**6, 10**6))
    table[-2, -2] = table[q - 2, q // 2 + 2] = 10**9
    gq[rng.integers(q)] -= 10**4
    g2[rng.integers(2 * q)] += 10**6
    monkeypatch.setattr(gridscan, "weight_table", lambda e, d: table.copy())
    monkeypatch.setattr(gridscan, "_g_tables", lambda Q: (gq, g2))
    return table, gq, g2


def loop_keys(kind, eps, q, table, gq, g2):
    """Plain-Python sweep over the pairs x <= z of the grid points that
    ``table`` marks in-block: every violation (x, z, candidate, code), and
    the points."""
    en, ed = eps.numerator, eps.denominator
    F4 = table.tolist()
    gq, g2 = gq.tolist(), g2.tolist()
    pts = [(i, j) for i in range(q) for j in range(q) if F4[2 * i][2 * j] >= 0]
    keys = []
    for xa, (i1, j1) in enumerate(pts):
        for za in range(xa, len(pts)):
            i2, j2 = pts[za]
            s1, s2 = i1 + j1, i2 + j2
            near = ed * abs(s1 - s2) < en * q
            if kind == "x1z1":
                if near and (2 * i1 >= q or 2 * i2 >= q) and i1 + i2 < q:
                    keys.append((xa, za, 0, 0))
            elif kind == "facts":
                if xa == za and not (3 * s1 > 2 * q and 12 * s1 <= 17 * q):
                    keys.append((xa, za, 0, 1))
                if xa == za and 4 * gq[i1] < (2 * i1 - q) ** 2:
                    keys.append((xa, za, 0, 2))
                if i1 + i2 < q and not 6 * (s1 + s2) > 11 * q:
                    keys.append((xa, za, 0, 3))
            else:
                for c in range(4):
                    u = (i1 + i2 + (q if c >= 2 else 0)) % (2 * q)
                    v = (j1 + j2 + (q if c % 2 else 0)) % (2 * q)
                    fy = F4[u][v]
                    if fy < 0:
                        continue
                    if kind == "block":
                        gap = 16 * en * en * ((i1 - i2) ** 2 + (j1 - j2) ** 2)
                        if F4[2 * i1][2 * j1] + F4[2 * i2][2 * j2] < 2 * fy + gap:
                            keys.append((xa, za, c, 0))
                        continue
                    syn, ssq = u + v, s1 * s1 + s2 * s2
                    if syn - (s1 + s2) not in (0, -q):
                        keys.append((xa, za, c, 1))
                    if not (2 * ed * ed * ssq >= ed * ed * syn * syn + en * en * q * q
                            or near and 2 * ssq == syn * syn + (s1 - s2) ** 2):
                        keys.append((xa, za, c, 2))
                    if near and 4 * (gq[i1] + gq[i2]) < 2 * g2[u] + 2 * (i1 - i2) ** 2:
                        keys.append((xa, za, c, 3))
    return keys, pts


def loop_applicable(kind, eps, q, pts):
    """Plain-Python list of the pairs (x, z), x <= z, of the points ``pts``
    that the first-coordinate fact ``kind`` (x1z1 or code 3 of facts)
    applies to."""
    en, ed = eps.numerator, eps.denominator
    pairs = []
    for xa, (i1, j1) in enumerate(pts):
        for za in range(xa, len(pts)):
            i2, j2 = pts[za]
            if kind == "x1z1":
                applies = ed * abs(i1 + j1 - i2 - j2) < en * q and (2 * i1 >= q or 2 * i2 >= q)
            else:
                applies = i1 + i2 < q
            if applies:
                pairs.append((xa, za))
    return pairs


@functools.lru_cache(maxsize=None)
def planted_loop(kind, eps, q, seed):
    """The violation keys of ``loop_keys`` and the pairs of
    ``loop_applicable`` of a first-coordinate fact on the grid that
    ``plant_faults`` makes with this seed."""
    with pytest.MonkeyPatch.context() as mp:
        table, gq, g2 = plant_faults(mp, eps, q, seed)
    keys, pts = loop_keys(kind, eps, q, table, gq, g2)
    return keys, loop_applicable(kind, eps, q, pts)


def loop_sweep(kind, eps, q, table, gq, g2):
    """The number of violations and the smallest (x, z, candidate, code) of
    ``loop_keys``, and the points."""
    keys, pts = loop_keys(kind, eps, q, table, gq, g2)
    return len(keys), min(keys, default=None), pts


def loop_violation(kind, key, pts, q):
    """The report dict of the key (x, z, candidate, code) from ``loop_sweep``."""
    xa, za, c, code = key
    expected = {"x": [str(F(p, q)) for p in pts[xa]],
                "z": [str(F(p, q)) for p in pts[za]], "code": code}
    if kind in ("block", "midpoint"):
        (i1, j1), (i2, j2) = pts[xa], pts[za]
        u = (i1 + i2 + (q if c >= 2 else 0)) % (2 * q)
        v = (j1 + j2 + (q if c % 2 else 0)) % (2 * q)
        expected.update(y=[str(F(u, 2 * q)), str(F(v, 2 * q))], candidate=c)
    return expected


SWEEP_KINDS = ["block", "midpoint", "x1z1", "facts"]


def row_ranges(rng, rows, count):
    """Row ranges [x0, x1) of range(rows): an empty one, one row, the
    whole range and ``count`` random ones."""
    x = rng.randrange(rows)
    return [(x, x), (x, x + 1), (0, rows),
            *(tuple(sorted(rng.randrange(rows + 1) for _ in range(2))) for _ in range(count))]


def row_cuts(rng, rows):
    """Lists of row bounds from 0 to ``rows``: uneven cuts with an empty
    range and one-row ranges, a cut at a third, and random cuts."""
    return [[0, 1, rows], [0, 7, 7, 100, 101, rows - 3, rows], [0, rows // 3, rows],
            [0, *sorted(rng.randrange(rows + 1) for _ in range(5)), rows]]


def row_pairs(rows, x0, x1):
    """The number of pairs x <= z of range(rows) with x in [x0, x1)."""
    return sum(rows - x for x in range(x0, x1))


def assert_fused_walk_is_loop_minimum(monkeypatch, eps, q, seed):
    import apfree.gridscan as gridscan

    table, gq, g2 = plant_faults(monkeypatch, eps, q, seed)
    results = gridscan.run_sweeps(SWEEP_KINDS, eps, q)
    assert list(results) == SWEEP_KINDS
    for kind in SWEEP_KINDS:
        nviol, key, pts = loop_sweep(kind, eps, q, table, gq, g2)
        counts, violation = results[kind]
        assert counts["violations"] == nviol
        assert counts["pairs"] == len(pts) * (len(pts) + 1) // 2
        assert violation == loop_violation(kind, key, pts, q)


def spy_exact_pairs(monkeypatch):
    """The list that every pair sent to the exact candidate facts will be
    appended to, as (x, z): the valid pairs of each tile that the per-sum
    tables flag."""
    import apfree.gridscan as gridscan

    seen = []
    real = gridscan._Tile.exact

    def spy(t, flagged, fails):
        r, b = np.nonzero(flagged & t.valid)
        seen.extend(zip((r + t.rows.start).tolist(), (b + t.cols.start).tolist()))
        return real(t, flagged, fails)

    monkeypatch.setattr(gridscan._Tile, "exact", spy)
    return seen


class TestPairWalk:
    """The tile walk that the certificates and the sweeps share, the
    sweeps' per-sum tables, their first violation, and their independence
    from tile size, pair-range splits and workers."""

    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, 50),
        st.lists(st.integers(0, max(n - 1, 0)), min_size=2, max_size=2).map(sorted))))
    @example((12, 7, [4, 4]))
    @example((12, 7, [4, 5]))
    @example((12, 7, [0, 11]))
    @settings(max_examples=200, deadline=None)
    def test_pair_tiles_are_a_slice_of_triu(self, case):
        """The strict pairs a < b of range(n) with a in the rows [x0, x1)
        (empty, one row, the whole range or random), as the certificates
        walk them: the valid cells (x, z) of the tiles of the pairs x <= z
        of range(n - 1), taken as (x, z + 1)."""
        import numpy as np

        from apfree.gridscan import pair_tiles

        n, size, (x0, x1) = case
        a, b = [], []
        for t in pair_tiles(max(n - 1, 0), size, x0, x1):
            assert t.valid.any() and t.valid.size <= size
            assert t.valid.shape == (t.rows.stop - t.rows.start, t.cols.stop - t.cols.start)
            x, z = np.nonzero(t.valid)
            a += (x + t.rows.start).tolist()
            b += (z + t.cols.start + 1).tolist()
        ta, tb = np.triu_indices(n, 1)
        inside = (ta >= x0) & (ta < x1)
        assert a == ta[inside].tolist()
        assert b == tb[inside].tolist()

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_violation_is_loop_minimum(self, monkeypatch, kind, seed):
        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 24
        table, gq, g2 = plant_faults(monkeypatch, eps, q, seed)
        nviol, key, pts = loop_sweep(kind, eps, q, table, gq, g2)
        assert key is not None
        counts, violation = gridscan.run_sweeps((kind,), eps, q)[kind]
        assert counts["violations"] == nviol
        assert counts["pairs"] == len(pts) * (len(pts) + 1) // 2
        assert violation == loop_violation(kind, key, pts, q)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fused_walk_is_loop_minimum_for_every_kind(self, monkeypatch, seed):
        assert_fused_walk_is_loop_minimum(monkeypatch, F(1, 12), 24, seed)

    @pytest.mark.parametrize("eps, q, seed", [
        *((eps, 24, seed) for eps in (F(1, 4), F(1, 24)) for seed in range(8)),
        (F(1, 12), 48, 3)])
    def test_fused_walk_is_loop_minimum_across_grids(self, monkeypatch, eps, q, seed):
        assert_fused_walk_is_loop_minimum(monkeypatch, eps, q, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_row_ranges_are_slices_of_the_loop(self, monkeypatch, seed):
        """Every row range (empty, one row, the whole grid or random), cut
        mid-tile or on tiles that cut rows, reports the loop's violations
        of exactly its own pairs."""
        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 24
        table, gq, g2 = plant_faults(monkeypatch, eps, q, seed)
        keys = {kind: loop_keys(kind, eps, q, table, gq, g2)[0] for kind in SWEEP_KINDS}
        g = gridscan._Grid(eps, q, SWEEP_KINDS)
        rng = random.Random(seed)
        for chunk in (7, 100, 1 << 13):
            monkeypatch.setattr(gridscan, "_SWEEP_CHUNK", chunk)
            for x0, x1 in row_ranges(rng, g.P, 7):
                walked = gridscan._walk(g, x0, x1)
                for kind in SWEEP_KINDS:
                    inside = [key for key in keys[kind] if x0 <= key[0] < x1]
                    counts, best = walked[kind]
                    assert counts["pairs"] == row_pairs(g.P, x0, x1)
                    assert counts["violations"] == len(inside)
                    assert best == min(inside, default=None)

    @given(st.sampled_from(["x1z1", "facts"]), st.sampled_from([24, 48]), st.integers(0, 3),
           st.sampled_from(["empty", "single", "cut", "whole"]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_box_counts_are_the_loop_on_row_ranges(self, kind, q, seed, shape, data):
        """The first-coordinate facts, counted by box queries over a row
        range (empty, one row, cut anywhere, or whole) on a grid with
        planted faults, report the loop's violations, applicable pairs and
        smallest key of exactly the range's pairs."""
        import apfree.gridscan as gridscan

        eps = F(1, 12)
        with pytest.MonkeyPatch.context() as mp:
            plant_faults(mp, eps, q, seed)
            g = gridscan._Grid(eps, q, (kind,))
        keys, applicable = planted_loop(kind, eps, q, seed)
        x0, x1 = 0, g.P
        if shape != "whole":
            x0 = data.draw(st.integers(0, g.P - 1))
            x1 = {"empty": x0, "single": x0 + 1}.get(shape)
            if x1 is None:
                x1 = data.draw(st.integers(x0, g.P))
        counts, best = gridscan._walk(g, x0, x1)[kind]
        inside = [key for key in keys if x0 <= key[0] < x1]
        assert counts["pairs"] == row_pairs(g.P, x0, x1)
        assert counts["violations"] == len(inside)
        assert counts["applicable"] == sum(x0 <= x < x1 for x, _ in applicable)
        assert best == min(inside, default=None)

    @pytest.mark.parametrize("kind", ["x1z1", "facts"])
    def test_box_counts_from_every_row(self, kind):
        """Row ranges from each row to the end: the box counts report the
        loop's violations and its smallest key of exactly those pairs."""
        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 24
        for seed in range(4):
            with pytest.MonkeyPatch.context() as mp:
                plant_faults(mp, eps, q, seed)
                g = gridscan._Grid(eps, q, (kind,))
            keys, _ = planted_loop(kind, eps, q, seed)
            for x0 in range(g.P):
                counts, best = gridscan._walk(g, x0, g.P)[kind]
                inside = [key for key in keys if key[0] >= x0]
                assert counts["violations"] == len(inside)
                assert best == min(inside, default=None)

    def test_first_coordinate_facts_walk_no_tiles(self, monkeypatch):
        """x1z1 and facts are counted by box queries alone; the block and
        midpoint facts still walk the tiles."""
        import apfree.gridscan as gridscan

        walks = []
        real = gridscan.pair_tiles

        def spy(*args):
            walks.append(args)
            return real(*args)

        eps, q = F(1, 12), 48
        expected = gridscan.run_sweeps(SWEEP_KINDS, eps, q)
        monkeypatch.setattr(gridscan, "pair_tiles", spy)
        results = gridscan.run_sweeps(("x1z1", "facts"), eps, q)
        assert walks == []
        assert results == {kind: expected[kind] for kind in ("x1z1", "facts")}
        gridscan.run_sweeps(("block", "x1z1"), eps, q)
        assert len(walks) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["block", "midpoint"])
    def test_tables_flag_exactly_the_failing_pairs(self, monkeypatch, kind, seed):
        """The per-sum tables send a pair to the exact candidate facts iff
        it fails at some candidate."""
        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 24
        table, gq, g2 = plant_faults(monkeypatch, eps, q, seed)
        keys, _ = loop_keys(kind, eps, q, table, gq, g2)
        seen = spy_exact_pairs(monkeypatch)
        gridscan.run_sweeps((kind,), eps, q)
        assert sorted(seen) == sorted({key[:2] for key in keys})

    def test_a_code_1_failure_alone_is_found(self, monkeypatch):
        """With (0, 0) made in-block, candidate 3 of x = z = (1/2, 1/2)
        fails the midpoint-sum alternative (code 1) and nothing else."""
        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 24
        table = gridscan.weight_table(eps, 2 * q).copy()
        gq, g2 = gridscan._g_tables(q)
        table[0, 0] = 0
        monkeypatch.setattr(gridscan, "weight_table", lambda e, d: table.copy())
        keys, pts = loop_keys("midpoint", eps, q, table, gq, g2)
        x = pts.index((q // 2, q // 2))
        assert [key for key in keys if key[:2] == (x, x)] == [(x, x, 3, 1)]
        counts, violation = gridscan.run_sweeps(("midpoint",), eps, q)["midpoint"]
        assert counts["violations"] == len(keys)
        assert violation == loop_violation("midpoint", min(keys), pts, q)

    @pytest.mark.parametrize("q", [48, 72])
    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 12), F(1, 24), F(1, 48)])
    def test_passing_sweeps_send_no_pair_to_the_exact_facts(self, monkeypatch, eps, q):
        import apfree.gridscan as gridscan

        seen = spy_exact_pairs(monkeypatch)
        results = gridscan.run_sweeps(SWEEP_KINDS, eps, q)
        assert all(counts["violations"] == 0 for counts, _ in results.values())
        assert seen == []

    def test_check_all_counts_at_q72(self):
        """Counts of the exact per-candidate walk that the tables replaced."""
        results = run_sweeps(SWEEP_KINDS, F(1, 12), 72)
        common = {"grid_points": 1320, "pairs": 871860, "violations": 0}
        assert results == {
            "block": ({**common, "candidates": 841291}, None),
            "midpoint": ({**common, "candidates": 841291,
                          "near_equal_candidates": 206949}, None),
            "x1z1": ({**common, "applicable": 186736}, None),
            "facts": ({**common, "applicable": 38349}, None),
        }

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_splits_and_tiny_chunks_equal_the_whole_sweep(self, monkeypatch, kind):
        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 24
        plant_faults(monkeypatch, eps, q, 0)
        g = gridscan._Grid(eps, q, (kind,))
        whole = gridscan._walk(g, 0, g.P)[kind]
        assert whole[1] is not None
        # uneven cuts, an empty range, one-row ranges and random cuts
        for cuts in row_cuts(random.Random(kind), g.P):
            parts = [gridscan._walk(g, x0, x1)[kind] for x0, x1 in zip(cuts, cuts[1:])]
            assert gridscan._merge(parts) == whole
        # tiles cut rows for chunk sizes below a row's length
        for chunk in (7, 100):
            monkeypatch.setattr(gridscan, "_SWEEP_CHUNK", chunk)
            assert gridscan._walk(g, 0, g.P)[kind] == whole

    def test_fused_splits_chunks_and_workers_equal_the_whole_walk(self, monkeypatch):
        import multiprocessing

        import apfree.gridscan as gridscan

        eps, q = F(1, 12), 24
        plant_faults(monkeypatch, eps, q, 2)
        g = gridscan._Grid(eps, q, SWEEP_KINDS)
        whole = gridscan._walk(g, 0, g.P)
        assert all(whole[kind][1] is not None for kind in SWEEP_KINDS)
        for cuts in row_cuts(random.Random(2), g.P):
            parts = [gridscan._walk(g, x0, x1) for x0, x1 in zip(cuts, cuts[1:])]
            for kind in SWEEP_KINDS:
                assert gridscan._merge([part[kind] for part in parts]) == whole[kind]
        serial = gridscan.run_sweeps(SWEEP_KINDS, eps, q)
        for chunk in (7, 100):
            monkeypatch.setattr(gridscan, "_SWEEP_CHUNK", chunk)
            assert gridscan._walk(g, 0, g.P) == whole
            assert gridscan.run_sweeps(SWEEP_KINDS, eps, q) == serial
        if multiprocessing.get_start_method() == "fork":
            # workers see the planted tables only when forked
            monkeypatch.setattr(gridscan, "_SERIAL_PAIRS", 0)
            assert gridscan.run_sweeps(SWEEP_KINDS, eps, q, threads=2) == serial

    def test_pool_parts_are_row_ranges_of_even_shares(self, monkeypatch):
        """run_sweeps gives each worker a row range: the ranges cover
        [0, P) in order, each holds within P pairs of an even share, and
        the reports equal the serial sweep's at 1 to 4 workers."""
        import concurrent.futures

        import apfree.gridscan as gridscan

        jobs = []

        class InProcess:
            """The pool's interface, running each job in this process."""

            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                jobs.append(list(args))
                assert len(jobs[-1]) == self.max_workers
                return map(fn, jobs[-1])

        eps, q = F(1, 12), 24
        plant_faults(monkeypatch, eps, q, 1)
        serial = gridscan.run_sweeps(SWEEP_KINDS, eps, q)
        g = gridscan._Grid(eps, q, SWEEP_KINDS)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        monkeypatch.setattr(gridscan, "_SERIAL_PAIRS", 0)
        monkeypatch.setattr(gridscan, "_cpu_limit", lambda: 4)
        for threads in (1, 2, 3, 4):
            jobs.clear()
            assert gridscan.run_sweeps(SWEEP_KINDS, eps, q, threads=threads) == serial
            bounds = [job[3:] for job in jobs[0]] if jobs else [(0, g.P)]
            assert len(bounds) == threads
            assert [x0 for x0, _ in bounds] == [0, *(x1 for _, x1 in bounds[:-1])]
            assert bounds[-1][1] == g.P
            for x0, x1 in bounds:
                assert type(x0) is int and type(x1) is int
                assert abs(threads * row_pairs(g.P, x0, x1) - g.pairs) <= threads * g.P

    def test_caller_builds_no_tables_when_the_pool_walks(self, monkeypatch):
        """The per-sum tables are built on the walk's first use: with every
        pair on the pool, the calling process builds none, and the reports
        equal the serial sweep's, whose walk does build them."""
        import apfree.gridscan as gridscan

        grids = []

        class Recorded(gridscan._Grid):
            def __init__(self, *args):
                super().__init__(*args)
                grids.append(self)

        eps, q = F(1, 12), 48
        monkeypatch.setattr(gridscan, "_Grid", Recorded)
        serial = gridscan.run_sweeps(SWEEP_KINDS, eps, q)
        assert len(grids) == 1 and "tables" in vars(grids[0])
        monkeypatch.setattr(gridscan, "_SERIAL_PAIRS", 0)
        monkeypatch.setattr(gridscan, "_cpu_limit", lambda: 2)
        assert gridscan.run_sweeps(SWEEP_KINDS, eps, q, threads=2) == serial
        # workers record their grids in their own processes, if at all
        assert len(grids) == 2 and "tables" not in vars(grids[1])

    def test_workers_are_capped_by_the_cpus_the_process_may_use(self, monkeypatch):
        """A process pinned to one CPU sweeps on one process whatever
        ``threads`` asks, although the machine has more."""
        import os

        import apfree.gridscan as gridscan

        if hasattr(os, "sched_getaffinity"):
            assert gridscan._cpu_limit() == len(os.sched_getaffinity(0))
            monkeypatch.setattr(gridscan.os, "sched_getaffinity", lambda pid: {0})
            monkeypatch.setattr(gridscan.os, "cpu_count", lambda: 2)
            assert gridscan._cpu_limit() == 1
        else:
            assert gridscan._cpu_limit() == (os.cpu_count() or 1)
        monkeypatch.setattr(gridscan, "_cpu_limit", lambda: 1)
        monkeypatch.setattr(gridscan, "_SERIAL_PAIRS", 0)
        monkeypatch.setattr(gridscan, "_worker", None)
        assert gridscan.run_sweeps(SWEEP_KINDS, F(1, 12), 24, threads=2) == gridscan.run_sweeps(
            SWEEP_KINDS, F(1, 12), 24)

    def test_first_coordinate_facts_stay_on_one_process(self, monkeypatch):
        """A sweep of x1z1 and facts alone walks no tile, so it starts no
        pool whatever the grid's size, ``threads`` and the CPUs allow."""
        import apfree.gridscan as gridscan

        kinds, eps, q = ("x1z1", "facts"), F(1, 12), 24
        serial = gridscan.run_sweeps(kinds, eps, q)
        monkeypatch.setattr(gridscan, "_worker", None)
        monkeypatch.setattr(gridscan, "_SERIAL_PAIRS", 0)
        monkeypatch.setattr(gridscan, "_cpu_limit", lambda: 2)
        assert gridscan.run_sweeps(kinds, eps, q, threads=2) == serial

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_failing_sweep_independent_of_workers(self, monkeypatch, kind):
        import multiprocessing

        import apfree.gridscan as gridscan

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the planted tables only when forked")
        eps, q = F(1, 12), 24
        plant_faults(monkeypatch, eps, q, 1)
        # a grid this small stays on one process unless told otherwise
        monkeypatch.setattr(gridscan, "_SERIAL_PAIRS", 0)
        serial = gridscan.run_sweeps((kind,), eps, q, threads=1)[kind]
        assert serial[1] is not None
        assert gridscan.run_sweeps((kind,), eps, q, threads=2)[kind] == serial

    @pytest.mark.parametrize("eps", [F(0), F(1), F(5, 4), F(-1, 12)])
    def test_epsilon_outside_unit_interval_rejected(self, eps):
        with pytest.raises(ValueError, match="outside"):
            run_sweeps(("block",), eps, 24)

    @pytest.mark.parametrize("q", [0, -24])
    def test_grid_must_be_positive(self, q):
        with pytest.raises(ValueError, match="positive multiple of 24"):
            run_sweeps(("facts",), F(1, 12), q)

    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 12), F(1, 24)])
    @pytest.mark.parametrize("q", [24, 48])
    def test_check_all_equals_the_one_kind_sweeps(self, eps, q):
        singles = [report for kind in SWEEP_KINDS for report in check_sweeps((kind,), eps, q)]
        fused = check_sweeps(SWEEP_KINDS, eps, q)
        assert [r.to_jsonable() for r in fused] == [r.to_jsonable() for r in singles]
        assert [r.subject for r in fused] == list(SWEEP_SUBJECTS.values())

    def test_budget_bounds_the_grid_before_any_table(self, monkeypatch):
        import apfree.gridscan as gridscan
        from apfree.budget import BudgetError

        # check all at Q = 240 is admitted, at Q = 264 refused, and a huge
        # grid is refused before its (2Q)^2 weight table is made
        assert gridscan._Grid(F(1, 12), 240, SWEEP_KINDS).pairs > 0
        with pytest.raises(BudgetError, match="work budget"):
            gridscan._Grid(F(1, 12), 264, SWEEP_KINDS)
        monkeypatch.setattr(gridscan, "weight_table", None)
        with pytest.raises(BudgetError, match="work budget"):
            run_sweeps(("block",), F(1, 2), 999984)

    def test_unknown_kind_rejected(self):
        import apfree.gridscan as gridscan

        for kinds in ((), ("block", "bogus")):
            with pytest.raises(ValueError, match="sweep kinds"):
                gridscan.run_sweeps(kinds, F(1, 12), 24)


class TestWorkedTriple:
    """One fully worked pair at eps = 1/4 with frozen exact values."""

    def test_only_one_candidate_in_block(self):
        block = Block(F(1, 4))
        x, z = (F(3, 4), F(1, 8)), (F(7, 8), F(1, 8))
        inside = [y for y in midpoint_candidates(x, z) if block.piece_of(y)]
        assert inside == [(F(13, 16), F(1, 8))]

    def test_frozen_inequality_values(self):
        block = Block(F(1, 4))
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
        block = Block(eps)
        brute = sum(
            1
            for i in range(m)
            for j in range(m)
            if block.piece_of((F(2 * i + 1, 2 * m), F(2 * j + 1, 2 * m)))
        )
        assert density_count(eps, m) == brute

    @given(st.integers(1, 60), st.integers(2, 61), st.integers(24, 260))
    @settings(max_examples=150, deadline=None)
    def test_rows_count_the_cell_grid(self, a, b, m):
        """The per-row interval count against the broadcast piece masks of
        every cell midpoint, counted piece by piece, odd m and every valid
        eps included."""
        eps = F(min(a, b - 1), b)
        odd = 2 * np.arange(m, dtype=np.int64) + 1
        masks = _piece_masks(eps, 2 * m, odd[:, None], odd[None, :])
        assert density_count(eps, m) == sum(int(np.count_nonzero(mask)) for mask in masks)

    def test_memory_is_linear_in_m(self):
        """The cell grid of m = 1024 would hold 2^20 cells; the rows hold
        about 8 KiB each."""
        import tracemalloc

        tracemalloc.start()
        try:
            density_count(F(1, 12), 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_charged_to_budget(self, monkeypatch):
        from apfree import budget

        monkeypatch.setattr(budget, "GRID", 24 * 24)
        assert density_count(F(1, 12), 24) > 0
        monkeypatch.setattr(budget, "GRID", 24 * 24 - 1)
        with pytest.raises(budget.BudgetError, match="24x24"):
            density_count(F(1, 12), 24)

    def test_minimum_grid(self):
        with pytest.raises(ValueError):
            density_estimate(F(1, 12), 23)


class TestReportShape:
    def test_jsonable_excludes_elapsed_by_default(self):
        report = verify_integer_set(10, [1, 2])
        payload = report.to_jsonable()
        assert "elapsed_seconds" not in payload
        assert payload["pass"] is True
        assert report.elapsed >= 0

    def test_failed_report_carries_counterexample(self):
        report = verify_integer_set(10, [1, 2, 3])
        assert report.counterexample is not None
        x, y, z = (report.counterexample[k] for k in ("x", "y", "z"))
        assert x + z == 2 * y
