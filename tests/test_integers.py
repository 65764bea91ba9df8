"""Dimension/prime/moduli selection, residue transfer, and both integer routes."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apfree.integers as integers
from apfree.gridscan import (region_factor, scaled_box, scaled_in_block, scaled_weight,
                             weight_factor)
from apfree.groups import BuildOptions, is_prime, slice_ratio, trial_rng
from apfree.integers import (
    ParameterError,
    base_coordinates,
    build_integer_set,
    build_integer_set_direct,
    choose_dimension,
    choose_moduli,
    crt_encode,
    feasible_dimension,
    first_pair_dtype,
    first_primes,
    int_nthroot_ceil,
    kept_slices,
    row_coordinate,
    separated,
)
from oracle import Block, crt_decode, in_delta_box, slice_index_of, weight_sum


class TestChooseDimension:
    def test_worked_instance(self):
        # window [2*sqrt(36/log2(24/7)), +2] ~ [9.0004, 11.0004]
        assert choose_dimension(2**36) == 10

    def test_clamps_to_two(self):
        # window floor 2*sqrt(log2(3)/log2(24/7)) ~ 1.89 is below 2
        assert choose_dimension(3) == 2

    @given(st.integers(min_value=3, max_value=10**9))
    @settings(max_examples=60)
    def test_even_and_in_window(self, N):
        n = choose_dimension(N)
        assert n >= 2 and n % 2 == 0
        # n satisfies the window's integer form, n-2 does not (unless clamped)
        assert 24 ** (n * n) >= 7 ** (n * n) * N**4
        if n > 2:
            k = n - 2
            assert 24 ** (k * k) < 7 ** (k * k) * N**4


class TestFirstPrimes:
    def test_small(self):
        assert first_primes(2) == [2, 3]

    def test_ten(self):
        primes = first_primes(10)
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        # p <= 100*n*log2(n) in exact integer form
        assert 2 ** primes[-1] <= 10 ** (100 * 10)

    def test_monotone(self):
        prev = 0
        for n in range(1, 25):
            p = first_primes(n)[-1]
            assert p > prev or n == 1
            prev = p


    def test_trial_division_agrees(self):
        """The one primality test, shared by _next_prime and build_fpn_set."""
        primes = first_primes(168)  # the primes below 1000
        assert [k for k in range(-2, 1000) if is_prime(k)] == primes
        assert [integers._next_prime(k) for k in range(-1, 997)] == [
            min(p for p in primes if p > k) for k in range(-1, 997)]
        assert is_prime(1000000007) and not is_prime(1000000007 * 3)


class TestNthRoot:
    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=8))
    @settings(max_examples=120)
    def test_smallest_root(self, N, n):
        c = int_nthroot_ceil(N, n)
        assert c**n >= N
        assert c == 1 or (c - 1) ** n < N


class TestChooseModuli:
    def test_worked_instance(self):
        assert choose_moduli(100, 2, [2, 3]) == [8, 9]

    def test_infeasible_raises(self):
        with pytest.raises(ParameterError, match="smaller"):
            choose_moduli(100, 4, [2, 3, 5, 7])

    def test_randomized_brackets(self):
        rng = random.Random(2024)
        cases = 0
        while cases < 25:
            n = rng.choice([2, 2, 4, 6])
            N = rng.randrange(50, 10**6)
            primes = first_primes(n)
            if math.prod(primes) > N:
                continue
            cases += 1
            moduli = choose_moduli(N, n, primes)
            p = max(primes)
            prod = math.prod(moduli)
            assert N <= prod * p and prod <= N
            for m, q in zip(moduli, primes):
                assert q <= m
                assert m % q == 0 and q ** round(math.log(m, q)) == m or _is_power(m, q)
                assert m**n < N * q**n
            # pairwise coprime
            for i in range(n):
                for k in range(i + 1, n):
                    assert math.gcd(moduli[i], moduli[k]) == 1


def _is_power(m, q):
    while m % q == 0:
        m //= q
    return m == 1


class TestCrt:
    def test_worked_instance(self):
        x = crt_encode([8, 9], (3, 4))
        assert x == 67 and x % 8 == 3 and x % 9 == 4

    def test_zero_class_maps_to_product(self):
        assert crt_encode([8, 9], (0, 0)) == 72

    def test_bijection(self):
        for moduli in ([8, 9], [5, 7, 9], [4, 27, 25]):
            M = math.prod(moduli)
            seen = set()
            for x in range(1, M + 1):
                r = crt_decode(moduli, x)
                back = crt_encode(moduli, r)
                assert back == x
                seen.add(r)
            assert len(seen) == M

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            crt_encode([6, 9], (1, 2))

    @pytest.mark.parametrize("moduli", [[8, 9], [5, 7], [16, 27], [8, 9, 5]])
    def test_progression_equivalence_exhaustive(self, moduli):
        """2y = s (mod M) has the same solution set as the componentwise
        congruences, for every s; hence progressions transfer exactly."""
        M = math.prod(moduli)
        for s in range(M):
            direct = {y for y in range(M) if (2 * y - s) % M == 0}
            comp = set()
            per = []
            for m in moduli:
                sols = [y for y in range(m) if (2 * y - s) % m == 0]
                per.append(sols)
            from itertools import product as iproduct

            for combo in iproduct(*per):
                comp.add(crt_encode(moduli, combo) % M)
            assert direct == {y % M for y in comp}


class TestPrimePowerRoute:
    def test_forced_n2_instance(self):
        dset = build_integer_set(72, BuildOptions(seed=1), n_override=2)
        assert dset.provenance["moduli"] == [8, 9]
        assert all(1 <= x <= 72 for x in dset.elements)
        assert dset.verify().passed

    def test_default_dimension_steps_down(self):
        dset = build_integer_set(5000, BuildOptions(seed=1))
        assert dset.provenance["dimension"] == 4
        assert dset.provenance["window_dimension"] == 6
        assert dset.verify().passed
        assert all(1 <= x <= 5000 for x in dset.elements)

    def test_feasible_dimension(self):
        assert feasible_dimension(5000, 6) == 4
        assert feasible_dimension(100, 4) == 2
        with pytest.raises(ParameterError):
            feasible_dimension(5, 2)

    def test_infeasible_override(self):
        with pytest.raises(ParameterError):
            build_integer_set(100, BuildOptions(seed=0), n_override=6)
        with pytest.raises(ParameterError):
            build_integer_set(100, BuildOptions(seed=0), n_override=3)

    def test_huge_override_refused_before_the_primes(self, monkeypatch):
        import apfree.integers as integers

        def no_primes(n):
            raise AssertionError("the primes were sought")

        monkeypatch.setattr(integers, "first_primes", no_primes)
        # 2^13 = 8192 > 5000, so the first 13 or more primes cannot fit
        for n in (14, 10**6):
            with pytest.raises(ParameterError, match=f"first {n} primes exceeds"):
                build_integer_set(5000, BuildOptions(seed=0), n_override=n)
        with pytest.raises(AssertionError, match="sought"):
            build_integer_set(5000, BuildOptions(seed=0), n_override=12)

    def test_determinism(self):
        a = build_integer_set(600, BuildOptions(seed=4))
        b = build_integer_set(600, BuildOptions(seed=4))
        assert a.elements == b.elements and a.provenance == b.provenance

    def test_group_progression_freeness_carries_over(self):
        # the transfer argument: any integer progression inside {1..M} is a
        # cyclic progression; spot-check on the emitted set plus verification
        dset = build_integer_set(2000, BuildOptions(seed=3, trials=8))
        assert dset.verify().passed


class TestDirectRoute:
    def test_budget_charged_before_the_denominator(self, monkeypatch):
        import apfree.integers as integers
        from apfree.budget import PRODUCT, BudgetError

        def no_prime(k):
            raise AssertionError("the denominator was sought")

        monkeypatch.setattr(integers, "_next_prime", no_prime)
        # the direction check and each of the 16 trials stream every row
        N = PRODUCT // 17 + 1
        with pytest.raises(BudgetError, match=f"row stream of {N} rows, walked 17 times"):
            build_integer_set_direct(N)
        with pytest.raises(AssertionError, match="sought"):
            build_integer_set_direct(N - 1)

    def test_accepted_direction_is_separated(self):
        N, n = 300, 2
        dset = build_integer_set_direct(N, n=n, options=BuildOptions(seed=1, trials=4))
        denom = dset.provenance["grid_denominator"]
        b = [F(s) for s in dset.provenance["direction"]]
        c = int_nthroot_ceil(N, n)
        delta = F(1, 4 * c)
        assert dset.provenance["delta"] == str(delta)
        # exhaustive re-check with Fractions, independent of the numpy path
        for t in range(1, N + 1):
            dists = []
            for bi in b:
                v = (t * bi) % 1
                dists.append(min(v, 1 - v))
            assert max(dists) > delta

    @given(st.sampled_from([np.int32, np.int64]), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_separation_matches_fraction_distances(self, dtype, seed):
        """separated against the Fraction rule on both dtypes of the first
        coordinate: every row has a coordinate farther than 1/(4c) from 0."""
        rng = random.Random(seed)
        denom, four_c = rng.choice([101, 997, 800_011]), rng.choice([4, 8, 20, 400])
        b_nums = [rng.choice([rng.randrange(denom), rng.randrange(denom // four_c + 2)])
                  for _ in range(rng.choice([2, 4]))]
        lo, off = rng.randrange(1, 10**6), np.arange(rng.randrange(1, 300))
        want = all(max(min(F(t * b % denom, denom), 1 - F(t * b % denom, denom)) for b in b_nums)
                   > F(1, four_c) for t in range(lo, lo + len(off)))
        base = base_coordinates(b_nums, denom, lo, off, dtype)
        assert separated(b_nums, denom, lo, off, base, four_c) == want

    @pytest.mark.parametrize("N, n, epsilon", [
        (600, 4, None), (900, 4, F(1, 24)), (700, 6, F(1, 7)), (500, 4, F(1, 12)),
        (800, 2, F(1, 12)),
    ])
    def test_slice_rows_match_fraction_oracle(self, N, n, epsilon):
        """Every x in 1..N embeds at a + x*b mod 1.  By the Fraction weight
        sums of the rows in the block product, the recorded slice is the
        fullest one (ties to the smallest index) and holds exactly the kept
        rows."""
        dset = build_integer_set_direct(
            N, n=n, options=BuildOptions(epsilon=epsilon, seed=3, trials=3))
        prov = dset.provenance
        block, delta = Block(F(prov["epsilon"])), F(prov["delta"])
        a = [F(s) for s in prov["shift"]]
        b = [F(s) for s in prov["direction"]]
        by_slice = {}
        for x in range(1, N + 1):
            p = tuple((ai + x * bi) % 1 for ai, bi in zip(a, b))
            if all(block.piece_of(p[k:k + 2]) for k in range(0, n, 2)):
                j = slice_index_of(delta, weight_sum(block, p))
                by_slice.setdefault(j, []).append(x)
        j = min(by_slice, key=lambda jj: (-len(by_slice[jj]), jj))
        assert prov["slice_index"] == j
        assert list(dset.elements) == by_slice[j]

    def test_box_rows_match_fraction_oracle(self):
        """n = 2 without epsilon keeps the rows a + x*b mod 1 in [0, delta)^2
        (Fraction oracle), from the fullest trial shift (ties: smallest)."""
        N, trials = 600, 32
        dset = build_integer_set_direct(N, n=2, options=BuildOptions(seed=5, trials=trials))
        prov = dset.provenance
        assert prov["route"] == "box" and prov["slice_index"] == 0
        denom, delta = prov["grid_denominator"], F(prov["delta"])
        b = [F(s) for s in prov["direction"]]
        candidates = []
        for trial in range(trials):
            rng = trial_rng(5, "shift", trial)
            a = [F(rng.randrange(denom), denom) for _ in range(2)]
            kept = [x for x in range(1, N + 1)
                    if in_delta_box(tuple((ai + x * bi) % 1 for ai, bi in zip(a, b)), delta)]
            candidates.append((-len(kept), a, kept))
        _, a, kept = min(candidates)
        assert len(kept) > 0
        assert [str(ai) for ai in a] == prov["shift"]
        assert list(dset.elements) == kept

    @pytest.mark.parametrize("field, value", [
        ("shift", (F(0), F(0))), ("delta", F(1, 100)), ("slice_index", 0),
    ])
    def test_rejects_parameters_it_chooses(self, field, value):
        with pytest.raises(ParameterError, match=field):
            build_integer_set_direct(300, n=2, options=BuildOptions(**{field: value}))

    def test_separation_check_rejects_zero_direction(self):
        # b = (0, 1): t*b is within 1/8 of 0 in both coordinates for t <= 12
        off = np.arange(50)
        for lo, ok in ((1, False), (13, True)):
            for dtype in (np.int32, np.int64):
                base = base_coordinates([0, 1], 101, lo, off, dtype)
                assert separated([0, 1], 101, lo, off, base, 8) == ok

    def test_huge_n_refused(self, monkeypatch):
        # 300 has bit length 9: n = 8 builds, n = 10 and more are refused
        # before any row is made
        options = BuildOptions(trials=1)
        assert build_integer_set_direct(300, n=8, options=options).provenance["dimension"] == 8

        def no_row(*args):
            raise AssertionError("a row was made")

        monkeypatch.setattr(integers, "row_coordinate", no_row)
        for n in (10, 20000, 10**6):
            with pytest.raises(ParameterError, match="bit length 9"):
                build_integer_set_direct(300, n=n, options=options)

    @pytest.mark.parametrize("N, n, epsilon, seed", [
        (3000, 2, None, 24), (3000, 2, F(1, 12), 24), (2500, 4, None, 7),
    ])
    def test_chunk_size_does_not_change_the_set(self, monkeypatch, N, n, epsilon, seed):
        """Rows go through separation and every trial one chunk at a time.
        For these seeds the first direction fails separation only after row
        1000 (at t = 1156 and 1893), so its partial trial results must be
        dropped when the chunk is smaller."""
        options = BuildOptions(epsilon=epsilon, seed=seed, trials=4)
        want = build_integer_set_direct(N, n=n, options=options)
        for chunk in (7, 1000):
            monkeypatch.setattr(integers, "_SCAN_CHUNK", chunk)
            got = build_integer_set_direct(N, n=n, options=options)
            assert got.elements == want.elements
            assert got.provenance == want.provenance

    def test_certified_small_instances(self):
        for n in (2, 4):
            dset = build_integer_set_direct(500, n=n, options=BuildOptions(seed=2, trials=4))
            assert dset.verify().passed
            assert all(1 <= x <= 500 for x in dset.elements)

    def test_determinism(self):
        kw = dict(n=4, options=BuildOptions(seed=7, trials=4))
        assert build_integer_set_direct(400, **kw).elements == build_integer_set_direct(400, **kw).elements

    def test_validation(self):
        with pytest.raises(ParameterError):
            build_integer_set_direct(100, n=3)
        with pytest.raises(ParameterError):
            build_integer_set_direct(2)
        with pytest.raises(ParameterError, match="trials"):
            build_integer_set_direct(100, options=BuildOptions(trials=0))


class TestRowStream:
    def test_rows_exact_past_int64_products(self):
        """t*b exceeds 2^63 from t = 2^19 on; the coordinates still equal the
        Python-int residues (a + t*b) mod denom."""
        denom = (1 << 44) - 21
        a_nums, b_nums = [denom - 5, 12345], [denom - 3, (1 << 43) + 7]
        N = 600_000
        for a, b in zip(a_nums, b_nums):
            rows = []
            for lo in range(1, N + 1, integers._SCAN_CHUNK):
                off = np.arange(min(integers._SCAN_CHUNK, N + 1 - lo), dtype=np.int64)
                rows.append(row_coordinate(a, b, denom, lo, off))
            assert np.concatenate(rows).tolist() == [(a + t * b) % denom for t in range(1, N + 1)]

    @given(st.sampled_from([np.int32, np.int64]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_shifted_is_the_residue(self, dtype, data):
        """(base + a) mod denom on both first-pair dtypes, up to the largest
        denom whose sums base + a < 2*denom the dtype holds."""
        denom = data.draw(st.integers(1, 1 << (30 if dtype is np.int32 else 62)))
        value = st.sampled_from([0, denom - 1]) | st.integers(0, denom - 1)
        base, a = data.draw(st.lists(value, min_size=1, max_size=40)), data.draw(value)
        got = integers._shifted(np.array(base, dtype=dtype), a, denom)
        assert got.dtype == dtype
        assert got.tolist() == [(x + a) % denom for x in base]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_coordinate_is_the_residue(self, data):
        """(a + t*b) mod denom on the stream's int64 offsets, up to the
        largest denom the builder admits (2^18 * denom <= 2^62)."""
        denom = data.draw(st.integers(1, 1 << 44))
        value = st.sampled_from([0, denom - 1]) | st.integers(0, denom - 1)
        a, b = data.draw(value), data.draw(value)
        lo = data.draw(st.integers(1, 10**15))
        edge = st.sampled_from([0, integers._SCAN_CHUNK - 1])
        off = data.draw(st.lists(edge | st.integers(0, integers._SCAN_CHUNK - 1),
                                 min_size=1, max_size=40))
        got = row_coordinate(a, b, denom, lo, np.array(off, dtype=np.int64))
        assert got.tolist() == [(a + (lo + x) * b) % denom for x in off]

    @pytest.mark.parametrize("epsilon, n, denom, dtype", [
        (F(1, 8), 4, 16777213, np.int32), (F(1, 8), 4, 16777259, np.int64),
        (F(1, 12), 4, 11184799, np.int32), (F(1, 12), 4, 11184829, np.int64),
        (None, 2, 9761287, np.int32), (None, 2, 9761291, np.int64),
    ])
    def test_first_pair_bound_edge(self, monkeypatch, epsilon, n, denom, dtype):
        """A trial's first pair runs on int32 exactly when region_factor *
        denom < 2^31 (128, 192 and the box's 4*ceil(sqrt(3000)) = 220 times
        the prime denominator, just below and just above), and every (t, J)
        equals the int64 path's."""
        N, options = 3000, BuildOptions(epsilon=epsilon, seed=5, trials=4)
        factor = region_factor(epsilon, F(1, 4 * integers.int_nthroot_ceil(N, n)))
        assert (factor * denom < 1 << 31) == (dtype is np.int32)
        assert abs(factor * denom - (1 << 31)) < 50 * factor
        monkeypatch.setattr(integers, "_next_prime", lambda k: denom)
        kept, seen = integers.kept_slices, []

        def spy(shifts, b_nums, denom, lo, off, base, *region):
            rows = kept(shifts, b_nums, denom, lo, off, base, *region)
            assert len(rows) == len(shifts)
            seen.extend((base[0].dtype.type, base[1].dtype.type, t.tolist(), J.tolist())
                        for t, J in rows)
            return rows

        monkeypatch.setattr(integers, "kept_slices", spy)
        want = build_integer_set_direct(N, n=n, options=options)
        narrow, seen = seen, []
        monkeypatch.setattr(integers, "first_pair_dtype", lambda *args: np.int64)
        got = build_integer_set_direct(N, n=n, options=options)
        assert {x[:2] for x in narrow} == {(dtype, dtype)}
        assert {x[:2] for x in seen} == {(np.int64, np.int64)}
        assert [x[2:] for x in narrow] == [x[2:] for x in seen]
        assert sum(len(x[2]) for x in seen) > 0
        assert (got.elements, got.provenance) == (want.elements, want.provenance)

    @pytest.mark.parametrize("n, epsilon, first", [
        (2, None, None), (4, F(1, 12), None), (2, None, np.int64), (4, F(1, 12), np.int64),
    ])
    def test_stacks_are_each_trial_alone(self, monkeypatch, n, epsilon, first):
        """The stream's stacks of 1..T trials, over chunks of 97 rows, give
        every trial the per-row loop's rows and slices over t = 1..N, on
        the int32 first pair (the one these denominators get) and on int64.
        A wide region (delta 1/4 for the box, 1/6 for the block) keeps rows
        in every trial, and a separation radius of 0 passes every row."""
        N, trials, denom = 1000, 5, 8009
        rng = random.Random(n)
        shifts = [[rng.randrange(denom) for _ in range(n)] for _ in range(trials)]
        b_nums = [rng.randrange(1, denom) for _ in range(n)]
        delta = F(1, 4) if epsilon is None else F(1, 6)
        region = (epsilon, delta, *slice_ratio(epsilon, delta, denom * denom))
        if first is not None:
            monkeypatch.setattr(integers, "first_pair_dtype", lambda *args: first)
        want = [TestRowSlices.per_row(a_nums, b_nums, denom, range(1, N + 1), *region)
                for a_nums in shifts]
        assert all(want) and want[0] != want[1]
        monkeypatch.setattr(integers, "_SCAN_CHUNK", 97)
        stacks, kept = [], integers.kept_slices

        def spy(shifts, b_nums, denom, lo, off, base, *region):
            stacks.append(len(shifts))
            assert base[0].dtype == (first or np.int32) and off.dtype == np.int32
            return kept(shifts, b_nums, denom, lo, off, base, *region)

        monkeypatch.setattr(integers, "kept_slices", spy)
        for depth in range(1, trials + 1):
            monkeypatch.setattr(integers, "_STACK_CELLS", depth * 97)
            stacks.clear()
            got = integers._stream(b_nums, shifts, denom, N, denom + 1, region)
            chunk = [min(depth, trials - i) for i in range(0, trials, depth)]
            assert stacks[:len(chunk)] == chunk and sum(stacks) == trials * -(-N // 97)
            assert [list(zip(t.tolist(), J.tolist())) for t, J in got] == want

    @pytest.mark.parametrize("N, trials, dtype", [
        (100_000, 4, np.int32), (986_895, 16, np.int32), (3_355_443, 4, np.int64),
    ])
    def test_first_pair_dtype_of_benchmarked_builds(self, monkeypatch, N, trials, dtype):
        """The benchmark's int-direct build and the 16-trial ceiling run their
        first pairs on int32; the --trials 4 ceiling (128 * 26843549 > 2^31)
        stays on int64.  The first trial's first chunk shows it."""
        class Seen(Exception):
            pass

        def spy(shifts, b_nums, denom, lo, off, base, *region):
            raise Seen(base[0].dtype.type, base[1].dtype.type)

        monkeypatch.setattr(integers, "kept_slices", spy)
        with pytest.raises(Seen) as seen:
            build_integer_set_direct(N, options=BuildOptions(trials=trials))
        assert seen.value.args == (dtype, dtype)

    @pytest.mark.parametrize("denom, factor", [((1 << 61) - 1, 1), (1 << 40, 1 << 23)])
    def test_budget_checked_before_any_row(self, monkeypatch, denom, factor):
        """The bound covers the chunk offsets (2^18) and the region test's
        factor (16 / epsilon for the block: epsilon 1/2^19 gives 2^23)."""
        def no_row(*args):
            raise AssertionError("a row was made")

        monkeypatch.setattr(integers, "_next_prime", lambda k: denom)
        monkeypatch.setattr(integers, "row_coordinate", no_row)
        epsilon = None if factor == 1 else F(16, factor)
        with pytest.raises(ValueError, match="int64-exactness budget"):
            build_integer_set_direct(300, n=2, options=BuildOptions(epsilon=epsilon))


class TestRowSlices:
    """The direct route's pair-by-pair kernel against the per-row loop: one
    Python-int row at a time, every pair tested with the scalar region test,
    then one scaled_weight sum and floor division."""

    @staticmethod
    def per_row(a_nums, b_nums, denom, ts, epsilon, delta, num, den):
        kept = []
        for t in ts:
            row = [(a + t * b) % denom for a, b in zip(a_nums, b_nums)]
            pairs = [(row[h], row[h + 1]) for h in range(0, len(row), 2)]
            if all(scaled_box(delta, denom, u, v) if epsilon is None
                   else scaled_in_block(epsilon, denom, u, v) for u, v in pairs):
                s = 0 if epsilon is None else sum(scaled_weight(epsilon, denom, u, v)
                                                  for u, v in pairs)
                kept.append((t, num * s // den))
        return kept

    @staticmethod
    def kernel(a_nums, b_nums, denom, lo, size, epsilon, delta, num, den):
        return TestRowSlices.stack([a_nums], b_nums, denom, lo, size, epsilon, delta, num, den)[0]

    @staticmethod
    def stack(shifts, b_nums, denom, lo, size, epsilon, delta, num, den):
        # the stream's int32 offsets, and the base on its dtype: int32 at
        # 997 and 800_011, int64 at (1 << 31) - 1 and past it
        off = np.arange(size, dtype=np.int32)
        base = base_coordinates(b_nums, denom, lo, off, first_pair_dtype(epsilon, delta, denom))
        rows = kept_slices(shifts, b_nums, denom, lo, off, base, epsilon, delta, num, den)
        assert len(rows) == len(shifts)
        return [(list(zip(t.tolist(), J.tolist())), J) for t, J in rows]

    @given(st.sampled_from([2, 4, 6]), st.sampled_from([None, F(1, 12), "1/n"]),
           st.sampled_from([997, 800_011, (1 << 31) - 1, (1 << 40) - 87]), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_row_loop(self, n, epsilon, denom, seed):
        epsilon = F(1, n) if epsilon == "1/n" else epsilon
        delta = F(1, seed % 7 + 2)
        rng = random.Random(seed)
        a_nums = [rng.randrange(denom) for _ in range(n)]
        b_nums = [rng.randrange(1, denom) for _ in range(n)]
        lo, size = rng.randrange(1, 10**12), 1000
        num, den = slice_ratio(epsilon, delta, denom * denom)
        kept, J = self.kernel(a_nums, b_nums, denom, lo, size, epsilon, delta, num, den)
        assert kept == self.per_row(a_nums, b_nums, denom, range(lo, lo + size),
                                    epsilon, delta, num, den)
        pairs_bound = n // 2 * weight_factor(epsilon) * denom * denom if epsilon else 0
        if max(num * pairs_bound, den) > 1 << 62:
            assert J.dtype == object

    @given(st.sampled_from([2, 4]), st.sampled_from([None, F(1, 12)]),
           st.sampled_from([997, 800_011, (1 << 31) - 1]), st.integers(1, 6),
           st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_stack_matches_per_row_loop(self, n, epsilon, denom, depth, seed):
        """A stack of shifts, tested as one (shifts, rows) array and carried
        as (trial, offset) entries, gives each shift the per-row loop's
        rows and slices."""
        delta = F(1, seed % 5 + 2)
        rng = random.Random(seed)
        shifts = [[rng.randrange(denom) for _ in range(n)] for _ in range(depth)]
        b_nums = [rng.randrange(1, denom) for _ in range(n)]
        lo, size = rng.randrange(1, 10**12), 300
        num, den = slice_ratio(epsilon, delta, denom * denom)
        got = self.stack(shifts, b_nums, denom, lo, size, epsilon, delta, num, den)
        for a_nums, (kept, J) in zip(shifts, got, strict=True):
            assert kept == self.per_row(a_nums, b_nums, denom, range(lo, lo + size),
                                        epsilon, delta, num, den)
            assert J.dtype == got[0][1].dtype

    def test_int64_path_on_route_sized_grid(self):
        denom, n, epsilon, delta = 800_011, 8, F(1, 8), F(1, 4)
        num, den = slice_ratio(epsilon, delta, denom * denom)
        assert 4 * weight_factor(epsilon) * denom ** 2 * num <= 1 << 62
        a_nums = [(31 * i) % denom for i in range(n)]
        b_nums = [(97 + 7919 * i) % denom for i in range(n)]
        kept, J = self.kernel(a_nums, b_nums, denom, 1, 4000, epsilon, delta, num, den)
        assert J.dtype == np.int64 and kept
        assert kept == self.per_row(a_nums, b_nums, denom, range(1, 4001),
                                    epsilon, delta, num, den)
