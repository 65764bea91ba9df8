"""Progression-free subsets of {1,...,N}.

Two routes:

* prime-power route: pick an even dimension n, the first n primes, and
  prime powers m_i with product in [N/p, N]; build a group set over
  Z_m1 x ... x Z_mn and carry it into {1,...,N} through the residue
  isomorphism (progressions correspond exactly, and a cyclic-group
  progression-free set has no integer progression either);
* direct route: embed x -> a + x*b mod 1 with an exactly-checked b whose
  multiples all clear a width-delta corridor around 0, then take a slice
  pre-image of the same region as in the group case, on integer numerators
  over one prime denominator: one stream of rows per direction checks
  separation (``separated``) and keeps, weighs and slices each trial's rows
  pair by pair (``kept_slices``, the group kernel's exact slice step).
  Each trial's fullest slice is read from its sorted slice indices by the
  group kernel's ``slice_runs``; only the winner's rows are matched to it.
  Each chunk of rows makes its first pair's coordinates t*b mod 1 once
  (``base_coordinates``), on int32 when region_factor * denom < 2^31
  (``first_pair_dtype``), which bounds every value that separation and a
  trial's shift and region test make from them.  Separation reads the
  first of them, and a trial shifts both without a multiply (the smaller
  of r and r - denom on r's unsigned view); later pairs are made, on int64
  with floor division in place of ``%``, only for the rows still kept.
  The chunk's row offsets are int32 (they are below 2^18), and every
  compress of them is ``np.compress``, which numpy does several times
  faster than a boolean index.  Trials go through a chunk in stacks of at
  most _STACK_CELLS trials times rows: a stack's first pairs are one
  (trials, rows) array, tested as one, and its kept cells go on as
  (trial, offset) entries, the trial a small int, each later coordinate
  starting at its entry's trial's start.  A chunk of more than 2^14 rows
  is a stack of one trial, with one start per coordinate.

Every root/logarithm comparison is done on integers (cross-multiplied
powers); no floats are involved in any decision.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import budget, rational
from .blocks import region_factor, scaled_box, scaled_in_block, scaled_weight, weight_factor
from .dsets import DiscreteSet
from .groups import (BuildOptions, build_group_set, is_prime, region_epsilon, slice_indices,
                     slice_ratio, slice_runs, trial_rng)
from .rational import rat_str

# rate constant reported with integer-route provenance:
# 2*sqrt(log2(24/7)) ~ 2.6665, below the 2*sqrt(2) ~ 2.8284 of the
# sphere-digit baseline
RATE_CONSTANT = "2*sqrt(log2(24/7))"
RATE_CONSTANT_APPROX = "2.6665"


class ParameterError(ValueError):
    """Construction parameters violate a stated hypothesis."""


def choose_dimension(N: int) -> int:
    """Smallest even n with n >= 2*sqrt(log2(N)/log2(24/7)), decided by the
    equivalent integer comparison 24^(n^2) >= 7^(n^2) * N^4; at least 2."""
    if N < 3:
        raise ParameterError(f"N={N} must be >= 3")
    n = 2
    while 24 ** (n * n) < 7 ** (n * n) * N**4:
        n += 2
    return n


def first_primes(n: int) -> list[int]:
    """The first n primes; checks p_n <= 100*n*log2(n) for n >= 2 via the
    integer form 2^p <= n^(100n)."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    if n >= 2:
        p = primes[-1]
        if 2**p > n ** (100 * n):
            raise RuntimeError(f"prime bound violated: p={p}, n={n}")
    return primes


def int_nthroot_ceil(N: int, n: int) -> int:
    """Smallest c with c^n >= N, by integer bisection."""
    if N <= 1:
        return N
    lo, hi = 1, 1
    while hi**n < N:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n >= N:
            hi = mid
        else:
            lo = mid + 1
    return lo


def choose_moduli(N: int, n: int, primes: list[int]) -> list[int]:
    """Greedy prime-power moduli: start each m_i at the unique power of p_i
    in [N^(1/n), N^(1/n)*p_i), then repeatedly divide the largest m_i that
    still exceeds its prime (ties: smallest index) until the product is at
    most N.  The final product lies in [N/max(p), N]."""
    if math.prod(primes) > N:
        raise ParameterError(
            f"product of the first {n} primes exceeds N={N}; use a smaller even n"
        )
    moduli = []
    for p in primes:
        m = p
        while m**n < N:
            m *= p
        moduli.append(m)
    while math.prod(moduli) > N:
        divisible = [i for i in range(n) if moduli[i] > primes[i]]
        i = min(divisible, key=lambda k: (-moduli[k], k))
        moduli[i] //= primes[i]
    p = max(primes)
    if not math.prod(moduli) <= N <= math.prod(moduli) * p:
        raise RuntimeError(f"moduli {moduli} have product outside [N/{p}, N] for N={N}")
    for m, q in zip(moduli, primes):
        if not (q <= m and m**n < N * q**n):
            raise RuntimeError(f"modulus {m} outside [{q}, N^(1/n)*{q}) for N={N}, n={n}")
    return moduli


def crt_encode(moduli, residues) -> int:
    """The unique x in {1,...,prod(m_i)} with x = r_i mod m_i (0 maps to the
    product).  Moduli must be pairwise coprime."""
    x, big_m = 0, 1
    for m, r in zip(moduli, residues):
        if math.gcd(big_m, m) != 1:
            raise ValueError(f"moduli {tuple(moduli)} are not pairwise coprime")
        # combine x (mod big_m) with r (mod m)
        inv = pow(big_m % m, -1, m)
        x = x + big_m * (((r - x) * inv) % m)
        big_m *= m
    return x if x != 0 else big_m


def feasible_dimension(N: int, n_start: int) -> int:
    """Largest feasible even n <= n_start (first n primes multiply to <= N)."""
    n = n_start
    while n >= 2 and math.prod(first_primes(n)) > N:
        n -= 2
    if n < 2:
        raise ParameterError(f"N={N} is too small for the prime-power route (needs N >= 6)")
    return n


def build_integer_set(N: int, options: BuildOptions = BuildOptions(),
                      n_override: int | None = None) -> DiscreteSet:
    """Prime-power route driver.  Without an override the dimension steps
    down from the rate-optimal window to the largest feasible even value."""
    window_n = choose_dimension(N)
    if n_override is not None:
        n = int(n_override)
        if n < 2 or n % 2 != 0:
            raise ParameterError(f"n-override {n} must be even and >= 2")
        # the first n primes multiply to at least 2^n > N: refuse before
        # seeking them by trial division (8000 take 1.7 s, and the time
        # grows faster than n)
        if n >= N.bit_length():
            raise ParameterError(f"product of the first {n} primes exceeds N={N}; "
                                 f"use a smaller even n")
    else:
        n = feasible_dimension(N, window_n)
    primes = first_primes(n)
    moduli = choose_moduli(N, n, primes)
    group = build_group_set(tuple(moduli), options)
    elements = [crt_encode(moduli, e) for e in group.elements]
    prov = dict(group.provenance)
    prov.update(
        {
            "construction": "int",
            "bound": N,
            "dimension": n,
            "window_dimension": window_n,
            "primes": primes,
            "moduli": list(moduli),
            "group_size": group.size,
            "rate_constant": RATE_CONSTANT,
            "rate_constant_approx": RATE_CONSTANT_APPROX,
        }
    )
    return DiscreteSet(kind="integer", bound=N, elements=elements, provenance=prov)


# -- direct route -----------------------------------------------------------


def _next_prime(k: int) -> int:
    k = max(2, k + 1)
    while not is_prime(k):
        k += 1
    return k


_SCAN_CHUNK = 1 << 18  # rows per chunk of the stream
# trials times rows of one stack of trials, one trial at least; at most
# _SCAN_CHUNK, so a stack never holds more cells than a chunk.  16-trial
# builds (2-vCPU host) took 20-63% less time at N = 1000-8000 than trial
# by trial, and the same within 1% at N = 12000-16000 (stacks of two); at
# 2^16 they took 5-18% more than at 2^15 for N = 4000-16000, and 38-53%
# more for N = 20000-30000, which 2^15 no longer stacks
_STACK_CELLS = 1 << 15
# directions tried: by the union bound one fails separation with
# probability about 2^-n <= 1/4
_DIRECTION_ATTEMPTS = 64


def _residue(off, b: int, start, denom: int):
    """(start + off*b) mod denom on int64 for 0 <= start < denom, start a
    Python int or an array of one per offset: int64 holds x = off*b + start
    (off < _SCAN_CHUNK), and its remainder is x - (x // denom)*denom, x >= 0
    (numpy divides an array by a scalar several times faster than it takes
    ``%``)."""
    x = np.multiply(off, b, dtype=np.int64)
    x += start
    q = x // denom
    q *= denom
    x -= q
    return x


def row_coordinate(a: int, b: int, denom: int, lo: int, off):
    """Numerators (a + (lo + off)*b) mod denom, exactly: the start is taken on
    Python ints, and the rest by ``_residue``."""
    return _residue(off, b, (a + lo * b) % denom, denom)


def base_coordinates(b_nums: list[int], denom: int, lo: int, off, dtype) -> list:
    """The first pair's coordinates (lo + off)*b_i mod denom, i = 0, 1, of a
    chunk, on dtype (``first_pair_dtype``): separation reads the first, and
    every trial shifts both."""
    return [row_coordinate(0, b, denom, lo, off).astype(dtype, copy=False) for b in b_nums[:2]]


def first_pair_dtype(epsilon: Fraction | None, delta: Fraction, denom: int):
    """The dtype of a chunk's first pair: int32 when region_factor * denom
    < 2^31, which bounds the region test's intermediates, the shift before
    its wrap (below 2*denom, and region_factor >= 2 as delta < 1) and
    separation's distances to 0 (at most denom), else int64."""
    return np.int32 if region_factor(epsilon, delta) * denom < 1 << 31 else np.int64


def _shifted(base, a, denom: int):
    """(base + a) mod denom for 0 <= base, a < denom, without a multiply:
    on the unsigned view of r = base + a < 2*denom, r - denom wraps past r
    exactly when r < denom, so the smaller of r and r - denom is the
    residue.  a is a Python int or a column of one per row of a stack."""
    r = base + a
    u = r.view(f"u{r.itemsize}")
    np.minimum(u, u - denom, out=u)
    return r


def separated(b_nums: list[int], denom: int, lo: int, off, base, four_c: int) -> bool:
    """Whether every t*b, t = lo + off, has a coordinate farther than 1/(4c)
    from 0 mod 1, i.e. distance d > denom // 4c; the first is base[0]
    (``base_coordinates``), and each later one is made only for the rows
    still close."""
    for i, b in enumerate(b_nums):
        r = row_coordinate(0, b, denom, lo, off) if i else base[0]
        off = np.compress(np.minimum(r, denom - r) <= denom // four_c, off)
    return not len(off)


def kept_slices(shifts: list[list[int]], b_nums: list[int], denom: int, lo: int, off, base,
                epsilon: Fraction | None, delta: Fraction, num: int, den: int) -> list:
    """Per shift a of a stack, (t, J): the rows t = lo + off whose point
    a + t*b mod 1 lies in the region (the box [0,delta)^2 when epsilon is
    None), each pair tested only on the rows the pairs before it kept, and
    their slice indices (num * s) // den, s the sum of their pairs'
    scaled_weight (0 in the box) on exact_dtype(n/2 * weight_factor *
    denom^2), as ``slice_indices``.  The first pair is the chunk's
    ``base_coordinates``, on ``first_pair_dtype``, shifted by a: for a
    stack of several shifts one (shifts, rows) array, tested as one.  Its
    kept cells go on as (trial, offset) entries, in trial order, and each
    later coordinate starts at its entry's trial's (a_i + lo*b_i) mod
    denom.  A stack of one shift compresses its offsets alone, with one
    start per coordinate."""
    pairs = range(0, len(b_nums), 2)
    s_max = 0 if epsilon is None else len(pairs) * weight_factor(epsilon) * denom * denom
    one = len(shifts) == 1

    def coordinates(h):
        """Pair h's coordinates of the kept entries (``off``, ``trial``)."""
        if one:
            return (row_coordinate(shifts[0][i], b_nums[i], denom, lo, off) for i in (h, h + 1))
        return (_residue(off, b_nums[i], np.array([(a[i] + lo * b_nums[i]) % denom
                                                   for a in shifts])[trial], denom)
                for i in (h, h + 1))

    for h in pairs:
        if h:
            U, V = coordinates(h)
        elif one:
            U, V = (_shifted(base[i], shifts[0][i], denom) for i in (0, 1))
        else:  # the stack's shifts as a column against the chunk's rows
            U, V = (_shifted(base[i], np.array([a[i] for a in shifts], dtype=base[i].dtype)
                             [:, None], denom) for i in (0, 1))
        keep = (scaled_box(delta, denom, U, V) if epsilon is None
                else scaled_in_block(epsilon, denom, U, V))
        if not (h or one):  # the stack's cells as (trial, offset) entries
            keep = keep.ravel()
            trial = np.repeat(np.arange(len(shifts), dtype=np.min_scalar_type(len(shifts) - 1)),
                              len(off))
            off = np.tile(off, len(shifts))
        if not one:
            trial = np.compress(keep, trial)
        off = np.compress(keep, off)
    s = np.zeros(len(off), dtype=rational.exact_dtype(s_max))
    if epsilon is not None:
        for h in pairs:
            U, V = (x.astype(s.dtype) for x in coordinates(h))
            s += scaled_weight(epsilon, denom, U, V)
    t, J = off + np.int64(lo), slice_indices(s, s_max, num, den)
    if one:
        return [(t, J)]
    cut = [0, *np.cumsum(np.bincount(trial, minlength=len(shifts))).tolist()]
    return [(t[i:k], J[i:k]) for i, k in zip(cut, cut[1:])]


def _stream(b_nums, shifts, denom: int, N: int, four_c: int, region):
    """Per shift, the (t, J) of ``kept_slices`` over t = 1..N, each chunk
    checked for separation first, its trials in stacks of at most
    _STACK_CELLS cells (one trial at least); None when a chunk fails.  A
    chunk's offsets are int32, as they are below _SCAN_CHUNK."""
    kept = [[] for _ in shifts]
    narrow = first_pair_dtype(*region[:2], denom)
    for lo in range(1, N + 1, _SCAN_CHUNK):
        rows = min(_SCAN_CHUNK, N + 1 - lo)
        off = np.arange(rows, dtype=np.int32)
        base = base_coordinates(b_nums, denom, lo, off, narrow)
        if not separated(b_nums, denom, lo, off, base, four_c):
            return None
        depth = max(1, _STACK_CELLS // rows)
        for first in range(0, len(shifts), depth):
            stack = shifts[first:first + depth]
            for part, tJ in zip(kept[first:first + depth],
                                kept_slices(stack, b_nums, denom, lo, off, base, *region)):
                part.append(tJ)
    return [[np.concatenate(x) for x in zip(*part)] for part in kept]


def build_integer_set_direct(N: int, n: int | None = None,
                             options: BuildOptions = BuildOptions()) -> DiscreteSet:
    """Direct-embedding route.  delta = 1/(4*ceil(N^(1/n))) is the largest
    grid value below the true corridor width; b and the shifts share one
    prime denominator above 8N so no multiple of b can vanish mod 1.  It
    chooses its own shift, delta and slice, and refuses an explicit n past
    N.bit_length().  The N rows, streamed once per direction through
    separation and every trial, are charged as 1 + trials walks first."""
    for name in ("shift", "delta", "slice_index"):
        if getattr(options, name) is not None:
            raise ParameterError(f"the direct route chooses its own {name}; none may be given")
    if N < 3:
        raise ParameterError(f"N={N} must be >= 3")
    if options.trials < 1:
        raise ParameterError(f"trials={options.trials} must be >= 1")
    if n is not None and n > N.bit_length():
        raise ParameterError(f"n={n} exceeds the bit length {N.bit_length()} of N={N}; from "
                             f"there on delta stays 1/8 and each further pair only shrinks the set")
    n = int(n) if n is not None else choose_dimension(N)
    if n < 2 or n % 2 != 0:
        raise ParameterError(f"n={n} must be even and >= 2")
    epsilon = region_epsilon(options.epsilon, n)
    walks = 1 + options.trials
    budget.charge("PRODUCT", f"row stream of {N} rows, walked {walks} times,", walks * N)
    four_c = 4 * int_nthroot_ceil(N, n)
    delta = Fraction(1, four_c)
    denom = _next_prime(8 * N)
    # the row coordinates' and the region test's intermediates stay below
    # factor * denom
    factor = max(_SCAN_CHUNK, region_factor(epsilon, delta))
    if factor * denom > rational.INT64_SAFE:
        raise ValueError(f"grid denominator {denom} times {factor} exceeds "
                         f"the int64-exactness budget 2^62")
    region = (epsilon, delta, *slice_ratio(epsilon, delta, denom * denom))
    rngs = (trial_rng(options.seed, "shift", trial) for trial in range(options.trials))
    shifts = [[rng.randrange(denom) for _ in range(n)] for rng in rngs]
    for attempt in range(_DIRECTION_ATTEMPTS):
        rng = trial_rng(options.seed, "direction", attempt)
        b_nums = [rng.randrange(1, denom) for _ in range(n)]
        kept = _stream(b_nums, shifts, denom, N, four_c, region)
        if kept is not None:
            break
    else:
        raise budget.BudgetError(f"no valid direction found in {_DIRECTION_ATTEMPTS} "
                                 f"attempts (N={N}, n={n})")
    picks = []
    for a_nums, (t, J) in zip(shifts, kept):
        j, count, _ = slice_runs(np.sort(J))
        picks.append(((-count, a_nums, j), t, J))
    # the fullest slice of all trials, ties to the smallest shift; only the
    # winner's rows are matched and decoded
    (_, a_nums, j), t, J = min(picks, key=lambda pick: pick[0])
    elements = np.compress(J == j, t).tolist()
    prov = {
        "construction": "int-direct",
        "bound": N,
        "dimension": n,
        "delta": rat_str(delta),
        "epsilon": rat_str(epsilon) if epsilon is not None else None,
        "route": "slice" if epsilon is not None else "box",
        "direction": [rat_str(Fraction(k, denom)) for k in b_nums],
        "shift": [rat_str(Fraction(k, denom)) for k in a_nums],
        "grid_denominator": denom,
        "slice_index": j,
        "seed": options.seed,
        "trials": options.trials,
        "certified_by_construction": True,
    }
    return DiscreteSet(kind="integer", bound=N, elements=elements, provenance=prov)
