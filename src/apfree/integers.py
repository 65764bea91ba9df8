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

Every root/logarithm comparison is done on integers (cross-multiplied
powers); no floats are involved in any decision.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import budget
from .dsets import DiscreteSet
from .gridscan import (INT64_SAFE, exact_dtype, region_factor, scaled_box, scaled_piece,
                       scaled_weight, weight_factor)
from .groups import (BuildOptions, build_group_set, pick_slice, region_epsilon, slice_indices,
                     slice_ratio, trial_rng)
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


def crt_decode(moduli, x: int) -> tuple[int, ...]:
    return tuple(x % m for m in moduli)


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
    if N < 3:
        raise ParameterError(f"N={N} must be >= 3")
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
    return DiscreteSet(kind="integer", bound=N, elements=tuple(elements), provenance=prov)


# -- direct route -----------------------------------------------------------


def _next_prime(k: int) -> int:
    k = max(2, k + 1)
    while True:
        if all(k % p for p in range(2, int(math.isqrt(k)) + 1)):
            return k
        k += 1


_SCAN_CHUNK = 1 << 18  # rows per chunk of the stream
# directions tried: by the union bound one fails separation with
# probability about 2^-n <= 1/4
_DIRECTION_ATTEMPTS = 64


def row_coordinate(a: int, b: int, denom: int, lo: int, off):
    """Numerators (a + (lo + off)*b) mod denom, exactly: the start is taken on
    Python ints, so int64 holds only off*b (off < _SCAN_CHUNK)."""
    return (off * b + (a + lo * b) % denom) % denom


def separated(b_nums: list[int], denom: int, lo: int, off, four_c: int) -> bool:
    """Whether every t*b, t = lo + off, has a coordinate farther than 1/(4c)
    from 0 mod 1; each coordinate is made only for the rows still close."""
    for b in b_nums:
        r = row_coordinate(0, b, denom, lo, off)
        off = off[four_c * np.minimum(r, denom - r) <= denom]
    return not len(off)


def kept_slices(a_nums: list[int], b_nums: list[int], denom: int, lo: int, off,
                epsilon: Fraction | None, delta: Fraction, num: int, den: int):
    """(t, J): the rows t = lo + off whose point a + t*b mod 1 lies in the
    region (the box [0,delta)^2 when epsilon is None), each pair tested only
    on the rows the pairs before it kept, and their slice indices
    (num * s) // den, s the sum of their pairs' scaled_weight (0 in the box)
    on exact_dtype(n/2 * weight_factor * denom^2), as ``slice_indices``."""
    pairs = range(0, len(b_nums), 2)
    s_max = 0 if epsilon is None else len(pairs) * weight_factor(epsilon) * denom * denom
    for h in pairs:
        U, V = (row_coordinate(a_nums[i], b_nums[i], denom, lo, off) for i in (h, h + 1))
        off = off[scaled_box(delta, denom, U, V) if epsilon is None
                  else scaled_piece(epsilon, denom, U, V) > 0]
    s = np.zeros(len(off), dtype=exact_dtype(s_max))
    if epsilon is not None:
        for h in pairs:
            U, V = (row_coordinate(a_nums[i], b_nums[i], denom, lo, off).astype(s.dtype)
                    for i in (h, h + 1))
            s += scaled_weight(epsilon, denom, U, V)
    return lo + off, slice_indices(s, s_max, num, den)


def _stream(b_nums, shifts, denom: int, N: int, four_c: int, region):
    """Per shift, the (t, J) of ``kept_slices`` over t = 1..N, each chunk
    checked for separation first; None when one fails."""
    kept = [[] for _ in shifts]
    for lo in range(1, N + 1, _SCAN_CHUNK):
        off = np.arange(min(_SCAN_CHUNK, N + 1 - lo), dtype=np.int64)
        if not separated(b_nums, denom, lo, off, four_c):
            return None
        for a_nums, part in zip(shifts, kept):
            part.append(kept_slices(a_nums, b_nums, denom, lo, off, *region))
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
    # separation's and the region test's intermediates stay below factor * denom
    factor = max(_SCAN_CHUNK, four_c, region_factor(epsilon, delta))
    if factor * denom > INT64_SAFE:
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
    candidates = []
    for a_nums, (t, J) in zip(shifts, kept):
        j, count, _, hit = pick_slice(J)
        candidates.append((-count, a_nums, j, t[hit].tolist()))
    # the fullest slice of all trials; ties to the smallest shift
    _, a_nums, j, elements = min(candidates)
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
    return DiscreteSet(kind="integer", bound=N, elements=tuple(elements), provenance=prov)
