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
  over one prime denominator, streamed by ``row_chunks`` and weighed and
  sliced by ``row_slices`` (the group kernel's exact slice step).

Every root/logarithm comparison is done on integers (cross-multiplied
powers); no floats are involved in any decision.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .dsets import DiscreteSet
from .gridscan import (INT64_SAFE, exact_dtype, region_factor, scaled_box, scaled_piece,
                       scaled_weight, weight_factor)
from .groups import (BudgetError, BuildOptions, _charge, build_group_set, fullest_slice,
                     region_epsilon, slice_histogram, slice_indices, slice_ratio, trial_rng)
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


_SCAN_CHUNK = 1 << 18  # bounds the (chunk, n) work matrices


def row_chunks(a_nums: list[int], b_nums: list[int], denom: int, N: int, factor: int):
    """Yield (t, rows) over t = 1..N in chunks, rows[k, i] = (a_i + t[k]*b_i)
    mod denom, exactly.  Each chunk starts from (a + lo*b) mod denom on
    Python ints, so int64 holds only offset*b (offset < _SCAN_CHUNK); the
    caller's test keeps its intermediates below ``factor`` * denom.  Both
    stay below 2^62, which is checked before any row is made."""
    if max(_SCAN_CHUNK, factor) * denom > INT64_SAFE:
        raise ValueError(
            f"grid denominator {denom} times {max(_SCAN_CHUNK, factor)} exceeds "
            f"the int64-exactness budget 2^62"
        )
    b = np.array(b_nums, dtype=np.int64)
    for lo in range(1, N + 1, _SCAN_CHUNK):
        hi = min(lo + _SCAN_CHUNK, N + 1)
        rows = np.arange(hi - lo, dtype=np.int64)[:, None] * b[None, :]
        rows += np.array([(a + lo * k) % denom for a, k in zip(a_nums, b_nums)], dtype=np.int64)
        rows %= denom
        yield np.arange(lo, hi, dtype=np.int64), rows


def separation_ok(b_nums: list[int], denom: int, N: int, four_c: int) -> bool:
    """Exact check that every multiple t*b (t = 1..N) has some coordinate
    farther than 1/(4c) from 0 mod 1: min(r, Q-r) * 4c > Q for some i."""
    for _, r in row_chunks([0] * len(b_nums), b_nums, denom, N, four_c):
        dist = np.minimum(r, denom - r, out=r)
        if not (four_c * dist > denom).any(axis=1).all():
            return False
    return True


def row_slices(rows, epsilon: Fraction | None, denom: int, num: int, den: int):
    """Slice index (num * s) // den of each row of numerators in [0, denom),
    s the sum of its pairs' scaled_weight (box rows, epsilon None, weigh 0).
    The sums run in int64 when n/2 * weight_factor * denom^2 is at most
    2^62, else on Python ints; the index follows ``slice_indices``."""
    pairs = rows.shape[1] // 2
    s_max = 0 if epsilon is None else pairs * weight_factor(epsilon) * denom * denom
    rows = rows.astype(exact_dtype(s_max), copy=False)
    if epsilon is None:
        s = np.zeros(len(rows), dtype=rows.dtype)
    else:
        s = sum(scaled_weight(epsilon, denom, rows[:, h], rows[:, h + 1])
                for h in range(0, 2 * pairs, 2))
    return slice_indices(s, s_max, num, den)


def build_integer_set_direct(N: int, n: int | None = None,
                             options: BuildOptions = BuildOptions(),
                             b_trials: int = 64) -> DiscreteSet:
    """Direct-embedding route.  delta = 1/(4*ceil(N^(1/n))) is the largest
    grid value below the true corridor width; b and the shifts share one
    prime denominator above 8N so no multiple of b can vanish mod 1.  It
    chooses its own shift, delta and slice.  The N rows, streamed once for
    the direction and once per trial, are charged to the work budget
    before the denominator is sought."""
    for name in ("shift", "delta", "slice_index"):
        if getattr(options, name) is not None:
            raise ParameterError(f"the direct route chooses its own {name}; none may be given")
    if N < 3:
        raise ParameterError(f"N={N} must be >= 3")
    if options.trials < 1:
        raise ParameterError(f"trials={options.trials} must be >= 1")
    n = int(n) if n is not None else choose_dimension(N)
    if n < 2 or n % 2 != 0:
        raise ParameterError(f"n={n} must be even and >= 2")
    epsilon = region_epsilon(options.epsilon, n)
    # the direction check and each trial stream all N rows
    _charge(f"row stream of {N} rows", N, np.int64, 1 + options.trials)
    c = int_nthroot_ceil(N, n)
    four_c = 4 * c
    delta = Fraction(1, four_c)
    denom = _next_prime(8 * N)
    b_nums = None
    for attempt in range(b_trials):
        rng = trial_rng(options.seed, "direction", attempt)
        cand = [rng.randrange(1, denom) for _ in range(n)]
        if separation_ok(cand, denom, N, four_c):
            b_nums = cand
            break
    if b_nums is None:
        raise BudgetError(f"no valid direction found in {b_trials} attempts (N={N}, n={n})")

    slice_num, slice_den = slice_ratio(epsilon, delta, denom * denom)
    best = None
    for trial in range(options.trials):
        rng = trial_rng(options.seed, "shift", trial)
        a_nums = [rng.randrange(denom) for _ in range(n)]
        ts, js = [], []
        for t, rows in row_chunks(a_nums, b_nums, denom, N, region_factor(epsilon, delta)):
            keep = np.ones(len(t), dtype=bool)
            for h in range(0, n, 2):
                U, V = rows[:, h], rows[:, h + 1]
                keep &= (scaled_box(delta, denom, U, V) if epsilon is None
                         else scaled_piece(epsilon, denom, U, V) > 0)
            ts.append(t[keep])
            js.append(row_slices(rows[keep], epsilon, denom, slice_num, slice_den))
        t, J = np.concatenate(ts), np.concatenate(js)
        j, _ = fullest_slice(*slice_histogram([J]))
        elements = t[J == j].tolist()
        key = (-len(elements), tuple(a_nums), j)
        if best is None or key < best[0]:
            best = (key, a_nums, j, elements)
    _, a_nums, j, elements = best
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
