"""Classical comparison generators.

Sphere-digit sets in {1,...,N}: integers whose base-d digits stay below
d/2 (so digit addition never carries) and lie on a common Euclidean
sphere; a three-term progression would force three collinear points of a
sphere.  The half-box analogue in Z_p^n restricts entries to
{0,...,(p-1)/2} (no wrap-around mod p) and again keeps one sphere shell.

Both keep the most populous shell of a digit box {0,...,side-1}^k, ties
going to the smaller squared radius, without listing the box: the rows of
every squared radius are counted (``_shell_counts``), and only the chosen
shell is decoded (``_shell_rows``).  Its count is the set's size, so a
builder whose set will be certified charges the certificate's scan before
it decodes a row.
"""

from __future__ import annotations

import math

import numpy as np

from . import budget, rational, verify
from .dsets import DiscreteSet
from .integers import ParameterError, int_nthroot_ceil

# prefix digits listed in one step of a shell's decoding
_CHUNK = 1 << 16


def _int_nthroot_floor(N: int, n: int) -> int:
    c = int_nthroot_ceil(N, n)
    return c if c**n == N else c - 1


def _count_cost(side: int, k: int) -> int:
    """The GRID charge of counting {0,...,side-1}^k: the longest array, the
    k*(side-1)^2 + 1 counts, or the entries the shifted adds write, if
    more.  Step j adds side shifted copies of c_{j-1}, either whole or only
    its nonzero entries, of which there are at most comb(side+j-2, j-1),
    the multisets of j-1 digits.  The sum stops once it is over the limit,
    so a huge k costs at most about 2^13 steps here."""
    longest = k * (side - 1) ** 2 + 1
    if longest > budget.GRID:
        return longest
    adds = side
    for j in range(2, k + 1):
        adds += side * min((j - 1) * (side - 1) ** 2 + 1, math.comb(side + j - 2, j - 1))
        if adds > budget.GRID:
            break
    return max(longest, adds)


def _shell_counts(side: int, k: int, tables: list) -> np.ndarray:
    """c_k, where c_j[r] is the number of rows of {0,...,side-1}^j with
    squared radius r, for r up to j*(side-1)^2.  ``tables`` holds c_1, c_2,
    ... of this side and is extended to c_k after the charge.  c_j is
    c_{j-1} added at a shift of each digit square.  Its last digit is fixed
    by the others and the radius, so its values are at most side^(j-1),
    held in the narrowest signed integer dtype, or object arrays past
    rational.INT64_SAFE: c_2 of a side of 5000 takes 100 MB, not 400."""
    if len(tables) < k:
        budget.charge("GRID", f"sphere-shell counts of {{0..{side - 1}}}^{k}", _count_cost(side, k))
        squares = [d * d for d in range(side)]
        if not tables:
            first = np.zeros(squares[-1] + 1, dtype=np.int8)
            first[squares] = 1
            tables.append(first)
        if len(tables) == 1 and k >= 2 and side <= 256:
            # a small side's c_2 in one pass over the side^2 pairs, fewer
            # than its adds; a larger one's int64 counts would outweigh them
            pairs = np.add.outer(squares, squares).ravel()
            tables.append(np.bincount(pairs, minlength=2 * squares[-1] + 1))
        while len(tables) < k:
            j = len(tables) + 1
            # side >= 2, so side^63 is over the int64 limit
            most = side ** min(j - 1, 63)
            # min_scalar_type of a negative value is the narrowest signed type
            dtype = np.min_scalar_type(-most - 1) if most <= rational.INT64_SAFE else object
            last = tables[-1]
            if dtype is object:
                last = last.astype(object)
            counts = np.zeros(len(last) + squares[-1], dtype=dtype)
            if len(last) <= math.comb(side + j - 2, j - 1):
                for s in squares:
                    counts[s:s + len(last)] += last
            else:
                at = np.flatnonzero(last)
                values = last[at]
                for s in squares:
                    counts[at + s] += values
            tables.append(counts)
    return tables[k - 1]


def _box(side: int, d: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo to hi - 1 of {0,...,side-1}^d in ``itertools.product``
    order (last digit fastest), as an int64 array."""
    return np.arange(lo, hi)[:, None] // side ** np.arange(d - 1, -1, -1) % side


def _shell_rows(side: int, k: int, radius_sq: int, count: int) -> np.ndarray:
    """The ``count`` rows of {0,...,side-1}^k at squared radius radius_sq,
    in ``itertools.product`` order, as a (count, k) int64 array.  Each row
    is a prefix of the first ceil(k/2) digits followed by a suffix of the
    other floor(k/2): the suffixes are listed once, sorted stably by their
    squared radius, and a suffix-count table of each radius gives every
    prefix its run of them.  The prefixes are listed in chunks, so beside
    the rows only the side^floor(k/2) suffixes are held: as the largest of
    the L = k*(side-1)^2 + 1 shells holds at least side^k / L rows, they
    number at most sqrt(count * L) <= (count + L) / 2.  The rows and the
    suffixes are charged to budget.GRID first."""
    head, tail = (k + 1) // 2, k // 2
    # side >= 2, so side^64 is over the limit
    budget.charge("GRID", f"sphere shell of {budget.count(count)} rows in {{0..{side - 1}}}^{k}",
                  max(count, side ** min(tail, 64)) * k)
    squares = np.arange(side, dtype=np.int64) ** 2
    suffix = _box(side, tail, 0, side**tail)
    radii = squares[suffix].sum(axis=1)
    order = np.argsort(radii, kind="stable")
    runs = np.bincount(radii, minlength=radius_sq + 1)[:radius_sq + 1]
    starts = np.cumsum(runs) - runs
    step = max(1, _CHUNK // k)
    rows = []
    for lo in range(0, side**head, step):
        prefix = _box(side, head, lo, min(lo + step, side**head))
        want = radius_sq - squares[prefix].sum(axis=1)
        fits = np.maximum(want, 0)
        n = np.where(want >= 0, runs[fits], 0)
        first = np.cumsum(n) - n
        at = np.repeat(starts[fits] - first, n) + np.arange(first[-1] + n[-1])
        rows.append(np.concatenate([np.repeat(prefix, n, axis=0), suffix[order[at]]], axis=1))
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def behrend_set(N: int, certify: bool = False) -> DiscreteSet:
    """Largest sphere-digit set in {1,...,N}: over the dimensions k >= 2
    whose base floor(N^(1/k)) is at least 3, the most populous shell, ties
    going to the smaller k.  Digits below base/2 never carry, so every
    shell is progression-free by construction; ``DiscreteSet.verify``
    certifies the result.  With ``certify`` the certificate's scan is
    charged, as the certificate charges it, before any element is made."""
    if N < 3:
        raise ParameterError(f"N={N} must be >= 3")
    # floor(N^(1/k)) >= 3 exactly when 3^k <= N
    dims = []
    k = 2
    while 3**k <= N:
        dims.append((k, _int_nthroot_floor(N, k)))
        k += 1
    # the largest k first: their boxes are the cheapest to count and hold
    # the most populous shells, so the small k, whose counts cost the most,
    # are mostly skipped by bound.  Sides only grow as k falls, so one
    # side's tables serve every k that shares it
    best, tables, tables_side = None, [], None
    for k, base in reversed(dims):
        side = (base - 1) // 2 + 1
        if side != tables_side:
            tables, tables_side = [], side
        # a shell of {0..side-1}^k holds at most side^(k-1) rows, and at most
        # side^(k-2) times the largest shell of two digits; ties go to the
        # smaller k, so only a bound below the best count skips
        if best is not None and (side ** (k - 1) < best[0] or k >= 3 and (
                side ** (k - 2) * int(_shell_counts(side, 2, tables).max()) < best[0])):
            continue
        counts = _shell_counts(side, k, tables)
        radius_sq = int(np.argmax(counts))
        if best is None or counts[radius_sq] >= best[0]:
            best = (int(counts[radius_sq]), k, base, radius_sq, tables)
    if best is None:  # N in {3..8}: no base >= 3 fits, fall back to one digit pair
        k, base, radius_sq, elements = 1, N, 1, [1, 2]
    else:
        count, k, base, radius_sq, tables = best
        side = (base - 1) // 2 + 1
        if certify:
            verify.charge_scan("integer certificate", count, 1,
                               lambda: _parity_classes(side, tables, k, base, radius_sq, count))
        digits = _shell_rows(side, k, radius_sq, count)
        # digit i weighs base**i; every element is below base**k <= N, which
        # DiscreteSet checks
        weights = np.array([base**i for i in range(k)], dtype=rational.exact_dtype(N))
        elements = (1 + digits.astype(weights.dtype) @ weights).tolist()
    return DiscreteSet(
        kind="integer",
        bound=N,
        elements=elements,
        provenance={
            "construction": "behrend",
            "bound": N,
            "base": base,
            "dimension": k,
            "radius_sq": radius_sq,
            "certified_by_construction": True,
        },
    )


def _parity_classes(side: int, tables: list, k: int, base: int, radius_sq: int,
                    count: int) -> list[int]:
    """The sizes of the parity classes of a behrend shell's elements
    1 + sum(d_i * base^i).  An odd base makes an element's parity that of
    1 + sum(d_i), and sum(d_i) has the parity of sum(d_i^2), the radius:
    one class.  An even base makes it that of 1 + d_0: the rows whose digit
    0 is even, counted from c_{k-1}, and the rest."""
    if base % 2:
        return [count]
    rest = tables[k - 2]
    even = sum(int(rest[radius_sq - d * d]) for d in range(0, side, 2)
               if 0 <= radius_sq - d * d < len(rest))
    return [even, count - even]


def halfbox_set(p: int, n: int, certify: bool = False) -> DiscreteSet:
    """Best sphere shell of {0,...,(p-1)/2}^n viewed inside Z_p^n.  With
    ``certify`` the certificate's scan is charged, as the certificate
    charges it, before any element is made."""
    if p < 3 or p % 2 == 0:
        raise ParameterError(f"p={p} must be odd and >= 3")
    if n < 1:
        raise ParameterError(f"n={n} must be >= 1")
    side = (p - 1) // 2 + 1
    tables = []
    counts = _shell_counts(side, n, tables)
    radius_sq = int(np.argmax(counts))
    count = int(counts[radius_sq])
    if certify:
        # p is odd: no coordinate has a parity filter, and a pair has one midpoint
        verify.charge_scan("group certificate", count, 1, lambda: [count])
    elements = _shell_rows(side, n, radius_sq, count).tolist()
    if len(elements) > ((p + 1) // 2) ** n:
        raise RuntimeError(f"sphere shell of {len(elements)} points exceeds the half box")
    return DiscreteSet(
        kind="group",
        moduli=(p,) * n,
        elements=elements,
        provenance={
            "construction": "halfbox",
            "p": p,
            "n": n,
            "radius_sq": radius_sq,
            "certified_by_construction": True,
        },
    )
