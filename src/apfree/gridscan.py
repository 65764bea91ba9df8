"""Exact scaled-integer block membership and weight, and the grid sweeps.

A grid point with denominator D is stored as its integer numerator pair
(u, v) meaning (u/D, v/D); every inequality is cross-multiplied so each
check is a comparison of integer expressions held in numpy int64 arrays.
This is still exact arithmetic: the scale check below rules overflow
out (the largest intermediate is < 3400 * (ed*Q)^2, kept under 2^62 by
requiring ed*Q <= 2_000_000), and no floats appear anywhere.

Weights are scaled as F4(u, v) = w((u/D, v/D)) * 4 * en^2 * D^2, which is
an integer because 4*D^2*g(u/D) is 4u^2 or (2u-D)^2.  Pair sweeps place
the outer points x, z on the Q-grid and their midpoint candidates on the
2Q-grid; a single table at denominator 2Q serves both because
F4(2i, 2j, 2Q) = 4 * F4(i, j, Q) matches the factor-4 cross-multiplied
inequality.  The constructions' region is the block (``scaled_piece``) or
the [0,delta)^2 box (``scaled_below`` per coordinate, ``scaled_box`` per
pair), whose points all weigh 0.  The constructions test and weigh whole
arrays, on the dtype ``exact_dtype`` picks: int64 where a bound such as
``region_factor`` or ``weight_factor`` keeps every intermediate at most
2^62, object arrays of Python ints otherwise.

``pair_chunks`` is the one pair enumerator: it walks the pairs a < b of
range(n) in row-major order, a chunk of index arrays at a time, over any
range of ranks.  The set certificates in :mod:`apfree.verify` walk their
elements with it, and the sweeps walk the pairs x <= z of the grid points
as the pairs a < b of range(P + 1) with z = b - 1.  Each swept fact is a
small function yielding (candidate, code, failing-pair mask) per chunk;
one driver, ``_sweep``, counts pairs and violations and keeps the first
violation in scan order as the smallest (x, z, candidate, code), so a
sweep split into rank ranges, across processes or chunks, reports the
same.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from .blocks import BuildingBlock
from .rational import rat_str

_SCALE_LIMIT = 2_000_000


def _check_scale(eps: Fraction, Q: int) -> None:
    if eps.denominator * Q > _SCALE_LIMIT:
        raise ValueError(
            f"eps denominator {eps.denominator} times grid {Q} exceeds the "
            f"int64-exactness budget {_SCALE_LIMIT}"
        )


def scaled_piece(eps: Fraction, D: int, U, V):
    """Piece tags (0..3) of the points (U/D, V/D); exact integer comparisons.

    U and V may be numpy integer arrays (broadcast) or Python ints.
    """
    en, ed = eps.numerator, eps.denominator
    S = U + V
    in_t1 = (2 * U >= D) & (3 * S > 2 * D) & (6 * S <= 7 * D)
    band = (6 * ed * S >= (7 * ed + 6 * en) * D) & (12 * S <= 17 * D)
    in_t2 = (2 * U >= D) & (2 * V < D) & band
    in_t3 = (2 * U < D) & (2 * V >= D) & band & (
        2 * ed * (2 * U + V) >= (3 * ed + 2 * en) * D
    )
    if isinstance(in_t1, np.ndarray):
        tags = np.zeros(np.broadcast(U, V).shape, dtype=np.int8)
        tags[in_t1] = 1
        tags[in_t2] = 2
        tags[in_t3] = 3
        return tags
    return 1 if in_t1 else 2 if in_t2 else 3 if in_t3 else 0


def scaled_below(delta: Fraction, D: int, U):
    """Membership of the coordinates U/D, 0 <= U < D, in [0,delta); numpy
    arrays or Python ints."""
    return delta.denominator * U < delta.numerator * D


def scaled_box(delta: Fraction, D: int, U, V):
    """Membership of the points (U/D, V/D) in the box [0,delta)^2."""
    return scaled_below(delta, D, U) & scaled_below(delta, D, V)


# int64 values proven at most this cannot wrap, even in a sum of two
INT64_SAFE = 1 << 62


def exact_dtype(bound: int):
    """int64 when ``bound`` proves every value stays at most 2^62, else
    object arrays of Python ints; either way nothing wraps."""
    return np.int64 if bound <= INT64_SAFE else object


def region_factor(eps: Fraction | None, delta: Fraction) -> int:
    """scaled_piece (eps) or scaled_box (eps None, 0 < delta < 1) on
    numerators in [0, D) keeps every intermediate below this times D."""
    return delta.denominator if eps is None else 16 * eps.denominator


def membership_table(eps: Fraction, D: int) -> np.ndarray:
    u = np.arange(D, dtype=np.int64)
    return scaled_piece(eps, D, u[:, None], u[None, :])


def scaled_weight(eps: Fraction, D: int, U, V):
    """F4 = weight((U/D, V/D)) * 4 * en^2 * D^2 for 0 <= U, V < D,
    meaningful where scaled_piece is nonzero; numpy arrays (broadcast) or
    Python ints."""
    en, ed = eps.numerator, eps.denominator
    S = U + V
    # 4 * D^2 * g(U/D): (2U)^2 below one half, (2U - D)^2 above
    G = (2 * U % D) ** 2
    return 96 * ed * ed * S * S + 6 * en * en * G


def weight_factor(eps: Fraction) -> int:
    """scaled_weight on numerators in [0, D) keeps every intermediate, and
    scaled_piece every one of its own, below this times D^2."""
    return 384 * eps.denominator ** 2 + 6 * eps.numerator ** 2


def weight_table(eps: Fraction, D: int) -> np.ndarray:
    """F4[u, v] = weight((u/D, v/D)) * 4 * en^2 * D^2, or -1 outside the block."""
    tags = membership_table(eps, D)
    u = np.arange(D, dtype=np.int64)
    f4 = scaled_weight(eps, D, u[:, None], u[None, :])
    return np.where(tags > 0, f4, np.int64(-1))


def grid_points(eps: Fraction, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerator arrays (I, J) of the in-block points of the 1/Q grid,
    in scan order (lexicographic by (i, j))."""
    tab = membership_table(eps, Q)
    pts = np.argwhere(tab > 0)
    return pts[:, 0].astype(np.int64), pts[:, 1].astype(np.int64)


def _g_tables(Q: int) -> tuple[np.ndarray, np.ndarray]:
    # gq[i] = g(i/Q) * Q^2 (Q even); g2[u] = g(u/2Q) * 4Q^2
    i = np.arange(Q, dtype=np.int64)
    gq = np.where(2 * i < Q, i * i, (i - Q // 2) ** 2)
    u = np.arange(2 * Q, dtype=np.int64)
    g2 = np.where(u < Q, u * u, (u - Q) ** 2)
    return gq, g2


def _point_payload(Q: int, i: int, j: int) -> list[str]:
    return [rat_str(Fraction(int(i), Q)), rat_str(Fraction(int(j), Q))]


def pair_chunks(n: int, size: int, start: int = 0, stop: int | None = None):
    """Index arrays (a, b) of the pairs a < b of range(n) whose row-major
    rank (the order of ``np.triu_indices``) lies in [start, stop), at most
    ``size`` pairs per chunk."""
    rows = np.arange(max(n - 1, 0), dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    # rank k in row a is the pair (a, k - offset[a])
    offset = row_start - rows - 1
    stop = n * (n - 1) // 2 if stop is None else stop
    for k0 in range(start, stop, size):
        k1 = min(k0 + size, stop)
        # the chunk spans rows lo-1 .. hi-1, each but the first starting inside it
        lo, hi = np.searchsorted(row_start, (k0, k1 - 1), side="right")
        a = np.repeat(rows[lo - 1:hi], np.diff(np.r_[k0, row_start[lo:hi], k1]))
        yield a, np.arange(k0, k1, dtype=np.int64) - offset[a]


# grid pairs per numpy step of a sweep
_SWEEP_CHUNK = 1 << 14


class _Grid:
    """The in-block points of the 1/Q grid in scan order, with the weight
    table at denominator 2Q that serves them and their midpoints."""

    def __init__(self, eps: Fraction, Q: int):
        eps = BuildingBlock(eps).epsilon
        if Q <= 0 or Q % 24 != 0:
            raise ValueError(f"grid denominator {Q} must be a positive multiple of 24")
        _check_scale(eps, Q)
        self.eps, self.Q, self.D = eps, Q, 2 * Q
        self.F4 = weight_table(eps, self.D)
        tab = self.F4[::2, ::2]
        pts = np.argwhere(tab >= 0)
        self.I = pts[:, 0].astype(np.int64)
        self.J = pts[:, 1].astype(np.int64)
        self.S = self.I + self.J
        self.FX = tab[pts[:, 0], pts[:, 1]]
        self.P = len(self.I)
        self.pairs = self.P * (self.P + 1) // 2
        gq, self.g2 = _g_tables(Q)
        self.GX = gq[self.I]

    def midpoints(self, a, b):
        """(candidate, U, V, F4[U, V]) per midpoint candidate (U/2Q, V/2Q) of
        the pairs (a, b), in candidate order."""
        Q, D = self.Q, self.D
        U0, V0 = self.I[a] + self.I[b], self.J[a] + self.J[b]
        flat = self.F4.ravel()
        for c, (U, V) in enumerate(((U0, V0), (U0, (V0 + Q) % D),
                                    ((U0 + Q) % D, V0), ((U0 + Q) % D, (V0 + Q) % D))):
            yield c, U, V, flat.take(U * D + V)


# Each fact takes a grid and a chunk of its pairs x = a <= z = b and yields
# (candidate, code, mask of the failing pairs), counting its own side counts.

def _block_fact(g: _Grid, a, b, counts):
    """Weight inequality w(x)+w(z) >= 2 w(y) + |x-z|^2 at every in-block
    midpoint candidate y."""
    lhs = g.FX[a] + g.FX[b]
    gap = 16 * g.eps.numerator ** 2 * ((g.I[a] - g.I[b]) ** 2 + (g.J[a] - g.J[b]) ** 2)
    for c, _, _, fy in g.midpoints(a, b):
        ok = fy >= 0
        counts["candidates"] += int(np.count_nonzero(ok))
        yield c, 0, ok & (lhs < 2 * fy + gap)


def _midpoint_fact(g: _Grid, a, b, counts):
    """Midpoint coordinate-sum facts at every in-block candidate:
    code 1: y-sum minus half the outer sums is 0 or -1/2;
    code 2: either the eps^2/2 sum-of-squares slack or the near-equal case;
    code 3: in the near-equal case the g-part dominates with (x1-z1)^2/2."""
    en, ed = g.eps.numerator, g.eps.denominator
    Q = g.Q
    sx, sz = g.S[a], g.S[b]
    ssq = sx * sx + sz * sz
    dsum = sx - sz
    near = ed * np.abs(dsum) < en * Q
    gsum4 = 4 * (g.GX[a] + g.GX[b])
    dI2_2 = 2 * (g.I[a] - g.I[b]) ** 2
    for c, U, V, fy in g.midpoints(a, b):
        ok = fy >= 0
        counts["candidates"] += int(np.count_nonzero(ok))
        syn = U + V
        alt = syn - (sx + sz)
        yield c, 1, ok & ~((alt == 0) | (alt == -Q))
        opt_a = 2 * ed * ed * ssq >= ed * ed * syn * syn + en * en * Q * Q
        opt_b = near & (2 * ssq == syn * syn + dsum * dsum)
        yield c, 2, ok & ~(opt_a | opt_b)
        nearok = ok & near
        counts["near_equal_candidates"] += int(np.count_nonzero(nearok))
        yield c, 3, nearok & (gsum4 < 2 * g.g2[U] + dI2_2)


def _x1z1_fact(g: _Grid, a, b, counts):
    """Pairs with nearly equal coordinate sums and one first coordinate
    >= 1/2 must have first coordinates summing to at least 1."""
    Q = g.Q
    Ix, Iz = g.I[a], g.I[b]
    applicable = (g.eps.denominator * np.abs(g.S[a] - g.S[b]) < g.eps.numerator * Q) & (
        (2 * Ix >= Q) | (2 * Iz >= Q)
    )
    counts["applicable"] += int(np.count_nonzero(applicable))
    yield 0, 0, applicable & (Ix + Iz < Q)


def _facts_fact(g: _Grid, a, b, counts):
    """Single-point and pair facts of the block:
    code 1: every point has 2/3 < sum <= 17/12;
    code 2: g of the first coordinate dominates (a - 1/2)^2;
    code 3: two points with first coordinates summing below 1 have
            coordinate sums totalling more than 11/6.
    A point's facts are tested on its pair (x, x), so once per sweep."""
    Q = g.Q
    for code, bad in ((1, ~((3 * g.S > 2 * Q) & (12 * g.S <= 17 * Q))),
                      (2, 4 * g.GX < (2 * g.I - Q) ** 2)):
        if bad.any():
            yield 0, code, (a == b) & bad[a]
    applicable = g.I[a] + g.I[b] < Q
    counts["applicable"] += int(np.count_nonzero(applicable))
    yield 0, 3, applicable & ~(6 * (g.S[a] + g.S[b]) > 11 * Q)


# kind -> (fact, its side counts)
_FACTS = {
    "block": (_block_fact, ("candidates",)),
    "midpoint": (_midpoint_fact, ("candidates", "near_equal_candidates")),
    "x1z1": (_x1z1_fact, ("applicable",)),
    "facts": (_facts_fact, ("applicable",)),
}


def _sweep(kind: str, g: _Grid, start: int, stop: int):
    """Counts and the smallest violation key (x, z, candidate, code) of one
    fact over the pairs x <= z of row-major rank in [start, stop)."""
    fact, side = _FACTS[kind]
    counts = {"grid_points": g.P, "pairs": 0, "violations": 0, **dict.fromkeys(side, 0)}
    best = None
    # the pairs a < b of range(P + 1), as (a, b - 1), are the pairs x <= z
    # of range(P) in the same row-major order
    for a, b in pair_chunks(g.P + 1, _SWEEP_CHUNK, start, stop):
        b -= 1
        counts["pairs"] += len(a)
        for c, code, bad in fact(g, a, b, counts):
            n = int(np.count_nonzero(bad))
            if n:
                counts["violations"] += n
                k = int(bad.argmax())
                key = (int(a[k]), int(b[k]), c, code)
                if best is None or key < best:
                    best = key
    return counts, best


def _merge(parts):
    """(counts, smallest violation key) of a sweep from those of the pair
    ranges it was split into."""
    counts: dict[str, int] = {}
    best = None
    for part_counts, key in parts:
        for k, v in part_counts.items():
            counts[k] = v if k == "grid_points" else counts.get(k, 0) + v
        if key is not None and (best is None or key < best):
            best = key
    return counts, best


def _worker(args):
    kind, eps_str, Q, start, stop = args
    return _sweep(kind, _Grid(Fraction(eps_str), Q), start, stop)


def run_sweep(kind: str, eps: Fraction, Q: int, threads: int = 1):
    """Run one exhaustive pair sweep, its pair range optionally split evenly
    across processes.

    Returns (counts, violation) where violation is None or a dict locating
    the first failure in scan order (identical for every worker count).
    """
    g = _Grid(eps, Q)
    threads = max(1, min(threads, os.cpu_count() or 1, g.pairs))
    if threads == 1:
        parts = [_sweep(kind, g, 0, g.pairs)]
    else:
        bounds = [g.pairs * k // threads for k in range(threads + 1)]
        jobs = [(kind, str(g.eps), Q, bounds[k], bounds[k + 1]) for k in range(threads)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_worker, jobs))
    counts, best = _merge(parts)
    violation = None
    if best is not None:
        xi, zi, c, code = best
        violation = {
            "x": _point_payload(Q, g.I[xi], g.J[xi]),
            "z": _point_payload(Q, g.I[zi], g.J[zi]),
            "code": code,
        }
        if kind in ("block", "midpoint"):
            u0, v0 = int(g.I[xi] + g.I[zi]), int(g.J[xi] + g.J[zi])
            u = (u0 + (0 if c < 2 else Q)) % (2 * Q)
            v = (v0 + (0 if c % 2 == 0 else Q)) % (2 * Q)
            violation["y"] = [rat_str(Fraction(u, 2 * Q)), rat_str(Fraction(v, 2 * Q))]
            violation["candidate"] = c
    return counts, violation


def density_count(eps: Fraction, m: int) -> int:
    """Number of cell midpoints ((2i+1)/(2m), (2j+1)/(2m)) inside the block."""
    _check_scale(eps, 2 * m)
    odd = 2 * np.arange(m, dtype=np.int64) + 1
    tags = scaled_piece(eps, 2 * m, odd[:, None], odd[None, :])
    return int((tags > 0).sum())
