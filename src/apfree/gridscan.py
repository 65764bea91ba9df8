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
as the pairs a < b of range(P + 1) with z = b - 1.  ``run_sweeps`` walks
them once for any selection of the four facts (every ``check`` calls
it once): per chunk the per-pair columns are gathered once, each
midpoint candidate's weight is looked up once in the table wrapped to 3Q
rows and columns (so the four candidates of a pair are its outer sums'
index plus fixed offsets), and the weight and midpoint facts run only on
the in-block candidates.  Each fact is a small function yielding
(code, failing mask) per chunk over its pairs or candidates; ``_walk``
counts pairs and violations per fact and keeps each fact's first
violation in scan order as the smallest (x, z, candidate, code), so a
sweep split into rank ranges, across processes or chunks, reports the
same.  Before any table is made a sweep is charged, from Q alone, to
SWEEP_BUDGET, and grids below _SERIAL_PAIRS pairs stay on one process.
The density grid's cells are charged to GRID_BUDGET.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import cached_property

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


# grid pairs per numpy step of a sweep; a step holds several arrays of
# four midpoint candidates per pair, and 2^14 pairs (512 KiB arrays) raised
# the peak RSS of 30 s torus-large benchmark runs by 5 MiB, at no
# measurable speed gain over 2^13
_SWEEP_CHUNK = 1 << 13
# Below this many grid pairs a sweep stays on one process whatever the
# worker cap, because starting a pool costs more than it saves: on a 2-vCPU
# host two workers ran check all at 0.38x the speed of one at 1.8e5 pairs
# (eps 1/12, Q 48), 0.8-1.3x at 8.7e5 (Q 72) and 1.4-1.6x at 1.1e6
# (eps 1/48, Q 72).
_SERIAL_PAIRS = 1 << 20
# fact-pair evaluations one sweep may make, bounded from Q alone: at most
# Q^2 grid points, so Q^2 (Q^2 + 1) / 2 pairs per fact, plus the (2Q)^2
# weight table.  check all at Q = 240 (6.6e9) is admitted.
SWEEP_BUDGET = 1 << 33


# entries of the longest array one dense grid may hold: the density grid's
# m^2 cells (about 20 bytes a cell at the peak, so 1.4 GiB at m = 8192), or a
# baseline's digit rows or radius counts (619 MiB for the 5e7 radius counts
# of behrend at N = 10^8)
GRID_BUDGET = 1 << 26


class BudgetError(RuntimeError):
    """A search, enumeration or scan would exceed its work budget."""


class _Grid:
    """The in-block points of the 1/Q grid in scan order, with the weight
    table at denominator 2Q that serves them and their midpoints, for a
    sweep of the facts ``kinds``.  The sweep is charged to SWEEP_BUDGET
    before any table is made."""

    def __init__(self, eps: Fraction, Q: int, kinds):
        eps = BuildingBlock(eps).epsilon
        if Q <= 0 or Q % 24 != 0:
            raise ValueError(f"grid denominator {Q} must be a positive multiple of 24")
        self.kinds = tuple(dict.fromkeys(kinds))
        if not self.kinds or any(k not in _FACTS for k in self.kinds):
            raise ValueError(f"sweep kinds {list(kinds)} must be some of {list(_FACTS)}")
        _check_scale(eps, Q)
        cost = (2 * Q) ** 2 + len(self.kinds) * Q * Q * (Q * Q + 1) // 2
        if cost > SWEEP_BUDGET:
            raise BudgetError(f"sweeping {len(self.kinds)} facts on the 1/{Q} grid (bound "
                              f"{cost}) exceeds the work budget of {SWEEP_BUDGET} fact pairs")
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
        # the table wrapped to 3Q rows and columns, F4w[u, v] = F4[u mod 2Q,
        # v mod 2Q]: the midpoint candidates of outer sums (U0, V0) sit at
        # U0 * 3Q + V0 plus each of the offsets
        self.F4w = np.pad(self.F4, (0, Q), mode="wrap")
        self.offsets = np.array([0, Q, 3 * Q * Q, 3 * Q * Q + Q], dtype=np.int64)[:, None]
        self.wrap = np.arange(3 * Q, dtype=np.int64) % self.D
        # the single-point facts, code 1: 2/3 < sum <= 17/12, code 2: g of
        # the first coordinate dominates (a - 1/2)^2; only the failing ones
        self.point_faults = [
            (code, bad) for code, bad in (
                (1, ~((3 * self.S > 2 * Q) & (12 * self.S <= 17 * Q))),
                (2, 4 * self.GX < (2 * self.I - Q) ** 2))
            if bad.any()]


class _Pairs:
    """A chunk of the pairs x = a <= z = b of a grid, with the columns the
    facts share: the coordinates and coordinate sums of x and z, and, each
    computed once on first use, ``near`` and the midpoint candidates."""

    def __init__(self, g: _Grid, a, b):
        self.g, self.a, self.b = g, a, b
        self.Ia, self.Ja, self.Sa = g.I[a], g.J[a], g.S[a]
        self.Ib, self.Jb, self.Sb = g.I[b], g.J[b], g.S[b]

    @cached_property
    def near(self):
        """The coordinate sums of x and z differ by less than eps."""
        eps = self.g.eps
        return eps.denominator * np.abs(self.Sa - self.Sb) < eps.numerator * self.g.Q

    @cached_property
    def cand(self):
        """(p, c, F4[U, V], U, V) of the in-block midpoint candidates
        (U/2Q, V/2Q), candidate c of pair p, ordered by candidate, then by
        pair.  Candidate c adds Q to the outer sum U when c >= 2 and to V
        when c is odd, mod 2Q."""
        g = self.g
        n, W = len(self.a), 3 * g.Q
        flat = (self.Ia + self.Ib) * W + self.Ja + self.Jb + g.offsets
        fy = g.F4w.take(flat)
        k = np.flatnonzero(fy >= 0)
        c = k // n
        fk = flat.take(k)
        u = fk // W
        return k - c * n, c, fy.take(k), g.wrap.take(u), g.wrap.take(fk - u * W)


# Each fact takes a chunk of pairs and yields (code, mask of the failing
# pairs or, for the midpoint facts, of the failing in-block candidates),
# counting its own side counts.

def _block_fact(ch: _Pairs, counts):
    """Weight inequality w(x)+w(z) >= 2 w(y) + |x-z|^2 at every in-block
    midpoint candidate y."""
    g = ch.g
    p, _, fy, _, _ = ch.cand
    counts["candidates"] += len(p)
    gap = 16 * g.eps.numerator ** 2 * ((ch.Ia - ch.Ib) ** 2 + (ch.Ja - ch.Jb) ** 2)
    yield 0, (g.FX[ch.a] + g.FX[ch.b] - gap).take(p) < 2 * fy


def _midpoint_fact(ch: _Pairs, counts):
    """Midpoint coordinate-sum facts at every in-block candidate:
    code 1: y-sum minus half the outer sums is 0 or -1/2;
    code 2: either the eps^2/2 sum-of-squares slack or the near-equal case;
    code 3: in the near-equal case the g-part dominates with (x1-z1)^2/2."""
    g = ch.g
    en, ed = g.eps.numerator, g.eps.denominator
    Q = g.Q
    p, _, _, U, V = ch.cand
    counts["candidates"] += len(p)
    syn = U + V
    sx, sz = ch.Sa, ch.Sb
    ssq = sx * sx + sz * sz
    alt = syn - (sx + sz).take(p)
    yield 1, ~((alt == 0) | (alt == -Q))
    near = ch.near.take(p)
    syn2 = syn * syn
    opt_a = (2 * ed * ed * ssq - en * en * Q * Q).take(p) >= ed * ed * syn2
    opt_b = near & ((2 * ssq - (sx - sz) ** 2).take(p) == syn2)
    yield 2, ~(opt_a | opt_b)
    counts["near_equal_candidates"] += int(np.count_nonzero(near))
    gx = 4 * (g.GX[ch.a] + g.GX[ch.b]) - 2 * (ch.Ia - ch.Ib) ** 2
    yield 3, near & (gx.take(p) < 2 * g.g2.take(U))


def _x1z1_fact(ch: _Pairs, counts):
    """Pairs with nearly equal coordinate sums and one first coordinate
    >= 1/2 must have first coordinates summing to at least 1."""
    Q = ch.g.Q
    Ix, Iz = ch.Ia, ch.Ib
    applicable = ch.near & ((2 * Ix >= Q) | (2 * Iz >= Q))
    counts["applicable"] += int(np.count_nonzero(applicable))
    yield 0, applicable & (Ix + Iz < Q)


def _facts_fact(ch: _Pairs, counts):
    """Single-point and pair facts of the block: codes 1 and 2 are the
    grid's point facts, tested on the pair (x, x), so once per sweep;
    code 3: two points with first coordinates summing below 1 have
    coordinate sums totalling more than 11/6."""
    Q = ch.g.Q
    for code, bad in ch.g.point_faults:
        yield code, (ch.a == ch.b) & bad[ch.a]
    applicable = ch.Ia + ch.Ib < Q
    counts["applicable"] += int(np.count_nonzero(applicable))
    yield 3, applicable & ~(6 * (ch.Sa + ch.Sb) > 11 * Q)


# kind -> (fact, its side counts, whether it tests midpoint candidates)
_FACTS = {
    "block": (_block_fact, ("candidates",), True),
    "midpoint": (_midpoint_fact, ("candidates", "near_equal_candidates"), True),
    "x1z1": (_x1z1_fact, ("applicable",), False),
    "facts": (_facts_fact, ("applicable",), False),
}


def _walk(g: _Grid, start: int, stop: int):
    """{kind: (counts, smallest violation key (x, z, candidate, code))} of
    the grid's facts over the pairs x <= z of row-major rank in
    [start, stop), walked once for all of them."""
    counts = {kind: {"grid_points": g.P, "pairs": 0, "violations": 0,
                     **dict.fromkeys(_FACTS[kind][1], 0)} for kind in g.kinds}
    best = dict.fromkeys(g.kinds)
    # the pairs a < b of range(P + 1), as (a, b - 1), are the pairs x <= z
    # of range(P) in the same row-major order
    for a, b in pair_chunks(g.P + 1, _SWEEP_CHUNK, start, stop):
        b -= 1
        ch = _Pairs(g, a, b)
        for kind in g.kinds:
            fact, _, on_candidates = _FACTS[kind]
            tally = counts[kind]
            tally["pairs"] += len(a)
            for code, bad in fact(ch, tally):
                n = int(np.count_nonzero(bad))
                if n:
                    tally["violations"] += n
                    if on_candidates:
                        # the first failure is the smallest (pair, candidate)
                        p, c = ch.cand[0][bad], ch.cand[1][bad]
                        k = int(np.argmin(4 * p + c))
                        p, c = int(p[k]), int(c[k])
                    else:
                        p, c = int(bad.argmax()), 0
                    key = (int(a[p]), int(b[p]), c, code)
                    if best[kind] is None or key < best[kind]:
                        best[kind] = key
    return {kind: (counts[kind], best[kind]) for kind in g.kinds}


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
    kinds, eps_str, Q, start, stop = args
    return _walk(_Grid(Fraction(eps_str), Q, kinds), start, stop)


def _violation(g: _Grid, kind: str, key):
    """The report dict of a violation key (x, z, candidate, code)."""
    Q = g.Q
    xi, zi, c, code = key
    violation = {
        "x": _point_payload(Q, g.I[xi], g.J[xi]),
        "z": _point_payload(Q, g.I[zi], g.J[zi]),
        "code": code,
    }
    if _FACTS[kind][2]:
        u0, v0 = int(g.I[xi] + g.I[zi]), int(g.J[xi] + g.J[zi])
        u = (u0 + (0 if c < 2 else Q)) % (2 * Q)
        v = (v0 + (0 if c % 2 == 0 else Q)) % (2 * Q)
        violation["y"] = [rat_str(Fraction(u, 2 * Q)), rat_str(Fraction(v, 2 * Q))]
        violation["candidate"] = c
    return violation


def run_sweeps(kinds, eps: Fraction, Q: int, threads: int = 1):
    """Run the exhaustive pair sweeps of the facts ``kinds`` in one walk
    over the grid pairs, split evenly across processes when the grid has
    at least _SERIAL_PAIRS pairs and ``threads`` allows more than one.

    Returns {kind: (counts, violation)}, violation None or a dict locating
    the kind's first failure in scan order (identical for every worker
    count)."""
    g = _Grid(eps, Q, kinds)
    threads = max(1, min(threads, os.cpu_count() or 1, g.pairs))
    if threads == 1 or g.pairs < _SERIAL_PAIRS:
        parts = [_walk(g, 0, g.pairs)]
    else:
        bounds = [g.pairs * k // threads for k in range(threads + 1)]
        jobs = [(g.kinds, str(g.eps), Q, bounds[k], bounds[k + 1]) for k in range(threads)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_worker, jobs))
    result = {}
    for kind in g.kinds:
        counts, best = _merge([part[kind] for part in parts])
        result[kind] = counts, None if best is None else _violation(g, kind, best)
    return result


def density_count(eps: Fraction, m: int) -> int:
    """Number of cell midpoints ((2i+1)/(2m), (2j+1)/(2m)) inside the block.
    The m^2 cells are charged to GRID_BUDGET first."""
    _check_scale(eps, 2 * m)
    if m * m > GRID_BUDGET:
        raise BudgetError(f"density grid of {m}x{m} cells exceeds the budget of "
                          f"{GRID_BUDGET} cells")
    odd = 2 * np.arange(m, dtype=np.int64) + 1
    tags = scaled_piece(eps, 2 * m, odd[:, None], odd[None, :])
    return int((tags > 0).sum())
