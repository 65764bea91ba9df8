"""Exact scaled-integer block membership and weight, and the grid sweeps.

A grid point with denominator D is stored as its integer numerator pair
(u, v) meaning (u/D, v/D); every inequality is cross-multiplied so each
check is a comparison of integer expressions held in numpy int64 arrays.
This is still exact arithmetic: the scale check below rules overflow
out (the largest intermediate is < 3400 * (ed*Q)^2, kept under 2^62 by
requiring ed*Q <= 2_000_000), and no floats appear anywhere.  In a sweep
the weights F4 at denominator 2Q are below 1560 (ed*Q)^2, and the values
its per-sum tables compare stay inside the same bound: h and the block
threshold lie in (-128, 3120) (ed*Q)^2, and so does h(x) + h(z); the
code-2 values 2 ed^2 (sx^2 + sz^2) and ed^2 syn^2 + en^2 Q^2 are below
17 (ed*Q)^2; the code-3 values are below 8 Q^2 in size; the tables'
sentinels, -2^62 and 2^62, are only compared, never added to.

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

``pair_chunks`` walks the pairs a < b of range(n) in row-major order, a
chunk of index arrays at a time, over any range of ranks; the set
certificates in :mod:`apfree.verify` walk their elements with it.  The
sweeps walk the pairs x <= z of the grid points in the same order (the
pairs a < b of range(P + 1) with z = b - 1, so ``_row_starts`` ranks
both walks) in tiles: a block of rows x against the columns z from its
first row on, each pair value the sum of a row value and a column value,
broadcast.  ``run_sweeps`` walks them once for any selection of the four
facts (every ``check`` calls it once).  The first-coordinate facts run on
the tiles directly, and the grid's point facts once on the pairs (x, x).
The weight and midpoint facts read tables over a pair's outer sum
s = x + z, which fixes its four midpoint candidates.  Each fact is
rewritten so that its pair side is a value of x plus a value of z (for
the weight inequality by |x-z|^2 = 2|x|^2 + 2|z|^2 - |s|^2), and its
table holds, per s, the largest other side over the in-block candidates.
A pair fails the fact at some candidate iff its value lies below its
sum's threshold, so a tile costs a few integer operations per pair, and
the exact per-candidate facts (``_block_fact``, ``_midpoint_fact``) run
only on the pairs so flagged, to count their violations and find the
first; a passing sweep flags none.  Candidates are counted from a table
of in-block candidates per sum.  ``_walk`` counts pairs and violations
per fact and keeps each fact's first violation in scan order as the
smallest (x, z, candidate, code), so a sweep split into rank ranges,
across processes or tiles, reports the same.  Before any table is made a
sweep is charged, from Q alone, to budget.SWEEP; the per-sum tables are
built on the walk's first use, and grids below _SERIAL_PAIRS pairs stay on
one process.  The density grid's cells are charged to budget.GRID.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import budget
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


def _row_starts(n: int) -> np.ndarray:
    """The rank of the first pair of each row a in range(n) of the pairs
    a < b of range(n) in row-major order; the last, empty row starts at
    the number of pairs."""
    rows = np.arange(n, dtype=np.int64)
    return rows * (2 * n - rows - 1) // 2


def pair_chunks(n: int, size: int, start: int = 0, stop: int | None = None):
    """Index arrays (a, b) of the pairs a < b of range(n) whose row-major
    rank (the order of ``np.triu_indices``) lies in [start, stop), at most
    ``size`` pairs per chunk."""
    rows = np.arange(n, dtype=np.int64)
    row_start = _row_starts(n)
    # rank k in row a is the pair (a, k - offset[a])
    offset = row_start - rows - 1
    stop = n * (n - 1) // 2 if stop is None else stop
    for k0 in range(start, stop, size):
        k1 = min(k0 + size, stop)
        # the chunk spans rows lo-1 .. hi-1, each but the first starting inside it
        lo, hi = np.searchsorted(row_start, (k0, k1 - 1), side="right")
        a = np.repeat(rows[lo - 1:hi], np.diff(np.r_[k0, row_start[lo:hi], k1]))
        yield a, np.arange(k0, k1, dtype=np.int64) - offset[a]


# grid pairs per tile of a sweep, counted as the tile's rows times its
# columns (its lower-left triangle included); a tile holds about twenty
# int64 or bool arrays of that many entries
_SWEEP_CHUNK = 1 << 13
# Below this many grid pairs a sweep stays on one process whatever the
# worker cap, because starting a pool costs about as much as it saves: on a
# 2-vCPU host (in-process medians of 7) two workers ran check all at
# 0.39-0.51x the speed of one at 1.8e5 pairs (eps 1/12, Q 48), 0.83-0.88x
# at 8.7e5 (Q 72), 0.92-1.05x at 1.0e6-1.1e6 (eps 1/24 and 1/48, Q 72),
# 1.03-1.05x at 1.7e6 (eps 1/4, Q 96), 1.18-1.28x at 2.7e6 (eps 1/12,
# Q 96) and 1.33-1.41x at 6.6e6 (Q 120).
_SERIAL_PAIRS = 1 << 21

# the thresholds of per-sum tables with no candidate to test, and of sums
# every pair of which must go through the exact facts
_NEG, _POS = -INT64_SAFE, INT64_SAFE


class _Grid:
    """The in-block points of the 1/Q grid in scan order, with the weight
    table at denominator 2Q that serves them and their midpoints, and the
    per-sum tables of the facts ``kinds``.  The sweep is charged to
    budget.SWEEP before any table is made."""

    def __init__(self, eps: Fraction, Q: int, kinds):
        eps = BuildingBlock(eps).epsilon
        if Q <= 0 or Q % 24 != 0:
            raise ValueError(f"grid denominator {Q} must be a positive multiple of 24")
        self.kinds = tuple(dict.fromkeys(kinds))
        if not self.kinds or any(k not in _FACTS for k in self.kinds):
            raise ValueError(f"sweep kinds {list(kinds)} must be some of {list(_FACTS)}")
        _check_scale(eps, Q)
        cost = (2 * Q) ** 2 + len(self.kinds) * Q * Q * (Q * Q + 1) // 2
        budget.charge("SWEEP", f"sweeping {len(self.kinds)} facts on the 1/{Q} grid "
                      f"(bound {cost})", cost)
        self.eps, self.Q, self.D = eps, Q, 2 * Q
        en, ed = eps.numerator, eps.denominator
        self.F4 = weight_table(eps, self.D)
        tab = self.F4[::2, ::2]
        pts = np.argwhere(tab >= 0)
        self.I = pts[:, 0].astype(np.int64)
        self.J = pts[:, 1].astype(np.int64)
        self.S = self.I + self.J
        self.FX = tab[pts[:, 0], pts[:, 1]]
        self.P = len(self.I)
        self.pairs = self.P * (self.P + 1) // 2
        # the pairs x <= z of range(P) are the pairs a < b of range(P + 1),
        # as (a, b - 1), in the same row-major order
        self.row_start = _row_starts(self.P + 1)
        # a pair's outer sums (U0, V0) = x + z index the per-sum tables at
        # sid = U0 * 2Q + V0, so U0 < Q iff sid < Q * 2Q
        self.sid = self.I * self.D + self.J
        # coordinate sums, in int32 as they are below 2Q, differ by less
        # than eps iff by at most near_gap
        self.S32 = self.S.astype(np.int32)
        self.near_gap = (en * Q - 1) // ed
        # first coordinates at least 1/2, for x1z1
        self.high = 2 * self.I >= Q
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

    @cached_property
    def tables(self) -> SimpleNamespace:
        """Tables over the outer sums s = x + z = (U0, V0) of a pair, at
        index sid = U0 * 2Q + V0, and each point's share of the pair values
        they bound, for the block and midpoint facts; built on the walk's
        first use.  A threshold is the largest right-hand side of a fact
        over the in-block candidates of s, so a pair fails the fact at some
        candidate iff its value lies below its sum's threshold."""
        en, ed, Q, D = self.eps.numerator, self.eps.denominator, self.Q, self.D
        block, midpoint = "block" in self.kinds, "midpoint" in self.kinds
        s = np.arange(D, dtype=np.int64)
        U0, V0 = s[:, None], s[None, :]
        nin = np.zeros((D, D), dtype=np.int8)
        if block:
            heaviest = np.full((D, D), _NEG)
        if midpoint:
            outer = U0 + V0
            # code 2's right-hand side by the candidate's coordinate sum
            rhs2 = ed * ed * np.arange(2 * D, dtype=np.int64) ** 2 + en * en * Q * Q
            far2, near2, near3 = (np.full((D, D), _NEG) for _ in range(3))
            code1 = np.zeros((D, D), dtype=bool)
        # candidate c of s is (u, v) = (U0 + Q [c >= 2], V0 + Q [c odd]) mod 2Q
        for du, dv in ((0, 0), (0, Q), (Q, 0), (Q, Q)):
            fy = self.F4w[du:du + D, dv:dv + D]
            inb = fy >= 0
            nin += inb
            if block:
                # F4 is negative off the block, so the heaviest candidate
                # is in-block if any is
                np.maximum(heaviest, fy, out=heaviest)
            if midpoint:
                u, v = self.wrap[U0 + du], self.wrap[V0 + dv]
                syn = u + v
                rhs = rhs2[syn]
                np.maximum(far2, rhs, out=far2, where=inb)
                # 2 ssq - (sx - sz)^2 = (U0 + V0)^2, so the near-equal
                # alternative of code 2 holds for the near pairs at the
                # candidates with syn = U0 + V0, and nowhere else
                alt = np.subtract(syn, outer, out=syn)  # syn is no longer needed
                other = inb & (alt != 0)
                np.maximum(near2, rhs, out=near2, where=other)
                code1 |= other & (alt != -Q)
                # code 3, near pairs only: 2 (x1 - z1)^2 = 4 x1^2 + 4 z1^2 - 2 U0^2
                np.maximum(near3, 2 * self.g2[u] - 2 * U0 * U0, out=near3, where=inb)
        t = SimpleNamespace(nin=nin.ravel())
        if block:
            # |x - z|^2 = 2|x|^2 + 2|z|^2 - |s|^2 turns the block fact into
            # h(x) + h(z) >= 2 F4(y) - 16 en^2 |s|^2
            t.h = self.FX - 32 * en * en * (self.I ** 2 + self.J ** 2)
            t.block_top = np.where(heaviest >= 0, 2 * heaviest - 16 * en * en * (
                U0 * U0 + V0 * V0), _NEG).ravel()
        if midpoint:
            t.ell = 2 * ed * ed * self.S ** 2
            t.k = 4 * self.GX - 4 * self.I ** 2
            # code 1 depends on s alone: every pair of a failing sum is flagged
            near2[code1] = far2[code1] = _POS
            t.code2_near_top, t.code2_far_top = near2.ravel(), far2.ravel()
            t.code3_top = near3.ravel()
        return t


def _tiles(g: _Grid, start: int, stop: int):
    """The pairs of row-major rank in [start, stop) as tiles: whole rows
    against the columns from their first pair on, as many rows as
    _SWEEP_CHUNK pairs allow, or one row's segment where a rank range or
    a row longer than _SWEEP_CHUNK cuts it."""
    P, size, row_start = g.P, _SWEEP_CHUNK, g.row_start
    # the rows are those up to the one holding rank stop - 1
    last = int(np.searchsorted(row_start, stop - 1, side="right"))
    k0 = start
    while k0 < stop:
        a0 = int(np.searchsorted(row_start, k0, side="right")) - 1
        c0 = a0 + k0 - int(row_start[a0])
        if c0 > a0 or P - a0 > size:
            a1, c1 = a0 + 1, min(P, c0 + size, c0 + stop - k0)
            k1 = k0 + c1 - c0
        else:
            a1, c1 = min(a0 + size // (P - a0), last), P
            k1 = min(int(row_start[a1]), stop)
        yield _Tile(g, a0, a1, c0, c1, k0, k1)
        k0 = k1


class _Tile:
    """The pairs x = a <= z = b of rank in [k0, k1) with a0 <= a < a1 and
    c0 <= b < c1, as arrays over (a, b) in which ``valid`` marks those
    pairs, with the pair values the facts share, each made once on first
    use."""

    def __init__(self, g: _Grid, a0, a1, c0, c1, k0, k1):
        self.g, self.a0, self.c0, self.pairs = g, a0, c0, k1 - k0
        self.rows, self.cols = slice(a0, a1), slice(c0, c1)
        # a tile starts at rank k0 on its first row (column c0 >= a0), and
        # only its last row may stop short of column c1
        self.valid = np.arange(c0, c1) >= np.arange(a0, a1)[:, None]
        end = a1 - 1 + k1 - int(g.row_start[a1 - 1])
        if end < c1:
            self.valid[-1, end - c0:] = False

    def add(self, col):
        """col[a] + col[b] over the tile."""
        return col[self.rows, None] + col[None, self.cols]

    @cached_property
    def sid(self):
        return self.add(self.g.sid)

    @cached_property
    def near(self):
        """The coordinate sums of x and z differ by less than eps."""
        S = self.g.S32
        return np.abs(S[self.rows, None] - S[None, self.cols]) <= self.g.near_gap

    @cached_property
    def valid_near(self):
        return self.valid & self.near

    @cached_property
    def nin(self):
        """The number of in-block midpoint candidates of each pair."""
        return self.g.tables.nin.take(self.sid)

    @cached_property
    def candidates(self):
        return int(self.nin.sum(where=self.valid))

    @cached_property
    def below_one(self):
        """x1 + z1 < 1."""
        return self.sid < self.g.Q * self.g.D

    def hits(self, code, bad):
        """(violations, first violation key) of the failing pairs ``bad``;
        argmax finds the first in row-major order, the smallest (x, z)."""
        n = int(np.count_nonzero(bad))
        if n:
            r, c = divmod(int(bad.argmax()), bad.shape[1])
            yield n, (self.a0 + r, self.c0 + c, 0, code)

    def exact(self, flagged, fact):
        """(violations, first violation key) of the candidate fact ``fact``
        on the tile's ``flagged`` pairs, code by code."""
        flagged &= self.valid
        if not flagged.any():
            return
        r, b = np.nonzero(flagged)
        ch = _Pairs(self.g, r + self.a0, b + self.c0)
        for code, bad in fact(ch):
            n = int(np.count_nonzero(bad))
            if n:
                # the first failure is the smallest (pair, candidate)
                p, c = ch.cand[0][bad], ch.cand[1][bad]
                k = int(np.argmin(4 * p + c))
                p = int(p[k])
                yield n, (int(ch.a[p]), int(ch.b[p]), int(c[k]), code)


class _Pairs:
    """Some pairs x = a <= z = b of a grid, with the columns the candidate
    facts share: the coordinates and coordinate sums of x and z, and, each
    computed once on first use, ``near`` and the midpoint candidates."""

    def __init__(self, g: _Grid, a, b):
        self.g, self.a, self.b = g, a, b
        self.Ia, self.Ja, self.Sa = g.I[a], g.J[a], g.S[a]
        self.Ib, self.Jb, self.Sb = g.I[b], g.J[b], g.S[b]

    @cached_property
    def near(self):
        """The coordinate sums of x and z differ by less than eps."""
        return np.abs(self.Sa - self.Sb) <= self.g.near_gap

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


# The exact candidate facts take some pairs and yield (code, mask of the
# failing in-block candidates); a sweep runs them only on the pairs its
# per-sum tables flag.

def _block_fact(ch: _Pairs):
    """Weight inequality w(x)+w(z) >= 2 w(y) + |x-z|^2 at every in-block
    midpoint candidate y."""
    g = ch.g
    p, _, fy, _, _ = ch.cand
    gap = 16 * g.eps.numerator ** 2 * ((ch.Ia - ch.Ib) ** 2 + (ch.Ja - ch.Jb) ** 2)
    yield 0, (g.FX[ch.a] + g.FX[ch.b] - gap).take(p) < 2 * fy


def _midpoint_fact(ch: _Pairs):
    """Midpoint coordinate-sum facts at every in-block candidate:
    code 1: y-sum minus half the outer sums is 0 or -1/2;
    code 2: either the eps^2/2 sum-of-squares slack or the near-equal case;
    code 3: in the near-equal case the g-part dominates with (x1-z1)^2/2."""
    g = ch.g
    en, ed = g.eps.numerator, g.eps.denominator
    Q = g.Q
    p, _, _, U, V = ch.cand
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
    gx = 4 * (g.GX[ch.a] + g.GX[ch.b]) - 2 * (ch.Ia - ch.Ib) ** 2
    yield 3, near & (gx.take(p) < 2 * g.g2.take(U))


# Each fact takes a tile and yields (violations, first violation key) per
# failing code, adding its side counts to ``counts``.

def _block_tile(t: _Tile, counts):
    """The weight inequality: h(x) + h(z) below the sum's threshold."""
    counts["candidates"] += t.candidates
    yield from t.exact(t.add(t.g.tables.h) < t.g.tables.block_top.take(t.sid), _block_fact)


def _midpoint_tile(t: _Tile, counts):
    """The midpoint facts: a code's pair value below the sum's threshold
    for near or for far pairs."""
    tab, sid = t.g.tables, t.sid
    counts["candidates"] += t.candidates
    counts["near_equal_candidates"] += int(t.nin.sum(where=t.valid_near))
    # 2 ed^2 (sx^2 + sz^2) below a code-2 threshold: the slack fails
    ell = t.add(tab.ell)
    flagged = np.where(
        t.near, (ell < tab.code2_near_top.take(sid)) | (t.add(tab.k) < tab.code3_top.take(sid)),
        ell < tab.code2_far_top.take(sid))
    yield from t.exact(flagged, _midpoint_fact)


def _x1z1_tile(t: _Tile, counts):
    """Pairs with nearly equal coordinate sums and one first coordinate
    >= 1/2 must have first coordinates summing to at least 1."""
    high = t.g.high
    applicable = t.valid_near & (high[t.rows, None] | high[None, t.cols])
    counts["applicable"] += int(np.count_nonzero(applicable))
    yield from t.hits(0, applicable & t.below_one)


def _facts_tile(t: _Tile, counts):
    """Code 3 of the block facts: two points with first coordinates summing
    below 1 have coordinate sums totalling more than 11/6.  (Codes 1 and 2,
    the grid's point facts, are the pairs (x, x): see ``_point_hits``.)"""
    applicable = t.valid & t.below_one
    counts["applicable"] += int(np.count_nonzero(applicable))
    # 6 (sx + sz) > 11 Q iff sx + sz > 11 Q / 6, an integer as 24 divides Q
    yield from t.hits(3, applicable & (t.add(t.g.S32) <= 11 * t.g.Q // 6))


def _point_hits(g: _Grid, start: int, stop: int):
    """(violations, first violation key) of the grid's point facts, codes
    1 and 2, on the pairs (x, x) of rank in [start, stop)."""
    lo, hi = np.searchsorted(g.row_start, (start, stop))
    for code, bad in g.point_faults:
        a = lo + np.flatnonzero(bad[lo:hi])
        if len(a):
            yield len(a), (int(a[0]), int(a[0]), 0, code)


# kind -> (fact, its side counts, whether it tests midpoint candidates)
_FACTS = {
    "block": (_block_tile, ("candidates",), True),
    "midpoint": (_midpoint_tile, ("candidates", "near_equal_candidates"), True),
    "x1z1": (_x1z1_tile, ("applicable",), False),
    "facts": (_facts_tile, ("applicable",), False),
}


def _walk(g: _Grid, start: int, stop: int):
    """{kind: (counts, smallest violation key (x, z, candidate, code))} of
    the grid's facts over the pairs x <= z of row-major rank in
    [start, stop), walked once for all of them."""
    counts = {kind: {"grid_points": g.P, "pairs": 0, "violations": 0,
                     **dict.fromkeys(_FACTS[kind][1], 0)} for kind in g.kinds}
    best = dict.fromkeys(g.kinds)

    def record(kind, hits):
        for n, key in hits:
            counts[kind]["violations"] += n
            if best[kind] is None or key < best[kind]:
                best[kind] = key

    if "facts" in g.kinds:
        record("facts", _point_hits(g, start, stop))
    for t in _tiles(g, start, stop):
        for kind in g.kinds:
            counts[kind]["pairs"] += t.pairs
            record(kind, _FACTS[kind][0](t, counts[kind]))
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
    The m^2 cells are charged to budget.GRID first."""
    _check_scale(eps, 2 * m)
    budget.charge("GRID", f"density grid of {m}x{m} cells", m * m)
    odd = 2 * np.arange(m, dtype=np.int64) + 1
    tags = scaled_piece(eps, 2 * m, odd[:, None], odd[None, :])
    return int((tags > 0).sum())
