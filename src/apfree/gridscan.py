"""Exact scaled-integer block membership and weight, and the grid sweeps.

A grid point with denominator D is stored as its integer numerator pair
(u, v) meaning (u/D, v/D); every inequality is cross-multiplied, or
solved exactly for an integer bound, so each check is a comparison of
integer expressions held in numpy int64 arrays.
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
inequality.

The block's inequalities are solved once into integer bounds on U, V,
U + V and 2U + V (``_piece_bounds``).  The membership test
(``scaled_in_block``, the union of the piece masks ``_piece_masks``) and
the density count both read them; the count goes by rows, where each
piece's V-range is one interval, so it costs O(m) time and memory for
m^2 cells.  The
constructions' region is the block (``scaled_in_block``) or the
[0,delta)^2 box (``scaled_below`` per coordinate, ``scaled_box`` per
pair), whose points all weigh 0.  The constructions test and weigh whole
arrays, on the dtype ``exact_dtype`` picks: int64 where a bound such as
``region_factor`` or ``weight_factor`` keeps every intermediate at most
2^62, object arrays of Python ints otherwise.

``pair_tiles`` is the one pair walk of the package: it yields the pairs
x <= z of range(n) with x in a row range, in row-major order, as tiles,
a block of rows x against the columns z from its first row on with a
mask of the tile's pairs.  The set certificates in :mod:`apfree.verify` walk
their elements' pairs a < b with it, as the pairs x <= z of range(n - 1)
taken as (x, z + 1).  ``run_sweeps`` sweeps the pairs x <= z of the
grid points once for any selection of the four facts (every ``check``
calls it once).  The weight and midpoint facts walk the pairs with
``pair_tiles``, each pair value the sum of a row value and a column
value, broadcast.  The first-coordinate facts walk no pair: they read
only the first coordinate I and the coordinate sum S of each point, so a
row x's partners z >= x that apply or fail form a box in (I, S), and a
prefix count table over (I, S) counts them by box queries (``_Rows``),
in O(Q^2 + rows); the first violation is the first one in the first row
holding any.  The grid's point facts run once
on the pairs (x, x).  The weight and midpoint facts read tables over a
pair's outer sum s = x + z, which fixes its four midpoint candidates.
Each fact is rewritten so that its pair side is a value of x plus a
value of z (for the weight inequality by |x-z|^2 = 2|x|^2 + 2|z|^2 -
|s|^2), and its other side is the right-hand side that
``_Grid.candidate`` gives at each candidate of s, the one place that
computes a candidate's coordinates, its membership and its right-hand
sides.  A sum's table holds the largest of them over its in-block
candidates, so a pair fails the fact at some candidate iff its value lies
below its sum's threshold: a tile costs a few integer operations per
pair, and only the pairs so flagged are compared with each candidate's
own right-hand sides (``_Tile.exact``), to count their violations and
find the first; a passing sweep flags none.  Candidates are counted from
a table of in-block candidates per sum.  ``_walk`` counts pairs and
violations per fact and keeps each fact's first violation in scan order
as the smallest (x, z, candidate, code), so a sweep split into row
ranges, across processes or tiles, reports the same.  Before any table
is made a sweep is charged, from Q alone, to budget.SWEEP; the per-sum
and prefix count tables are built on the walk's first use.  Grids below
_SERIAL_PAIRS pairs, and sweeps of the first-coordinate facts alone,
stay on one process, which is the only place the process pool is
imported.  The density grid's cells are charged to budget.GRID.
"""

from __future__ import annotations

import os
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


def _piece_bounds(eps: Fraction, D: int) -> tuple[int, ...]:
    """The block's inequalities on numerators (U, V) over D, each solved
    exactly for one integer bound, (h, s1, s2, b1, b2, c):
    2U >= D iff U >= h, and 2V < D iff V < h;
    piece 1 is U >= h and s1 <= U + V <= s2 (2/3 < a+b <= 7/6);
    pieces 2 and 3 lie in the band b1 <= U + V <= b2 (7/6+eps <= a+b <= 17/12),
    piece 2 with U >= h and V < h, piece 3 with U < h, V >= h and
    2U + V >= c (2a+b >= 3/2+eps)."""
    en, ed = eps.numerator, eps.denominator
    return (-(-D // 2), 2 * D // 3 + 1, 7 * D // 6,
            -(-(7 * ed + 6 * en) * D // (6 * ed)), 17 * D // 12,
            -(-(3 * ed + 2 * en) * D // (2 * ed)))


def _piece_masks(eps: Fraction, D: int, U, V):
    """The masks (t1, t2, t3) of the points (U/D, V/D) in each piece of the
    block, by the bounds of ``_piece_bounds``; numpy arrays (broadcast) or
    Python ints.  The pieces are disjoint for 0 < eps < 1."""
    h, s1, s2, b1, b2, c = _piece_bounds(eps, D)
    S = U + V
    high = U >= h
    band = (S >= b1) & (S <= b2)
    in_t1 = high & (S >= s1) & (S <= s2)
    in_t2 = high & (V < h) & band
    in_t3 = (U < h) & (V >= h) & band & (U + S >= c)
    return in_t1, in_t2, in_t3


def scaled_in_block(eps: Fraction, D: int, U, V):
    """Whether the points (U/D, V/D) lie in the block, in one of its three
    pieces; numpy arrays (broadcast) or Python ints."""
    in_t1, in_t2, in_t3 = _piece_masks(eps, D, U, V)
    return in_t1 | in_t2 | in_t3


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
    """scaled_in_block (eps) or scaled_box (eps None, 0 < delta < 1) on
    numerators in [0, D) keeps every intermediate below this times D."""
    return delta.denominator if eps is None else 16 * eps.denominator


def scaled_weight(eps: Fraction, D: int, U, V):
    """F4 = weight((U/D, V/D)) * 4 * en^2 * D^2 for 0 <= U, V < D,
    meaningful where scaled_in_block holds; numpy arrays (broadcast) or
    Python ints."""
    en, ed = eps.numerator, eps.denominator
    S = U + V
    # 4 * D^2 * g(U/D): (2U)^2 below one half, (2U - D)^2 above
    G = (2 * U % D) ** 2
    return 96 * ed * ed * S * S + 6 * en * en * G


def weight_factor(eps: Fraction) -> int:
    """scaled_weight on numerators in [0, D) keeps every intermediate, and
    scaled_in_block every one of its own, below this times D^2."""
    return 384 * eps.denominator ** 2 + 6 * eps.numerator ** 2


def weight_table(eps: Fraction, D: int) -> np.ndarray:
    """F4[u, v] = weight((u/D, v/D)) * 4 * en^2 * D^2, or -1 outside the block."""
    u = np.arange(D, dtype=np.int64)
    U, V = u[:, None], u[None, :]
    return np.where(scaled_in_block(eps, D, U, V), scaled_weight(eps, D, U, V), np.int64(-1))


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
    """The number of pairs x <= z of range(n) before each row x in
    row-major order, and last the number of pairs."""
    rows = np.arange(n + 1, dtype=np.int64)
    return rows * (2 * n - rows + 1) // 2


def pair_tiles(n: int, size: int, x0: int = 0, x1: int | None = None):
    """The pairs x <= z of range(n) with x in the rows [x0, x1), all of
    them by default, in row-major order as tiles: whole rows against the
    columns from their first pair on, as many rows as ``size`` cells allow,
    or the segments of at most ``size`` columns of a row longer than that.
    A tile holds the pairs with x in the slice tile.rows and z in
    tile.cols, as the cells of an array tile.valid over (x, z) that marks
    them."""
    x1 = n if x1 is None else x1
    a0 = x0
    while a0 < x1:
        # as many whole rows as ``size`` cells hold, or one row in segments
        a1 = min(a0 + max(1, size // (n - a0)), x1)
        for c0 in range(a0, n, size):
            c1 = min(n, c0 + size)
            yield SimpleNamespace(rows=slice(a0, a1), cols=slice(c0, c1),
                                  valid=np.arange(c0, c1) >= np.arange(a0, a1)[:, None])
        a0 = a1


# grid pairs per tile of a sweep, counted as the tile's rows times its
# columns (its lower-left triangle included); the block and midpoint facts
# make about eight int64 and fifteen one-byte arrays of that many entries
# a tile.  On a 2-vCPU host check all at eps 1/12 took 4.6 / 4.9 / 6.1 ms
# at Q 48, 16.5 / 14.5 / 19.0 ms at Q 72 and 106 / 87 / 81 ms at Q 120 on
# tiles of 2^13 / 2^14 / 2^15 (in-process medians of 15-41)
_SWEEP_CHUNK = 1 << 14
# Below this many grid pairs a sweep stays on one process whatever the
# worker cap, because a fresh process pays for importing and starting the
# pool about what a second worker saves: on a 2-vCPU host, medians of 7
# alternating `python -m apfree --threads {1,2} check all --epsilon 1/12`
# runs took 127 / 134-140 ms at Q 96 (2.7e6 pairs), 160-164 / 156-160 ms
# at Q 120 (6.6e6), 219-223 / 189-190 ms at Q 144 (1.4e7) and 318-319 /
# 237-240 ms at Q 168 (2.5e7), one worker against two.
_SERIAL_PAIRS = 1 << 23

# the thresholds of per-sum tables with no candidate to test, and of sums
# every pair of which must go through the exact facts
_NEG, _POS = -INT64_SAFE, INT64_SAFE


class _Grid:
    """The in-block points of the 1/Q grid in scan order, with the weight
    table at denominator 2Q that serves them and their midpoint candidates
    (``candidate``), the facts ``kinds`` to sweep and the tables they read,
    built on first use.  The sweep is charged to budget.SWEEP before any
    table is made."""

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
        # a pair's outer sums (U0, V0) = x + z index the per-sum tables at
        # sid = U0 * 2Q + V0, so U0 < Q iff sid < Q * 2Q
        self.sid = self.I * self.D + self.J
        # coordinate sums, in int32 as they are below 2Q, differ by less
        # than eps iff by at most near_gap
        self.S32 = self.S.astype(np.int32)
        self.near_gap = (en * Q - 1) // ed
        gq, self.g2 = _g_tables(Q)
        self.GX = gq[self.I]
        # each point's share of the pair values of the candidate facts: a
        # pair's h(x) + h(z) for the weight inequality, ell for code 2 and k
        # for code 3 of the midpoint facts
        self.h = self.net(self.FX, 2 * self.I, 2 * self.J)
        self.ell = 2 * ed * ed * self.S ** 2
        self.k = 4 * self.GX - 4 * self.I ** 2
        # code 2's right-hand side ed^2 syn^2 + en^2 Q^2 by a candidate's
        # coordinate sum syn over 2Q, read by ``candidate``
        self.rhs2 = ed * ed * np.arange(2 * self.D, dtype=np.int64) ** 2 + en * en * Q * Q
        # the single-point facts, code 1: 2/3 < sum <= 17/12, code 2: g of
        # the first coordinate dominates (a - 1/2)^2; only the failing ones
        self.point_faults = [
            (code, bad) for code, bad in (
                (1, ~((3 * self.S > 2 * Q) & (12 * self.S <= 17 * Q))),
                (2, 4 * self.GX < (2 * self.I - Q) ** 2))
            if bad.any()]

    def net(self, F, U, V):
        """F - 8 en^2 (U^2 + V^2), the scaled w(P) - 2|P|^2 of the point
        P = (U/2Q, V/2Q) of scaled weight F.  As |x - z|^2 = 2|x|^2 + 2|z|^2 -
        4|m|^2 for m = (x + z)/2 = (U0/2Q, V0/2Q), the weight inequality at y
        reads h(x) + h(z) >= 2 net(F4(y), U0, V0), h a point's own net."""
        e8 = 8 * self.eps.numerator ** 2
        return F - e8 * U * U - e8 * V * V

    def candidate(self, U0, V0, c: int) -> SimpleNamespace:
        """Midpoint candidate c of the outer sums (U0, V0) = x + z of pairs,
        numpy arrays (broadcast) or ints: its numerators (u, v) over 2Q (U0
        plus Q if c >= 2, V0 plus Q if c is odd, mod 2Q), ``inb``, whether it
        lies in the block, and the right-hand side there of each fact, which
        a pair's value must reach: ``block`` for h(x) + h(z), ``code2`` for
        2 ed^2 (sx^2 + sz^2), ``code3`` for k(x) + k(z) of near pairs (as
        2 (x1 - z1)^2 = 4 x1^2 + 4 z1^2 - 2 U0^2).  Code 1 fails unless
        ``alt``, its coordinate sum less U0 + V0, is 0 or -Q; near pairs meet
        code 2 where alt is 0, as 2 (sx^2 + sz^2) - (sx - sz)^2 = (U0 + V0)^2."""
        Q, D = self.Q, self.D
        u, v = (U0 + Q * (c >> 1)) % D, (V0 + Q * (c & 1)) % D
        fy = self.F4.take(u * D + v)
        return SimpleNamespace(u=u, v=v, inb=fy >= 0, alt=(u - U0) + (v - V0),
                               block=2 * self.net(fy, U0, V0),
                               code2=self.rhs2.take(u + v),
                               code3=2 * self.g2[u] - 2 * U0 * U0)

    @cached_property
    def tables(self) -> SimpleNamespace:
        """Tables over the outer sums s = x + z = (U0, V0) of a pair, at
        index sid = U0 * 2Q + V0, built on the walk's first use: the number
        of in-block candidates of s, and a threshold per fact, the largest
        right-hand side of ``candidate`` over the in-block candidates where
        the fact can fail, so a pair fails the fact at some candidate iff
        its value lies below its sum's threshold."""
        Q, D = self.Q, self.D
        s = np.arange(D, dtype=np.int64)
        nin = np.zeros((D, D), dtype=np.int8)
        block, far2, near2, near3 = (np.full((D, D), _NEG) for _ in range(4))
        code1 = np.zeros((D, D), dtype=bool)
        for c in range(4):
            y = self.candidate(s[:, None], s[None, :], c)
            nin += y.inb
            np.maximum(block, y.block, out=block, where=y.inb)
            np.maximum(far2, y.code2, out=far2, where=y.inb)
            np.maximum(near3, y.code3, out=near3, where=y.inb)
            # the candidates where near pairs lack code 2's alternative
            other = y.inb & (y.alt != 0)
            np.maximum(near2, y.code2, out=near2, where=other)
            code1 |= other & (y.alt != -Q)
        # code 1 depends on s alone: every pair of a failing sum is flagged
        near2[code1] = far2[code1] = _POS
        return SimpleNamespace(nin=nin.ravel(), block_top=block.ravel(),
                               code2_near_top=near2.ravel(), code2_far_top=far2.ravel(),
                               code3_top=near3.ravel())

    @cached_property
    def prefix(self) -> np.ndarray:
        """prefix[i, s], the number of points with first coordinate below
        i/Q and coordinate sum below s/Q, over 0 <= i <= Q and
        0 <= s <= 2Q; the box counts of the first-coordinate facts read it."""
        Q, D = self.Q, self.D
        n = np.bincount(self.I * D + self.S, minlength=Q * D).reshape(Q, D)
        prefix = np.zeros((Q + 1, D + 1), dtype=np.int64)
        np.cumsum(np.cumsum(n, axis=0), axis=1, out=prefix[1:, 1:])
        return prefix


class _Tile:
    """A tile of grid pairs (``pair_tiles``) with the pair values the facts
    share, each made once on first use."""

    def __init__(self, g: _Grid, tile: SimpleNamespace):
        self.g, self.rows, self.cols, self.valid = g, tile.rows, tile.cols, tile.valid

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
        # int8 products, summed in int64
        return int((self.nin * self.valid).sum())

    def exact(self, flagged, fails):
        """(violations, first violation key) per code on the tile's
        ``flagged`` pairs: ``fails(pair, y)`` yields (code, failing pairs)
        from the pairs' values at their candidate y (``_Grid.candidate``); a
        code's first failure is its smallest (pair, in-block candidate)."""
        flagged &= self.valid
        if not flagged.any():
            return
        g = self.g
        r, col = np.nonzero(flagged)
        a, b = r + self.rows.start, col + self.cols.start
        pair = SimpleNamespace(near=self.near[r, col], h=g.h[a] + g.h[b],
                               ell=g.ell[a] + g.ell[b], k=g.k[a] + g.k[b])
        bad = {}
        for c in range(4):
            y = g.candidate(g.I[a] + g.I[b], g.J[a] + g.J[b], c)
            for code, fails_y in fails(pair, y):
                bad.setdefault(code, []).append(y.inb & fails_y)
        for code, masks in bad.items():
            # pair-major, so the first failure is the first one set
            masks = np.stack(masks, axis=1)
            n = int(np.count_nonzero(masks))
            if n:
                p, c = divmod(int(np.argmax(masks)), 4)
                yield n, (int(a[p]), int(b[p]), c, code)


# Each fact takes a tile, or the rows (``_Rows``), and yields (violations,
# first violation key) per failing code, adding its side counts to
# ``counts``.

def _block_tile(t: _Tile, counts):
    """The weight inequality: h(x) + h(z) below the sum's threshold."""
    counts["candidates"] += t.candidates
    yield from t.exact(t.add(t.g.h) < t.g.tables.block_top.take(t.sid),
                       lambda p, y: [(0, p.h < y.block)])


def _midpoint_tile(t: _Tile, counts):
    """The midpoint facts: a code's pair value below the sum's threshold
    for near or for far pairs."""
    tab, sid = t.g.tables, t.sid
    counts["candidates"] += t.candidates
    counts["near_equal_candidates"] += int((t.nin * t.valid_near).sum())
    # 2 ed^2 (sx^2 + sz^2) below a code-2 threshold: the slack fails
    ell = t.add(t.g.ell)
    near_fails = (ell < tab.code2_near_top.take(sid)) | (t.add(t.g.k) < tab.code3_top.take(sid))
    flagged = (t.near & near_fails) | (~t.near & (ell < tab.code2_far_top.take(sid)))
    yield from t.exact(flagged, lambda p, y: [
        (1, (y.alt != 0) & (y.alt != -t.g.Q)),
        (2, (p.ell < y.code2) & (~p.near | (y.alt != 0))),
        (3, p.near & (p.k < y.code3))])


class _Rows:
    """The rows x in [x0, x1) of the pairs x <= z of a grid, for the facts
    counted by box queries: those that read only the first coordinates I
    and the coordinate sums S of a pair's points.  The points are in scan
    order, by I, then by S, so a row's partners z >= x are the points of
    larger I and those of x's own I from S_x on, two boxes in (I, S)."""

    def __init__(self, g: _Grid, x0: int, x1: int):
        self.g = g
        self.x = np.arange(x0, x1)
        # the rows' own I and S
        self.I, self.S = g.I[self.x], g.S[self.x]

    def _box(self, i0, i1, s0, s1):
        """The number of points with i0 <= I < i1 and s0 <= S < s1; numpy
        arrays (broadcast) or ints, any bound outside the grid clipped."""
        Q, D, prefix = self.g.Q, self.g.D, self.g.prefix
        i0 = np.clip(i0, 0, Q)
        i1 = np.clip(i1, i0, Q)
        s0 = np.clip(s0, 0, D)
        s1 = np.clip(s1, s0, D)
        return prefix[i1, s1] - prefix[i0, s1] - prefix[i1, s0] + prefix[i0, s0]

    def count(self, box):
        """Each row's partners z >= x inside its box (i0, i1, s0, s1)."""
        i0, i1, s0, s1 = box
        I, S = self.I, self.S
        return (self._box(np.maximum(i0, I + 1), i1, s0, s1)
                + self._box(np.maximum(i0, I), np.minimum(i1, I + 1), np.maximum(s0, S), s1))

    def hits(self, code, applicable, failing, counts):
        """(violations, first violation key) of the partners z of each row
        in its box ``failing``, counting those in its box ``applicable``;
        the first is found by one scan of the first row holding any."""
        counts["applicable"] += int(self.count(applicable).sum())
        n = self.count(failing)
        if n.any():
            r = int(np.flatnonzero(n)[0])
            i0, i1, s0, s1 = (np.broadcast_to(b, n.shape)[r] for b in failing)
            z = np.arange(self.x[r], self.g.P)
            I, S = self.g.I[z], self.g.S[z]
            z = z[(I >= i0) & (I < i1) & (S >= s0) & (S < s1)]
            yield int(n.sum()), (int(self.x[r]), int(z[0]), 0, code)


def _x1z1_rows(r: _Rows, counts):
    """Pairs with nearly equal coordinate sums and one first coordinate
    >= 1/2 must have first coordinates summing to at least 1: x's partners
    z with S_z within near_gap of S_x and with I_z >= Q/2 unless I_x is,
    failing when I_z < Q - I_x."""
    Q = r.g.Q
    lo = np.where(2 * r.I >= Q, 0, Q // 2)
    near = r.S - r.g.near_gap, r.S + r.g.near_gap + 1
    yield from r.hits(0, (lo, Q, *near), (lo, Q - r.I, *near), counts)


def _facts_rows(r: _Rows, counts):
    """Code 3 of the block facts: two points with first coordinates summing
    below 1 have coordinate sums totalling more than 11/6, so x's partners
    z with I_z < Q - I_x fail when S_z <= 11 Q / 6 - S_x, an integer as 24
    divides Q.  (Codes 1 and 2, the grid's point facts, are the pairs
    (x, x): see ``_point_hits``.)"""
    Q = r.g.Q
    yield from r.hits(3, (0, Q - r.I, 0, 2 * Q), (0, Q - r.I, 0, 11 * Q // 6 - r.S + 1),
                      counts)


def _point_hits(g: _Grid, x0: int, x1: int):
    """(violations, first violation key) of the grid's point facts, codes
    1 and 2, on the pairs (x, x) of the rows [x0, x1)."""
    for code, bad in g.point_faults:
        a = x0 + np.flatnonzero(bad[x0:x1])
        if len(a):
            yield len(a), (int(a[0]), int(a[0]), 0, code)


# kind -> (fact, its side counts, whether it tests midpoint candidates);
# the facts that do take tiles, the others take the rows (``_Rows``)
_FACTS = {
    "block": (_block_tile, ("candidates",), True),
    "midpoint": (_midpoint_tile, ("candidates", "near_equal_candidates"), True),
    "x1z1": (_x1z1_rows, ("applicable",), False),
    "facts": (_facts_rows, ("applicable",), False),
}


def _walk(g: _Grid, x0: int, x1: int):
    """{kind: (counts, smallest violation key (x, z, candidate, code))} of
    the grid's facts over the pairs x <= z of the rows [x0, x1): the tiles
    walked once for all the facts that take them, and the rows counted
    once for the others."""
    row_start = _row_starts(g.P)
    pairs = int(row_start[x1] - row_start[x0])
    counts = {kind: {"grid_points": g.P, "pairs": pairs, "violations": 0,
                     **dict.fromkeys(_FACTS[kind][1], 0)} for kind in g.kinds}
    best = dict.fromkeys(g.kinds)

    def record(kind, hits):
        for n, key in hits:
            counts[kind]["violations"] += n
            if best[kind] is None or key < best[kind]:
                best[kind] = key

    if "facts" in g.kinds:
        record("facts", _point_hits(g, x0, x1))
    tiled = [kind for kind in g.kinds if _FACTS[kind][2]]
    counted = [kind for kind in g.kinds if kind not in tiled]
    if counted:
        rows = _Rows(g, x0, x1)
        for kind in counted:
            record(kind, _FACTS[kind][0](rows, counts[kind]))
    if tiled:
        for tile in pair_tiles(g.P, _SWEEP_CHUNK, x0, x1):
            t = _Tile(g, tile)
            for kind in tiled:
                record(kind, _FACTS[kind][0](t, counts[kind]))
    return {kind: (counts[kind], best[kind]) for kind in g.kinds}


def _merge(parts):
    """(counts, smallest violation key) of a sweep from those of the row
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
    kinds, eps_str, Q, x0, x1 = args
    return _walk(_Grid(Fraction(eps_str), Q, kinds), x0, x1)


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
        y = g.candidate(int(g.I[xi] + g.I[zi]), int(g.J[xi] + g.J[zi]), c)
        violation["y"] = [rat_str(Fraction(int(y.u), g.D)), rat_str(Fraction(int(y.v), g.D))]
        violation["candidate"] = c
    return violation


def _cpu_limit() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweeps(kinds, eps: Fraction, Q: int, threads: int = 1):
    """Run the exhaustive pair sweeps of the facts ``kinds`` in one walk
    over the grid pairs, split across processes into ranges of whole rows,
    each within P pairs of an even share, when the grid has at least
    _SERIAL_PAIRS pairs, the block or midpoint facts are among ``kinds``
    (the others cost O(Q^2 + rows), less than a worker's own grid), and
    ``threads``, the CPUs this process may run on and the grid's rows all
    allow more than one.

    Returns {kind: (counts, violation)}, violation None or a dict locating
    the kind's first failure in scan order (identical for every worker
    count)."""
    g = _Grid(eps, Q, kinds)
    threads = max(1, min(threads, _cpu_limit(), g.P))
    if threads == 1 or g.pairs < _SERIAL_PAIRS or not any(_FACTS[k][2] for k in g.kinds):
        parts = [_walk(g, 0, g.P)]
    else:
        # each part starts at the row holding its even share's first pair,
        # so it is within a row, P pairs, of an even share
        cuts = np.searchsorted(_row_starts(g.P),
                               [g.pairs * k // threads for k in range(threads + 1)]).tolist()
        jobs = [(g.kinds, str(g.eps), Q, x0, x1) for x0, x1 in zip(cuts, cuts[1:])]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_worker, jobs))
    result = {}
    for kind in g.kinds:
        counts, best = _merge([part[kind] for part in parts])
        result[kind] = counts, None if best is None else _violation(g, kind, best)
    return result


def _piece_rows(eps: Fraction, D: int, U) -> list:
    """Per piece, (lo, hi): for each numerator U of the array U, the least
    and the greatest integer V with (U/D, V/D) in the piece, by the bounds
    of ``_piece_bounds`` (the row holds none when lo > hi).  The rows with
    U >= h belong to pieces 1 and 2, the others to piece 3."""
    h, s1, s2, b1, b2, c = _piece_bounds(eps, D)
    high, low = U[U >= h], U[U < h]
    return [
        (s1 - high, s2 - high),
        (b1 - high, np.minimum(b2 - high, h - 1)),
        (np.maximum(np.maximum(b1 - low, h), c - 2 * low), b2 - low),
    ]


def density_count(eps: Fraction, m: int) -> int:
    """Number of cell midpoints ((2i+1)/(2m), (2j+1)/(2m)) inside the block,
    counted by rows: for each odd numerator U = 2i+1 over D = 2m, every
    piece's V-range is one interval (``_piece_rows``), and the odd V in
    it are counted; the pieces are disjoint, so the counts add up.  Time
    and memory are O(m).  The m^2 cells are charged to budget.GRID first."""
    _check_scale(eps, 2 * m)
    budget.charge("GRID", f"density grid of {m}x{m} cells", m * m)
    eps, D = BuildingBlock(eps).epsilon, 2 * m
    rows = _piece_rows(eps, D, 2 * np.arange(m, dtype=np.int64) + 1)

    def odd_upto(v):
        # the odd V in [0, v] that lie below D
        return (np.clip(v, -1, D) + 1) // 2

    return sum(int(np.maximum(odd_upto(hi) - odd_upto(lo - 1), 0).sum()) for lo, hi in rows)
