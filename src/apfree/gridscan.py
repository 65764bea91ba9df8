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
sentinels, -2^62 and 2^62, are only compared, never added to, apart from
the band radius lowering 2^62 by a code-2 value.  The radius's own
bounds on h(x) + h(z) and its thresholds stay inside (-3400, 3400)
(ed*Q)^2.

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

``run_sweeps`` sweeps the pairs x <= z of the grid points once for any
selection of the four facts (every ``check`` calls it once).  The weight
and midpoint facts read tables over a pair's outer sum s = x + z, which
fixes its four midpoint candidates.  Each fact is rewritten so that its
pair side is a value of x plus a value of z (for the weight inequality
by |x-z|^2 = 2|x|^2 + 2|z|^2 - |s|^2), and its other side is the
right-hand side that ``_Grid.candidate`` gives at each candidate of s,
the one place that computes a candidate's coordinates, its membership
and its right-hand sides.  A sum's table holds the largest of them over
its in-block candidates, so a pair fails the fact at some candidate iff
its value lies below its sum's threshold.  Both pair values grow with
the gap d = |S_x - S_z| of the points' coordinate sums, exactly for code
2 and through a lower bound for the weight inequality, so the tables
give a band radius R* (``_Grid.radius``) from which no pair can be
flagged; on every passing grid tested (eps 1/4 to 1/48, Q up to 240) R*
is near_gap + 1, so only the near pairs are walked.  The band walk
orders the points by (S, scan index), so a point's band partners are the
run of points after it, and walks those pairs in tiles of rows against
offsets (``band_tiles``), broadcast over a strided view of the values
ahead: a tile costs a few integer operations per pair, and only the
pairs flagged are compared with each candidate's own right-hand sides
(``_exact``), as (x, z) in scan order, to count their violations and
find the first; a passing sweep flags none.  The pairs and the midpoint
candidates of all pairs are counted in closed form, from the number of
pairs per outer sum (``pair_sum_counts``), O(Q^2).  A code-1 fault on a
sum that pairs reach, whose threshold no pair value reaches, makes
R* = 2Q, and the walk every pair.

The first-coordinate facts walk no pair: they read only the first
coordinate I and the coordinate sum S of each point, so a row x's
partners z >= x that apply or fail form a box in (I, S), and a prefix
count table over (I, S) counts them by box queries (``_Rows``), in
O(Q^2 + rows); the first violation is the first one in the first row
holding any.  The grid's point facts run once on the pairs (x, x).
One tally (``_tally``) keeps each fact's first violation in scan order
as the smallest (x, z, candidate, code) over the walk's units, the
band's tiles or the whole grid's rows, so a band walk split into row
ranges, across processes or tiles, reports the same.  Before any table
is made a sweep is charged, from Q alone, to budget.SWEEP for a walk of
every pair; the per-sum and prefix count tables are built on first use.
Bands below _SERIAL_PAIRS pairs, and sweeps of the first-coordinate
facts alone, stay on one process, which is the only place the process
pool is imported; the pool's workers walk ranges of band rows, and the
caller counts the rest.  The density grid's cells are charged to
budget.GRID.
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


def band_tiles(width: np.ndarray, size: int, p0: int, p1: int):
    """The pairs (p, p + k), 0 <= k < width[p], of the rows p in [p0, p1),
    in row-major order as tiles: as many rows as ``size`` cells allow, each
    against the offsets k below the tile's widest row, or the segments of
    at most ``size`` offsets of a row wider than that.  A tile holds the
    pairs with p in the slice tile.rows and k in tile.offsets, as the cells
    of an array tile.valid over (p, k) that marks them; no cell lies below
    its row's own pair (p, p)."""
    a0 = p0
    while a0 < p1:
        # the most rows whose count times their widest row fits ``size``
        widest = np.maximum.accumulate(width[a0:min(p1, a0 + size)])
        a1 = a0 + max(1, int(np.count_nonzero(widest * np.arange(1, len(widest) + 1) <= size)))
        end = int(widest[a1 - a0 - 1])
        for k0 in range(0, end, size):
            offsets = np.arange(k0, min(end, k0 + size))
            yield SimpleNamespace(rows=slice(a0, a1), offsets=slice(k0, k0 + len(offsets)),
                                  valid=offsets < width[a0:a1, None])
        a0 = a1


# band pairs per tile of a sweep, counted as the tile's rows times its
# widest row's offsets; the block and midpoint facts make about seven
# int64 and eight one-byte arrays of that many entries a tile.  On a
# 2-vCPU host check all at eps 1/12 took 4.6 / 4.6 / 5.2 ms at Q 48,
# 11.8 / 10.9 / 12.5 ms at Q 72 and 61 / 54 / 53 ms at Q 120 on tiles of
# 2^13 / 2^14 / 2^15 (in-process medians of 21 alternating runs)
_SWEEP_CHUNK = 1 << 14
# Below this many band pairs the band walk stays on one process whatever
# the worker cap, because a fresh process pays for importing and starting
# the pool about what a second worker saves: on a 2-vCPU host, medians of
# 7-9 alternating `python -m apfree --threads {1,2} check all` runs, the
# pool forced on, took at eps 1/12 157 / 196 ms at Q 96 (6.2e5 band
# pairs), 195 / 214 ms at Q 144 (3.1e6), 279 / 268 ms at Q 192 (1.0e7),
# 377 / 340 ms at Q 216 (1.6e7) and 513 / 437 ms at Q 240 (2.4e7), and at
# eps 1/4 262 / 313 ms at Q 120 (3.2e6), 242 / 252 ms at Q 144 (6.6e6),
# 302 / 292 ms at Q 168 (1.2e7) and 385 / 345 ms at Q 192 (2.1e7), one
# worker against two: the second worker pays from about 1e7 band pairs
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
    def pair_sums(self) -> np.ndarray:
        """N[sid], the number of pairs x <= z of the grid with outer sum
        s = x + z (``pair_sum_counts``)."""
        return pair_sum_counts(self.I, self.J, self.Q)

    @cached_property
    def candidates(self) -> int:
        """The in-block midpoint candidates of all the pairs, sum by sum."""
        # int8 times int64, summed in int64
        return int((self.tables.nin * self.pair_sums).sum())

    @cached_property
    def radius(self) -> int:
        """The band radius R*: no pair whose coordinate sums differ by R* or
        more can be flagged by the weight or the midpoint facts' tables,
        and R* > near_gap, so the near pairs lie inside the band.

        Over a pair's outer sum s = (U0, V0), sigma = U0 + V0 and the gap
        d = |S_x - S_z| of its coordinate sums, a far pair's code-2 value
        is ed^2 (sigma^2 + d^2) exactly.  Each point's h is its weight
        formula 384 ed^2 S^2 - 32 en^2 (I^2 + J^2) plus a residual, so
        h(x) + h(z) >= 192 ed^2 (sigma^2 + d^2) - 16 en^2 (U0^2 + V0^2 +
        dI^2 + dJ^2) + 2 min(residual), where |I_x - I_z| <= dI =
        min(U0, 2Q - 2 - U0), and likewise dJ.  Both grow with d, so over
        the sums that some pair reaches and that hold an in-block
        candidate, the least d from which each value reaches its sum's
        threshold bounds the gaps of every flagged pair.  The residual is
        read from the grid's own h, so a table that lowers a weight widens
        the band; a sum of code 1 faults, whose threshold is 2^62, makes it
        2Q, every pair."""
        Q, D, tab = self.Q, self.D, self.tables
        en, ed = self.eps.numerator, self.eps.denominator
        sid = np.flatnonzero((tab.nin > 0) & (self.pair_sums > 0))
        U0, V0 = sid // D, sid % D
        sq = (U0 + V0) ** 2
        residual = self.h - 384 * ed * ed * self.S ** 2 + 32 * en * en * (self.I ** 2 + self.J ** 2)
        spread = np.minimum(U0, 2 * Q - 2 - U0) ** 2 + np.minimum(V0, 2 * Q - 2 - V0) ** 2
        block = (tab.block_top[sid] + 16 * en * en * (U0 * U0 + V0 * V0 + spread)
                 - 2 * int(residual.min()) - 192 * ed * ed * sq)
        code2 = tab.code2_far_top[sid] - ed * ed * sq
        # the least gap d in [0, 2Q) whose share reaches each sum's need, or 2Q
        gaps = np.arange(D, dtype=np.int64) ** 2
        least = [np.searchsorted(k * gaps, need).max(initial=0)
                 for k, need in ((192 * ed * ed, block), (ed * ed, code2))]
        return max(int(least[0]), int(least[1]), self.near_gap + 1)

    @cached_property
    def band(self) -> SimpleNamespace:
        """The points in order of (coordinate sum S, scan index), the band
        order: ``order`` their scan indices, ``width[p]`` the number of
        partners q >= p of point p whose sums are below S_p + radius, a
        run q = p, ..., p + width[p] - 1, ``starts`` the number of band
        pairs before each row p (last the total), ``all_near`` whether
        every band pair is near, and the per-point values the tiles add,
        in band order, each as ``values`` (its points) and ``ahead`` (the
        strided view whose row p holds the values of points p, p + 1, ...,
        zero past the last point)."""
        order = np.argsort(self.S, kind="stable")
        S = self.S[order]
        width = np.searchsorted(S, S + self.radius) - np.arange(self.P)
        starts = np.zeros(self.P + 1, dtype=np.int64)
        np.cumsum(width, out=starts[1:])
        pad = int(width.max(initial=1))
        values, ahead = {}, {}
        for name in ("sid", "S32", "h", "ell", "k"):
            col = getattr(self, name)[order]
            values[name] = col
            ahead[name] = np.lib.stride_tricks.sliding_window_view(
                np.concatenate([col, np.zeros(pad, dtype=col.dtype)]), pad)
        return SimpleNamespace(order=order, width=width, starts=starts,
                               all_near=self.radius <= self.near_gap + 1,
                               values=SimpleNamespace(**values), ahead=SimpleNamespace(**ahead))

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


def pair_sum_counts(I: np.ndarray, J: np.ndarray, Q: int) -> np.ndarray:
    """For distinct points (I, J) of the 1/Q grid, 0 <= I, J < Q, in scan
    order (by I, then J): the number of pairs x <= z of them with outer sum
    (U0, V0) = x + z, at index U0 * 2Q + V0 of (2Q)^2 counts.

    The points of one I fall into runs of consecutive J.  The ordered
    pairs of two runs have the outer sums of a trapezoid in V0 at
    U0 = I_a + I_b, whose second difference along V0 is +1 at the sum of
    the runs' starts and at the sum of their ends (one past the last J),
    and -1 at a start plus an end; a pair (x, x) at 2x is +1, -2, +1 at
    V0 = 2y, 2y + 1, 2y + 2.  So the impulses of every two runs and of
    every point are added into one table with ``np.add.at``, in pieces of
    at most _SWEEP_CHUNK sums, and summed twice along V0: that counts
    each pair x < z twice and each (x, x) twice, so half of it is the
    pairs x <= z.  Time O(runs^2 + Q^2), memory O(Q^2)."""
    D = 2 * Q
    # a row of U0 holds V0 in [0, 2Q]: an end is at most Q
    W = D + 1
    at = I * W + J
    first, last = np.ones(len(at), dtype=bool), np.ones(len(at), dtype=bool)
    first[1:] = last[:-1] = at[1:] != at[:-1] + 1
    starts, ends = at[first], at[last] + 1
    pairs = np.zeros((D, W), dtype=np.int64)
    flat = pairs.reshape(-1)
    for shift, sign in ((0, 1), (1, -2), (2, 1)):
        np.add.at(flat, 2 * at + shift, sign)
    # a start plus an end, and an end plus a start: -2
    step = max(1, _SWEEP_CHUNK // max(1, len(starts)))
    for k in range(0, len(starts), step):
        for a, b, sign in ((starts, starts, 1), (ends, ends, 1), (starts, ends, -2)):
            np.add.at(flat, np.add.outer(a[k:k + step], b).ravel(), sign)
    np.cumsum(pairs, axis=1, out=pairs)
    np.cumsum(pairs, axis=1, out=pairs)
    pairs //= 2
    return pairs[:, :D].ravel()


class _Tile:
    """A tile of band pairs (``band_tiles`` over the grid's ``band``), cell
    (p, k) holding the pair of the points p and p + k in band order, with
    the pair values the facts share, each made once on first use."""

    def __init__(self, g: _Grid, tile: SimpleNamespace):
        self.g, self.b = g, g.band
        self.rows, self.offsets, self.valid = tile.rows, tile.offsets, tile.valid

    def add(self, name: str):
        """The per-point value ``name`` of p plus that of p + k over the
        tile."""
        return (getattr(self.b.values, name)[self.rows, None]
                + getattr(self.b.ahead, name)[self.rows, self.offsets])

    @cached_property
    def sid(self):
        return self.add("sid")

    @cached_property
    def near(self):
        """The coordinate sums of the pair differ by less than eps: every
        pair, when the band holds only near ones.  The sum of p + k is at
        least that of p wherever the tile is valid."""
        if self.b.all_near:
            return self.valid
        S = self.b.values.S32
        return self.b.ahead.S32[self.rows, self.offsets] - S[self.rows, None] <= self.g.near_gap

    @cached_property
    def nin(self):
        """The number of in-block midpoint candidates of each pair."""
        return self.g.tables.nin.take(self.sid)

    def exact(self, flagged, fails):
        """``_exact`` on the tile's valid ``flagged`` pairs, as the scan
        indices (x, z), x <= z, of their points."""
        flagged &= self.valid
        if flagged.any():
            p, k = np.nonzero(flagged)
            p += self.rows.start
            p, q = self.b.order[p], self.b.order[p + k + self.offsets.start]
            yield from _exact(self.g, np.minimum(p, q), np.maximum(p, q), fails)


def _exact(g: _Grid, a, b, fails):
    """(violations, first violation key) per code on the pairs (a, b) of
    scan indices, a <= b: ``fails(pair, y)`` yields (code, failing pairs)
    from the pairs' values at their candidate y (``_Grid.candidate``); a
    code's first failure is its smallest (a, b, in-block candidate)."""
    ranked = np.lexsort((b, a))
    a, b = a[ranked], b[ranked]
    pair = SimpleNamespace(near=np.abs(g.S32[a] - g.S32[b]) <= g.near_gap,
                           h=g.h[a] + g.h[b], ell=g.ell[a] + g.ell[b], k=g.k[a] + g.k[b])
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


# Each fact takes a tile, or the whole grid's rows (``_Rows``), and yields
# (violations, first violation key) per failing code, adding its side
# counts to ``counts``.

def _block_tile(t: _Tile, counts):
    """The weight inequality: h(x) + h(z) below the sum's threshold."""
    yield from t.exact(t.add("h") < t.g.tables.block_top.take(t.sid),
                       lambda p, y: [(0, p.h < y.block)])


def _midpoint_tile(t: _Tile, counts):
    """The midpoint facts: a code's pair value below the sum's threshold
    for near or for far pairs."""
    tab, sid = t.g.tables, t.sid
    counts["near_equal_candidates"] += int((t.nin * (t.valid & t.near)).sum())
    # 2 ed^2 (sx^2 + sz^2) below a code-2 threshold: the slack fails
    ell = t.add("ell")
    flagged = (ell < tab.code2_near_top.take(sid)) | (t.add("k") < tab.code3_top.take(sid))
    if not t.b.all_near:
        flagged = (t.near & flagged) | (~t.near & (ell < tab.code2_far_top.take(sid)))
    yield from t.exact(flagged, lambda p, y: [
        (1, (y.alt != 0) & (y.alt != -t.g.Q)),
        (2, (p.ell < y.code2) & (~p.near | (y.alt != 0))),
        (3, p.near & (p.k < y.code3))])


class _Rows:
    """The rows x of the pairs x <= z of a grid, one per point, for the
    facts counted by box queries: those that read only the first
    coordinates I and the coordinate sums S of a pair's points.  The
    points are in scan order, by I, then by S, so a row's partners z >= x
    are the points of larger I and those of x's own I from S_x on, two
    boxes in (I, S)."""

    def __init__(self, g: _Grid):
        self.g = g

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
        I, S = self.g.I, self.g.S
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
            I, S = self.g.I[r:], self.g.S[r:]
            z = r + np.flatnonzero((I >= i0) & (I < i1) & (S >= s0) & (S < s1))
            yield int(n.sum()), (r, int(z[0]), 0, code)


def _x1z1_rows(r: _Rows, counts):
    """Pairs with nearly equal coordinate sums and one first coordinate
    >= 1/2 must have first coordinates summing to at least 1: x's partners
    z with S_z within near_gap of S_x and with I_z >= Q/2 unless I_x is,
    failing when I_z < Q - I_x."""
    Q, I, S = r.g.Q, r.g.I, r.g.S
    lo = np.where(2 * I >= Q, 0, Q // 2)
    near = S - r.g.near_gap, S + r.g.near_gap + 1
    yield from r.hits(0, (lo, Q, *near), (lo, Q - I, *near), counts)


def _facts_rows(r: _Rows, counts):
    """Code 3 of the block facts: two points with first coordinates summing
    below 1 have coordinate sums totalling more than 11/6, so x's partners
    z with I_z < Q - I_x fail when S_z <= 11 Q / 6 - S_x, an integer as 24
    divides Q; and codes 1 and 2, the grid's point facts, on the pairs
    (x, x) (``_point_hits``)."""
    Q, I, S = r.g.Q, r.g.I, r.g.S
    yield from _point_hits(r.g)
    yield from r.hits(3, (0, Q - I, 0, 2 * Q), (0, Q - I, 0, 11 * Q // 6 - S + 1), counts)


def _point_hits(g: _Grid):
    """(violations, first violation key) of the grid's point facts, codes
    1 and 2, on the pairs (x, x): only the failing ones are kept."""
    for code, bad in g.point_faults:
        a = np.flatnonzero(bad)
        yield len(a), (int(a[0]), int(a[0]), 0, code)


# kind -> (fact, the side counts its walk makes, whether it walks the
# band's tiles); the facts that do, the weight and midpoint facts, also
# count their candidates in closed form (``_Grid.candidates``), and the
# others take the whole grid's rows (``_Rows``)
_FACTS = {
    "block": (_block_tile, (), True),
    "midpoint": (_midpoint_tile, ("near_equal_candidates",), True),
    "x1z1": (_x1z1_rows, ("applicable",), False),
    "facts": (_facts_rows, ("applicable",), False),
}


def _tally(kinds, units):
    """{kind: (counts, smallest violation key (x, z, candidate, code))} of
    the facts ``kinds`` over ``units``, each unit taken once for all of
    them: the band's tiles (``_Tile``), or the whole grid's rows
    (``_Rows``)."""
    counts = {kind: {"violations": 0, **dict.fromkeys(_FACTS[kind][1], 0)} for kind in kinds}
    best = dict.fromkeys(kinds)
    for unit in units:
        for kind in kinds:
            for n, key in _FACTS[kind][0](unit, counts[kind]):
                counts[kind]["violations"] += n
                if best[kind] is None or key < best[kind]:
                    best[kind] = key
    return {kind: (counts[kind], best[kind]) for kind in kinds}


def _walk(g: _Grid, p0: int, p1: int):
    """``_tally`` of the grid's weight and midpoint facts over the band
    pairs of the band rows [p0, p1).  Outside the band no pair is flagged
    (``_Grid.radius``), so these are all the facts' violations."""
    return _tally([kind for kind in g.kinds if _FACTS[kind][2]],
                  (_Tile(g, tile) for tile in band_tiles(g.band.width, _SWEEP_CHUNK, p0, p1)))


def _merge(parts):
    """(counts, smallest violation key) of a walk from those of the ranges
    it was split into."""
    counts: dict[str, int] = {}
    best = None
    for part_counts, key in parts:
        for k, v in part_counts.items():
            counts[k] = counts.get(k, 0) + v
        if key is not None and (best is None or key < best):
            best = key
    return counts, best


def _worker(args):
    kinds, eps_str, Q, p0, p1 = args
    return _walk(_Grid(Fraction(eps_str), Q, kinds), p0, p1)


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
    """Run the exhaustive pair sweeps of the facts ``kinds``: the
    first-coordinate and point facts by box queries, and the weight and
    midpoint facts in one walk over the band pairs, split across processes
    into band rows, each within P pairs of an even share, when the band
    holds at least _SERIAL_PAIRS pairs, and ``threads``, the CPUs this
    process may run on and the grid's rows all allow more than one.  The
    pairs and the candidates are counted in closed form, once.

    Returns {kind: (counts, violation)}, violation None or a dict locating
    the kind's first failure in scan order (identical for every worker
    count)."""
    g = _Grid(eps, Q, kinds)
    found = _tally([kind for kind in g.kinds if not _FACTS[kind][2]], [_Rows(g)])
    tiled = tuple(kind for kind in g.kinds if _FACTS[kind][2])
    if tiled:
        threads = max(1, min(threads, _cpu_limit(), g.P))
        starts = g.band.starts
        if threads == 1 or starts[-1] < _SERIAL_PAIRS:
            parts = [_walk(g, 0, g.P)]
        else:
            # each part starts at the band row holding its even share's
            # first pair, so it is within a row, P pairs, of an even share
            cuts = np.searchsorted(starts, [int(starts[-1]) * k // threads
                                            for k in range(threads + 1)]).tolist()
            jobs = [(tiled, str(g.eps), Q, p0, p1) for p0, p1 in zip(cuts, cuts[1:])]
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(_worker, jobs))
        for kind in tiled:
            found[kind] = _merge([part[kind] for part in parts])
    result = {}
    for kind in g.kinds:
        counts, best = found[kind]
        head = {"grid_points": g.P, "pairs": g.pairs, "violations": 0,
                **({"candidates": g.candidates} if kind in tiled else {})}
        result[kind] = {**head, **counts}, None if best is None else _violation(g, kind, best)
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
