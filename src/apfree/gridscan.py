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
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

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


class _Chunk:
    """Shared state for one pair-sweep chunk: x in [lo, hi) against all z >= x."""

    def __init__(self, eps: Fraction, Q: int):
        _check_scale(eps, Q)
        if Q % 24 != 0:
            raise ValueError(f"grid denominator {Q} must be a multiple of 24")
        self.eps = eps
        self.Q = Q
        self.D = 2 * Q
        self.F4 = weight_table(eps, self.D)
        tab = self.F4[::2, ::2]
        pts = np.argwhere(tab >= 0)
        self.I = pts[:, 0].astype(np.int64)
        self.J = pts[:, 1].astype(np.int64)
        self.FX = tab[pts[:, 0], pts[:, 1]]
        self.P = len(self.I)
        self.zidx = np.arange(self.P)

    def blocks(self, lo: int, hi: int, width: int = 64):
        for a in range(lo, hi, width):
            b = min(a + width, hi)
            yield a, b, (self.zidx[None, :] >= np.arange(a, b)[:, None])

    def midpoint_grids(self, a: int, b: int):
        Ix, Jx = self.I[a:b, None], self.J[a:b, None]
        Iz, Jz = self.I[None, :], self.J[None, :]
        U0, V0 = Ix + Iz, Jx + Jz
        U1 = np.where(U0 + self.Q >= self.D, U0 - self.Q, U0 + self.Q)
        V1 = np.where(V0 + self.Q >= self.D, V0 - self.Q, V0 + self.Q)
        return (Ix, Jx, Iz, Jz), ((U0, V0), (U0, V1), (U1, V0), (U1, V1))


def _min_key(viol: np.ndarray, a: int, c: int, code: int):
    xs, zs = np.nonzero(viol)
    if len(xs) == 0:
        return None
    return (int(a + xs[0]), int(zs[0]), c, code)


def block_chunk(eps: Fraction, Q: int, lo: int, hi: int):
    """Weight inequality w(x)+w(z) >= 2 w(y) + |x-z|^2 over every in-block
    grid pair and every in-block midpoint candidate."""
    ch = _Chunk(eps, Q)
    en = eps.numerator
    counts = {"grid_points": ch.P, "pairs": 0, "candidates": 0, "violations": 0}
    best = None
    for a, b, mask in ch.blocks(lo, hi):
        (Ix, Jx, Iz, Jz), cands = ch.midpoint_grids(a, b)
        counts["pairs"] += int(mask.sum())
        lhs = ch.FX[a:b, None] + ch.FX[None, :]
        gap = 16 * en * en * ((Ix - Iz) ** 2 + (Jx - Jz) ** 2)
        for c, (Uc, Vc) in enumerate(cands):
            fy = ch.F4[Uc, Vc]
            ok = mask & (fy >= 0)
            counts["candidates"] += int(ok.sum())
            viol = ok & (lhs < 2 * fy + gap)
            nviol = int(viol.sum())
            if nviol:
                counts["violations"] += nviol
                key = _min_key(viol, a, c, 0)
                if best is None or key < best:
                    best = key
    return counts, best


def midpoint_chunk(eps: Fraction, Q: int, lo: int, hi: int):
    """Midpoint coordinate-sum facts over every in-block pair/candidate:
    code 1: y-sum minus half the outer sums is 0 or -1/2;
    code 2: either the eps^2/2 sum-of-squares slack or the near-equal case;
    code 3: in the near-equal case the g-part dominates with (x1-z1)^2/2."""
    ch = _Chunk(eps, Q)
    en, ed = eps.numerator, eps.denominator
    Q2 = Q * Q
    gq, g2 = _g_tables(Q)
    counts = {
        "grid_points": ch.P,
        "pairs": 0,
        "candidates": 0,
        "violations": 0,
        "near_equal_candidates": 0,
    }
    best = None
    for a, b, mask in ch.blocks(lo, hi):
        (Ix, Jx, Iz, Jz), cands = ch.midpoint_grids(a, b)
        counts["pairs"] += int(mask.sum())
        sx, sz = Ix + Jx, Iz + Jz
        ssq = sx * sx + sz * sz
        dsum = sx - sz
        near = ed * np.abs(dsum) < en * Q
        gsum4 = 4 * (gq[Ix] + gq[Iz])
        dI2_2 = 2 * (Ix - Iz) ** 2
        for c, (Uc, Vc) in enumerate(cands):
            ok = mask & (ch.F4[Uc, Vc] >= 0)
            counts["candidates"] += int(ok.sum())
            syn = Uc + Vc
            alt = syn - (sx + sz)
            bad1 = ok & ~((alt == 0) | (alt == -Q))
            opt_a = 2 * ed * ed * ssq >= ed * ed * syn * syn + en * en * Q2
            opt_b = near & (2 * ssq == syn * syn + dsum * dsum)
            bad2 = ok & ~(opt_a | opt_b)
            nearok = ok & near
            counts["near_equal_candidates"] += int(nearok.sum())
            bad3 = nearok & (gsum4 < 2 * g2[Uc] + dI2_2)
            for code, bad in ((1, bad1), (2, bad2), (3, bad3)):
                n = int(bad.sum())
                if n:
                    counts["violations"] += n
                    key = _min_key(bad, a, c, code)
                    if best is None or key < best:
                        best = key
    return counts, best


def x1z1_chunk(eps: Fraction, Q: int, lo: int, hi: int):
    """Pairs with nearly equal coordinate sums and one first coordinate
    >= 1/2 must have first coordinates summing to at least 1."""
    ch = _Chunk(eps, Q)
    en, ed = eps.numerator, eps.denominator
    counts = {"grid_points": ch.P, "pairs": 0, "applicable": 0, "violations": 0}
    best = None
    for a, b, mask in ch.blocks(lo, hi):
        Ix, Jx = ch.I[a:b, None], ch.J[a:b, None]
        Iz, Jz = ch.I[None, :], ch.J[None, :]
        counts["pairs"] += int(mask.sum())
        dsum = (Ix + Jx) - (Iz + Jz)
        applicable = mask & (ed * np.abs(dsum) < en * Q) & (
            (2 * Ix >= Q) | (2 * Iz >= Q)
        )
        counts["applicable"] += int(applicable.sum())
        viol = applicable & (Ix + Iz < Q)
        n = int(viol.sum())
        if n:
            counts["violations"] += n
            key = _min_key(viol, a, 0, 0)
            if best is None or key < best:
                best = key
    return counts, best


def facts_chunk(eps: Fraction, Q: int, lo: int, hi: int):
    """Single-point and pair facts of the block:
    code 1: every point has 2/3 < sum <= 17/12;
    code 2: g of the first coordinate dominates (a - 1/2)^2;
    code 3: two points with first coordinates summing below 1 have
            coordinate sums totalling more than 11/6."""
    ch = _Chunk(eps, Q)
    gq, _ = _g_tables(Q)
    counts = {"grid_points": ch.P, "pairs": 0, "applicable": 0, "violations": 0}
    best = None
    if lo == 0:  # point facts once, not per chunk
        S = ch.I + ch.J
        bad1 = ~((3 * S > 2 * Q) & (12 * S <= 17 * Q))
        bad2 = 4 * gq[ch.I] < (2 * ch.I - Q) ** 2
        for code, bad in ((1, bad1), (2, bad2)):
            n = int(bad.sum())
            if n:
                counts["violations"] += n
                idx = int(np.nonzero(bad)[0][0])
                key = (idx, idx, 0, code)
                if best is None or key < best:
                    best = key
    for a, b, mask in ch.blocks(lo, hi):
        Ix, Jx = ch.I[a:b, None], ch.J[a:b, None]
        Iz, Jz = ch.I[None, :], ch.J[None, :]
        counts["pairs"] += int(mask.sum())
        applicable = mask & (Ix + Iz < Q)
        counts["applicable"] += int(applicable.sum())
        viol = applicable & ~(6 * ((Ix + Jx) + (Iz + Jz)) > 11 * Q)
        n = int(viol.sum())
        if n:
            counts["violations"] += n
            key = _min_key(viol, a, 0, 3)
            if best is None or key < best:
                best = key
    return counts, best


_CHUNK_FNS = {
    "block": block_chunk,
    "midpoint": midpoint_chunk,
    "x1z1": x1z1_chunk,
    "facts": facts_chunk,
}


def _worker(args):
    kind, eps_str, Q, lo, hi = args
    return _CHUNK_FNS[kind](Fraction(eps_str), Q, lo, hi)


def run_sweep(kind: str, eps: Fraction, Q: int, threads: int = 1):
    """Run one exhaustive pair sweep, optionally split across processes.

    Returns (counts, violation) where violation is None or a dict locating
    the first failure in scan order (identical for every worker count).
    """
    ch = _Chunk(eps, Q)
    P = ch.P
    threads = max(1, min(threads, os.cpu_count() or 1, P or 1))
    if threads == 1 or P == 0:
        parts = [_CHUNK_FNS[kind](eps, Q, 0, P)]
    else:
        bounds = [P * k // threads for k in range(threads + 1)]
        jobs = [(kind, str(eps), Q, bounds[k], bounds[k + 1]) for k in range(threads)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_worker, jobs))
    counts: dict[str, int] = {}
    best = None
    for part_counts, key in parts:
        for k, v in part_counts.items():
            counts[k] = v if k == "grid_points" else counts.get(k, 0) + v
        if key is not None and (best is None or key < best):
            best = key
    violation = None
    if best is not None:
        xi, zi, c, code = best
        violation = {
            "x": _point_payload(Q, ch.I[xi], ch.J[xi]),
            "z": _point_payload(Q, ch.I[zi], ch.J[zi]),
            "code": code,
        }
        if kind in ("block", "midpoint"):
            u0, v0 = int(ch.I[xi] + ch.I[zi]), int(ch.J[xi] + ch.J[zi])
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
