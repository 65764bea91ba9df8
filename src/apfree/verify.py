"""Exhaustive certification and property-test drivers.

Each set kind has one normaliser, ``group_elements`` or ``integer_elements``:
DiscreteSet calls it, and a verifier only on elements it did not return.

Group and integer sets are certified by scanning every unordered pair of
elements and testing all solutions of the doubled-midpoint congruence
for membership: one numpy pass per set kind over the tiles of the pairs
x < z (``pair_tiles``).  A tile's keys come from values made once per
element, broadcast along its rows and its columns: the midpoint of two
integers, or the key that all 2^e midpoint solutions of a group pair
share (e even moduli), from per-coordinate parts of each element.  The
scan keeps a tile's valid cells whose elements agree in parity (in the
coordinates of even moduli) and whose key is marked in a presence table
of the elements' keys, and only those make a ``searchsorted`` lookup, so
the hits are exact.  The values run as int64 when their bound (2·k times
the product of the k moduli, or twice the integer bound) is at most
2^62, and otherwise the same code runs on object arrays of Python ints,
so nothing wraps.  Progressions come out in pair-scan order; the scan
stops at the first (a re-checkable counterexample triple) or, with
``all_counterexamples``, lists every one as index rows into the elements
(:class:`Progressions`), which read as the triples' dicts and which
``storage.dump_json`` prints without making them.  Before it starts, a
scan's pairs and the midpoint candidates of its pairs are charged to
budget.SCAN, and a list of every progression to budget.COUNTEREXAMPLES.
The block-level statements are swept exhaustively over the pairs of
rational grid points, any selection of the four facts in one walk
(``check_sweeps`` over :func:`apfree.gridscan.run_sweeps`), and the area of
the block is computed a second time by half-plane clipping, independently
of the stated vertex lists.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import budget, gridscan
from .blocks import BuildingBlock, clipped_piece_areas, PIECE_LABELS
from .gridscan import density_count, run_sweeps
from .rational import decimal_str, rat_str


@dataclass
class VerificationReport:
    subject: str
    mode: str  # group | integer | property | area | density
    passed: bool
    checked: int
    counterexample: dict | None = None
    parameters: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    # seconds the check took; a --all list's dicts and text are made only
    # when it is read or printed, so for a scan elapsed covers the scan and
    # its index rows, not the printing
    elapsed: float = 0.0

    def to_jsonable(self) -> dict:
        # elapsed is left out so identical runs serialize to identical bytes
        return {
            "subject": self.subject,
            "mode": self.mode,
            "pass": self.passed,
            "checked": self.checked,
            "counterexample": self.counterexample,
            "parameters": self.parameters,
            "counts": self.counts,
        }


# array elements per numpy step: pairs x coordinates, keys looked up, or
# hits.  A group tile holds _CHUNK // k pairs for k coordinates, an
# integer tile _CHUNK pairs.  In-process on a 2-vCPU Xeon host, tiles of
# 2^14 / 2^15 / 2^16 elements certified behrend N = 10^8 in 348 / 288 /
# 269 ms, halfbox 101^4 in 115 / 81 / 72 ms and halfbox 7^6 in 0.68 /
# 0.56 / 0.52 ms, and behrend N = 10^5 in 0.20 / 0.30 / 0.42 ms in a fresh
# process (0.20 / 0.20 / 0.22 ms after larger scans)
_CHUNK = 1 << 16
# presence-table slots per element, rounded up to a power of two: a pair
# with no progression passes the table about as often as a slot is marked,
# at most 1/64 of the time here; at 4 slots an element the scans above
# took 25-70% longer
_SLOTS = 64


class _Checked(tuple):
    """Elements a normaliser returned for ``universe`` (moduli or bound)."""

    # copy and pickle call __new__ with the elements alone, then restore universe
    def __new__(cls, elements, universe=None):
        self = super().__new__(cls, elements)
        self.universe = universe
        return self


def group_elements(moduli: tuple[int, ...], elements) -> tuple[tuple[int, ...], ...]:
    """A set in Z_m1 x ... x Z_mn as sorted Python int tuples; refuses a repeat
    first, then the first element of the wrong length or out of range."""
    elems = sorted(tuple(map(int, e)) for e in elements)
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate elements")
    for e in elems:
        if len(e) != len(moduli) or not all(0 <= r < m for r, m in zip(e, moduli)):
            raise ValueError(f"element {e} out of range for moduli {moduli}")
    return _Checked(elems, moduli)


def integer_elements(bound: int, elements) -> tuple[int, ...]:
    """A set in {1,...,bound} as sorted Python ints; refuses a repeat first."""
    elems = sorted(map(int, elements))
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate elements")
    if elems and not (1 <= elems[0] and elems[-1] <= bound):
        raise ValueError(f"elements outside 1..{bound}")
    return _Checked(elems, bound)


def _charge_scan(what: str, parity: np.ndarray, offsets: int) -> None:
    """Charge a scan, before it starts, its pairs plus the midpoint
    candidates of its pairs to budget.SCAN.  ``parity`` has a row per
    element, its parities in the coordinates of even moduli; only a pair
    whose elements have equal rows passes the parity filter, and then has
    ``offsets`` candidates, which bound what its one lookup returns.  The
    rows are counted only when the bound that every pair passes is over
    the limit."""
    n = len(parity)
    pairs = math.comb(n, 2)
    cost = pairs * (1 + offsets)
    if cost > budget.SCAN:
        _, sizes = np.unique(parity, axis=0, return_counts=True)
        cost = pairs + offsets * sum(math.comb(int(k), 2) for k in sizes)
    budget.charge("SCAN", f"{what} of {n} elements ({cost} pairs and candidates)", cost)


def _members(keys: np.ndarray, base: np.ndarray):
    """(p, k) index arrays of every key in the sorted array keys equal to
    some base[p], in (p, k) order: one lookup per base, and the hits in
    steps of at most _CHUNK, apart from one base whose own hits exceed it."""
    lo = np.searchsorted(keys, base)
    p = np.flatnonzero(keys.take(lo, mode="clip") == base)
    lo = lo[p]
    count = np.searchsorted(keys, base[p], side="right") - lo
    end = np.cumsum(count)
    i = 0
    while i < len(p):
        stop = max(i + 1, int(np.searchsorted(end, end[i] - count[i] + _CHUNK, side="right")))
        c = count[i:stop]
        # hit h of the step is key lo + (h - first) of its base
        first = end[i:stop] - c
        k = np.arange(first[0], end[stop - 1]) + np.repeat(lo[i:stop] - first, c)
        yield np.repeat(p[i:stop], c), k
        i = stop


def _fold(key, b: int) -> np.ndarray:
    """Presence-table slots of non-negative keys: the bits from b up xored
    onto the low b bits, exact on int64 and on object arrays."""
    return ((key ^ (key >> b)) & ((1 << b) - 1)).astype(np.intp, copy=False)


def pair_tiles(n: int, size: int):
    """The pairs x < z of range(n), in row-major order as tiles: whole rows
    against the columns after their first row, as many rows as ``size``
    cells allow, or segments of at most ``size`` columns of a longer row.
    A tile holds the pairs with x in the slice tile.rows and z in
    tile.cols, as the cells of an array tile.valid over (x, z) marking them."""
    a0 = 0
    # the last row, n - 1, holds no pair
    while a0 < n - 1:
        # as many whole rows as ``size`` cells hold, or one row in segments
        a1 = min(a0 + max(1, size // (n - 1 - a0)), n - 1)
        for c0 in range(a0 + 1, n, size):
            c1 = min(n, c0 + size)
            yield SimpleNamespace(rows=slice(a0, a1), cols=slice(c0, c1),
                                  valid=np.arange(c0, c1) > np.arange(a0, a1)[:, None])
        a0 = a1


def _tile_hits(keys: np.ndarray, size: int, tile_key, parity: np.ndarray):
    """Index arrays (x, k, z), in scan order, of every pair x < z of the n
    elements and every k with keys[k] (sorted) equal to the pair's key.
    The pairs come a tile of ``pair_tiles`` at a time, and
    ``tile_key(rows, cols)`` gives their keys from the slices of x and of
    z that the tile spans.  Only a cell that is
    valid, whose elements have equal rows of ``parity``, and whose key's
    slot in a presence table of the keys (``_fold``, 2^b >= _SLOTS·n
    slots) is marked, is looked up: the table drops only keys that no
    element has, and the lookup itself is exact."""
    n = len(keys)
    b = (_SLOTS * n - 1).bit_length()
    present = np.zeros(1 << b, dtype=bool)
    present[_fold(keys, b)] = True
    # the rows of parity, eight coordinates a byte
    words = np.packbits(parity, axis=1).T
    for t in pair_tiles(n, size):
        key = tile_key(t.rows, t.cols)
        keep = t.valid & present[_fold(key, b)]
        for w in words:
            keep &= w[t.rows, None] == w[None, t.cols]
        flat = np.flatnonzero(keep)
        if len(flat):
            x, z = np.divmod(flat, keep.shape[1])
            for p, k in _members(keys, key.ravel()[flat]):
                yield x[p] + t.rows.start, k, z[p] + t.cols.start


@functools.lru_cache(maxsize=16)
def _radix(moduli: tuple[int, ...], dtype):
    """The constants of ``_group_hits`` for ``moduli`` on ``dtype`` (int64
    or object), read-only and kept per process, as one universe is often
    certified many times (making them took about 7 us of the 44 us that
    certifying 3-10 elements of Z_16^4 took, 2-vCPU host): the strides and
    stride·M (on dtype); the
    smallest signed dtype that holds 2m - 1 (signed, so that products with
    a stride stay int64), or object; and on it, per coordinate as
    columns, M and what an odd x adds before it is halved into A (m for
    odd m, then rounded up for even m) and into B (m, or rounded down)."""
    M = [m if m % 2 else m // 2 for m in moduli]
    stride = [math.prod(moduli[i + 1:]) for i in range(len(moduli))]
    small = object if dtype == object else np.min_scalar_type(-2 * max(moduli))
    big = np.array([stride, [s * h for s, h in zip(stride, M)]], dtype=dtype)
    parts = np.array([M, [m if m % 2 else 1 for m in moduli], [m * (m % 2) for m in moduli]],
                     dtype=small)[:, :, None]
    big.flags.writeable = parts.flags.writeable = False
    return big[0], big[1][:, None, None], small, parts[0], parts[1:]


def _group_hits(moduli: tuple[int, ...], rows: np.ndarray, parity: np.ndarray):
    """Index triples (x, y, z) into the sorted element rows of every
    progression with x < z, in scan order: pairs {x, z} lexicographically,
    then the midpoint solutions y in product order.

    Per coordinate 2y = s has one root (s + (s odd)·m)/2 for odd m, none for
    even m and odd s, and for even s the roots s/2 and s/2 + m/2 (no wrap,
    as s/2 < m/2).  So with M = m/2 for even m and M = m for odd m, the
    solutions of a pair are the elements y whose key sum(stride·(y mod M))
    is the pair's base, the mixed-radix code of its smallest root.  Codes
    put the first coordinate first, so the sorted rows are code-sorted, and
    keys sorted stably over them keep ties in product order.  x != z forces
    y != x and y != z, so every hit is a progression.

    The smallest root is (A[x] + B[z]) mod M for parts made once per
    element: A = B = x/2 mod m for odd m, and for even m A = ceil(x/2) and
    B = floor(x/2), once the parity filter has left x + z even.  Then
    A + B < 2M, so a tile's bases are KA[x] + KB[z], with KA = sum(stride·A)
    and KB = sum(stride·B), less stride·M in each coordinate where
    A[x] >= M - B[z]: no gather and no remainder per pair."""
    stride, W, small, Mc, add = _radix(moduli, rows.dtype)
    X = rows.T.astype(small, order="C")
    keys = stride @ (X % Mc)
    order = np.argsort(keys, kind="stable")
    A, B = (X + (X & 1) * add) >> 1
    KA, KB = stride @ A, stride @ B
    # A along a tile's rows and M - B along its columns
    A, C = A[:, :, None], (Mc - B)[:, None, :]

    def bases(rows, cols):
        return KA[rows, None] + KB[None, cols] - (W * (A[:, rows] >= C[:, :, cols])).sum(0)

    for x, k, z in _tile_hits(keys[order], max(1, _CHUNK // len(moduli)), bases, parity):
        yield x, order[k], z


def _integer_hits(v: np.ndarray, parity: np.ndarray):
    """Index triples (x, y, z) into the sorted elements v of every
    progression x < y < z, one tile at a time in scan order: each pair
    {x, z} of equal parity looks its midpoint up in v."""
    return _tile_hits(v, _CHUNK, lambda rows, cols: (v[rows, None] + v[None, cols]) >> 1, parity)


def _point(element):
    # a group element is written as a list, an integer as itself
    return list(element) if type(element) is tuple else element


def _triple(elements, x: int, y: int, z: int) -> dict:
    return {"x": _point(elements[x]), "y": _point(elements[y]), "z": _point(elements[z])}


class Progressions(Sequence):
    """A read-only list of progressions {"x": .., "y": .., "z": ..} kept as
    an (n, 3) array ``xyz`` of index rows into the checked ``elements``.
    Each read makes a fresh dict of fresh lists, and the sequence equals a
    plain list of those dicts.  ``storage.dump_json`` writes it from the
    text of each element it names, without making the dicts."""

    __hash__ = None

    def __init__(self, elements, xyz: np.ndarray):
        self.elements, self.xyz = elements, xyz
        xyz.flags.writeable = False

    def __len__(self) -> int:
        return len(self.xyz)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return _triple(self.elements, *self.xyz[operator.index(i)].tolist())

    def __iter__(self):
        return (_triple(self.elements, *row) for row in self.xyz.tolist())

    def __eq__(self, other):
        if isinstance(other, (list, Progressions)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Progressions({list(self)!r})"


def _scan_report(t0: float, hits, elements, all_counterexamples: bool, **fields):
    """Report for one pair scan started at t0, from its (x, y, z) index
    chunks into ``elements``: the first progression, or with
    all_counterexamples every one of them as the Progressions of
    counts["all_counterexamples"].  Every unordered pair is in scope, so
    checked is |A| choose 2.  The list is charged to budget.COUNTEREXAMPLES
    before each chunk joins it."""
    size = fields["parameters"]["size"]
    first, chunks, listed = None, [], 0
    # under three elements there is no progression, so skip the numpy set-up
    for xs, ys, zs in hits if size > 2 else ():
        if len(xs) and not all_counterexamples:
            first = _triple(elements, int(xs[0]), int(ys[0]), int(zs[0]))
            break
        listed += len(xs)
        budget.charge("COUNTEREXAMPLES", "listing every counterexample", listed)
        chunks.append(np.stack([xs, ys, zs], axis=1))
    counts = {}
    if all_counterexamples:
        found = Progressions(elements, np.concatenate(chunks or [np.empty((0, 3), np.intp)]))
        first, counts = found[0] if found else None, {"all_counterexamples": found}
    return VerificationReport(checked=math.comb(size, 2), passed=first is None,
                              counterexample=first, counts=counts,
                              elapsed=time.perf_counter() - t0, **fields)


def verify_group_set(
    moduli: Sequence[int], elements: Sequence[tuple[int, ...]], subject: str = "group-set",
    all_counterexamples: bool = False,
) -> VerificationReport:
    """Exhaustive progression check in Z_m1 x ... x Z_mn.

    Scans every unordered pair {x, z} of distinct elements, solves the
    doubled-midpoint congruence coordinatewise and looks the candidates up
    in the set.  The scan stops at the first progression unless
    all_counterexamples asks for every one.
    """
    t0 = time.perf_counter()
    moduli = tuple(int(m) for m in moduli)
    if not (type(elements) is _Checked and elements.universe == moduli):
        elements = group_elements(moduli, elements)
    # a pair's key sum KA[x] + KB[z] (_group_hits) is below 2·k·prod(m) for
    # k moduli
    rows = np.array(elements, dtype=gridscan.exact_dtype(2 * len(moduli) * math.prod(moduli)))
    rows = rows.reshape(len(elements), len(moduli))
    even = [i for i, m in enumerate(moduli) if m % 2 == 0]
    parity = (rows[:, even] % 2).astype(np.int8)
    _charge_scan("group certificate", parity, 2 ** len(even))
    return _scan_report(
        t0, _group_hits(moduli, rows, parity), elements, all_counterexamples, subject=subject, mode="group",
        parameters={"moduli": list(moduli), "size": len(elements)},
    )


def verify_integer_set(
    bound: int, elements: Sequence[int], subject: str = "integer-set",
    all_counterexamples: bool = False,
) -> VerificationReport:
    """Exhaustive progression check in {1,...,N}: every pair {x, z} of equal
    parity looks its midpoint up in the set.  The scan stops at the first
    progression unless all_counterexamples asks for every one."""
    t0 = time.perf_counter()
    if not (type(elements) is _Checked and elements.universe == bound):
        elements = integer_elements(int(bound), elements)
    v = np.array(elements, dtype=gridscan.exact_dtype(2 * int(bound)))
    parity = (v & 1).astype(np.int8)[:, None]
    _charge_scan("integer certificate", parity, 1)
    return _scan_report(
        t0, _integer_hits(v, parity), elements, all_counterexamples, subject=subject, mode="integer",
        parameters={"bound": int(bound), "size": len(elements)},
    )


# -- block-level property sweeps ------------------------------------------

# sweep kind -> report subject, in the order ``check all`` reports them
SWEEP_SUBJECTS = {
    "block": "weight-inequality-sweep",
    "midpoint": "midpoint-sum-sweep",
    "x1z1": "first-coordinate-sum-sweep",
    "facts": "block-facts-sweep",
}


def check_sweeps(kinds, epsilon: Fraction, grid: int, threads: int = 1) -> list[VerificationReport]:
    """The exhaustive sweeps of the facts ``kinds`` (keys of SWEEP_SUBJECTS)
    on the 1/grid grid, in one walk over its pairs: one report per kind,
    each with the elapsed time of the whole walk."""
    t0 = time.perf_counter()
    results = run_sweeps(kinds, epsilon, grid, threads)
    elapsed = time.perf_counter() - t0
    return [VerificationReport(
        subject=SWEEP_SUBJECTS[kind], mode="property", passed=counts["violations"] == 0,
        checked=counts.get("candidates", counts["pairs"]), counterexample=violation,
        parameters={"epsilon": rat_str(epsilon), "grid": grid}, counts=counts, elapsed=elapsed,
    ) for kind, (counts, violation) in results.items()]


# -- areas ------------------------------------------------------------------


def area_oracle(epsilon: Fraction) -> VerificationReport:
    """Per-piece areas by successive half-plane clipping, with the stated
    lower bounds asserted: piece1 = 7/36 exactly, piece2 >= 15/288 - eps/2,
    piece3 >= 13/288 - eps/4, total >= 7/24 - eps."""
    t0 = time.perf_counter()
    clipped = clipped_piece_areas(epsilon)
    areas = {k: a for k, (a, _) in clipped.items()}
    degenerate = [PIECE_LABELS[k] for k, (_, d) in clipped.items() if d]
    total = sum(areas.values(), Fraction(0))
    bounds_ok = (
        areas[1] == Fraction(7, 36)
        and areas[2] >= Fraction(15, 288) - epsilon / 2
        and areas[3] >= Fraction(13, 288) - epsilon / 4
        and total >= Fraction(7, 24) - epsilon
    )
    return VerificationReport(
        subject="area-oracle",
        mode="area",
        passed=bounds_ok,
        checked=len(areas) + 1,
        parameters={
            "epsilon": rat_str(epsilon),
            "areas": {PIECE_LABELS[k]: rat_str(a) for k, a in areas.items()},
            "total": rat_str(total),
            "degenerate_pieces": degenerate,
        },
        elapsed=time.perf_counter() - t0,
    )


def density_estimate(epsilon: Fraction, m: int) -> VerificationReport:
    """Fraction of the m x m cell midpoints inside the block; must match the
    exact area within 10/m (the block boundary is a bounded set of segments,
    so at most O(m) cells straddle it)."""
    if m < 24:
        raise ValueError(f"grid size {m} below 24")
    t0 = time.perf_counter()
    count = density_count(epsilon, m)
    estimate = Fraction(count, m * m)
    exact = BuildingBlock(epsilon).area()
    err = abs(estimate - exact)
    tolerance = Fraction(10, m)
    return VerificationReport(
        subject="density-estimate",
        mode="density",
        passed=err <= tolerance,
        checked=m * m,
        parameters={
            "epsilon": rat_str(epsilon),
            "m": m,
            "estimate": rat_str(estimate),
            "estimate_approx": decimal_str(estimate),
            "exact": rat_str(exact),
            "error": rat_str(err),
            "tolerance": rat_str(tolerance),
        },
        elapsed=time.perf_counter() - t0,
    )
