"""Exhaustive certification and property-test drivers.

Each set kind has one normaliser, ``group_elements`` or ``integer_elements``:
DiscreteSet calls it, and a verifier only on elements it did not return.

Group and integer sets are certified by scanning every unordered pair of
elements and testing all solutions of the doubled-midpoint congruence
for membership: one numpy pass per set kind over the tiles of pairs of
``gridscan.pair_tiles``.  The parity filter compares the elements'
parities (in the coordinates of even moduli), a tile's rows against its
columns, and each pair that passes it makes one ``searchsorted`` lookup,
of its midpoint in the sorted integers or of the key that all 2^e
midpoint solutions of a group pair share (e even moduli).  The values run as int64 when their bound (the
product of the moduli, or twice the integer bound) is at most 2^62, and
otherwise the same code runs on object arrays of Python ints, so nothing
wraps.  Progressions come out in pair-scan order; the scan stops at the
first (a re-checkable counterexample triple) or, with
``all_counterexamples``, lists every one.  Before it starts, a scan's
pairs and the midpoint candidates of its pairs are charged to
budget.SCAN, and a list of every progression to budget.COUNTEREXAMPLES.
The block-level statements are swept exhaustively over the pairs of
rational grid points, any selection of the four facts in one walk
(``check_sweeps`` over :func:`apfree.gridscan.run_sweeps`), and the area of
the block is computed a second time by half-plane clipping, independently
of the stated vertex lists.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import budget, gridscan
from .blocks import BuildingBlock, clipped_piece_areas, PIECE_LABELS
from .gridscan import density_count, pair_tiles, run_sweeps
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


# array elements per numpy step: pairs x coordinates, keys looked up, or hits
_CHUNK = 1 << 16


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


def _pairs(size: int, parity: np.ndarray):
    """Index arrays (a, b) of the pairs a < b of elements whose rows of
    ``parity`` are equal, one tile of at most ``size`` cells at a time, in
    row-major order: the pairs a < b of range(n) are the pairs x <= z of
    range(n - 1), as (x, z + 1)."""
    columns = [(c, c[1:]) for c in parity.T]
    for t in pair_tiles(max(len(parity) - 1, 0), size):
        keep = t.valid
        for c, later in columns:
            keep = keep & (c[t.rows, None] == later[None, t.cols])
        flat = np.flatnonzero(keep)
        a = flat // keep.shape[1]
        yield a + t.rows.start, flat - a * keep.shape[1] + (t.cols.start + 1)


def _group_hits(moduli: tuple[int, ...], rows: np.ndarray, parity: np.ndarray):
    """Index triples (x, y, z) into the sorted element rows of every
    progression with x < z, in scan order: pairs {x, z} lexicographically,
    then the midpoint solutions y in product order.

    Per coordinate 2y = s has one root (s + (s odd)·m)/2 for odd m, none for
    even m and odd s, and for even s the roots s/2 and s/2 + m/2 (no wrap,
    as s/2 < m/2).  So with h = m/2 for even m and h = m for odd m, the
    solutions of a pair are the elements y whose key sum(stride·(y mod h))
    is the pair's base, the mixed-radix code of its smallest root.  Codes
    put the first coordinate first, so the sorted rows are code-sorted, and
    keys sorted stably over them keep ties in product order.  x != z forces
    y != x and y != z, so every hit is a progression.  A tile of pairs
    looks up at most _CHUNK keys, and a set with no pair past the parity
    filter (as every set in Z_2^n) looks nothing up."""
    dtype = rows.dtype
    m = np.array(moduli, dtype=dtype)
    stride = np.array([math.prod(moduli[i + 1:]) for i in range(len(moduli))], dtype=dtype)
    even = (m % 2 == 0).astype(dtype)
    # coordinates along rows, so every step runs along a whole tile of pairs
    X = rows.T.copy()
    keys = stride @ (X % (m >> even)[:, None])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    m = m[:, None]
    for a, b in _pairs(max(1, _CHUNK // len(moduli)), parity):
        if len(a):
            s = X.take(a, axis=1) + X.take(b, axis=1)
            s -= (s >= m) * m
            # the parity filter left s even in the coordinates of even moduli
            for p, k in _members(keys, stride @ ((s + (s & 1) * m) >> 1)):
                yield a[p], order[k], b[p]


def _integer_hits(v: np.ndarray, parity: np.ndarray):
    """Index triples (x, y, z) into the sorted elements v of every
    progression x < y < z, one tile at a time in scan order: each pair
    {x, z} of equal parity looks its midpoint up in v."""
    for a, b in _pairs(_CHUNK, parity):
        for p, y in _members(v, (v.take(a) + v.take(b)) >> 1):
            yield a[p], y, b[p]


def _scan_report(t0: float, hits, triple, all_counterexamples: bool, **fields):
    """Report for one pair scan started at t0, from its index chunks turned
    into triple(x, y, z) dicts: the first progression, or with
    all_counterexamples every one of them under counts["all_counterexamples"].
    Every unordered pair is in scope, so checked is |A| choose 2.  The list
    is charged to budget.COUNTEREXAMPLES before each chunk joins it."""
    size = fields["parameters"]["size"]
    found = []
    # under three elements there is no progression, so skip the numpy set-up
    for xs, ys, zs in hits if size > 2 else ():
        if len(xs) and not all_counterexamples:
            found = [triple(int(xs[0]), int(ys[0]), int(zs[0]))]
            break
        budget.charge("COUNTEREXAMPLES", "listing every counterexample", len(found) + len(xs))
        found += map(triple, xs.tolist(), ys.tolist(), zs.tolist())
    counts = {"all_counterexamples": found} if all_counterexamples else {}
    return VerificationReport(checked=math.comb(size, 2), passed=not found,
                              counterexample=found[0] if found else None, counts=counts,
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
    rows = np.array(elements, dtype=gridscan.exact_dtype(math.prod(moduli)))
    rows = rows.reshape(len(elements), len(moduli))
    even = [i for i, m in enumerate(moduli) if m % 2 == 0]
    parity = (rows[:, even] % 2).astype(np.int8)
    _charge_scan("group certificate", parity, 2 ** len(even))
    return _scan_report(
        t0, _group_hits(moduli, rows, parity),
        lambda x, y, z: {"x": list(elements[x]), "y": list(elements[y]), "z": list(elements[z])},
        all_counterexamples, subject=subject, mode="group",
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
        t0, _integer_hits(v, parity),
        lambda x, y, z: {"x": elements[x], "y": elements[y], "z": elements[z]},
        all_counterexamples, subject=subject, mode="integer",
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
