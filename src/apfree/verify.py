"""Exhaustive certification and property-test drivers.

Group and integer sets are certified by scanning every unordered pair of
elements and testing all solutions of the doubled-midpoint congruence for
membership.  The scan is one numpy pass per set kind over chunks of pairs
from ``gridscan.pair_chunks`` (and over chunks of candidates, 2^e per
pair for e even moduli), each chunk looked up with one ``searchsorted``
on the sorted elements; group elements are mixed-radix codes.  The values run as int64 when their
bound (the product of the moduli, or twice the integer bound) is at most
2^62, and otherwise the same code runs on object arrays of Python ints,
so nothing wraps.  Progressions come out in pair-scan order; the scan
stops at the first (a re-checkable counterexample triple) or, with
``all_counterexamples``, lists every one.  Before it starts, a scan's
pairs and the midpoint candidates it will look up are charged to
SCAN_BUDGET, and a list of every progression stops at COUNTEREXAMPLE_CAP.
The block-level statements are swept exhaustively over the pairs of
rational grid points, any selection of the four facts in one walk
(``check_sweeps`` over :func:`apfree.gridscan.run_sweeps`), and the area of
the block is computed a second time by half-plane clipping, independently
of the stated vertex lists.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .blocks import BuildingBlock, clipped_piece_areas, PIECE_LABELS
from .gridscan import BudgetError, density_count, exact_dtype, pair_chunks, run_sweeps
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


# array elements per numpy step: pairs x coordinates, or candidates
_CHUNK = 1 << 16
# pairs walked plus midpoint candidates looked up by one certificate: the
# integer scan runs 2.4-2.8e7 pairs a second in-process (behrend sets at
# N = 1e7 and 1e8, 2-vCPU Xeon host), so an admitted scan takes at most
# about 45 s
SCAN_BUDGET = 1 << 30
# progressions one all_counterexamples scan may list: 34 times the 1944 of
# the largest benchmark list, while a JSON dump of the full list stays
# under a quarter of a second and 16 MB (storage.dump_json on the same
# host: 0.07 s and 5 MB for integer triples, 0.18 s and 16 MB for triples
# in Z_9^4)
COUNTEREXAMPLE_CAP = 1 << 16


def _charge_scan(what: str, n: int, offsets: int, parity) -> None:
    """Raise BudgetError, before a scan of n elements, when its pairs plus
    the midpoint candidates it looks up exceed SCAN_BUDGET.  Only a pair
    whose elements have equal rows in ``parity()`` (their parities in the
    coordinates of even moduli) passes the parity filter, and then has
    ``offsets`` candidates; the rows are made only when the bound that
    every pair passes does not settle the charge."""
    pairs = math.comb(n, 2)
    if pairs * (1 + offsets) <= SCAN_BUDGET:
        return
    _, sizes = np.unique(parity(), axis=0, return_counts=True)
    cost = pairs + offsets * sum(math.comb(int(k), 2) for k in sizes)
    if cost > SCAN_BUDGET:
        raise BudgetError(f"{what} of {n} elements ({cost} pairs and candidates) exceeds "
                          f"the work budget of {SCAN_BUDGET}")


def _members(members: np.ndarray, base: np.ndarray, offsets: np.ndarray):
    """(pair, member index) of every candidate base[p] + offsets[c] found in
    the sorted array members, in (p, c) order."""
    cand = base[:, None] + offsets
    idx = np.searchsorted(members, cand)
    p, c = np.nonzero(members.take(idx, mode="clip") == cand)
    return p, idx[p, c]


def _group_rows(moduli: tuple[int, ...], elements) -> np.ndarray:
    """The elements as the rows of a sorted array, int64 when the product of
    the moduli is at most 2^62 and Python-int objects above, after checking
    that no element repeats and that each lies in range.  The checks run on
    the array; ragged, huge or object-path input takes the tuple loop, which
    reports the same first element."""
    elements = list(elements)
    dtype = exact_dtype(math.prod(moduli))
    X = None
    if dtype is np.int64:
        try:
            X = np.array(elements, dtype=np.int64)
        except (ValueError, TypeError, OverflowError):
            pass
    if X is None or X.shape != (len(elements), len(moduli)):
        elems = sorted(tuple(int(r) for r in e) for e in elements)
        if len(set(elems)) != len(elems):
            raise ValueError("duplicate elements")
        for e in elems:
            if len(e) != len(moduli) or any(not 0 <= r < m for r, m in zip(e, moduli)):
                raise ValueError(f"element {e} out of range for moduli {moduli}")
        return np.array(elems, dtype=dtype).reshape(len(elems), len(moduli))
    X = X[np.lexsort(X.T[::-1])]
    if (X[1:] == X[:-1]).all(axis=1).any():
        raise ValueError("duplicate elements")
    bad = ((X < 0) | (X >= np.array(moduli, dtype=np.int64))).any(axis=1)
    if bad.any():
        e = tuple(X[np.argmax(bad)].tolist())
        raise ValueError(f"element {e} out of range for moduli {moduli}")
    return X


def _group_hits(moduli: tuple[int, ...], rows: np.ndarray):
    """Index triples (x, y, z) into the sorted element rows of every
    progression with x < z, one chunk at a time in scan order: pairs {x, z}
    lexicographically, then the midpoint solutions y in product order.

    Elements are mixed-radix codes, first coordinate most significant, so
    sorted tuples give sorted codes.  Per coordinate 2y = s has one root
    (s + (s odd)·m)/2 for odd m, none for even m and odd s, and for even s
    the roots s/2 and s/2 + m/2 (no wrap, as s/2 < m/2).  So the candidates
    of a pair are its base code plus each of the 2^e half-offset sums over
    the e even moduli.  x != z forces y != x and y != z, so every member hit
    is a progression.

    The half-offsets of the last even moduli, as many as fit one chunk, form
    an array, built once the first pair survives the parity filter; those of
    the other even moduli are looped over in product order.  So no step
    holds more than _CHUNK candidates, and a set with no surviving pair (as
    every set in Z_2^n) never builds one."""
    dtype = rows.dtype
    m = np.array(moduli, dtype=dtype)
    stride = np.array([math.prod(moduli[i + 1:]) for i in range(len(moduli))], dtype=dtype)
    even = (m % 2 == 0).astype(dtype)
    # coordinates along rows, so every step runs along a whole chunk of pairs
    X = rows.T.copy()
    codes = stride @ X
    halves = (m // 2 * stride)[even == 1].tolist()
    split = max(0, len(halves) - (_CHUNK.bit_length() - 1))
    offsets = None
    m = m[:, None]
    for a, b in pair_chunks(len(rows), max(1, _CHUNK // len(moduli))):
        s = X.take(a, axis=1) + X.take(b, axis=1)
        s -= (s >= m) * m
        odd = s & 1
        keep = even @ odd == 0
        base = (stride @ ((s + odd * m) >> 1))[keep]
        a, b = a[keep], b[keep]
        if not len(a):
            continue
        if offsets is None:
            offsets = np.zeros(1, dtype=dtype)
            for half in halves[split:]:
                offsets = (offsets[:, None] + np.array([0, half], dtype=dtype)).ravel()
        # with looped moduli the array fills a chunk, so step is 1 and each
        # pair runs through its looped offsets before the next pair starts
        step = max(1, _CHUNK // len(offsets))
        for j in range(0, len(a), step):
            for outer in itertools.product(*((0, h) for h in halves[:split])):
                p, y = _members(codes, base[j:j + step] + sum(outer), offsets)
                yield a[j + p], y, b[j + p]


def _integer_hits(bound: int, elems: list[int]):
    """Index triples (x, y, z) into elems of every progression x < y < z,
    one chunk at a time in scan order: each pair {x, z} of equal parity
    looks its midpoint up in the sorted elements."""
    dtype = exact_dtype(2 * bound)
    v = np.array(elems, dtype=dtype)
    for a, b in pair_chunks(len(elems), _CHUNK):
        s = v.take(a) + v.take(b)
        keep = s & 1 == 0
        p, y = _members(v, s[keep] >> 1, np.zeros(1, dtype=dtype))
        yield a[keep][p], y, b[keep][p]


def _scan_report(t0: float, hits, triple, all_counterexamples: bool, **fields):
    """Report for one pair scan started at t0, from its index chunks turned
    into triple(x, y, z) dicts: the first progression, or with
    all_counterexamples every one of them under counts["all_counterexamples"].
    Every unordered pair is in scope, so checked is |A| choose 2.  A list
    that would pass COUNTEREXAMPLE_CAP raises BudgetError instead."""
    size = fields["parameters"]["size"]
    found = []
    # under three elements there is no progression, so skip the numpy set-up
    for xs, ys, zs in hits if size > 2 else ():
        if len(xs) and not all_counterexamples:
            found = [triple(int(xs[0]), int(ys[0]), int(zs[0]))]
            break
        if len(found) + len(xs) > COUNTEREXAMPLE_CAP:
            raise BudgetError(f"the set has more than {COUNTEREXAMPLE_CAP} progressions, "
                              f"the cap on listing every counterexample")
        found += map(triple, xs.tolist(), ys.tolist(), zs.tolist())
    report = VerificationReport(checked=math.comb(size, 2), passed=not found,
                                counterexample=found[0] if found else None, **fields)
    if all_counterexamples:
        report.counts["all_counterexamples"] = found
    report.elapsed = time.perf_counter() - t0
    return report


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
    rows = _group_rows(moduli, elements)
    even = [i for i, m in enumerate(moduli) if m % 2 == 0]
    _charge_scan("group certificate", len(rows), 2 ** len(even),
                 lambda: (rows[:, even] % 2).astype(np.int8))
    elems = rows.tolist()
    return _scan_report(
        t0, _group_hits(moduli, rows),
        lambda x, y, z: {"x": list(elems[x]), "y": list(elems[y]), "z": list(elems[z])},
        all_counterexamples, subject=subject, mode="group",
        parameters={"moduli": list(moduli), "size": len(elems)},
    )


def verify_integer_set(
    bound: int, elements: Sequence[int], subject: str = "integer-set",
    all_counterexamples: bool = False,
) -> VerificationReport:
    """Exhaustive progression check in {1,...,N}: every pair {x, z} of equal
    parity looks its midpoint up in the set.  The scan stops at the first
    progression unless all_counterexamples asks for every one."""
    t0 = time.perf_counter()
    elems = sorted(int(x) for x in elements)
    if elems and not (1 <= elems[0] and elems[-1] <= bound):
        raise ValueError(f"elements outside 1..{bound}")
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate elements")
    _charge_scan("integer certificate", len(elems), 1,
                 lambda: np.array([x & 1 for x in elems], dtype=np.int8)[:, None])
    return _scan_report(
        t0, _integer_hits(int(bound), elems),
        lambda x, y, z: {"x": elems[x], "y": elems[y], "z": elems[z]},
        all_counterexamples, subject=subject, mode="integer",
        parameters={"bound": int(bound), "size": len(elems)},
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
    report = VerificationReport(
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
    )
    report.elapsed = time.perf_counter() - t0
    return report


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
    report = VerificationReport(
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
    )
    report.elapsed = time.perf_counter() - t0
    return report
