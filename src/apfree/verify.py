"""Exhaustive certification and property-test drivers.

Group and integer sets are certified by scanning every unordered pair of
elements and testing all solutions of the doubled-midpoint congruence for
membership; the scan stops at the first progression (a re-checkable
counterexample triple) or, with ``all_counterexamples``, lists every one.
The block-level statements are swept exhaustively over rational grids
(see :mod:`apfree.gridscan`), and the area of the block is computed a
second time by half-plane clipping, independently of the stated vertex
lists.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product
from typing import Sequence

from .blocks import BuildingBlock, clipped_piece_areas, PIECE_LABELS
from .gridscan import density_count, run_sweep
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

    def to_jsonable(self, include_elapsed: bool = False) -> dict:
        # elapsed is excluded by default so identical runs serialize to
        # identical bytes
        out = {
            "subject": self.subject,
            "mode": self.mode,
            "pass": self.passed,
            "checked": self.checked,
            "counterexample": self.counterexample,
            "parameters": self.parameters,
            "counts": self.counts,
        }
        if include_elapsed:
            out["elapsed_seconds"] = self.elapsed
        return out


def _halve_mod(s: int, m: int) -> tuple[int, ...]:
    """All y in {0,...,m-1} with 2*y = s (mod m): one solution for odd m,
    zero or two for even m."""
    s %= m
    if m % 2 == 1:
        return ((s * ((m + 1) // 2)) % m,)
    if s % 2 == 1:
        return ()
    return (s // 2, s // 2 + m // 2)


def _group_progressions(moduli, elems):
    """Every progression (x, y, z) with x < z in scan order: pairs {x, z}
    lexicographically, then the midpoint solutions y in product order."""
    member = set(elems)
    for ai, x in enumerate(elems):
        for z in elems[ai + 1:]:
            per_coord = [_halve_mod(xi + zi, m) for xi, zi, m in zip(x, z, moduli)]
            for y in product(*per_coord):
                # x != z forces y != x and y != z, so any hit is a violation
                if y in member:
                    yield {"x": list(x), "y": list(y), "z": list(z)}


def _integer_progressions(elems):
    """Every progression (x, y, z) with x < y < z, pairs {x, z} in scan order."""
    member = set(elems)
    for ai, x in enumerate(elems):
        for z in elems[ai + 1:]:
            if (x + z) % 2 == 0 and (x + z) // 2 in member:
                yield {"x": x, "y": (x + z) // 2, "z": z}


def _scan_report(t0: float, progressions, all_counterexamples: bool, **fields):
    """Report for one pair scan started at t0: the first progression, or with
    all_counterexamples every one of them under counts["all_counterexamples"].
    Every unordered pair is in scope, so checked is |A| choose 2."""
    size = fields["parameters"]["size"]
    report = VerificationReport(checked=math.comb(size, 2), passed=True, **fields)
    if all_counterexamples:
        found = list(progressions)
        report.counts["all_counterexamples"] = found
    else:
        found = list(islice(progressions, 1))
    if found:
        report.passed = False
        report.counterexample = found[0]
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
    elems = sorted(tuple(int(r) for r in e) for e in elements)
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate elements")
    for e in elems:
        if len(e) != len(moduli) or any(not 0 <= r < m for r, m in zip(e, moduli)):
            raise ValueError(f"element {e} out of range for moduli {moduli}")
    return _scan_report(
        t0, _group_progressions(moduli, elems), all_counterexamples,
        subject=subject, mode="group",
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
    return _scan_report(
        t0, _integer_progressions(elems), all_counterexamples,
        subject=subject, mode="integer",
        parameters={"bound": int(bound), "size": len(elems)},
    )


# -- block-level property sweeps ------------------------------------------

_SWEEP_SUBJECTS = {
    "block": "weight-inequality-sweep",
    "midpoint": "midpoint-sum-sweep",
    "x1z1": "first-coordinate-sum-sweep",
    "facts": "block-facts-sweep",
}


def _property_report(kind: str, epsilon: Fraction, grid: int, threads: int) -> VerificationReport:
    t0 = time.perf_counter()
    counts, violation = run_sweep(kind, epsilon, grid, threads)
    report = VerificationReport(
        subject=_SWEEP_SUBJECTS[kind],
        mode="property",
        passed=counts.get("violations", 0) == 0,
        checked=counts.get("candidates", counts.get("pairs", 0)),
        counterexample=violation,
        parameters={"epsilon": rat_str(epsilon), "grid": grid},
        counts=counts,
    )
    report.elapsed = time.perf_counter() - t0
    return report


def check_building_block(epsilon: Fraction, grid: int, threads: int = 1) -> VerificationReport:
    return _property_report("block", epsilon, grid, threads)


def check_midpoint_sums(epsilon: Fraction, grid: int, threads: int = 1) -> VerificationReport:
    return _property_report("midpoint", epsilon, grid, threads)


def check_x1z1_bound(epsilon: Fraction, grid: int, threads: int = 1) -> VerificationReport:
    return _property_report("x1z1", epsilon, grid, threads)


def check_facts(epsilon: Fraction, grid: int, threads: int = 1) -> VerificationReport:
    return _property_report("facts", epsilon, grid, threads)


def check_all(epsilon: Fraction, grid: int, threads: int = 1) -> list[VerificationReport]:
    return [
        check_building_block(epsilon, grid, threads),
        check_midpoint_sums(epsilon, grid, threads),
        check_x1z1_bound(epsilon, grid, threads),
        check_facts(epsilon, grid, threads),
    ]


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
