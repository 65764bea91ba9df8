"""Progression-free subsets of Z_m1 x ... x Z_mn by shifted torus embedding.

A residue tuple r embeds at (a_i + r_i/m_i mod 1); distinct tuples land at
least 1/max(m) apart in some coordinate.  Taking the pre-image of a weight
slice of a region (the block product, or for n = 2 without epsilon the
[0,delta)^2 box, whose points all weigh 0) therefore yields a
progression-free set whenever delta <= 1/max(m).  Each coordinate pair is
embedded on its own integer grid, so region tests, weights and slice
indices are exact integer arithmetic (:mod:`apfree.gridscan`).  The best
shift and slice are selected by counting, and ties break to the smallest
slice index, then the lexicographically smallest shift.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from .blocks import BuildingBlock
from .dsets import DiscreteSet
from .gridscan import scaled_below, scaled_piece, scaled_weight
from .rational import mod1, point_strs, rat_str
from .slicing import PointN

SHIFT_GRID_LEVEL = 16


@dataclass(frozen=True)
class BuildOptions:
    epsilon: Fraction | None = None
    delta: Fraction | None = None
    trials: int = 16
    seed: int = 0
    shift: tuple[Fraction, ...] | None = None
    slice_index: int | None = None
    grid_level: int = SHIFT_GRID_LEVEL


def check_moduli(moduli) -> tuple[int, ...]:
    moduli = tuple(int(m) for m in moduli)
    if not moduli or any(m < 2 for m in moduli):
        raise ValueError(f"moduli {moduli} must all be >= 2")
    return moduli


def embed_point(moduli, shift, residues) -> PointN:
    """(a_i + r_i/m_i) mod 1 per coordinate, exact."""
    moduli = tuple(moduli)
    if not len(moduli) == len(shift) == len(residues):
        raise ValueError("dimension mismatch")
    for r, m in zip(residues, moduli):
        if not 0 <= r < m:
            raise ValueError(f"residue {r} out of range for modulus {m}")
    return tuple(mod1(Fraction(a) + Fraction(r, m)) for a, r, m in zip(shift, residues, moduli))


def sample_shift(rng: random.Random, moduli, level: int = SHIFT_GRID_LEVEL) -> tuple[Fraction, ...]:
    """One shift with a_i uniform on the grid {k/(level*m_i)}."""
    return tuple(Fraction(rng.randrange(level * m), level * m) for m in moduli)


def trial_rng(seed: int, stream: str, index: int) -> random.Random:
    """Independent deterministic generator per (seed, stream, trial index).

    String seeding is hashed with sha512 by the stdlib, so the split is
    stable across runs and platforms and trials can be evaluated in any
    order or in parallel.
    """
    return random.Random(f"{seed}:{stream}:{index}")


def region_epsilon(epsilon: Fraction | None, n: int) -> Fraction | None:
    """The region's epsilon, validated; without one, n = 2 keeps the box
    (None) and larger n the block with epsilon 1/n."""
    if epsilon is None:
        return None if n == 2 else Fraction(1, n)
    return BuildingBlock(epsilon).epsilon


def _check_delta(delta) -> Fraction:
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta={delta} outside (0,1)")
    return delta


def slice_ratio(epsilon: Fraction | None, delta: Fraction, L: int) -> tuple[int, int]:
    """(num, den) such that a weight sum s, standing for s / (4 en^2 L), lies
    in slice floor(2 (s / (4 en^2 L)) / delta^2) = (num * s) // den.  Box
    points all weigh 0, so any scale serves the box (en = 1)."""
    en = 1 if epsilon is None else epsilon.numerator
    return 2 * delta.denominator ** 2, 4 * en ** 2 * L * delta.numerator ** 2


def _pair_slots(moduli, shift, epsilon: Fraction | None, delta: Fraction):
    """Per coordinate pair: the residue pairs in the region, with their
    weights.  The box (epsilon None) is a product of intervals, so each
    coordinate is tested alone and every kept pair weighs 0.  Pair h lies on
    the grid D_h = lcm(m1, m2, den(a1), den(a2)); weights are put on the
    common scale L = lcm(D_h^2).  Returns (slots, L)."""
    pairs = []
    for h in range(len(moduli) // 2):
        m1, m2 = moduli[2 * h], moduli[2 * h + 1]
        a1, a2 = Fraction(shift[2 * h]), Fraction(shift[2 * h + 1])
        D = math.lcm(m1, m2, a1.denominator, a2.denominator)
        b1 = a1.numerator * (D // a1.denominator)
        b2 = a2.numerator * (D // a2.denominator)
        us = [(b1 + r1 * (D // m1)) % D for r1 in range(m1)]
        vs = [(b2 + r2 * (D // m2)) % D for r2 in range(m2)]
        if epsilon is None:
            kept = [((r1, r2), 0)
                    for r1 in range(m1) if scaled_below(delta, D, us[r1])
                    for r2 in range(m2) if scaled_below(delta, D, vs[r2])]
        else:
            kept = [((r1, r2), scaled_weight(epsilon, D, u, v))
                    for r1, u in enumerate(us) for r2, v in enumerate(vs)
                    if scaled_piece(epsilon, D, u, v)]
        pairs.append((D, kept))
    L = math.lcm(*(D * D for D, _ in pairs))
    return [[(r, w * (L // (D * D))) for r, w in kept] for D, kept in pairs], L


def _scan_slices(moduli, shift, epsilon: Fraction | None, delta: Fraction):
    """Yield (residue_tuple, slice_index) over the product of the slots;
    each slice index is one integer floor division."""
    delta = _check_delta(delta)
    if epsilon is not None:
        epsilon = BuildingBlock(epsilon).epsilon  # validates epsilon
    slots, L = _pair_slots(moduli, shift, epsilon, delta)
    num, den = slice_ratio(epsilon, delta, L)
    for combo in product(*slots):
        residues = tuple(r for (pair, _) in combo for r in pair)
        s = sum(w for (_, w) in combo)
        yield residues, (num * s) // den


def best_slice(moduli, shift, epsilon: Fraction | None, delta: Fraction):
    """(j*, count, histogram): j* maximizes the in-slice count, ties to the
    smallest index; histogram maps j -> count over all in-block tuples."""
    histogram: dict[int, int] = {}
    for _, j in _scan_slices(moduli, shift, epsilon, delta):
        histogram[j] = histogram.get(j, 0) + 1
    best_j = min(histogram, key=lambda j: (-histogram[j], j), default=0)
    return best_j, histogram.get(best_j, 0), dict(sorted(histogram.items()))


def slice_preimage_set(moduli, shift, j: int, epsilon: Fraction | None,
                       delta: Fraction) -> DiscreteSet:
    """All residue tuples embedding into the region (the box when epsilon is
    None) with weight sum in slice j.  Progression-free whenever
    delta <= 1/max(m)."""
    moduli = check_moduli(moduli)
    if len(moduli) % 2 != 0:
        raise ValueError("slice construction needs an even number of moduli")
    elements = [r for r, jj in _scan_slices(moduli, shift, epsilon, delta) if jj == j]
    prov = {
        "construction": "zm",
        "moduli": list(moduli),
        "shift": point_strs(shift),
        "delta": rat_str(delta),
        "epsilon": rat_str(epsilon) if epsilon is not None else None,
        "slice_index": j,
        "certified_by_construction": delta <= Fraction(1, max(moduli)),
    }
    return DiscreteSet(kind="group", moduli=moduli, elements=tuple(elements), provenance=prov)


def _delta_for(moduli, options: BuildOptions) -> Fraction:
    m = max(moduli)
    delta = _check_delta(options.delta if options.delta is not None else Fraction(1, m))
    if delta > Fraction(1, m):
        warnings.warn(
            f"delta={delta} exceeds 1/max(m)={Fraction(1, m)}; the construction "
            "guarantee is void and the output is only trusted after brute-force "
            "verification",
            stacklevel=3,
        )
    return delta


def search_shift(moduli, epsilon: Fraction | None, delta: Fraction, trials: int, seed: int,
                 grid_level: int = SHIFT_GRID_LEVEL):
    """Sample shifts from the rational grid and keep the one whose best
    slice is largest (ties: lexicographically smallest shift).  Returns
    (shift, j, DiscreteSet)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    moduli = check_moduli(moduli)
    best = None
    for trial in range(trials):
        shift = sample_shift(trial_rng(seed, "shift", trial), moduli, grid_level)
        j, count, _ = best_slice(moduli, shift, epsilon, delta)
        key = (-count, shift, j)
        if best is None or key < best[0]:
            best = (key, shift, j)
    _, shift, j = best
    dset = slice_preimage_set(moduli, shift, j, epsilon, delta)
    _attach_histogram(dset, moduli, shift, epsilon, delta)
    return shift, j, dset


def _attach_histogram(dset: DiscreteSet, moduli, shift, epsilon, delta,
                      cap: int = 1000) -> None:
    """Record the slice histogram {j: count} in the provenance (capped to
    keep sidecars small for large groups)."""
    _, _, histogram = best_slice(moduli, shift, epsilon, delta)
    dset.provenance["slices_nonempty"] = len(histogram)
    dset.provenance["in_block_total"] = sum(histogram.values())
    if len(histogram) <= cap:
        dset.provenance["slice_histogram"] = {str(j): c for j, c in histogram.items()}


def fiber_reduce(dset: DiscreteSet) -> DiscreteSet:
    """Largest section of a progression-free set over G x H (H the last
    modulus), projected to G.  Ties go to the smallest residue; the result
    has size >= ceil(|A| / |H|) whenever A is nonempty."""
    if dset.kind != "group" or len(dset.moduli) < 2:
        raise ValueError("fiber reduction needs a group set with >= 2 moduli")
    sections: dict[int, list[tuple[int, ...]]] = {}
    for e in dset.elements:
        sections.setdefault(e[-1], []).append(e[:-1])
    if not sections:
        best_h, projected = 0, []
    else:
        best_h = min(sections, key=lambda h: (-len(sections[h]), h))
        projected = sections[best_h]
    prov = dict(dset.provenance)
    prov.update(
        {
            "moduli": list(dset.moduli[:-1]),
            "fiber_modulus": dset.moduli[-1],
            "fiber_residue": best_h,
            "pre_reduction_size": dset.size,
        }
    )
    return DiscreteSet(kind="group", moduli=dset.moduli[:-1], elements=tuple(projected), provenance=prov)


def build_group_set(moduli, options: BuildOptions = BuildOptions()) -> DiscreteSet:
    """Top-level driver: even n embeds directly; odd n (including n=1)
    appends a copy of Z_max(m) and fiber-reduces afterwards."""
    moduli = check_moduli(moduli)
    n = len(moduli)
    if n % 2 == 1:
        extended = moduli + (max(moduli),)
        if options.shift is not None and len(options.shift) == n:
            # pad an explicit shift for the internally appended factor
            options = replace(options, shift=tuple(options.shift) + (Fraction(0),))
        dset = build_group_set(extended, options)
        return fiber_reduce(dset)
    delta = _delta_for(moduli, options)
    if options.shift is not None:
        shift = tuple(Fraction(a) for a in options.shift)
        if len(shift) != n:
            raise ValueError("shift dimension mismatch")
    else:
        shift = None
    epsilon = region_epsilon(options.epsilon, n)
    if epsilon is None and options.slice_index is not None:
        raise ValueError("the box route (n=2, no epsilon) takes no slice index")
    if shift is not None:
        j = options.slice_index
        if j is None:
            j, _, _ = best_slice(moduli, shift, epsilon, delta)
        dset = slice_preimage_set(moduli, shift, j, epsilon, delta)
        _attach_histogram(dset, moduli, shift, epsilon, delta)
    else:
        shift, j, dset = search_shift(moduli, epsilon, delta, options.trials,
                                      options.seed, options.grid_level)
    dset.provenance.update(
        route="box" if epsilon is None else "slice", seed=options.seed, trials=options.trials,
        grid_level=options.grid_level,
    )
    return dset


def build_fpn_set(p: int, n: int, options: BuildOptions = BuildOptions()) -> DiscreteSet:
    """Vector-space request: the group Z_p x ... x Z_p with n factors."""
    if p < 2 or n < 1:
        raise ValueError(f"invalid parameters p={p}, n={n}")
    dset = build_group_set((p,) * n, options)
    dset.provenance["construction"] = "fpn"
    dset.provenance["p"] = p
    dset.provenance["n"] = n
    return dset
