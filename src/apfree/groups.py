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

One numpy kernel serves the histogram and the pre-image: each pair's grid
is tested and weighed as arrays (its slots), and the product of the slots
is walked in chunks of at most _PRODUCT_CHUNK tuples, unravelled in the
order of ``itertools.product``; a chunk gathers and sums its pair weights
and takes every slice index as one floor division, ``np.unique`` counts
the slices, and ``J == j`` picks the pre-image.  A value runs in int64
only when a stated bound proves it stays at most 2^62: region_factor * D
or weight_factor * D^2 for a pair's grid, the summed weight maxima for the
sums, num times that (num alone when all are 0) and den for the slice
division.  Otherwise the same code runs on object arrays of Python ints;
no float is used.  Before a walk, its pair grids and product, times the
walks the build makes, are charged to PRODUCT_BUDGET, and BudgetError is
raised over it.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .blocks import BuildingBlock
from .dsets import DiscreteSet
from .gridscan import (BudgetError, exact_dtype, region_factor, scaled_below, scaled_piece,
                       scaled_weight, weight_factor)
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


def sample_shift(rng: random.Random, moduli) -> tuple[Fraction, ...]:
    """One shift with a_i uniform on the grid {k/(SHIFT_GRID_LEVEL*m_i)}."""
    return tuple(Fraction(rng.randrange(SHIFT_GRID_LEVEL * m), SHIFT_GRID_LEVEL * m)
                 for m in moduli)


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
    """(num, den) in lowest terms such that a weight sum s, standing for
    s / (4 en^2 L), lies in slice floor(2 (s / (4 en^2 L)) / delta^2) =
    (num * s) // den.  Box points all weigh 0, so any scale serves the box
    (en = 1)."""
    en = 1 if epsilon is None else epsilon.numerator
    num, den = 2 * delta.denominator ** 2, 4 * en ** 2 * L * delta.numerator ** 2
    g = math.gcd(num, den)
    return num // g, den // g


# tuples per numpy step of the slot product, and pair-grid points per step
# of the region test
_PRODUCT_CHUNK = 1 << 16
# the points one build may test and walk in all: each walk tests every
# pair's grid (m1 + m2 coordinates for the box, m1 * m2 points for the
# block) and walks the slot product, and a search makes trials + 2 walks.
# An object-path point counts _OBJECT_COST times: a walk takes about 0.3 us
# an int64 tuple and 2.3 us an object one (2-vCPU host), so an admitted
# build spends at most about 5 s here, and no CLI walk exceeds 2^23 tuples.
PRODUCT_BUDGET = 1 << 24
_OBJECT_COST = 8


def _charge(what: str, points: int, dtype, walks: int) -> None:
    """Raise BudgetError when ``walks`` walks over ``points`` points, on
    int64 or object arrays (dtype), exceed PRODUCT_BUDGET."""
    cost = walks * points * (_OBJECT_COST if dtype is object else 1)
    if cost > PRODUCT_BUDGET:
        raise BudgetError(f"{what}, walked {walks} times, exceeds the work budget of "
                          f"{PRODUCT_BUDGET} points")


def _pair_slots(moduli, shift, epsilon: Fraction | None, delta: Fraction, walks: int = 1):
    """Per coordinate pair: the residue pairs in the region as index arrays
    (r1, r2), row-major, and their weights w.  The box (epsilon None) is a
    product of intervals, so each coordinate is tested alone and every kept
    pair weighs 0.  Pair h lies on the grid D_h = lcm(m1, m2, den(a1),
    den(a2)), where its arithmetic is int64 when region_factor * D_h (box)
    or weight_factor * D_h^2 (block) is at most 2^62; weights are put on the
    common scale L = lcm(D_h^2), int64 when their summed maxima are.  Before
    its test each grid is charged to the work budget, together with the
    grids before it, for ``walks`` walks.  Returns ([(r1, r2, w), ...], L)."""
    pairs, points = [], 0
    for h in range(len(moduli) // 2):
        m1, m2 = moduli[2 * h], moduli[2 * h + 1]
        a1, a2 = Fraction(shift[2 * h]), Fraction(shift[2 * h + 1])
        D = math.lcm(m1, m2, a1.denominator, a2.denominator)
        dtype = exact_dtype(region_factor(epsilon, delta) * D if epsilon is None
                            else weight_factor(epsilon) * D * D)
        # the points of the grids so far, object-path points weighted as in _charge
        grid = m1 + m2 if epsilon is None else m1 * m2
        points += grid * (_OBJECT_COST if dtype is object else 1)
        _charge(f"pair grid {m1}x{m2}" + (f" with the {h} before it" if h else ""), points,
                np.int64, walks)
        b1 = a1.numerator * (D // a1.denominator) % D
        b2 = a2.numerator * (D // a2.denominator) % D
        us = (b1 + np.arange(m1, dtype=dtype) * (D // m1)) % D
        vs = (b2 + np.arange(m2, dtype=dtype) * (D // m2)) % D
        if epsilon is None:
            k1 = np.flatnonzero(scaled_below(delta, D, us))
            k2 = np.flatnonzero(scaled_below(delta, D, vs))
            r1, r2 = np.repeat(k1, len(k2)), np.tile(k2, len(k1))
            w = np.zeros(len(r1), dtype=np.int64)
        else:
            step = max(1, _PRODUCT_CHUNK // m2)
            r1, r2 = [], []
            for lo in range(0, m1, step):
                i, k = np.nonzero(scaled_piece(epsilon, D, us[lo:lo + step, None], vs[None, :]))
                r1.append(i + lo)
                r2.append(k)
            r1, r2 = np.concatenate(r1), np.concatenate(r2)
            w = scaled_weight(epsilon, D, us[r1], vs[r2])
        pairs.append((D, r1, r2, w))
    L = math.lcm(*(D * D for D, *_ in pairs))
    if epsilon is None:  # box points weigh 0 on every scale
        return [(r1, r2, w) for _, r1, r2, w in pairs], L
    scale = [L // (D * D) for D, *_ in pairs]
    # bounds every scaled weight, their sums, and each factor c (in-block
    # weights are positive, so max(w) * c >= c)
    dtype = exact_dtype(sum(int(w.max()) * c if len(w) else c
                            for (*_, w), c in zip(pairs, scale)))
    return [(r1, r2, w.astype(dtype) * c) for (_, r1, r2, w), c in zip(pairs, scale)], L


def _slice_dtype(s_max: int, num: int, den: int):
    """The dtype of the slice division (num * s) // den for 0 <= s <= s_max:
    int64 when num * max(s_max, 1) and den are at most 2^62."""
    return exact_dtype(max(num * max(s_max, 1), den))


def slice_indices(s, s_max: int, num: int, den: int):
    """The slice index (num * s) // den of each weight sum in the array s,
    all in [0, s_max], on the dtype of ``_slice_dtype``."""
    return (num * s.astype(_slice_dtype(s_max, num, den), copy=False)) // den


def _slice_scan(moduli, shift, epsilon: Fraction | None, delta: Fraction, walks: int = 1):
    """(slots, chunks): the pair slots, and a generator walking their
    product in the order of itertools.product, _PRODUCT_CHUNK tuples at a
    time, that yields (idx, J): each pair's slot indices of the chunk's
    tuples and their slice indices.  The grids and the product are charged
    to the work budget for ``walks`` walks first."""
    delta = _check_delta(delta)
    if epsilon is not None:
        epsilon = BuildingBlock(epsilon).epsilon  # validates epsilon
    slots, L = _pair_slots(moduli, shift, epsilon, delta, walks)
    num, den = slice_ratio(epsilon, delta, L)
    shape = tuple(len(w) for *_, w in slots)
    total = math.prod(shape)
    s_max = sum(int(w.max()) for *_, w in slots) if total else 0
    _charge(f"slot product of {total} tuples for moduli {tuple(moduli)}", total,
            _slice_dtype(s_max, num, den), walks)

    def chunks():
        for lo in range(0, total, _PRODUCT_CHUNK):
            idx = np.unravel_index(np.arange(lo, min(lo + _PRODUCT_CHUNK, total)), shape)
            s = sum(w[i] for (*_, w), i in zip(slots, idx))
            yield idx, slice_indices(s, s_max, num, den)

    return slots, chunks()


def slice_histogram(chunks):
    """(values, counts) over the slice-index arrays in ``chunks``: the
    distinct indices in increasing order and how often each occurs."""
    J = list(chunks)
    return np.unique(np.concatenate(J) if J else np.zeros(0, dtype=np.int64),
                     return_counts=True)


def fullest_slice(values, counts) -> tuple[int, int]:
    """(j, count) of the fullest slice, ties to the smallest index; (0, 0)
    when there is none."""
    if not len(values):
        return 0, 0
    k = int(np.argmax(counts))
    return int(values[k]), int(counts[k])


def best_slice(moduli, shift, epsilon: Fraction | None, delta: Fraction, walks: int = 1):
    """(j*, count, histogram): j* maximizes the in-slice count, ties to the
    smallest index; histogram is the (values, counts) arrays of
    ``slice_histogram`` over all in-block tuples.  ``walks``: how many walks
    like this one the caller's build makes, for the work budget."""
    _, chunks = _slice_scan(moduli, shift, epsilon, delta, walks)
    histogram = slice_histogram(J for _, J in chunks)
    return (*fullest_slice(*histogram), histogram)


def slice_preimage_set(moduli, shift, j: int, epsilon: Fraction | None,
                       delta: Fraction, walks: int = 1) -> DiscreteSet:
    """All residue tuples embedding into the region (the box when epsilon is
    None) with weight sum in slice j.  Progression-free whenever
    delta <= 1/max(m).  ``walks`` as in ``best_slice``."""
    moduli = check_moduli(moduli)
    if len(moduli) % 2 != 0:
        raise ValueError("slice construction needs an even number of moduli")
    slots, chunks = _slice_scan(moduli, shift, epsilon, delta, walks)
    elements = []
    for idx, J in chunks:
        hit = np.flatnonzero(J == j)
        columns = [r[i[hit]].tolist() for (r1, r2, _), i in zip(slots, idx) for r in (r1, r2)]
        elements += zip(*columns)
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


def search_shift(moduli, epsilon: Fraction | None, delta: Fraction, trials: int, seed: int):
    """Sample shifts from the rational grid and keep the one whose best
    slice is largest (ties: lexicographically smallest shift).  Returns
    (shift, j, DiscreteSet)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    moduli = check_moduli(moduli)
    # each pair grid has at least 4 points, so a search its grids alone put
    # over the budget is refused before any shift is sampled
    _charge(f"{len(moduli) // 2} pair grids", 4 * (len(moduli) // 2), np.int64, trials + 2)
    best = None
    for trial in range(trials):
        shift = sample_shift(trial_rng(seed, "shift", trial), moduli)
        # the trials, the pre-image and the histogram walk products alike
        j, count, _ = best_slice(moduli, shift, epsilon, delta, trials + 2)
        key = (-count, shift, j)
        if best is None or key < best[0]:
            best = (key, shift, j)
    _, shift, j = best
    dset = slice_preimage_set(moduli, shift, j, epsilon, delta)
    _attach_histogram(dset, best_slice(moduli, shift, epsilon, delta)[2])
    return shift, j, dset


def _attach_histogram(dset: DiscreteSet, histogram, cap: int = 1000) -> None:
    """Record the slice histogram (values, counts) in the provenance, as
    {j: count} only up to ``cap`` slices to keep sidecars small for large
    groups."""
    values, counts = histogram
    dset.provenance["slices_nonempty"] = len(values)
    dset.provenance["in_block_total"] = int(counts.sum())
    if len(values) <= cap:
        dset.provenance["slice_histogram"] = dict(zip(map(str, values.tolist()), counts.tolist()))


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
        # the histogram's walk also picks the slice when none is given
        j, _, histogram = best_slice(moduli, shift, epsilon, delta, 2)
        if options.slice_index is not None:
            j = options.slice_index
        dset = slice_preimage_set(moduli, shift, j, epsilon, delta, 2)
        _attach_histogram(dset, histogram)
    else:
        shift, j, dset = search_shift(moduli, epsilon, delta, options.trials, options.seed)
    dset.provenance.update(
        route="box" if epsilon is None else "slice", seed=options.seed, trials=options.trials,
        grid_level=SHIFT_GRID_LEVEL,
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
