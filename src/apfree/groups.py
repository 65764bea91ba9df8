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

One walk of one numpy kernel gives a shift its histogram, its fullest
slice and that slice's pre-image: each pair's grid is tested and weighed
as arrays (its slots), and the product of the slots is walked in chunks
of at most _PRODUCT_CHUNK tuples, unravelled in the order of
``itertools.product``; a chunk gathers and sums its pair weights and
takes every slice index as one floor division into J, the slice index of
every tuple.  ``np.unique`` counts the slices, ``J == j`` picks the
pre-image's flat tuple indices, and unravelling them gives its residue
tuples.  A search walks once per trial and once more for the winner; an
explicit shift walks once.

A value runs in int64 only when a stated bound proves it stays at most
2^62: region_factor * D or weight_factor * D^2 for a pair's grid, the
summed weight maxima for the sums, num times that (num alone when all are
0) and den for the slice division.  Otherwise the same code runs on
object arrays of Python ints; no float is used.  Before a walk, its pair
grids and product, times the walks the build makes, are charged to
budget.PRODUCT (object-path points count budget.OBJECT_COST times); a
search first charges the points of all its pair grids, known before any
shift is drawn.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import budget
from .blocks import BuildingBlock
from .dsets import DiscreteSet
from .gridscan import (exact_dtype, region_factor, scaled_below, scaled_piece,
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
        # the points of the grids so far
        grid = m1 + m2 if epsilon is None else m1 * m2
        points += grid * (budget.OBJECT_COST if dtype is object else 1)
        budget.charge("PRODUCT", f"pair grid {m1}x{m2}" + (f" with the {h} before it" if h else "")
                      + f", walked {walks} times,", walks * points)
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
    """(slots, shape, J): the pair slots, the shape of their product, and
    the slice index of every tuple of the product in the order of
    itertools.product, summed _PRODUCT_CHUNK tuples at a time; every tuple
    of the slots is in the region, so position k of J is flat tuple index
    k.  The grids and the product are charged to the work budget for
    ``walks`` walks first."""
    moduli = check_moduli(moduli)
    if len(moduli) % 2 != 0:
        raise ValueError("slice construction needs an even number of moduli")
    delta = _check_delta(delta)
    if epsilon is not None:
        epsilon = BuildingBlock(epsilon).epsilon  # validates epsilon
    slots, L = _pair_slots(moduli, shift, epsilon, delta, walks)
    num, den = slice_ratio(epsilon, delta, L)
    shape = tuple(len(w) for *_, w in slots)
    total = math.prod(shape)
    s_max = sum(int(w.max()) for *_, w in slots) if total else 0
    dtype = _slice_dtype(s_max, num, den)
    cost = walks * total * (budget.OBJECT_COST if dtype is object else 1)
    budget.charge("PRODUCT", f"slot product of {total} tuples for moduli {moduli}, walked "
                  f"{walks} times,", cost)
    J = np.empty(total, dtype=dtype)
    for lo in range(0, total, _PRODUCT_CHUNK):
        hi = min(lo + _PRODUCT_CHUNK, total)
        idx = np.unravel_index(np.arange(lo, hi), shape)
        J[lo:hi] = slice_indices(sum(w[i] for (*_, w), i in zip(slots, idx)), s_max, num, den)
    return slots, shape, J


def pick_slice(J, j: int | None = None):
    """(j, count, histogram, hit) over the slice indices J: j is the fullest
    slice, ties to the smallest index and 0 when J is empty, unless j is
    given; count how often it occurs; histogram the (values, counts)
    arrays of the distinct indices in increasing order; hit the positions
    of J in slice j."""
    values, counts = np.unique(J, return_counts=True)
    if j is None:
        j = int(values[np.argmax(counts)]) if len(values) else 0
    hit = np.flatnonzero(J == j)
    return j, len(hit), (values, counts), hit


def best_slice(moduli, shift, epsilon: Fraction | None, delta: Fraction, walks: int = 1,
               j: int | None = None):
    """(j, count, histogram, elements) of one walk over the tuples in the
    region (the box when epsilon is None): j, count and the histogram as in
    ``pick_slice``, and elements the residue tuples in slice j, in product
    order.  A pre-image is progression-free whenever delta <= 1/max(m).
    ``walks``: how many walks like this one the caller's build makes, for
    the work budget."""
    slots, shape, J = _slice_scan(moduli, shift, epsilon, delta, walks)
    j, count, histogram, hit = pick_slice(J, j)
    idx = np.unravel_index(hit, shape)
    columns = [r[i].tolist() for (r1, r2, _), i in zip(slots, idx) for r in (r1, r2)]
    return j, count, histogram, list(zip(*columns))


def _slice_set(moduli, shift, epsilon: Fraction | None, delta: Fraction, walk,
               cap: int = 1000) -> DiscreteSet:
    """The set of one ``best_slice`` walk, with its slice histogram in the
    provenance, as {j: count} only up to ``cap`` slices to keep sidecars
    small for large groups."""
    j, _, (values, counts), elements = walk
    prov = {
        "construction": "zm",
        "moduli": list(moduli),
        "shift": point_strs(shift),
        "delta": rat_str(delta),
        "epsilon": rat_str(epsilon) if epsilon is not None else None,
        "slice_index": j,
        "certified_by_construction": delta <= Fraction(1, max(moduli)),
        "slices_nonempty": len(values),
        "in_block_total": int(counts.sum()),
    }
    if len(values) <= cap:
        prov["slice_histogram"] = dict(zip(map(str, values.tolist()), counts.tolist()))
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
    slice is largest (ties: lexicographically smallest shift); one more
    walk gives its pre-image and histogram.  Returns (shift, j,
    DiscreteSet)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    moduli = check_moduli(moduli)
    # the points of every pair grid are known before any shift is drawn: a
    # search its grids alone put over the budget is refused before sampling
    pairs = list(zip(moduli[::2], moduli[1::2]))
    points = sum(m1 + m2 if epsilon is None else m1 * m2 for m1, m2 in pairs)
    budget.charge("PRODUCT", f"{len(pairs)} pair grids of {points} points, walked "
                  f"{trials + 1} times,", (trials + 1) * points)
    best = None
    for trial in range(trials):
        shift = sample_shift(trial_rng(seed, "shift", trial), moduli)
        # each trial is charged for all the search's walks, the winner's included
        j, count, *_ = best_slice(moduli, shift, epsilon, delta, trials + 1)
        key = (-count, shift, j)
        if best is None or key < best[0]:
            best = (key, shift, j)
    _, shift, j = best
    return shift, j, _slice_set(moduli, shift, epsilon, delta,
                                best_slice(moduli, shift, epsilon, delta, j=j))


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
        dset = _slice_set(moduli, shift, epsilon, delta,
                          best_slice(moduli, shift, epsilon, delta, j=options.slice_index))
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
