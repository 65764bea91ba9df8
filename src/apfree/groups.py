"""Progression-free subsets of Z_m1 x ... x Z_mn by shifted torus embedding.

A residue tuple r embeds at (a_i + r_i/m_i mod 1); distinct tuples land at
least 1/max(m) apart in some coordinate.  Taking the pre-image of a weight
slice of a region (the block product, or for n = 2 without epsilon the
[0,delta)^2 box, whose points all weigh 0) therefore yields a
progression-free set whenever delta <= 1/max(m).  Each coordinate pair is
embedded on its own integer grid, so region tests, weights and slice
indices are exact integer arithmetic (:mod:`apfree.blocks`).  The best
shift and slice are selected by counting, and ties break to the smallest
slice index, then the lexicographically smallest shift.

Each pair's grid is tested and weighed as arrays, giving the shift's
slots.  ``_pair_slots`` does this for a batch of shifts at once: the
grids of all the coordinate pairs of one shape for every shift are
stacked, each on its own D passed as a broadcast array, and tested in
steps of at most _PRODUCT_CHUNK points.  It hands out a SlotBatch: per
pair, the arrays (r1, r2, w) of all the shifts with the cuts of each
shift's part, and no per-shift list; a walk slices its shift's
weights from them, and only a winner its residues.  A search makes one
batch of all its trials, or several when their grids hold more points
than that, so each trial's grids are tested once; an explicit shift is a
batch of one.  A search carries each shift as its integer numerators over
the grid's denominators SHIFT_GRID_LEVEL * m_i, and makes Fractions only
of its winner.
One walk of the slots' product then gives J, the slice index of every
tuple in the order of ``itertools.product``.  The trailing pairs whose
product holds at most _PRODUCT_CHUNK tuples (the last pair alone when it
holds more) give B, the ``np.add.outer`` sums of their weights, and the
leading pairs give A the same way; J, read as a (len(A), len(B)) array, is
filled in blocks of at most _PRODUCT_CHUNK sums A[r] + B[c], whose slice
indices are one floor division.  ``slice_runs`` reads sorted indices as
runs, the slice histogram, the first longest being the fullest slice.  A
trial sorts J in place and reads only (j, count).  The winner is walked
again, on its trial's slots: a sorted copy of J gives its histogram,
``J == j`` its pre-image's flat tuple indices, and unravelling them its
residue tuples.  An explicit shift walks once, as a winner does.

A value runs in int64 only when a stated bound proves it stays at most
2^62: region_factor * D or weight_factor * D^2 for a pair's grid, the
summed weight maxima for the sums, num times that (num alone when all are
0) and den for the slice division.  Otherwise the same code runs on
object arrays of Python ints; no float is used.  A stack in which any
shift needs object arrays runs on them.  A pair's weights of the whole
batch are scaled by each shift's L / D^2 in one multiply, and a walk
casts its shift's part to the dtype its own bound picks, so no dtype
depends on the batch.
Each shift's pair grids, in one charge, and each walk's product, times
the walks the build makes, are charged to budget.PRODUCT before they are
tested or walked (object-path points count budget.OBJECT_COST times).
A search first charges the points of all its pair grids, known before any
shift is drawn; every shift of a batch is charged before the batch is
tested, so a shift over the budget refuses the search at once, and each
trial's grids and product are charged for trials + 1 walks.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import budget, rational
from .blocks import (BuildingBlock, region_factor, scaled_below, scaled_in_block, scaled_weight,
                     weight_factor)
from .dsets import DiscreteSet
from .rational import point_strs, rat_str

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


def sample_numerators(rng: random.Random, moduli) -> tuple[int, ...]:
    """One shift on the grid {k/(SHIFT_GRID_LEVEL*m_i)}, as its numerators
    k_i, each uniform on [0, SHIFT_GRID_LEVEL*m_i)."""
    return tuple(rng.randrange(SHIFT_GRID_LEVEL * m) for m in moduli)


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


def _walk_inputs(moduli, epsilon: Fraction | None, delta):
    """(moduli, epsilon, delta) of a walk, validated: an even number of
    moduli, each >= 2, a block epsilon or None, and 0 < delta < 1."""
    moduli = check_moduli(moduli)
    if len(moduli) % 2 != 0:
        raise ValueError("slice construction needs an even number of moduli")
    delta = _check_delta(delta)
    if epsilon is not None:
        epsilon = BuildingBlock(epsilon).epsilon  # validates epsilon
    return moduli, epsilon, delta


def _charge_grids(moduli, nums, dens, epsilon: Fraction | None, delta: Fraction, walks: int):
    """[(D, dtype, b1, b2)] per coordinate pair of one shift a_i = nums[i] /
    dens[i]: the pair's grid D = lcm(m1, m2, den(a1), den(a2)), den the
    reduced denominator, the dtype its arithmetic needs (int64 when
    region_factor * D, box, or weight_factor * D^2, block, is at most
    2^62) and the shift's numerators over D.  The points of all the
    shift's grids are charged to the work budget in one charge, for
    ``walks`` walks."""
    factor = region_factor(epsilon, delta) if epsilon is None else weight_factor(epsilon)
    grids, points = [], 0
    for h in range(len(moduli) // 2):
        m1, m2 = moduli[2 * h], moduli[2 * h + 1]
        n1, n2, d1, d2 = nums[2 * h], nums[2 * h + 1], dens[2 * h], dens[2 * h + 1]
        D = math.lcm(m1, m2, d1 // math.gcd(n1, d1), d2 // math.gcd(n2, d2))
        dtype = rational.exact_dtype(factor * D if epsilon is None else factor * D * D)
        grid = m1 + m2 if epsilon is None else m1 * m2
        points += grid * (budget.OBJECT_COST if dtype is object else 1)
        grids.append((D, dtype, n1 * D // d1 % D, n2 * D // d2 % D))
    budget.charge("PRODUCT", f"{len(grids)} pair grids of a shift, {budget.count(points)} "
                  f"points, walked {budget.count(walks)} times,", walks * points)
    return grids


@dataclass(eq=False)
class SlotBatch:
    """The pair slots of a batch of T shifts, as arrays.  Per coordinate
    pair, ``pairs`` holds (r1, r2, w, cut): every shift's residue pairs in
    the region as index arrays (r1, r2), trial-major and row-major within
    a trial, and the weight of each on its shift's common scale L = lcm(D_h^2) in the dtype the batch needs;
    shift t's part is [cut[t], cut[t + 1]).  Per shift, ``Ls`` holds its
    L, ``bounds`` its s_max, the sum of its pairs' largest weights (0 when
    a pair has no slots), and ``dtypes`` the dtype that bound picks for
    its weights, int64 when it is at most 2^62."""
    pairs: list
    Ls: list
    bounds: list
    dtypes: list

    def weights(self, t: int):
        """Shift t's weights per pair, cast to its own dtype, so no dtype
        depends on the batch."""
        return [w[cut[t]:cut[t + 1]].astype(self.dtypes[t], copy=False)
                for *_, w, cut in self.pairs]

    def residues(self, t: int):
        """Shift t's (r1, r2) per pair."""
        return [(r1[cut[t]:cut[t + 1]], r2[cut[t]:cut[t + 1]]) for r1, r2, _, cut in self.pairs]


def _box_slots(in1, in2):
    """(row, r1, r2) of the box slots of a stack: for each row g, every
    pair of a kept first coordinate (in1[g], of shape (rows, m1)) and a
    kept second one (in2[g]), row-major."""
    t1, k1 = np.nonzero(in1)
    t2, k2 = np.nonzero(in2)
    columns = np.bincount(t2, minlength=len(in1))
    reps = columns[t1]
    row, r1 = np.repeat(t1, reps), np.repeat(k1, reps)
    # each kept first coordinate takes a run of its row's kept second
    # coordinates: slot k reads k2 at k minus its run's start, plus that
    # row's first entry in k2
    first = np.cumsum(columns) - columns
    offset = np.repeat(np.cumsum(reps) - reps - first[t1], reps)
    return row, r1, k2[np.arange(len(row)) - offset]


def _pair_slots(moduli, numerators, denominators, epsilon: Fraction | None, delta: Fraction,
                walks: int = 1) -> SlotBatch:
    """The SlotBatch of the shifts a_i = nums[i] / denominators[i], one for
    each nums of ``numerators``.  The box (epsilon None) is a product of
    intervals, so each coordinate is tested alone and every kept pair
    weighs 0.  The grids of all the pairs of one shape (m1, m2) are
    stacked over the shifts, each on its own D, and tested and weighed a
    step of rows at a time, at most _PRODUCT_CHUNK points a step, on
    object arrays when any of them needs them.  A stack's weights are
    then scaled by each shift's L / D^2 in one multiply, and each pair's
    arrays are views of its stack.  Every shift's grids are charged before
    any is tested, so a shift over the budget refuses the batch at once."""
    grids = [_charge_grids(moduli, nums, denominators, epsilon, delta, walks)
             for nums in numerators]
    T = len(grids)
    Ls = [math.lcm(*(D * D for D, *_ in grid)) for grid in grids]
    shapes = {}
    for h, shape in enumerate(zip(moduli[::2], moduli[1::2])):
        shapes.setdefault(shape, []).append(h)
    # a stack's row p * T + t is the grid of its p-th pair for shift t
    stacks, ws = [], []
    for (m1, m2), hs in shapes.items():
        D, dtypes, b1, b2 = zip(*(grid[h] for h in hs for grid in grids))
        dtype = object if object in dtypes else np.int64
        D, b1, b2 = (np.array(x, dtype=dtype)[:, None] for x in (D, b1, b2))
        us = (b1 + np.arange(m1, dtype=dtype) * (D // m1)) % D
        vs = (b2 + np.arange(m2, dtype=dtype) * (D // m2)) % D
        if epsilon is None:
            row, r1, r2 = _box_slots(scaled_below(delta, D, us), scaled_below(delta, D, vs))
            w = np.zeros(len(row), dtype=np.int64)
        else:
            # the grid rows (row, i) of the stack, in steps of at most
            # _PRODUCT_CHUNK points, one grid row at least
            step = max(1, _PRODUCT_CHUNK // m2)
            row, r1, r2, w = [], [], [], []
            for lo in range(0, len(D) * m1, step):
                g, i = np.divmod(np.arange(lo, min(lo + step, len(D) * m1)), m1)
                hit, k = np.nonzero(scaled_in_block(epsilon, D[g], us[g, i, None], vs[g]))
                g, i = g[hit], i[hit]
                row.append(g)
                r1.append(i)
                r2.append(k)
                w.append(scaled_weight(epsilon, D[g, 0], us[g, i], vs[g, k]))
            row, r1, r2, w = (np.concatenate(x) for x in (row, r1, r2, w))
        stacks.append((hs, r1, r2, np.bincount(row, minlength=len(D))))
        ws.append(w)
    bounds, dtypes = [0] * T, [np.int64] * T
    if epsilon is not None:  # box points weigh 0 on every scale
        scales = [[L // (D * D) for D, *_ in grid] for grid, L in zip(grids, Ls)]
        # bounds every scaled weight, their sums, and each factor c (in-block
        # weights are positive, so max(w) * c >= c)
        for (hs, *_, counts), w in zip(stacks, ws):
            full = np.flatnonzero(counts)
            starts = (np.cumsum(counts) - counts)[full]
            top = dict(zip(full.tolist(), np.maximum.reduceat(w, starts).tolist()
                           if len(full) else []))
            for p, h in enumerate(hs):
                for t in range(T):
                    bounds[t] += top.get(p * T + t, 1) * scales[t][h]
        dtypes = [rational.exact_dtype(bound) for bound in bounds]
        dtype = object if object in dtypes else np.int64
        ws = [w.astype(dtype, copy=False) * np.repeat(
                  np.array([scales[t][h] for h in hs for t in range(T)], dtype=dtype), counts)
              for (hs, *_, counts), w in zip(stacks, ws)]
    pairs, full = [None] * (len(moduli) // 2), np.ones(T, dtype=bool)
    for (hs, r1, r2, counts), w in zip(stacks, ws):
        cut = [0, *np.cumsum(counts).tolist()]
        for p, h in enumerate(hs):
            lo, hi = cut[p * T], cut[(p + 1) * T]
            pairs[h] = (r1[lo:hi], r2[lo:hi], w[lo:hi],
                        [c - lo for c in cut[p * T:(p + 1) * T + 1]])
        full &= (counts.reshape(len(hs), T) > 0).all(axis=0)
    return SlotBatch(pairs, Ls, [b if f else 0 for b, f in zip(bounds, full.tolist())], dtypes)


def _slice_dtype(s_max: int, num: int, den: int):
    """The dtype of the slice division (num * s) // den for 0 <= s <= s_max:
    int64 when num * max(s_max, 1) and den are at most 2^62."""
    return rational.exact_dtype(max(num * max(s_max, 1), den))


def slice_indices(s, s_max: int, num: int, den: int):
    """The slice index (num * s) // den of each weight sum in the array s,
    all in [0, s_max], on the dtype of ``_slice_dtype``."""
    return (num * s.astype(_slice_dtype(s_max, num, den), copy=False)) // den


def _outer_sums(weights):
    """The sum of one weight of each array, for every tuple of the arrays
    (one at least) in the order of itertools.product."""
    sums = weights[0]
    for w in weights[1:]:
        sums = np.add.outer(sums, w).ravel()
    return sums


def _slice_scan(moduli, shift, epsilon: Fraction | None, delta: Fraction, walks: int = 1,
                slots=None):
    """(slots, shape, J): the shift's slots, the shape of their product,
    and the slice index of every tuple of the product in the order of
    itertools.product; every tuple of the slots is in the region, so
    position k of J is flat tuple index k.  The trailing pairs whose
    product holds at most _PRODUCT_CHUNK tuples (the last pair alone when
    it holds more) give B, the sums of their weights, and the leading
    pairs give A; J, as a (len(A), len(B)) array, is filled in blocks of at
    most _PRODUCT_CHUNK sums A[r] + B[c], whole rows of it or, when one
    row is longer, parts of one row.  A product that B holds whole is one
    block, sliced from B alone.  ``slots``: (batch, t), shift t of a
    SlotBatch over validated inputs (``shift`` is then not read), or None
    to make a batch of ``shift`` alone.  The grids (when made here) and
    the product are charged to the work budget for ``walks`` walks
    first."""
    if slots is None:
        moduli, epsilon, delta = _walk_inputs(moduli, epsilon, delta)
        shift = tuple(map(Fraction, shift))
        slots = (_pair_slots(moduli, [[a.numerator for a in shift]],
                             [a.denominator for a in shift], epsilon, delta, walks), 0)
    batch, t = slots
    num, den = slice_ratio(epsilon, delta, batch.Ls[t])
    s_max, weights = batch.bounds[t], batch.weights(t)
    shape = tuple(map(len, weights))
    total = math.prod(shape)
    dtype = _slice_dtype(s_max, num, den)
    cost = walks * total * (budget.OBJECT_COST if dtype is object else 1)
    budget.charge("PRODUCT", f"slot product of {budget.count(total)} tuples, walked "
                  f"{budget.count(walks)} times,", cost)
    if not total:
        return slots, shape, np.empty(0, dtype=dtype)
    k = len(weights) - 1
    while k and math.prod(shape[k - 1:]) <= _PRODUCT_CHUNK:
        k -= 1
    B = _outer_sums(weights[k:])
    if not k and total <= _PRODUCT_CHUNK:  # the whole product is one block
        return slots, shape, slice_indices(B, s_max, num, den)
    A = _outer_sums(weights[:k]) if k else np.zeros(1, dtype=B.dtype)
    J = np.empty(total, dtype=dtype)
    rows, cols = max(1, _PRODUCT_CHUNK // len(B)), min(len(B), _PRODUCT_CHUNK)
    block = J.reshape(len(A), len(B))
    for r in range(0, len(A), rows):
        for c in range(0, len(B), cols):
            block[r:r + rows, c:c + cols] = slice_indices(
                A[r:r + rows, None] + B[c:c + cols], s_max, num, den)
    return slots, shape, J


def slice_runs(S):
    """(j, count, (values, counts)) of the sorted slice indices S, read as
    runs of equal indices: values and counts the histogram that
    ``np.unique(S, return_counts=True)`` gives, and j and count the first
    longest run, the fullest slice with ties to the smallest index; (0, 0)
    when S is empty."""
    if not len(S):
        return 0, 0, (S, np.zeros(0, dtype=np.intp))
    # True where a run starts, and once past the end
    change = np.empty(len(S) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(S[1:], S[:-1], out=change[1:-1])
    edges = change.nonzero()[0]
    counts = edges[1:] - edges[:-1]
    k = counts.argmax()
    return int(S[edges[k]]), int(counts[k]), (S[edges[:-1]], counts)


def best_slice(moduli, shift, epsilon: Fraction | None, delta: Fraction, walks: int = 1,
               j: int | None = None, slots=None, pre_image: bool = True):
    """(j, count, histogram, elements) of one walk over the tuples in the
    region (the box when epsilon is None): j the fullest slice of
    ``slice_runs`` unless given, count its tuples, the histogram that of
    ``slice_runs``, and elements the residue tuples in slice j, in product
    order.  A pre-image is progression-free whenever delta <= 1/max(m).
    ``walks``: how many walks like this one the caller's build makes, for
    the work budget; ``slots``: the shift's place in a SlotBatch, as
    ``_slice_scan`` takes it (``shift`` is then not read); ``pre_image`` False,
    for a search's trial: only (j, count), from J sorted in place, and the
    histogram and elements are None."""
    (batch, t), shape, J = _slice_scan(moduli, shift, epsilon, delta, walks, slots)
    if not pre_image:
        J.sort()
        return (*slice_runs(J)[:2], None, None)
    fullest, _, histogram = slice_runs(np.sort(J))
    j = fullest if j is None else j
    hit = np.flatnonzero(J == j)
    idx = np.unravel_index(hit, shape)
    columns = [r[i].tolist() for (r1, r2), i in zip(batch.residues(t), idx) for r in (r1, r2)]
    return j, len(hit), histogram, list(zip(*columns))


# the most slices whose histogram a provenance lists, to keep sidecars
# small for large groups
_HISTOGRAM_CAP = 1000


def _slice_set(moduli, shift, epsilon: Fraction | None, delta: Fraction, walk) -> DiscreteSet:
    """The set of one ``best_slice`` walk, with its slice histogram in the
    provenance, as {j: count} only up to _HISTOGRAM_CAP slices."""
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
    if len(values) <= _HISTOGRAM_CAP:
        prov["slice_histogram"] = dict(zip(map(str, values.tolist()), counts.tolist()))
    return DiscreteSet(kind="group", moduli=moduli, elements=elements, provenance=prov)


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
    walk of its slots gives its pre-image and histogram.  A shift is
    carried as its numerators over the grid's denominators
    SHIFT_GRID_LEVEL * m_i, which order the shifts as their values do, and
    only the winner is made Fractions.  The trials' pair grids are tested
    in batches of ``_pair_slots``, one for all the trials unless their
    grids hold more than _PRODUCT_CHUNK points.  Returns (shift, j,
    DiscreteSet)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    moduli = check_moduli(moduli)
    # the points of every pair grid are known before any shift is drawn: a
    # search its grids alone put over the budget is refused before sampling
    pairs = list(zip(moduli[::2], moduli[1::2]))
    points = sum(m1 + m2 if epsilon is None else m1 * m2 for m1, m2 in pairs)
    budget.charge("PRODUCT", f"{len(pairs)} pair grids of {budget.count(points)} points, "
                  f"walked {budget.count(trials + 1)} times,", (trials + 1) * points)
    moduli, epsilon, delta = _walk_inputs(moduli, epsilon, delta)
    dens = [SHIFT_GRID_LEVEL * m for m in moduli]
    # a batch holds at most _PRODUCT_CHUNK grid points, so memory does not
    # grow with the trial count
    per = max(1, _PRODUCT_CHUNK // points)
    best = None
    for first in range(0, trials, per):
        shifts = [sample_numerators(trial_rng(seed, "shift", trial), moduli)
                  for trial in range(first, min(first + per, trials))]
        # each trial is charged for all the search's walks, the winner's included
        batch = _pair_slots(moduli, shifts, dens, epsilon, delta, trials + 1)
        for t, nums in enumerate(shifts):
            j, count, *_ = best_slice(moduli, None, epsilon, delta, trials + 1,
                                      slots=(batch, t), pre_image=False)
            key = (-count, nums, j)
            if best is None or key < best[0]:
                best = (key, (batch, t))
    (_, nums, j), slots = best
    shift = tuple(map(Fraction, nums, dens))
    return shift, j, _slice_set(moduli, shift, epsilon, delta,
                                best_slice(moduli, shift, epsilon, delta, j=j, slots=slots))


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
    return DiscreteSet(kind="group", moduli=dset.moduli[:-1], elements=projected, provenance=prov)


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
    if options.slice_index is not None and options.slice_index < 0:
        raise ValueError(f"slice index {options.slice_index} is negative")
    if epsilon is None and options.slice_index is not None:
        raise ValueError("the box route (n=2, no epsilon) takes no slice index")
    if shift is None and options.slice_index is not None:
        raise ValueError("a slice index needs an explicit shift; the search picks its own slice")
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


def is_prime(k: int) -> bool:
    """Whether k is prime, by trial division up to isqrt(k)."""
    return k >= 2 and all(k % d for d in range(2, math.isqrt(k) + 1))


def build_fpn_set(p: int, n: int, options: BuildOptions = BuildOptions()) -> DiscreteSet:
    """Vector-space request: F_p^n, the group Z_p x ... x Z_p with n
    factors, for a prime p."""
    if p < 2 or n < 1:
        raise ValueError(f"invalid parameters p={p}, n={n}")
    # every coordinate lies in a pair grid of at least 4 points, so the
    # build charges at least 2n; a larger n is refused before (p,) * n is made
    budget.charge("PRODUCT", f"{budget.count(n)} coordinates, at least 2 grid points each,",
                  2 * n)
    # a pair grid holds at least 2p points (m1 + m2 for the box), p per
    # coordinate, so a build with n * p over the budget is refused by its
    # own charges before any grid is tested; below that, trial division
    # takes at most isqrt(PRODUCT) steps
    if n * p <= budget.PRODUCT and not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    dset = build_group_set((p,) * n, options)
    dset.provenance["construction"] = "fpn"
    dset.provenance["p"] = p
    dset.provenance["n"] = n
    return dset
