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

Each pair's grid is tested and weighed as arrays, giving the shift's
slots.  ``_pair_slots`` does this for a batch of shifts at once: the
grids of one coordinate pair for every shift are stacked, each on its own
D passed as a broadcast array, and tested in steps of at most
_PRODUCT_CHUNK points.  A search makes one batch of all its trials, or
several when their grids hold more points than that, so each trial's grids
are tested once; an explicit shift is a batch of one.
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
batch are scaled by each shift's L / D^2 in one multiply, and each shift's
part is cast to the dtype its own bound picks, so no dtype depends on the
batch.
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

from . import budget, gridscan
from .blocks import BuildingBlock
from .dsets import DiscreteSet
from .gridscan import region_factor, scaled_below, scaled_in_block, scaled_weight, weight_factor
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


def _charge_grids(moduli, shift, epsilon: Fraction | None, delta: Fraction, walks: int):
    """[(D, dtype, b1, b2)] per coordinate pair of one shift: the pair's
    grid D = lcm(m1, m2, den(a1), den(a2)), the dtype its arithmetic needs
    (int64 when region_factor * D, box, or weight_factor * D^2, block, is
    at most 2^62) and the shift's numerators over D.  The points of all
    the shift's grids are charged to the work budget in one charge, for
    ``walks`` walks.  The shift's coordinates are Fractions or ints."""
    factor = region_factor(epsilon, delta) if epsilon is None else weight_factor(epsilon)
    grids, points = [], 0
    for h in range(len(moduli) // 2):
        m1, m2 = moduli[2 * h], moduli[2 * h + 1]
        a1, a2 = shift[2 * h], shift[2 * h + 1]
        D = math.lcm(m1, m2, a1.denominator, a2.denominator)
        dtype = gridscan.exact_dtype(factor * D if epsilon is None else factor * D * D)
        grid = m1 + m2 if epsilon is None else m1 * m2
        points += grid * (budget.OBJECT_COST if dtype is object else 1)
        grids.append((D, dtype, a1.numerator * (D // a1.denominator) % D,
                      a2.numerator * (D // a2.denominator) % D))
    budget.charge("PRODUCT", f"{len(grids)} pair grids of a shift, {budget.count(points)} "
                  f"points, walked {budget.count(walks)} times,", walks * points)
    return grids


def _pair_slots(moduli, shifts, epsilon: Fraction | None, delta: Fraction, walks: int = 1):
    """Per shift, ([(r1, r2, w), ...], L, s_max): per coordinate pair the
    residue pairs in the region as index arrays (r1, r2), row-major, and
    their weights w on the common scale L = lcm(D_h^2), int64 when the
    summed weight maxima are at most 2^62; s_max that sum, the walk's
    bound, 0 when a pair has no slots.  The box (epsilon None) is a
    product of intervals, so each coordinate is tested alone and every
    kept pair weighs 0.  Each pair's grids are stacked over the shifts,
    each on its own D, and tested and weighed a step of rows at a time, at
    most _PRODUCT_CHUNK points a step, on object arrays when any shift
    needs them.  Each pair's weights of all the shifts are then scaled by each
    shift's L / D^2 in one multiply and handed out as views, each cast to
    the dtype its own shift's bound picks.  Every shift's grids are
    charged before any is tested, so a shift over the budget refuses the
    batch at once."""
    grids = [_charge_grids(moduli, shift, epsilon, delta, walks) for shift in shifts]
    T = len(grids)
    Ls = [math.lcm(*(D * D for D, *_ in grid)) for grid in grids]
    pairs = [[] for _ in range(T)]
    stacks = []
    for h, (m1, m2) in enumerate(zip(moduli[::2], moduli[1::2])):
        D, dtypes, b1, b2 = zip(*(g[h] for g in grids))
        dtype = object if object in dtypes else np.int64
        D, b1, b2 = (np.array(x, dtype=dtype)[:, None] for x in (D, b1, b2))
        us = (b1 + np.arange(m1, dtype=dtype) * (D // m1)) % D
        vs = (b2 + np.arange(m2, dtype=dtype) * (D // m2)) % D
        if epsilon is None:
            in1, in2 = scaled_below(delta, D, us), scaled_below(delta, D, vs)
            for t in range(T):
                k1, k2 = np.flatnonzero(in1[t]), np.flatnonzero(in2[t])
                pairs[t].append((np.repeat(k1, len(k2)), np.tile(k2, len(k1)),
                                 np.zeros(len(k1) * len(k2), dtype=np.int64)))
            continue
        # the rows (t, i) of the (T, m1, m2) stack, each on its shift's D,
        # in steps of at most _PRODUCT_CHUNK points, one row at least
        step = max(1, _PRODUCT_CHUNK // m2)
        trial, r1, r2, w = [], [], [], []
        for lo in range(0, T * m1, step):
            t, i = np.divmod(np.arange(lo, min(lo + step, T * m1)), m1)
            row, k = np.nonzero(scaled_in_block(epsilon, D[t], us[t, i, None], vs[t]))
            t, i = t[row], i[row]
            trial.append(t)
            r1.append(i)
            r2.append(k)
            w.append(scaled_weight(epsilon, D[t, 0], us[t, i], vs[t, k]))
        trial, r1, r2, w = (np.concatenate(x) for x in (trial, r1, r2, w))
        counts = np.bincount(trial, minlength=T)
        cut = [0, *np.cumsum(counts).tolist()]
        stacks.append((w, counts, cut))
        for t in range(T):
            pairs[t].append((r1[cut[t]:cut[t + 1]], r2[cut[t]:cut[t + 1]]))
    if epsilon is None:  # box points weigh 0 on every scale
        return [(slots, L, 0) for slots, L in zip(pairs, Ls)]
    scales = [[L // (D * D) for D, *_ in grid] for grid, L in zip(grids, Ls)]
    # bounds every scaled weight, their sums, and each factor c (in-block
    # weights are positive, so max(w) * c >= c)
    bounds = [0] * T
    for h, (w, counts, cut) in enumerate(stacks):
        full = np.flatnonzero(counts)
        maxima = np.maximum.reduceat(w, np.array(cut)[full]).tolist() if len(full) else []
        top = dict(zip(full.tolist(), maxima))
        for t in range(T):
            bounds[t] += top.get(t, 1) * scales[t][h]
    dtypes = [gridscan.exact_dtype(bound) for bound in bounds]
    dtype = object if object in dtypes else np.int64
    for h, (w, counts, cut) in enumerate(stacks):
        c = np.repeat(np.array([scale[h] for scale in scales], dtype=dtype), counts)
        w = w.astype(dtype, copy=False) * c
        for t in range(T):
            pairs[t][h] += (w[cut[t]:cut[t + 1]].astype(dtypes[t], copy=False),)
    return [(slots, L, bound if all(counts[t] for _, counts, _ in stacks) else 0)
            for t, (slots, L, bound) in enumerate(zip(pairs, Ls, bounds))]


def _slice_dtype(s_max: int, num: int, den: int):
    """The dtype of the slice division (num * s) // den for 0 <= s <= s_max:
    int64 when num * max(s_max, 1) and den are at most 2^62."""
    return gridscan.exact_dtype(max(num * max(s_max, 1), den))


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
    """(slots, shape, J): the pair slots, the shape of their product, and
    the slice index of every tuple of the product in the order of
    itertools.product; every tuple of the slots is in the region, so
    position k of J is flat tuple index k.  The trailing pairs whose
    product holds at most _PRODUCT_CHUNK tuples (the last pair alone when
    it holds more) give B, the sums of their weights, and the leading
    pairs give A; J, as a (len(A), len(B)) array, is filled in blocks of at
    most _PRODUCT_CHUNK sums A[r] + B[c], whole rows of it or, when one
    row is longer, parts of one row.  A product that B holds whole is one
    block, sliced from B alone.  ``slots``: the shift's (slots, L, s_max)
    from a ``_pair_slots`` batch over validated inputs, made here if None.
    The grids (when made here) and the product are charged to the work
    budget for ``walks`` walks first."""
    if slots is None:
        moduli, epsilon, delta = _walk_inputs(moduli, epsilon, delta)
        slots = _pair_slots(moduli, [tuple(map(Fraction, shift))], epsilon, delta, walks)[0]
    slots, L, s_max = slots
    num, den = slice_ratio(epsilon, delta, L)
    weights = [w for *_, w in slots]
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
    edges = np.flatnonzero(np.concatenate(([True], S[1:] != S[:-1], [True])))
    counts = edges[1:] - edges[:-1]
    k = int(np.argmax(counts))
    return int(S[edges[k]]), int(counts[k]), (S[edges[:-1]], counts)


def best_slice(moduli, shift, epsilon: Fraction | None, delta: Fraction, walks: int = 1,
               j: int | None = None, slots=None, pre_image: bool = True):
    """(j, count, histogram, elements) of one walk over the tuples in the
    region (the box when epsilon is None): j the fullest slice of
    ``slice_runs`` unless given, count its tuples, the histogram that of
    ``slice_runs``, and elements the residue tuples in slice j, in product
    order.  A pre-image is progression-free whenever delta <= 1/max(m).
    ``walks``: how many walks like this one the caller's build makes, for
    the work budget; ``slots``: the shift's slots from a batch of
    ``_pair_slots``, as ``_slice_scan`` takes them; ``pre_image`` False,
    for a search's trial: only (j, count), from J sorted in place, and the
    histogram and elements are None."""
    slots, shape, J = _slice_scan(moduli, shift, epsilon, delta, walks, slots)
    if not pre_image:
        J.sort()
        return (*slice_runs(J)[:2], None, None)
    fullest, _, histogram = slice_runs(np.sort(J))
    j = fullest if j is None else j
    hit = np.flatnonzero(J == j)
    idx = np.unravel_index(hit, shape)
    columns = [r[i].tolist() for (r1, r2, _), i in zip(slots, idx) for r in (r1, r2)]
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
    walk of its slots gives its pre-image and histogram.  The trials' pair
    grids are tested in batches of ``_pair_slots``, one for all the trials
    unless their grids hold more than _PRODUCT_CHUNK points.  Returns
    (shift, j, DiscreteSet)."""
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
    # a batch holds at most _PRODUCT_CHUNK grid points, so memory does not
    # grow with the trial count
    per = max(1, _PRODUCT_CHUNK // points)
    best = None
    for first in range(0, trials, per):
        shifts = [sample_shift(trial_rng(seed, "shift", trial), moduli)
                  for trial in range(first, min(first + per, trials))]
        # each trial is charged for all the search's walks, the winner's included
        batch = _pair_slots(moduli, shifts, epsilon, delta, trials + 1)
        for shift, slots in zip(shifts, batch):
            j, count, *_ = best_slice(moduli, shift, epsilon, delta, trials + 1, slots=slots,
                                      pre_image=False)
            key = (-count, shift, j)
            if best is None or key < best[0]:
                best = (key, shift, j, slots)
    _, shift, j, slots = best
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
