"""Classical comparison generators.

Sphere-digit sets in {1,...,N}: integers whose base-d digits stay below
d/2 (so digit addition never carries) and lie on a common Euclidean
sphere; a three-term progression would force three collinear points of a
sphere.  The half-box analogue in Z_p^n restricts entries to
{0,...,(p-1)/2} (no wrap-around mod p) and again keeps one sphere shell.
"""

from __future__ import annotations

import numpy as np

from . import budget
from .dsets import DiscreteSet
from .integers import ParameterError, int_nthroot_ceil


def _int_nthroot_floor(N: int, n: int) -> int:
    c = int_nthroot_ceil(N, n)
    return c if c**n == N else c - 1


def _best_shell(base: int, dim: int) -> tuple[int, np.ndarray]:
    """The most populous sphere shell of {0,...,(base-1)//2}^dim, ties going
    to the smaller radius: its squared radius, and its digit rows in
    ``itertools.product`` order (last digit fastest).  Its longer array,
    the side^dim digit rows or the counts of the dim*(side-1)^2 + 1 squared
    radii, is charged to budget.GRID first."""
    side = (base - 1) // 2 + 1
    # side >= 2, so side to the power of the limit's bit length is over the
    # limit: a larger dim is charged that power, and side ** dim is never
    # computed for a huge dim
    rows = side ** min(dim, budget.GRID.bit_length())
    budget.charge("GRID", f"sphere-shell grid {{0..{side - 1}}}^{dim}",
                  max(rows, dim * (side - 1) ** 2 + 1))
    squares = np.arange(side, dtype=np.int64) ** 2
    radii = np.zeros(1, dtype=np.int64)
    for _ in range(dim):
        radii = (radii[:, None] + squares).ravel()
    radius_sq = int(np.argmax(np.bincount(radii)))
    index = np.flatnonzero(radii == radius_sq)
    return radius_sq, index[:, None] // side ** np.arange(dim - 1, -1, -1) % side


def behrend_set(N: int) -> DiscreteSet:
    """Largest sphere-digit set in {1,...,N}, scanning dimensions k >= 2
    with base floor(N^(1/k)) and keeping the largest sphere shell.  Digits
    below base/2 never carry, so every shell is progression-free by
    construction; ``DiscreteSet.verify`` certifies the result."""
    if N < 3:
        raise ParameterError(f"N={N} must be >= 3")
    best = None
    k = 2
    while 2**k <= N:
        base = _int_nthroot_floor(N, k)
        if base < 3:
            k += 1
            continue
        radius_sq, digits = _best_shell(base, k)
        # digit i weighs base**i; every element is below base**k <= N, which
        # DiscreteSet checks
        elements = (1 + digits @ base ** np.arange(k)).tolist()
        key = (-len(elements), k)
        if best is None or key < best[0]:
            best = (key, k, base, radius_sq, elements)
        k += 1
    if best is None:  # N in {3..7}: no base >= 3 fits, fall back to one digit pair
        k, base, radius_sq, elements = 1, N, 1, [1, 2]
    else:
        _, k, base, radius_sq, elements = best
    return DiscreteSet(
        kind="integer",
        bound=N,
        elements=elements,
        provenance={
            "construction": "behrend",
            "bound": N,
            "base": base,
            "dimension": k,
            "radius_sq": radius_sq,
            "certified_by_construction": True,
        },
    )


def halfbox_set(p: int, n: int) -> DiscreteSet:
    """Best sphere shell of {0,...,(p-1)/2}^n viewed inside Z_p^n."""
    if p < 3 or p % 2 == 0:
        raise ParameterError(f"p={p} must be odd and >= 3")
    if n < 1:
        raise ParameterError(f"n={n} must be >= 1")
    radius_sq, digits = _best_shell(p, n)
    elements = digits.tolist()
    if len(elements) > ((p + 1) // 2) ** n:
        raise RuntimeError(f"sphere shell of {len(elements)} points exceeds the half box")
    return DiscreteSet(
        kind="group",
        moduli=(p,) * n,
        elements=elements,
        provenance={
            "construction": "halfbox",
            "p": p,
            "n": n,
            "radius_sq": radius_sq,
            "certified_by_construction": True,
        },
    )
