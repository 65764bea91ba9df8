"""Classical comparison generators.

Sphere-digit sets in {1,...,N}: integers whose base-d digits stay below
d/2 (so digit addition never carries) and lie on a common Euclidean
sphere; a three-term progression would force three collinear points of a
sphere.  The half-box analogue in Z_p^n restricts entries to
{0,...,(p-1)/2} (no wrap-around mod p) and again keeps one sphere shell.
"""

from __future__ import annotations

from itertools import product

from .dsets import DiscreteSet
from .integers import ParameterError, int_nthroot_ceil


def _int_nthroot_floor(N: int, n: int) -> int:
    c = int_nthroot_ceil(N, n)
    return c if c**n == N else c - 1


def _digit_shells(base: int, dim: int) -> dict[int, list[tuple[int, ...]]]:
    half = (base - 1) // 2
    shells: dict[int, list[tuple[int, ...]]] = {}
    for digits in product(range(half + 1), repeat=dim):
        shells.setdefault(sum(d * d for d in digits), []).append(digits)
    return shells


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
        shells = _digit_shells(base, k)
        radius_sq = min(shells, key=lambda r: (-len(shells[r]), r))
        elements = sorted(1 + sum(d * base**i for i, d in enumerate(digits))
                          for digits in shells[radius_sq])
        key = (-len(elements), k)
        if best is None or key < best[0]:
            best = (key, k, base, radius_sq, elements)
        k += 1
    if best is None:  # N in {3..7}: no base >= 3 fits, fall back to one digit pair
        k, base, radius_sq, elements = 1, N, 1, [1, 2]
    else:
        _, k, base, radius_sq, elements = best
    if elements[-1] > N:
        raise RuntimeError(f"sphere-digit element {elements[-1]} exceeds N={N}")
    return DiscreteSet(
        kind="integer",
        bound=N,
        elements=tuple(elements),
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
    shells = _digit_shells(p, n)
    radius_sq = min(shells, key=lambda r: (-len(shells[r]), r))
    elements = shells[radius_sq]
    if len(elements) > ((p + 1) // 2) ** n:
        raise RuntimeError(f"sphere shell of {len(elements)} points exceeds the half box")
    return DiscreteSet(
        kind="group",
        moduli=(p,) * n,
        elements=tuple(elements),
        provenance={
            "construction": "halfbox",
            "p": p,
            "n": n,
            "radius_sq": radius_sq,
            "certified_by_construction": True,
        },
    )
