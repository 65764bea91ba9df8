"""The work budgets of every search, enumeration and scan whose work grows
faster than its output, and ``charge``, the one check made before such work
starts: callers compute their costs, in the limit's unit, from their inputs."""

from __future__ import annotations


class BudgetError(RuntimeError):
    """A search, enumeration or scan would exceed its work budget."""


# the points one build may test and walk in all: each walk tests every
# pair's grid (m1 + m2 coordinates for the box, m1 * m2 points for the
# block) and walks the slot product, and a search makes trials + 1 walks;
# the direct route streams its N rows once for separation and once per
# trial.  An object-path point counts OBJECT_COST times: a walk takes about
# 0.3 us an int64 tuple and 2.3 us an object one (2-vCPU host), so an
# admitted build spends at most about 5 s here, and no CLI walk exceeds
# 2^23 tuples.
PRODUCT = 1 << 24
OBJECT_COST = 8
# fact-pair evaluations one sweep may make, bounded from Q alone: at most
# Q^2 grid points, so Q^2 (Q^2 + 1) / 2 pairs per fact, plus the (2Q)^2
# weight table.  check all at Q = 240 (6.6e9) is admitted; at eps 1/12 on
# a 2-vCPU host it takes 2.3-4.2 s on one worker (1.4-2.0 s on two),
# against 0.03-0.04 s at Q = 72 and 0.2-0.4 s at Q = 120.
SWEEP = 1 << 33
# entries of the longest array one dense grid may hold: the density grid's
# m^2 cells (about 20 bytes a cell at the peak, so 1.4 GiB at m = 8192), or a
# baseline's digit rows or radius counts (619 MiB for the 5e7 radius counts
# of behrend at N = 10^8)
GRID = 1 << 26
# pairs walked plus midpoint candidates looked up by one certificate: the
# integer scan runs 2.4-2.8e7 pairs a second in-process (behrend sets at
# N = 1e7 and 1e8, 2-vCPU Xeon host), so an admitted scan takes at most
# about 45 s
SCAN = 1 << 30
# progressions one all_counterexamples scan may list: 34 times the 1944 of
# the largest benchmark list, while a JSON dump of the full list stays
# under a quarter of a second and 16 MB (storage.dump_json on the same
# host: 0.07 s and 5 MB for integer triples, 0.18 s and 16 MB for triples
# in Z_9^4)
COUNTEREXAMPLES = 1 << 16

_UNITS = {"PRODUCT": "points", "SWEEP": "fact pairs", "GRID": "array entries",
          "SCAN": "pairs and candidates", "COUNTEREXAMPLES": "progressions"}


def charge(budget: str, what: str, cost: int) -> None:
    """Raise BudgetError, naming ``what``, when ``cost`` exceeds the limit
    named ``budget`` (one of the keys of _UNITS)."""
    limit = globals()[budget]
    if cost > limit:
        raise BudgetError(f"{what} exceeds the work budget of {limit} {_UNITS[budget]}")
