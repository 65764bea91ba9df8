"""The work budgets of every search, enumeration and scan whose work grows
faster than its output, and ``charge``, the one check made before such work
starts: callers compute their costs, in the limit's unit, from their inputs."""

from __future__ import annotations


class BudgetError(RuntimeError):
    """A search, enumeration or scan would exceed its work budget."""


# the points one build may test and walk in all: every pair's grid (m1 +
# m2 coordinates for the box, m1 * m2 points for the block) and the slot
# product, for each walk, and a search makes trials + 1 walks.  A search
# tests each trial's grids once, batched with the other trials', and its
# winner's walk reuses them, but each trial's grids are still charged, in
# one charge per trial, for trials + 1 walks; every trial of a batch is
# charged before the batch is tested, so a trial over the budget refuses
# the search at once.  The direct route streams its N rows once for
# separation and once per trial.  An object-path point counts OBJECT_COST
# times: a walk takes about 0.013 us an int64 tuple for a trial and 0.02
# us for a winner, which decodes its pre-image, and 0.65-1.0 us an object
# one (in-process, 2-vCPU host: a 64^4 product of 1.05e6 tuples and an
# object one of 1.5e5), so an admitted build's walks take at most about
# 2 s, and no CLI walk exceeds 2^23 tuples.
PRODUCT = 1 << 24
OBJECT_COST = 8
# fact-pair evaluations one sweep may make, bounded from Q alone: at most
# Q^2 grid points, so Q^2 (Q^2 + 1) / 2 pairs per fact, plus the (2Q)^2
# weight table.  check all at Q = 240 (6.6e9) is admitted; at eps 1/12 on
# a 2-vCPU host it takes 0.41-0.49 s on one worker (0.37-0.40 s on two),
# against 0.010-0.013 s at Q = 72 and 0.03-0.05 s at Q = 120, as the sweeps
# walk only the band of pairs that can be flagged (about 130 times fewer
# than this charge at Q = 240).  The first-coordinate facts are charged as
# pair walks too, although they are counted by box queries in O(Q^2 + rows).
SWEEP = 1 << 33
# entries of the longest array one dense grid may hold: the density grid's
# m^2 cells (counted by rows in O(m) memory, so this charge overstates it);
# for each box {0..side-1}^k a baseline counts, its k*(side-1)^2 + 1 radius
# counts, or the entries its shifted adds write if more; and the digits of
# the one shell it decodes.  No baseline lists a whole box any more:
# behrend at N = 134258568 counts and decodes its 24310 elements in about
# 0.02 s and a 7 MiB peak in-process (2-vCPU host), where its k = 2 grid
# of 3.4e7 rows took about 1 s and 800 MiB
GRID = 1 << 26
# pairs walked plus midpoint candidates looked up by one certificate: the
# integer scan runs 2.7-3.1e8 pairs a second in-process (behrend sets at
# N = 1e7 and 1e8, 2-vCPU Xeon host), so an admitted integer scan takes at
# most about 4 s; the group scan of halfbox 101^4 (four coordinates) runs
# 1.2e8 pairs a second, and its time per pair grows with the coordinates
SCAN = 1 << 30
# progressions one all_counterexamples scan may list: 31 times the 2127 of
# the largest benchmark list (many-small, seeds 1-3), while a JSON dump of the full list stays
# near a tenth of a second and 31 MiB (storage.dump_json on the same host:
# 0.03-0.04 s and a 13 MiB peak for integer triples, 0.07-0.10 s and
# 31 MiB for triples in Z_9^4, whose text is 15.4 MiB)
COUNTEREXAMPLES = 1 << 16

_UNITS = {"PRODUCT": "points", "SWEEP": "fact pairs", "GRID": "array entries",
          "SCAN": "pairs and candidates", "COUNTEREXAMPLES": "progressions"}


def count(n: int) -> str:
    """n in decimal, or "at least 2^k" past 2^64, so that a message naming
    a count stays short however large the count grows."""
    return str(n) if n <= 1 << 64 else f"at least 2^{n.bit_length() - 1}"


def charge(budget: str, what: str, cost: int) -> None:
    """Raise BudgetError, naming ``what``, when ``cost`` exceeds the limit
    named ``budget`` (one of the keys of _UNITS)."""
    limit = globals()[budget]
    if cost > limit:
        raise BudgetError(f"{what} exceeds the work budget of {limit} {_UNITS[budget]}")
