"""The work ledger: ``budget.charge`` against the work the commands then do.

Every charge goes through ``budget.charge``, so one spy sees them all.  The
work is counted independently, by spies on the kernels: the tuples of each
slot-product walk (object-path tuples weighted as the budget weighs them)
and the direct route's streamed rows, the certificates' pairs and looked-up
keys, the sweep's tile cells and counted pairs per fact, and the entries
of the dense grids.  Each
budget's work must stay within its largest charge; the GRID budget bounds
one array, so its work is the longest array made.
"""

from collections import defaultdict

import numpy as np
import pytest

from apfree import baselines, budget, gridscan, groups, integers, verify
from apfree.budget import BudgetError
from apfree.cli import main


def test_charge_compares_with_the_limit_read_when_called(monkeypatch):
    monkeypatch.setattr(budget, "SWEEP", 10)
    budget.charge("SWEEP", "ten", 10)
    with pytest.raises(BudgetError) as exc:
        budget.charge("SWEEP", "eleven pairs", 11)
    assert str(exc.value) == "eleven pairs exceeds the work budget of 10 fact pairs"


def test_every_limit_has_a_unit():
    assert {name: getattr(budget, name) for name in budget._UNITS} == {
        "PRODUCT": 1 << 24, "SWEEP": 1 << 33, "GRID": 1 << 26, "SCAN": 1 << 30,
        "COUNTEREXAMPLES": 1 << 16}
    assert budget.OBJECT_COST == 8


def wrap(monkeypatch, owner, name, after):
    """Replace owner.name by a call that passes its arguments and result to
    after(result, *args) and returns the result."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        after(result, *args)
        return result

    monkeypatch.setattr(owner, name, spy)


def spy_work(monkeypatch):
    """({budget: work}, {budget: [charged costs]}) filled as commands run."""
    work, charges = defaultdict(int), defaultdict(list)
    charge = budget.charge

    def record(name, what, cost):
        charges[name].append(cost)
        charge(name, what, cost)

    def add(name, n):
        work[name] += n

    monkeypatch.setattr(budget, "charge", record)
    # every tuple of each slot-product walk, object-path ones weighted
    wrap(monkeypatch, groups, "_slice_scan", lambda result, *args: add(
        "PRODUCT", len(result[2]) * (budget.OBJECT_COST if result[2].dtype == object else 1)))
    # the direct route streams rows: once through separation, once per
    # trial (a stack of trials takes every row once per trial)
    wrap(monkeypatch, integers, "separated",
         lambda result, b, denom, lo, off, base, four_c: add("PRODUCT", len(off)))
    wrap(monkeypatch, integers, "kept_slices",
         lambda result, shifts, b, denom, lo, off, base, *region: add(
             "PRODUCT", len(shifts) * len(off)))

    # certificates: the pairs walked and the keys looked up
    pair_tiles = verify.pair_tiles

    def tiles(*args):
        for tile in pair_tiles(*args):
            add("SCAN", int(np.count_nonzero(tile.valid)))
            yield tile

    monkeypatch.setattr(verify, "pair_tiles", tiles)
    wrap(monkeypatch, verify, "_members", lambda result, keys, base: add("SCAN", len(base)))
    # sweeps: every cell of the band's tiles, once per fact that reads it,
    # and every pair of the grid whose rows the box counts take, once per
    # box fact
    tile, rows = gridscan._Tile, gridscan._Rows

    class Counted(tile):
        def __init__(self, g, cells):
            super().__init__(g, cells)
            add("SWEEP", cells.valid.size * sum(gridscan._FACTS[k][2] for k in g.kinds))

    class CountedRows(rows):
        def __init__(self, g):
            super().__init__(g)
            add("SWEEP", g.pairs * sum(not gridscan._FACTS[k][2] for k in g.kinds))

    monkeypatch.setattr(gridscan, "_Tile", Counted)
    monkeypatch.setattr(gridscan, "_Rows", CountedRows)

    # dense grids, charged per array: the longest of the density grid's row
    # bounds, made inside the charged function only, and of the baselines'
    # radius counts and decoded digits (the shell kernel's longest arrays:
    # its shifted adds stay within the counts, and each chunk of its
    # decoding within the rows)
    inside = []

    def dense(entries):
        work["GRID"] = max(work["GRID"], entries)

    def within(owner, name):
        real = getattr(owner, name)

        def call(*args):
            inside.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(owner, name, call)

    within(verify, "density_count")
    wrap(monkeypatch, gridscan, "_piece_rows", lambda result, *args: dense(
        max(np.size(bound) for row in result for bound in row))
        if "density_count" in inside else None)
    wrap(monkeypatch, baselines, "_shell_counts", lambda result, *args: dense(len(result)))
    wrap(monkeypatch, baselines, "_shell_rows", lambda result, *args: dense(result.size))
    return work, charges


SHIFT = "1/24,1/24,1/24,1/24"
BUILD, BASELINE = {"PRODUCT", "SCAN"}, {"GRID", "SCAN"}
# builds of sets under three elements, whose certificate scans no pair
SMALL = {"PRODUCT"}
# (setup command, the command whose work is counted, the budgets it works
# under); {out} is the outdir
COMMANDS = {
    "zm": ([], ["construct", "zm", "--moduli", "12,12,12,12", "--epsilon", "1/12",
                "--trials", "3"], BUILD),
    "zm-box": ([], ["construct", "zm", "--moduli", "30,30", "--trials", "2"], SMALL),
    "fpn": ([], ["construct", "fpn", "--p", "7", "--n", "3", "--trials", "2"], SMALL),
    "int": ([], ["construct", "int", "--N", "50000", "--trials", "3"], SMALL),
    "int-object-path": ([], ["construct", "int", "--N", "30000000", "--trials", "1"], BUILD),
    "int-direct": ([], ["construct", "int-direct", "--N", "3000", "--trials", "3"], SMALL),
    "behrend": ([], ["construct", "behrend", "--N", "20000"], BASELINE),
    "halfbox": ([], ["construct", "halfbox", "--p", "7", "--n", "4"], BASELINE),
    "explicit-shift": ([], ["construct", "zm", "--moduli", "12,12,12,12", "--epsilon",
                            "1/12", "--shift", SHIFT], BUILD),
    "verify-group": (["construct", "zm", "--moduli", "6,10,6,10", "--epsilon", "1/12",
                      "--no-verify", "--name", "g"], ["verify", "--set", "{out}/g.set"],
                     {"SCAN"}),
    "verify-integer": (["construct", "behrend", "--N", "20000", "--no-verify", "--name", "i"],
                       ["verify", "--set", "{out}/i.set"], {"SCAN"}),
    "check-all": ([], ["check", "all", "--epsilon", "1/12", "--Q", "48"], {"SWEEP"}),
    "density": ([], ["density", "--epsilon", "1/12", "--m", "96"], {"GRID"}),
}


def argv(command, out):
    argv = [arg.replace("{out}", str(out)) for arg in command]
    return argv + ["--outdir", str(out)] if argv[0] == "construct" else argv


@pytest.mark.parametrize("case", COMMANDS)
def test_work_stays_within_its_charges(monkeypatch, capsys, tmp_path, case):
    monkeypatch.delenv("APFREE_THREADS", raising=False)
    setup, command, budgets = COMMANDS[case]
    if setup:
        assert main(argv(setup, tmp_path)) == 0
    work, charges = spy_work(monkeypatch)
    assert main(argv(command, tmp_path)) == 0
    capsys.readouterr()
    assert set(work) == budgets
    for name, done in work.items():
        assert done <= max(charges[name], default=0), (name, done, charges[name])
    if case == "explicit-shift":
        # one walk, charged exactly: the product outweighs the two pair grids
        assert work["PRODUCT"] == max(charges["PRODUCT"])



@pytest.mark.parametrize("q", [24, 48])
def test_a_failing_sweep_walks_every_pair_within_its_charge(monkeypatch, q):
    """With (0, 0) made in-block, a midpoint candidate fails code 1, whose
    sum's threshold no pair can reach, so the band is every pair and the
    sweep walks the whole grid; its tile cells still stay within the
    charge."""
    from fractions import Fraction

    eps = Fraction(1, 12)
    table = gridscan.weight_table(eps, 2 * q).copy()
    table[0, 0] = 0
    monkeypatch.setattr(gridscan, "weight_table", lambda e, d: table.copy())
    work, charges = spy_work(monkeypatch)
    kinds = ("block", "midpoint", "x1z1", "facts")
    results = gridscan.run_sweeps(kinds, eps, q)
    assert results["midpoint"][1]["code"] == 1
    g = gridscan._Grid(eps, q, kinds)
    assert g.radius == 2 * q and g.band.starts[-1] == g.pairs
    assert work["SWEEP"] >= len(kinds) * g.pairs
    assert work["SWEEP"] <= max(charges["SWEEP"])


# the error line of the half box 31^6, whose certificate is refused: the
# same bytes as when its 49740 elements were built first
HALFBOX_31_6 = ("error: group certificate of 49740 elements (2474017860 pairs and candidates) "
                "exceeds the work budget of 1073741824 pairs and candidates\n")


@pytest.mark.parametrize("command, error", [
    # a counts array over GRID: the 500000^2 + 1 radii of {0..500000}
    (["construct", "halfbox", "--p", "1000001", "--n", "1"],
     "error: sphere-shell counts of {0..500000}^1 exceeds the work budget of 67108864 "
     "array entries\n"),
    # a decoding over GRID: comb(40, 20) rows of 40 digits, counted in 41
    # radii and never certified
    (["construct", "halfbox", "--p", "3", "--n", "40", "--no-verify"],
     "error: sphere shell of 137846528820 rows in {0..1}^40 exceeds the work budget of "
     "67108864 array entries\n"),
    # refusals before decoding: the certificates of shells counted whole
    (["construct", "halfbox", "--p", "31", "--n", "6"], HALFBOX_31_6),
    (["construct", "behrend", "--N", "1000000000"],
     "error: integer certificate of 71680 elements (5137950720 pairs and candidates) "
     "exceeds the work budget of 1073741824 pairs and candidates\n"),
])
def test_shell_refusals_make_no_row(monkeypatch, capsys, tmp_path, command, error):
    """Each refusal comes from its counts alone: no row is decoded, and the
    arrays made stay within the charges."""
    work, charges = spy_work(monkeypatch)
    decoded = []
    wrap(monkeypatch, baselines, "_box", lambda result, *args: decoded.append(args))
    assert main(argv(command, tmp_path)) == 2
    assert capsys.readouterr() == ("", error)
    assert decoded == [] and not list(tmp_path.iterdir())
    assert work["GRID"] <= max(charges["GRID"])
