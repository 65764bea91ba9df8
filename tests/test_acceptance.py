"""Acceptance suite: one test per criterion, zero-tolerance exact checks.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion (each test also prints a `[criterion N] PASS` line).
"""

import math
from fractions import Fraction as F
from itertools import product

from apfree.baselines import behrend_set, halfbox_set
from apfree.blocks import BuildingBlock, clipped_piece_areas
from apfree.cli import main
from apfree.dsets import DiscreteSet
from apfree.groups import (
    BuildOptions,
    best_slice,
    build_fpn_set,
    build_group_set,
    embed_point,
    slice_preimage_set,
)
from apfree.gridscan import run_sweeps
from apfree.integers import (
    build_integer_set,
    build_integer_set_direct,
    choose_moduli,
    crt_decode,
    crt_encode,
    first_primes,
)
from apfree.slicing import weight_sum
from apfree.verify import density_estimate

SWEEP_EPSILONS = [F(1, 12), F(1, 24)]
SWEEP_GRID = 120


def _announce(number, detail):
    print(f"[criterion {number}] PASS: {detail}")


def test_c01_exact_areas():
    """Areas are exact rationals: piece1 = 7/36, total >= 7/24 - eps, and the
    stated-vertex and clipping routes agree exactly."""
    for eps in (F(1, 12), F(1, 24), F(1, 48), F(1, 100)):
        block = BuildingBlock(eps)
        stated = block.piece_areas()
        clipped = {k: a for k, (a, _) in clipped_piece_areas(eps).items()}
        assert stated[1] == F(7, 36)
        assert stated == clipped
        assert sum(stated.values()) >= F(7, 24) - eps
    _announce(1, "piece1 = 7/36, totals >= 7/24 - eps, dual oracles agree exactly")


def test_c02_weight_inequality_sweep():
    """Exhaustive weight-inequality sweep at Q = 120, zero violations."""
    total = 0
    for eps in SWEEP_EPSILONS:
        counts, violation = run_sweeps(("block",), eps, SWEEP_GRID)["block"]
        assert violation is None, violation
        assert counts["violations"] == 0
        assert counts["pairs"] == counts["grid_points"] * (counts["grid_points"] + 1) // 2
        total += counts["candidates"]
    _announce(2, f"{total} in-block pair-candidate checks, zero violations")


def test_c03_coordinate_sum_sweeps():
    """Midpoint alternatives, case disjunction, near-equal g-inequality,
    point/pair facts, and the first-coordinate-sum bound: all exhaustive."""
    total = 0
    for eps in SWEEP_EPSILONS:
        for kind in ("midpoint", "x1z1", "facts"):
            counts, violation = run_sweeps((kind,), eps, SWEEP_GRID)[kind]
            assert violation is None, (kind, violation)
            assert counts["violations"] == 0
            total += counts.get("candidates", counts.get("applicable", 0))
    _announce(3, f"{total} checks across midpoint/x1z1/facts sweeps, zero violations")


def _certified(dset: DiscreteSet) -> DiscreteSet:
    report = dset.verify()
    assert report.passed, (dset.provenance, report.counterexample)
    assert report.checked == math.comb(dset.size, 2)
    return dset


def test_c04_construction_certification():
    """Every emitted set at desk scale passes exhaustive verification."""
    built = [
        _certified(build_group_set((12, 12), BuildOptions(epsilon=F(1, 12), seed=1))),
        _certified(build_group_set((6, 10, 4), BuildOptions(epsilon=F(1, 12), seed=2))),
        _certified(build_fpn_set(5, 4, BuildOptions(epsilon=F(1, 12), seed=1))),
        _certified(build_fpn_set(5, 3, BuildOptions(epsilon=F(1, 12), seed=1))),
        _certified(build_integer_set(5000, BuildOptions(seed=1))),
        _certified(build_integer_set(72, BuildOptions(seed=1), n_override=2)),
        _certified(build_integer_set_direct(2000, n=4, options=BuildOptions(seed=1, trials=8))),
        _certified(build_integer_set_direct(2000, n=2, options=BuildOptions(seed=1, trials=32))),
        _certified(behrend_set(10**4)),
        _certified(halfbox_set(5, 4)),
        _certified(halfbox_set(3, 5)),
    ]
    sizes = {d.provenance["construction"]: d.size for d in built}
    _announce(4, f"{len(built)} constructions certified, sizes by kind: {sizes}")


def test_c05_crt_transfer():
    """Doubling congruences have identical solution sets mod M and
    componentwise, exhaustively for every target residue; encode/decode is a
    bijection on {1,...,M}."""
    instances = [[8, 9], [16, 27], [8, 9, 5], [9, 11, 49]]
    for moduli in instances:
        M = math.prod(moduli)
        assert M <= 5000
        for x in range(1, M + 1):
            assert crt_encode(moduli, crt_decode(moduli, x)) == x
        for s in range(M):
            direct = {y for y in range(M) if (2 * y - s) % M == 0}
            comp = set()
            per = [[y for y in range(m) if (2 * y - s) % m == 0] for m in moduli]
            for combo in product(*per):
                comp.add(crt_encode(moduli, combo) % M)
            assert direct == comp, (moduli, s)
    # pair-level spot instance: all ordered pairs in Z_72
    moduli = [8, 9]
    for x in range(72):
        for z in range(72):
            s = (x + z) % 72
            direct = {y for y in range(72) if (2 * y - s) % 72 == 0}
            comp = {
                crt_encode(moduli, combo) % 72
                for combo in product(
                    *[[y for y in range(m) if (2 * y - s) % m == 0] for m in moduli]
                )
            }
            assert direct == comp
    _announce(5, f"CRT equivalence exhaustive on {instances} and Z_72 pairs")


def test_c06_moduli_brackets():
    """The greedy prime-power moduli satisfy all bracket conditions, and the
    worked instance N=100, n=2 reproduces (8, 9)."""
    assert choose_moduli(100, 2, [2, 3]) == [8, 9]
    import random

    rng = random.Random(616)
    cases = 0
    while cases < 40:
        n = rng.choice([2, 2, 4, 4, 6])
        N = rng.randrange(40, 10**6)
        primes = first_primes(n)
        if math.prod(primes) > N:
            continue
        cases += 1
        moduli = choose_moduli(N, n, primes)
        p = max(primes)
        prod = math.prod(moduli)
        assert N <= prod * p and prod <= N
        for m, q in zip(moduli, primes):
            assert q <= m and m**n < N * q**n
            mm = m
            while mm % q == 0:
                mm //= q
            assert mm == 1
    _announce(6, "brackets hold on 40 randomized cases; N=100 gives (8, 9)")


def test_c07_density_convergence():
    """|grid density - exact area| <= 10/m for m in {24, 96, 384, 960}."""
    errors = {}
    for m in (24, 96, 384, 960):
        report = density_estimate(F(1, 12), m)
        assert report.passed
        err = F(report.parameters["error"])
        assert err <= F(10, m)
        errors[m] = str(err)
    _announce(7, f"errors {errors} all within 10/m")


def test_c08_slice_far_apart():
    """For (12,12,12,12), the pinned grid shift and the selected slice,
    every mod-1 progression inside the slice has outer points within
    delta = 1/12 in every coordinate (exhaustive scan)."""
    moduli = (12, 12, 12, 12)
    shift = (F(1, 24),) * 4
    eps, delta = F(1, 12), F(1, 12)
    j, count, _ = best_slice(moduli, shift, eps, delta)
    dset = slice_preimage_set(moduli, shift, j, eps, delta)
    assert dset.size == count and count > 0
    block = BuildingBlock(eps)
    embedded = {e: embed_point(moduli, shift, e) for e in dset.elements}
    points = set(embedded.values())
    triples = 0
    for x in points:
        for z in points:
            # midpoint candidates per coordinate: half-sum or shifted by 1/2
            per_coord = []
            for xi, zi in zip(x, z):
                base = (xi + zi) / 2 % 1
                per_coord.append((base, (base + F(1, 2)) % 1))
            for y in product(*per_coord):
                if y not in points:
                    continue
                triples += 1
                assert max(abs(xi - zi) for xi, zi in zip(x, z)) < delta
                # summed weight inequality propagates to the product
                gap = sum((xi - zi) ** 2 for xi, zi in zip(x, z))
                assert weight_sum(block, x) + weight_sum(block, z) >= (
                    2 * weight_sum(block, y) + gap
                )
    assert triples >= len(points)  # at least the degenerate ones
    _announce(8, f"slice {j} with {count} points, {triples} progressions all tame")


def test_c09_determinism(tmp_path, capsys):
    """Identical seeds/configs give byte-identical files; sweeps match
    across worker counts."""
    args = [
        "construct", "zm", "--moduli", "12,12", "--epsilon", "1/12",
        "--seed", "1", "--name", "det",
    ]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for suffix in ("det.set", "det.json", "det.report.json"):
        assert (tmp_path / "a" / suffix).read_bytes() == (
            tmp_path / "b" / suffix
        ).read_bytes()
    serial = run_sweeps(("block",), F(1, 12), 48, threads=1)["block"]
    parallel = run_sweeps(("block",), F(1, 12), 48, threads=2)["block"]
    assert serial == parallel
    _announce(9, "byte-identical outputs and worker-count-independent sweeps")


def test_c10_comparison_tables(capsys):
    """Comparison tables are produced at N = 10^4 and (p, n) = (5, 4); every
    listed set is certified and densities are internally consistent.  No
    dominance claim is made at these parameters."""
    assert main(["compare", "int", "--N", "10000", "--seed", "1"]) == 0
    out_int = capsys.readouterr().out
    assert main(["compare", "fpn", "--p", "5", "--n", "4", "--seed", "1"]) == 0
    out_fpn = capsys.readouterr().out
    tables = {}
    for label, out in (("int", out_int), ("fpn", out_fpn)):
        lines = out.strip().splitlines()
        assert lines[0] == "construction,universe,size,density,density_approx,certified"
        rows = [ln.split(",") for ln in lines[1:]]
        for row in rows:
            assert row[5] == "True"
            assert F(row[3]) == F(int(row[2]), int(row[1]))
        tables[label] = {r[0]: int(r[2]) for r in rows}
    assert set(tables["int"]) == {"behrend", "crt-construction", "direct-construction"}
    assert set(tables["fpn"]) == {"halfbox", "new"}
    _announce(10, f"tables produced and certified; sizes: {tables}")
