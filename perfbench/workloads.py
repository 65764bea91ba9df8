"""The three benchmark workloads: the argv of every operation, built from the seed.

Each operation is one `apfree` command line, run in-process through
`apfree.cli.main(argv)`.  A workload's seed sets every `--seed` flag and
every random input set; the program sees only the generated argv and files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from check import count_group_progressions, count_int_progressions

# operation kinds; construct_s, certify_s and sweep_s sum the first three
CONSTRUCT, CERTIFY, SWEEP, OTHER = "construct", "certify", "sweep", "other"


@dataclass
class Op:
    kind: str
    argv: list[str]
    label: str
    # construct: the emitted set is <outdir>/<set_name>.set
    set_name: str | None = None
    # certify: expected counterexample count for `verify --all`, None when the
    # input is an emitted set (which must pass with zero)
    expect_counterexamples: int | None = None


def _construct(label, argv, out: Path, name: str, seed=None) -> Op:
    argv = ["construct", *argv]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Op(CONSTRUCT, argv + ["--outdir", str(out), "--name", name], label, set_name=name)


def _verify(label, path: Path, expect=None) -> Op:
    argv = ["verify", "--set", str(path)] + (["--all"] if expect is not None else [])
    return Op(CERTIFY, argv, label, expect_counterexamples=expect)


def _sweep(Q: int, threads: int) -> Op:
    return Op(SWEEP, ["--threads", str(threads), "check", "all", "--epsilon", "1/12", "--Q", str(Q)],
              f"check all Q={Q} w={threads}")


class TorusLarge:
    """Torus-embedding builds: `groups`, `integers` and `blocks` carry the
    time; the emitted sets have at most ten elements, so certifying them
    costs almost nothing."""

    name = "torus-large"
    builds = [
        ("int N=5e5", ["int", "--N", "500000", "--trials", "4"], "int"),
        ("zm 16^4", ["zm", "--moduli", "16,16,16,16", "--epsilon", "1/12"], "zm"),
        ("fpn 11^3", ["fpn", "--p", "11", "--n", "3"], "fpn"),
        ("int-direct N=1e5", ["int-direct", "--N", "100000", "--trials", "4"], "direct"),
    ]
    # 2 sub-seeds per pass, so a pass's work and set sizes depend less on
    # which shifts one seed happens to draw
    K = 2
    sweep = _sweep(72, 1)
    warmup = ["construct", "int", "--N", "5000", "--seed", "0"]

    def prepare(self, seed: int, inputs: Path) -> dict:
        return {}

    def ops(self, seed: int, out: Path, prepared: dict) -> list[Op]:
        ops, verifies = [], []
        for s in range(seed * self.K, (seed + 1) * self.K):
            for label, argv, name in self.builds:
                ops.append(_construct(label, argv, out, f"{name}_{s}", s))
                verifies.append(_verify(f"verify {label}", out / f"{name}_{s}.set"))
        # the sweep twice: a pass is long, so one sweep gets few timings a run
        return ops + verifies + [self.sweep] * 2


class CertifyLarge:
    """Large certificates and sweeps: `verify`, `baselines` and `gridscan`
    carry the time and `groups` does none.  No operation here takes a seed,
    so the run-to-run spread is timing noise alone."""

    name = "certify-large"
    # one worker: on 2 shared vCPUs a 2-worker sweep's time spreads three
    # times as much; the traced run compares 1 and 2 workers
    sweep = _sweep(72, 1)
    warmup = ["--threads", "1", "check", "all", "--epsilon", "1/12", "--Q", "24"]

    def prepare(self, seed: int, inputs: Path) -> dict:
        return {}

    def ops(self, seed: int, out: Path, prepared: dict) -> list[Op]:
        return [
            _construct("behrend N=1e5", ["behrend", "--N", "100000"], out, "behrend"),
            _construct("halfbox 7^6", ["halfbox", "--p", "7", "--n", "6"], out, "halfbox"),
            _verify("verify behrend N=1e5", out / "behrend.set"),
            _verify("verify halfbox 7^6", out / "halfbox.set"),
            self.sweep,
        ]


class ManySmall:
    """Many cheap calls over the same layers, so fixed per-call costs
    dominate; `verify --all` on random sets takes the counterexample path
    (exit 1)."""

    name = "many-small"
    # 4 sub-seeds: 60 operations per pass, so the tail rank (11th slowest)
    # falls among the slowest operation types and one sub-seed's draw
    # weighs little
    K = 4
    sweep = _sweep(48, 1)
    warmup = ["construct", "int", "--N", "5000", "--seed", "0"]

    def subseeds(self, seed: int) -> range:
        return range(seed * self.K, (seed + 1) * self.K)

    def prepare(self, seed: int, inputs: Path) -> dict:
        """Write the random `verify --all` inputs and count their progressions."""
        inputs.mkdir(parents=True, exist_ok=True)
        grid = list(itertools.product(range(9), repeat=4))
        expected = {}
        for s in self.subseeds(seed):
            rng = random.Random(f"perfbench:{self.name}:{s}")
            ints = sorted(rng.sample(range(1, 20001), 400))
            _write_set(inputs / f"rint_{s}", ints, {"kind": "integer", "bound": 20000})
            expected[f"rint_{s}"] = count_int_progressions(ints)
            elems = sorted(rng.sample(grid, 300))
            _write_set(inputs / f"rgrp_{s}", elems, {"kind": "group", "moduli": [9, 9, 9, 9]})
            expected[f"rgrp_{s}"] = count_group_progressions(elems, (9, 9, 9, 9))
        return {"dir": inputs, "expected": expected}

    def ops(self, seed: int, out: Path, prepared: dict) -> list[Op]:
        ops = []
        for s in self.subseeds(seed):
            ops += [
                _construct("zm 12x12 box", ["zm", "--moduli", "12,12"], out, f"zm_box_{s}", s),
                _construct("zm 6^4", ["zm", "--moduli", "6,6,6,6"], out, f"zm_6x4_{s}", s),
                _construct("zm 12^4", ["zm", "--moduli", "12,12,12,12", "--epsilon", "1/12",
                                       "--trials", "4"], out, f"zm_12x4_{s}", s),
                _construct("fpn 5^3", ["fpn", "--p", "5", "--n", "3"], out, f"fpn_5x3_{s}", s),
                _construct("int N=5000", ["int", "--N", "5000"], out, f"int_5000_{s}", s),
                _construct("int-direct N=2000", ["int-direct", "--N", "2000", "--n-override", "4"],
                           out, f"direct_2000_{s}", s),
                _construct("behrend N=1e4", ["behrend", "--N", "10000"], out, f"behrend_{s}"),
                _construct("halfbox 5^4", ["halfbox", "--p", "5", "--n", "4"], out, f"halfbox_{s}"),
                _verify("verify behrend N=1e4", out / f"behrend_{s}.set"),
            ]
            for stem in (f"rint_{s}", f"rgrp_{s}"):
                ops.append(_verify(f"verify --all {stem[:4]}", prepared["dir"] / f"{stem}.set",
                                   prepared["expected"][stem]))
            ops += [
                self.sweep,
                Op(OTHER, ["area", "--epsilon", "1/24"], "area"),
                Op(OTHER, ["density", "--epsilon", "1/12", "--m", "960"], "density"),
                Op(OTHER, ["compare", "fpn", "--p", "5", "--n", "4", "--seed", str(s)], "compare fpn"),
            ]
        return ops


def _write_set(stem: Path, elements, meta: dict) -> None:
    lines = [",".join(map(str, e)) if isinstance(e, tuple) else str(e) for e in elements]
    stem.with_suffix(".set").write_text("".join(line + "\n" for line in lines))
    sidecar = {"bound": None, "moduli": None, "size": len(elements), "provenance": {}, **meta}
    stem.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True))


WORKLOADS = {w.name: w for w in (TorusLarge(), CertifyLarge(), ManySmall())}
