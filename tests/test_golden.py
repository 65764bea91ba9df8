"""Golden outputs: every command of ``COMMANDS`` must reproduce the digests
that ``tests/golden.json`` records for it.

Each command runs in process, through ``apfree.cli.main``, in a fresh
directory that holds only the input files the row writes first.  Its row
records the exit code and the sha256 of its stdout, its stderr and every
file it writes, after masking the directory's path (as ``<dir>``) and the
``elapsed=`` times.  ``python tests/record_golden.py`` rewrites the table;
a change that keeps every output byte-identical leaves it untouched.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from apfree.cli import main

GOLDEN = Path(__file__).with_name("golden.json")


def _lines(rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


# input files a row writes before its command: name -> text
Z469 = {
    # Z_4 x Z_6 x Z_9: pairs with several midpoint solutions
    "z.set": _lines([(0, 0, 0), (0, 2, 4), (1, 1, 1), (2, 0, 0), (2, 4, 8), (3, 5, 2)]),
    "z.json": json.dumps({"kind": "group", "moduli": [4, 6, 9]}),
}
EMPTY = {"e.set": "", "e.json": json.dumps({"kind": "integer", "bound": 10})}
ONE = {"o.set": "7\n", "o.json": json.dumps({"kind": "integer", "bound": 10})}
TWO = {"t.set": _lines([(1, 2), (3, 4)]), "t.json": json.dumps({"kind": "group", "moduli": [5, 5]})}
THREE = {"a.set": "1\n3\n5\n", "a.json": json.dumps({"kind": "integer", "bound": 9})}
# three elements of Z_(2^40) x Z_(2^70), certified on object arrays
HUGE = {"h.set": _lines([(0, 0), (1, 3), (2, 6)]),
        "h.json": json.dumps({"kind": "group", "moduli": [1 << 40, 1 << 70]})}
# 13 elements of Z_4^24 with even coordinates: every pair passes the parity
# filter and has 2^24 midpoint candidates
SCAN = {"s.set": _lines([[2 * (i >> k & 1) for k in range(24)] for i in range(1, 14)]),
        "s.json": json.dumps({"kind": "group", "moduli": [4] * 24})}
# {1..6000}: about 9e6 progressions to list
LIST = {"l.set": _lines([k] for k in range(1, 6001)),
        "l.json": json.dumps({"kind": "integer", "bound": 6000})}

CONSTRUCT = ["construct", "--outdir", "out"]

# (argv, input files): each construct kind at two seeds (behrend and
# halfbox, which take no seed, at two sizes), an explicit shift and slice,
# odd n, the n = 2 box, the object path, the direct route's n, certificates
# of hand-written sets, sweeps on one and two workers, compare, density,
# area, one refusal per work budget and usage errors; construct rows write
# into out/ under the row's directory
COMMANDS = [
    *(([*CONSTRUCT, *argv, "--seed", seed], {}) for argv in (
        ["zm", "--moduli", "6,6,6,6"], ["fpn", "--p", "5", "--n", "4"],
        ["int", "--N", "100000"], ["int-direct", "--N", "600"]) for seed in ("0", "1")),
    ([*CONSTRUCT, "behrend", "--N", "200"], {}),
    ([*CONSTRUCT, "behrend", "--N", "5000"], {}),
    ([*CONSTRUCT, "halfbox", "--p", "5", "--n", "2"], {}),
    ([*CONSTRUCT, "halfbox", "--p", "7", "--n", "3"], {}),
    ([*CONSTRUCT, "zm", "--moduli", "12,12,12,12", "--epsilon", "1/8",
      "--shift", "25/64,15/16,43/192,155/192", "--slice-j", "1251399"], {}),
    ([*CONSTRUCT, "fpn", "--p", "7", "--n", "3", "--seed", "2"], {}),
    ([*CONSTRUCT, "zm", "--moduli", "90,120", "--seed", "1"], {}),
    ([*CONSTRUCT, "int", "--N", "12000000"], {}),
    ([*CONSTRUCT, "int-direct", "--N", "3000", "--n-override", "4"], {}),
    ([*CONSTRUCT, "zm", "--moduli", "6,6", "--no-verify", "--name", "raw"], {}),
    (["verify", "--set", "z.set"], Z469),
    (["verify", "--all", "--set", "z.set"], Z469),
    (["verify", "--set", "e.set"], EMPTY),
    (["verify", "--all", "--set", "o.set"], ONE),
    (["verify", "--all", "--set", "t.set"], TWO),
    (["verify", "--all", "--set", "a.set"], THREE),
    (["verify", "--all", "--set", "h.set"], HUGE),
    *((["--threads", threads, "check", "all", "--epsilon", "1/12", "--Q", q], {})
      for q in ("24", "48") for threads in ("1", "2")),
    (["--threads", "2", "check", "all", "--epsilon", "1/12", "--Q", "144"], {}),
    (["compare", "fpn", "--p", "5", "--n", "4", "--seed", "1"], {}),
    (["compare", "int", "--N", "3", "--out", "table.csv"], {}),
    (["density", "--epsilon", "1/12", "--m", "96"], {}),
    (["area", "--epsilon", "1/12", "--polygons"], {}),
    # one refusal per work budget: PRODUCT, SWEEP, GRID, SCAN, COUNTEREXAMPLES
    ([*CONSTRUCT, "zm", "--moduli", "9000,9000", "--epsilon", "1/2"], {}),
    (["check", "block", "--epsilon", "1/2", "--Q", "999984"], {}),
    (["density", "--epsilon", "1/12", "--m", "8193"], {}),
    (["verify", "--set", "s.set"], SCAN),
    (["verify", "--all", "--set", "l.set"], LIST),
    # usage errors
    ([*CONSTRUCT, "fpn", "--p", "4", "--n", "2"], {}),
    (["check", "all", "--epsilon", "1/12", "--Q", "50"], {}),
    ([*CONSTRUCT, "zm"], {}),
]

_ELAPSED = re.compile(rb"elapsed=[0-9.]+s")


def _digest(data: bytes, mask: bytes) -> str:
    data = _ELAPSED.sub(b"elapsed=<t>s", data.replace(mask, b"<dir>"))
    return hashlib.sha256(data).hexdigest()


def run_row(argv, inputs, directory: Path) -> dict:
    """The row of one command run in ``directory``, with APFREE_THREADS
    unset: its exit code and the digests of its stdout, its stderr and
    each file it writes."""
    for name, text in inputs.items():
        (directory / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd, threads = os.getcwd(), os.environ.pop("APFREE_THREADS", None)
    try:
        os.chdir(directory)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
        if threads is not None:
            os.environ["APFREE_THREADS"] = threads
    mask = str(directory).encode()
    files = {path.relative_to(directory).as_posix(): _digest(path.read_bytes(), mask)
             for path in sorted(directory.rglob("*"))
             if path.is_file() and path.name not in inputs}
    return {"command": " ".join(argv), "exit": code,
            "stdout": _digest(out.getvalue().encode(), mask),
            "stderr": _digest(err.getvalue().encode(), mask), "files": files}


@functools.lru_cache(maxsize=None)
def _recorded() -> dict:
    return {row["command"]: row for row in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv, inputs", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_outputs_are_the_recorded_ones(argv, inputs, tmp_path):
    assert run_row(argv, inputs, tmp_path) == _recorded()[" ".join(argv)]


def test_every_recorded_command_is_run():
    assert list(_recorded()) == [" ".join(argv) for argv, _ in COMMANDS]
