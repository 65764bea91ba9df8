"""Output checks that do not use `apfree.verify`.

Progressions are counted here with numpy, independently of the program's
own verifiers, and every operation's exit code, verdict and counts are
compared with what that independent count implies.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np


def count_int_progressions(elements) -> int:
    """Number of triples x < y < z in the set with x + z = 2y."""
    a = np.array(sorted(elements), dtype=np.int64)
    total = 0
    for i in range(len(a) - 2):
        s = a[i] + a[i + 2:]
        mid = s[(s & 1) == 0] >> 1
        idx = np.minimum(np.searchsorted(a, mid), len(a) - 1)
        total += int((a[idx] == mid).sum())
    return total


def count_group_progressions(elements, moduli) -> int:
    """Number of (unordered pair {x, z}, y) with 2y = x + z coordinatewise
    mod m_i and y in the set; x != z forces y to differ from both."""
    m = np.array(moduli, dtype=np.int64)
    e = np.array(sorted(elements), dtype=np.int64).reshape(-1, len(moduli))
    if len(e) < 3:
        return 0
    stride = np.concatenate(([1], np.cumprod(m[::-1])[:-1]))[::-1]
    members = np.sort(e @ stride)
    even = (m % 2 == 0)
    half = np.where(even, m // 2, 0)
    inv2 = np.where(even, 0, (m + 1) // 2)
    # per coordinate: odd m has one halving, even m has s/2 and s/2 + m/2
    offsets = [np.where(even, np.array(bits), 0) * half
               for bits in itertools.product((0, 1), repeat=len(moduli))]
    offsets = np.unique(np.array(offsets), axis=0)
    total = 0
    for i in range(len(e) - 1):
        s = e[i] + e[i + 1:]
        s = s[((s % 2 == 0) | ~even).all(axis=1)]
        base = np.where(even, s // 2, (s * inv2) % m) % m
        for off in offsets:
            codes = ((base + off) % m) @ stride
            idx = np.minimum(np.searchsorted(members, codes), len(members) - 1)
            total += int((members[idx] == codes).sum())
    return total


def read_set_file(set_path: Path) -> tuple[dict, list]:
    """Parse a `.set` file and its sidecar without the program's reader."""
    meta = json.loads(set_path.with_suffix(".json").read_text())
    lines = set_path.read_text().splitlines()
    if meta["kind"] == "group":
        return meta, [tuple(int(r) for r in line.split(",")) for line in lines]
    return meta, [int(line) for line in lines]


_counted: dict = {}


def count_progressions(meta: dict, elements) -> int:
    """Progressions in a set read from a file; memoised, since every pass
    of a run emits and re-reads the same sets."""
    key = (meta["kind"], tuple(meta.get("moduli") or ()), tuple(elements))
    if key not in _counted:
        _counted[key] = (count_group_progressions(elements, meta["moduli"])
                         if meta["kind"] == "group" else count_int_progressions(elements))
    return _counted[key]


def json_objects(text: str) -> list:
    """Every JSON object printed to stdout, in order."""
    decoder, objs, pos = json.JSONDecoder(), [], 0
    text = text.strip()
    while pos < len(text):
        obj, pos = decoder.raw_decode(text, pos)
        objs.append(obj)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return objs


def check_emitted(set_path: Path, summary: dict) -> tuple[list[str], int, str]:
    """Independent check of one constructed set: sorted, distinct, in range,
    progression-free, and agreeing with the summary, sidecar and report.
    Returns (errors, size, sha256 of the .set bytes)."""
    errors = []
    meta, elems = read_set_file(set_path)
    size = len(elems)
    if elems != sorted(set(elems)):
        errors.append("elements not sorted and distinct")
    if meta["kind"] == "group":
        if any(len(e) != len(meta["moduli"]) or not all(0 <= r < q for r, q in zip(e, meta["moduli"]))
               for e in elems):
            errors.append("residue out of range")
    elif elems and not (1 <= elems[0] and elems[-1] <= meta["bound"]):
        errors.append("integer out of range")
    found = count_progressions(meta, elems)
    if found:
        errors.append(f"{found} progressions in emitted set")
    if summary.get("size") != size or meta.get("size") != size:
        errors.append("size disagrees with summary or sidecar")
    if summary.get("verified") is not True:
        errors.append("construct did not report a certificate")
    report = json.loads(set_path.with_suffix(".report.json").read_text())
    if report.get("pass") is not True or report.get("checked") != math.comb(size, 2):
        errors.append("stored certificate disagrees")
    return errors, size, hashlib.sha256(set_path.read_bytes()).hexdigest()


def check_op(op, rc: int, stdout: str, outdir: Path):
    """Errors for one operation; for a construct also (size, set digest)."""
    try:
        objs = json_objects(stdout) if op.argv[0] != "compare" else []
    except json.JSONDecodeError:
        return [f"unparseable stdout (rc={rc})"], None
    cmd = op.argv[2] if op.argv[0] == "--threads" else op.argv[0]
    if cmd == "construct":
        if rc != 0 or len(objs) != 1:
            return [f"construct exit {rc}"], None
        errors, size, digest = check_emitted(outdir / f"{op.set_name}.set", objs[0])
        return errors, (size, digest)
    if cmd == "verify":
        meta, elems = read_set_file(Path(op.argv[op.argv.index("--set") + 1]))
        expect = op.expect_counterexamples or 0
        if rc != (1 if expect else 0) or len(objs) != 1:
            return [f"verify exit {rc}, expected {1 if expect else 0}"], None
        rep, errors = objs[0], []
        if rep["pass"] != (expect == 0) or rep["checked"] != math.comb(len(elems), 2):
            errors.append("verify verdict or pair count wrong")
        if op.expect_counterexamples is not None:
            if len(rep["counts"].get("all_counterexamples", [])) != expect:
                errors.append("counterexample count wrong")
        elif count_progressions(meta, elems):
            errors.append("re-certified set has progressions")
        return errors, None
    if rc != 0:
        return [f"{cmd} exit {rc}"], None
    if cmd == "check":
        if len(objs) != 4 or not all(r["pass"] and r["counts"]["violations"] == 0 for r in objs):
            return ["sweep reports a violation"], None
    elif cmd == "area":
        last = objs[-1]
        if not (last["oracles_agree"] and last["bound_ok"] and last["piece_bounds_ok"]):
            return ["area oracles disagree"], None
    elif cmd == "density":
        if not objs[0]["pass"]:
            return ["density estimate off"], None
    elif cmd == "compare":
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        if not rows or any(row[-1] != "True" for row in rows):
            return ["compare row not certified"], None
    return [], None
