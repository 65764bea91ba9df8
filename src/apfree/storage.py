"""Set files and their JSON sidecars.

Layout: <outdir>/<name>.set (one element per line: residues
comma-separated, or a decimal integer), <name>.json (provenance sidecar),
<name>.report.json (verification report).  All files are deterministic
functions of the construction parameters: keys are sorted and timing is
never written.  A write replaces each file rather than rewriting it in
place (``replace_text``), and a set written without a report removes the
report an earlier write left under its name.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np

from .dsets import DiscreteSet
from .verify import Progressions, VerificationReport


_quote = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}
# progressions written to one piece of a ``verify --all`` list
_STEP = 1 << 12


class _Unsupported(Exception):
    """A value the exact writer leaves to the stdlib encoder."""


def dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    With ``indent`` the stdlib falls back to its pure-Python encoder, so
    dicts with str keys, lists, tuples, strs, exact ints, bools, None and
    the Progressions of a ``verify --all`` report are written here;
    anything else (floats, other key types, int subclasses such as numpy
    scalars, cycles, ints past the str conversion limit) goes to the
    stdlib, which then decides the bytes or the exception, a Progressions
    inside it being written as the list it equals."""
    try:
        out = []
        _write(obj, "\n", out)
    except (_Unsupported, ValueError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2, default=_expand) + "\n"
    out.append("\n")
    return "".join(out)


def _expand(obj):
    # the stdlib encoder's hook for a value it cannot write: a Progressions
    # is written as the list it equals, and anything else is refused as
    # the stdlib refuses it
    if type(obj) is Progressions:
        return list(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _only_ints(values) -> bool:
    # type(), not isinstance: bool is an int subclass and prints true/false
    return set(map(type, values)) == {int}


def _write(obj, pad: str, out: list) -> None:
    """Append the pieces of obj's JSON, whose later lines start with
    ``pad`` (a newline and the indent of the line obj starts on), to out.
    dump_json joins them once, so a large value's text, such as a
    ``verify --all`` list, is copied once, not once per level it is nested
    in."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        if _only_ints(obj):
            out += ("[", inner, ("," + inner).join(map(int.__repr__, obj)), pad, "]")
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out += (pad, "]")
    elif kind is Progressions:
        _progressions(obj, pad, out)
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        if not all(type(key) is str for key in obj):
            raise _Unsupported
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out += (sep, _quote(key), ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out += (pad, "}")
    elif kind is bool or obj is None:
        out.append(_LITERALS[obj])
    else:
        raise _Unsupported


def _progressions(obj: Progressions, pad: str, out: list) -> None:
    """Append a Progressions as the list of its dicts: each element it
    names is written once, from one template for the shape that every
    checked element shares (an int, or a tuple of ints of one length), and
    each progression fills one template with the texts of its x, y and z,
    _STEP progressions to a piece, so no template is as long as the list."""
    if not obj:
        out.append("[]")
        return
    inner, deeper = pad + "  ", pad + "    "
    used, where = np.unique(obj.xyz.ravel(), return_inverse=True)
    points = [obj.elements[i] for i in used.tolist()]
    element = "%d"
    if type(points[0]) is tuple:
        # a group element is the list of its residues
        item = deeper + "  "
        element = "[" + item + ("," + item).join(["%d"] * len(points[0])) + deeper + "]"
        if not points[0]:
            element = "[]"
    texts = np.array([element % point for point in points], dtype=object)
    template = "{" + deeper + deeper.join(['"x": %s,', '"y": %s,', '"z": %s']) + inner + "}"
    sep = "," + inner
    full = sep.join([template] * _STEP) if len(obj) >= _STEP else None
    out.append("[" + inner)
    for lo in range(0, len(obj), _STEP):
        part = texts[where[3 * lo:3 * (lo + _STEP)]]
        if lo:
            out.append(sep)
        out.append((full if len(part) == 3 * _STEP else sep.join([template] * (len(part) // 3)))
                   % tuple(part))
    out += (pad, "]")


def _replaceable(path: Path) -> bool:
    """Whether path holds nothing, a regular file, a symlink to one or a
    dangling symlink: what a write may unlink."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True


def replace_text(path: Path, text: str) -> None:
    """Write text to path.  A regular file at path, a symlink to one or a
    dangling symlink is unlinked first and a fresh file created:
    truncating an existing file makes ext4 (auto_da_alloc) flush it on
    close, which costs several times the write, and such a symlink is
    replaced, never followed.  Rewriting in place and truncating to the
    new length would avoid both, but an interrupted write of a shorter
    text would leave the old file's tail behind it.  Anything else, such
    as a device, a FIFO or a symlink to one (``compare --out /dev/null``),
    is written through as ``open(path, "w")`` does and never unlinked."""
    if _replaceable(path):
        path.unlink(missing_ok=True)
        # O_EXCL: a file made at path since the unlink is an error, never
        # written through
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    else:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    data = memoryview(text.encode())
    fd = os.open(path, flags, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def write_set(dset: DiscreteSet, outdir: str | Path, name: str,
              report: VerificationReport | None = None) -> dict[str, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"set": outdir / f"{name}.set", "sidecar": outdir / f"{name}.json"}
    report_path = outdir / f"{name}.report.json"
    # a report left by an earlier write would certify another set: it goes
    # first, and a new one is written last, so no write, even one cut
    # short, leaves a report beside a set it did not certify
    if _replaceable(report_path):
        report_path.unlink(missing_ok=True)
    lines = dset.element_lines()
    replace_text(paths["set"], "\n".join(lines) + "\n" if lines else "")
    sidecar = {
        "kind": dset.kind,
        "moduli": list(dset.moduli) if dset.moduli else None,
        "bound": dset.bound,
        "size": dset.size,
        "provenance": dset.provenance,
        "verified": bool(report.passed) if report is not None else False,
    }
    if report is None:
        sidecar["watermark"] = "UNCERTIFIED"
    replace_text(paths["sidecar"], dump_json(sidecar))
    if report is not None:
        paths["report"] = report_path
        replace_text(report_path, dump_json(report.to_jsonable()))
    return paths


def _json_int(value, field: str) -> int:
    # bool is an int subclass, and int() truncates 2.5 and overflows on 1e400
    if type(value) is not int:
        raise TypeError(f"{field} must be a JSON integer, got {json.dumps(value)}")
    return value


def read_set(set_path: str | Path, sidecar_path: str | Path | None = None) -> DiscreteSet:
    set_path = Path(set_path)
    sidecar_path = Path(sidecar_path) if sidecar_path else set_path.with_suffix(".json")
    try:
        meta = json.loads(sidecar_path.read_text())
        lines = [ln for ln in set_path.read_text().splitlines() if ln.strip()]
        kind, provenance = meta["kind"], meta.get("provenance", {})
        if kind not in ("group", "integer"):
            raise TypeError(f'kind must be "group" or "integer", got {json.dumps(kind)}')
        if type(provenance) is not dict:
            raise TypeError(f"provenance must be a JSON object, got {json.dumps(provenance)}")
        # the name a report gives as its subject
        if type(provenance.get("construction", "")) is not str:
            raise TypeError("provenance.construction must be a JSON string, got "
                            f"{json.dumps(provenance['construction'])}")
        # a sidecar written with the set names its size; hand-written ones may not
        if "size" in meta and _json_int(meta["size"], "size") != len(lines):
            raise ValueError(f"{set_path} has {len(lines)} element lines, but its sidecar "
                             f"{sidecar_path} gives size {meta['size']}")
        # the set's normaliser converts and checks the residues
        if kind == "group":
            return DiscreteSet(
                kind=kind, moduli=tuple(_json_int(m, "modulus") for m in meta["moduli"]),
                elements=[ln.split(",") for ln in lines], provenance=provenance)
        return DiscreteSet(kind=kind, bound=_json_int(meta["bound"], "bound"),
                           elements=lines, provenance=provenance)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed set/sidecar at {set_path}: {exc}") from exc
