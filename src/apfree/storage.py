"""Set files and their JSON sidecars.

Layout: <outdir>/<name>.set (one element per line: residues
comma-separated, or a decimal integer), <name>.json (provenance sidecar),
<name>.report.json (verification report).  All files are deterministic
functions of the construction parameters: keys are sorted and timing is
never written.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dsets import DiscreteSet
from .verify import Progressions, VerificationReport


_quote = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


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
        return _value(obj, "\n") + "\n"
    except (_Unsupported, ValueError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2, default=_expand) + "\n"


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


def _value(obj, pad: str) -> str:
    """obj as JSON whose later lines start with ``pad``, a newline and the
    indent of the line obj starts on."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = pad + "  "
        if _only_ints(obj):
            body = ("," + inner).join(map(int.__repr__, obj))
        else:
            body = ("," + inner).join([_value(v, inner) for v in obj])
        return "[" + inner + body + pad + "]"
    if kind is Progressions:
        return _progressions(obj, pad)
    if kind is dict:
        if not obj:
            return "{}"
        if not all(type(key) is str for key in obj):
            raise _Unsupported
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(key) + ": " + _value(obj[key], inner) for key in sorted(obj)]
        ) + pad + "}"
    if kind is bool or obj is None:
        return _LITERALS[obj]
    raise _Unsupported


def _progressions(obj: Progressions, pad: str) -> str:
    """A Progressions as the list of its dicts: each element it names is
    written once, from one template for the shape that every checked
    element shares (an int, or a tuple of ints of one length), and each
    progression fills one template with the texts of its x, y and z."""
    if not obj:
        return "[]"
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
    # the brackets go into the format string, so the list's text is made once
    text = "[" + inner + ("," + inner).join([template] * len(obj)) + pad + "]"
    return text % tuple(texts[where])


def write_set(dset: DiscreteSet, outdir: str | Path, name: str,
              report: VerificationReport | None = None) -> dict[str, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"set": outdir / f"{name}.set", "sidecar": outdir / f"{name}.json"}
    paths["set"].write_text("".join(line + "\n" for line in dset.element_lines()))
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
    paths["sidecar"].write_text(dump_json(sidecar))
    if report is not None:
        paths["report"] = outdir / f"{name}.report.json"
        paths["report"].write_text(dump_json(report.to_jsonable()))
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
