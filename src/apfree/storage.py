"""Set files and their JSON sidecars.

Layout: <outdir>/<name>.set (one element per line: residues
comma-separated, or a decimal integer), <name>.json (provenance sidecar),
<name>.report.json (verification report).  All files are deterministic
functions of the construction parameters: keys are sorted and timing is
never written.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from pathlib import Path

from .dsets import DiscreteSet
from .verify import VerificationReport


_quote = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


class _Unsupported(Exception):
    """A value the exact writer leaves to the stdlib encoder."""


def dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    With ``indent`` the stdlib falls back to its pure-Python encoder, so
    dicts with str keys, lists, tuples, strs, exact ints, bools and None
    are written here; anything else (floats, other key types, int
    subclasses such as numpy scalars, cycles, ints past the str conversion
    limit) goes to the stdlib, which then decides the bytes or the
    exception."""
    try:
        return _value(obj, "\n") + "\n"
    except (_Unsupported, ValueError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
            body = _uniform_dicts(obj, inner)
            if body is None:
                body = ("," + inner).join([_value(v, inner) for v in obj])
        return "[" + inner + body + pad + "]"
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


def _uniform_dicts(items, inner: str) -> str | None:
    """The items of a list of two or more dicts of one shape (the same str
    keys; every value an int or a non-empty int list, each list as long in
    every item), written by one format template; None for any other list."""
    first = items[0]
    if len(items) < 2 or type(first) is not dict or not first:
        return None
    if not all(type(key) is str for key in first):
        return None
    keys = first.keys()
    if not all(type(item) is dict and item.keys() == keys for item in items):
        return None
    names = sorted(keys)
    columns = [list(map(itemgetter(name), items)) for name in names]
    # per key: None for an int, else the length of its int lists
    fields = []
    for column in columns:
        if _only_ints(column):
            fields.append(None)
            continue
        if not set(map(type, column)) <= {list, tuple}:
            return None
        lengths = set(map(len, column))
        if len(lengths) != 1 or 0 in lengths or not _only_ints(chain.from_iterable(column)):
            return None
        fields.append(lengths.pop())
    deeper, deepest = inner + "  ", inner + "    "
    parts = []
    for name, length in zip(names, fields):
        slot = "%d" if length is None else (
            "[" + deepest + ("," + deepest).join(["%d"] * length) + deeper + "]")
        parts.append(_quote(name).replace("%", "%%") + ": " + slot)
    template = "{" + deeper + ("," + deeper).join(parts) + inner + "}"
    # the fill values in template order; an int becomes a 1-tuple
    rows = zip(*[zip(column) if length is None else column
                 for column, length in zip(columns, fields)])
    values = tuple(chain.from_iterable(chain.from_iterable(rows)))
    return ("," + inner).join([template] * len(items)) % values


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
        if kind == "group":
            return DiscreteSet(
                kind=kind, moduli=tuple(_json_int(m, "modulus") for m in meta["moduli"]),
                elements=tuple(tuple(int(r) for r in ln.split(",")) for ln in lines),
                provenance=provenance)
        if kind == "integer":
            return DiscreteSet(kind=kind, bound=_json_int(meta["bound"], "bound"),
                               elements=tuple(int(ln) for ln in lines), provenance=provenance)
        raise TypeError(f'kind must be "group" or "integer", got {json.dumps(kind)}')
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed set/sidecar at {set_path}: {exc}") from exc
