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

from .dsets import DiscreteSet
from .verify import VerificationReport


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
        if meta["kind"] == "group":
            elements = [tuple(int(r) for r in ln.split(",")) for ln in lines]
            return DiscreteSet(kind="group",
                               moduli=tuple(_json_int(m, "modulus") for m in meta["moduli"]),
                               elements=tuple(elements),
                               provenance=meta.get("provenance", {}))
        elements = [int(ln) for ln in lines]
        return DiscreteSet(kind="integer", bound=_json_int(meta["bound"], "bound"),
                           elements=tuple(elements),
                           provenance=meta.get("provenance", {}))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed set/sidecar at {set_path}: {exc}") from exc
