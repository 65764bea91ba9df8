"""Command-line front door.

Subcommands: area, construct, check, compare, density, verify.  Exit
codes: 0 pass, 1 verification failure, 2 usage error.  Rational-valued
flags are "p/q" strings; APFREE_THREADS mirrors --threads.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import warnings
from fractions import Fraction

from .baselines import behrend_set, halfbox_set
from .blocks import BuildingBlock, PIECE_LABELS
from .budget import BudgetError
from .dsets import DiscreteSet
from .groups import BuildOptions, build_fpn_set, build_group_set
from .integers import ParameterError, build_integer_set, build_integer_set_direct
from .rational import decimal_str, parse_point, parse_rational, rat_str
from .storage import dump_json, read_set, write_set
from .verify import SWEEP_SUBJECTS, area_oracle, check_sweeps, density_estimate


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _moduli(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad moduli list {text!r}") from exc


def _shift(text: str) -> tuple[Fraction, ...]:
    try:
        return parse_point(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _default_threads() -> int:
    raw = os.environ.get("APFREE_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"APFREE_THREADS={raw!r} is not an integer") from None


def _print(obj) -> None:
    sys.stdout.write(dump_json(obj))


def _report_lines(report) -> None:
    _print(report.to_jsonable())
    sys.stderr.write(
        f"[{report.subject}] pass={report.passed} checked={report.checked} "
        f"elapsed={report.elapsed:.3f}s\n"
    )


def cmd_area(args) -> int:
    block = BuildingBlock(args.epsilon)
    stated = block.piece_areas()
    total = sum(stated.values(), Fraction(0))
    if args.polygons:
        for poly in block.piece_polygons().values():
            _print(poly.to_jsonable())
    for piece in (1, 2, 3):
        _print(
            {
                "piece": PIECE_LABELS[piece],
                "exact": rat_str(stated[piece]),
                "approx": decimal_str(stated[piece]),
            }
        )
    _print({"piece": "total", "exact": rat_str(total), "approx": decimal_str(total)})
    oracle = area_oracle(args.epsilon)
    # the oracle reports each clipped area as its canonical rat_str
    clipped = oracle.parameters["areas"]
    agree = all(rat_str(stated[k]) == clipped[PIECE_LABELS[k]] for k in stated)
    bound_ok = total >= Fraction(7, 24) - args.epsilon
    _print(
        {
            "check": "area",
            "oracles_agree": agree,
            "lower_bound": rat_str(Fraction(7, 24) - args.epsilon),
            "bound_ok": bound_ok,
            "piece_bounds_ok": oracle.passed,
        }
    )
    return 0 if (agree and bound_ok and oracle.passed) else 1


def _apply_config(args) -> None:
    """Fill construct parameters (the keys of ``_PARAMETERS``) from a JSON
    object config; explicit flags win.  Each value is spelled as its flag's
    text, a list joined by commas, and read by the flag's own type."""
    with open(args.config) as fh:
        config = json.load(fh)
    if type(config) is not dict:
        raise ValueError(f"config {args.config} must hold a JSON object")
    for key, value in config.items():
        if key not in _PARAMETERS:
            raise ValueError(f"unknown config key {key!r}")
        text = ",".join(map(str, value)) if type(value) is list else str(value)
        try:
            value = _FLAG_TYPES[key](text)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
        if getattr(args, key) is None:
            setattr(args, key, value)


def _build(args) -> DiscreteSet:
    given = dict(epsilon=args.epsilon, delta=args.delta, trials=args.trials, seed=args.seed,
                 shift=args.shift, slice_index=args.slice_j)
    # a flag not given keeps BuildOptions' default
    options = BuildOptions(**{k: v for k, v in given.items() if v is not None})
    return _KINDS[args.kind][2](args, options)


def _default_name(args, dset: DiscreteSet) -> str:
    kind = args.kind.replace("-", "_")
    if dset.kind == "group":
        core = "x".join(str(m) for m in dset.moduli)
    else:
        core = f"N{dset.bound}"
    seed = getattr(args, "seed", None)
    return f"{kind}_{core}" + (f"_s{seed}" if seed is not None else "")


def cmd_construct(args) -> int:
    dset = _build(args)
    report = None
    if not args.no_verify:
        report = dset.verify()
        if not report.passed:
            _print(report.to_jsonable())
            sys.stderr.write("verification FAILED; refusing to write the set\n")
            return 1
    name = args.name or _default_name(args, dset)
    paths = write_set(dset, args.outdir, name, report)
    summary = {
        "name": name,
        "kind": args.kind,
        "size": dset.size,
        "universe": dset.universe,
        "density": rat_str(dset.density),
        "files": {k: str(p) for k, p in paths.items()},
        "verified": None if report is None else report.passed,
    }
    _print(summary)
    return 0


def cmd_check(args) -> int:
    kinds = tuple(SWEEP_SUBJECTS) if args.props == "all" else (args.props,)
    reports = check_sweeps(kinds, args.epsilon, args.Q, args.threads)
    for report in reports:
        _report_lines(report)
    return 0 if all(r.passed for r in reports) else 1


def cmd_compare(args) -> int:
    """One row per route; a route whose build or certificate is refused gets a
    refused row and a warning, and if every route is refused, an error."""
    rows, refusals, ok = [], [], True
    for label, kind in _ROUTES[args.context]:
        try:
            dset = _KINDS[kind][2](args, BuildOptions(seed=args.seed))
            passed = dset.verify(subject=label).passed
        except (BudgetError, ParameterError) as exc:
            warnings.warn(f"{label} refused: {exc}")
            refusals.append(exc)
            rows.append([label, "", "", "", "refused"])
            continue
        ok, universe = ok and passed, dset.universe
        rows.append([label, dset.size, rat_str(dset.density), decimal_str(dset.density), passed])
    if len(refusals) == len(rows):
        raise refusals[0]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["construction", "universe", "size", "density", "density_approx", "certified"])
    # every route's set lies in the same universe
    writer.writerows([label, universe, *cells] for label, *cells in rows)
    text = buf.getvalue()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if ok else 1


def cmd_density(args) -> int:
    report = density_estimate(args.epsilon, args.m)
    _report_lines(report)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    dset = read_set(args.set, args.sidecar)
    report = dset.verify(all_counterexamples=args.all)
    _report_lines(report)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apfree",
        description="Construct, certify and measure progression-free sets "
        "with exact rational arithmetic.",
    )
    parser.add_argument("--threads", type=int, default=_default_threads(),
                        help="worker cap for grid sweeps (env APFREE_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_area = sub.add_parser("area", help="piece and total block areas, dual oracles")
    p_area.add_argument("--epsilon", type=_rational, required=True)
    p_area.add_argument("--polygons", action="store_true",
                        help="also print the piece polygons as rational-string JSON")
    p_area.set_defaults(fn=cmd_area)

    p_con = sub.add_parser("construct", help="build, certify and write a set")
    p_con.add_argument("kind", choices=list(_KINDS))
    for dest, flag_type in _FLAG_TYPES.items():
        p_con.add_argument("--" + dest.replace("_", "-"), dest=dest, type=flag_type,
                           help="comma-separated, e.g. 12,12" if dest == "moduli" else None)
    p_con.add_argument("--outdir", default="out")
    p_con.add_argument("--name", default=None)
    p_con.add_argument("--no-verify", action="store_true",
                       help="skip certification; sidecar is watermarked UNCERTIFIED")
    p_con.add_argument("--config", default=None,
                       help="JSON file with construction parameters; flags override")
    p_con.set_defaults(fn=cmd_construct)

    p_chk = sub.add_parser("check", help="exhaustive grid sweeps of the block facts")
    p_chk.add_argument("props", choices=["all", *SWEEP_SUBJECTS])
    p_chk.add_argument("--epsilon", type=_rational, required=True)
    p_chk.add_argument("--Q", type=int, default=120, help="grid denominator (positive multiple of 24)")
    p_chk.set_defaults(fn=cmd_check)

    p_cmp = sub.add_parser("compare", help="size table: new construction vs baseline")
    p_cmp.add_argument("context", choices=["int", "fpn"])
    p_cmp.add_argument("--N", type=int)
    p_cmp.add_argument("--p", type=int)
    p_cmp.add_argument("--n", type=int)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--out", default=None, help="also write the CSV here")
    # the routes' builders read --n-override, which compare leaves unset
    p_cmp.set_defaults(fn=cmd_compare, n_override=None)

    p_den = sub.add_parser("density", help="grid density of the block vs exact area")
    p_den.add_argument("--epsilon", type=_rational, required=True)
    p_den.add_argument("--m", type=int, required=True)
    p_den.set_defaults(fn=cmd_density)

    p_ver = sub.add_parser("verify", help="re-certify an existing set file")
    p_ver.add_argument("--set", required=True)
    p_ver.add_argument("--sidecar", default=None)
    p_ver.add_argument("--all", action="store_true",
                       help="enumerate every counterexample, not just the first")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


# construct parameter -> the type of its flag, --moduli ... --slice-j
_FLAG_TYPES = {"moduli": _moduli, "p": int, "n": int, "N": int, "n_override": int,
               "epsilon": _rational, "delta": _rational, "trials": int, "seed": int,
               "shift": _shift, "slice_j": int}
_TORUS = ("epsilon", "delta", "trials", "seed", "shift", "slice_j")
# construct kind -> (the parameters it requires, those it may also read, its
# builder from the parsed args and BuildOptions); a parameter a kind does not
# read is refused, not silently dropped
_KINDS = {
    "zm": (("moduli",), _TORUS, lambda args, options: build_group_set(args.moduli, options)),
    "fpn": (("p", "n"), _TORUS, lambda args, options: build_fpn_set(args.p, args.n, options)),
    "int": (("N",), ("n_override", *_TORUS), lambda args, options: build_integer_set(
        args.N, options, n_override=args.n_override)),
    "int-direct": (("N",), ("n_override", "epsilon", "trials", "seed"),
                   lambda args, options: build_integer_set_direct(
                       args.N, n=args.n_override, options=options)),
    "behrend": (("N",), (), lambda args, options: behrend_set(args.N)),
    "halfbox": (("p", "n"), (), lambda args, options: halfbox_set(args.p, args.n)),
}
# compare context -> (label, construct kind) of each route, in table order
_ROUTES = {"int": (("behrend", "behrend"), ("crt-construction", "int"),
                   ("direct-construction", "int-direct")),
           "fpn": (("halfbox", "halfbox"), ("new", "fpn"))}
_PARAMETERS = dict.fromkeys(f for required, optional, _ in _KINDS.values()
                            for f in required + optional)


def _validate(args, parser) -> None:
    if args.command == "construct":
        if args.config is not None:
            _apply_config(args)
        required, optional, _ = _KINDS[args.kind]
        for field in required:
            if getattr(args, field) is None:
                parser.error(f"construct {args.kind} requires --{field}")
        for field in _PARAMETERS:
            if field not in required + optional and getattr(args, field) is not None:
                raise ValueError(f"construct {args.kind} does not read "
                                 f"--{field.replace('_', '-')}")
    if args.command == "compare":
        if args.context == "int" and args.N is None:
            parser.error("compare int requires --N")
        if args.context == "fpn" and (args.p is None or args.n is None):
            parser.error("compare fpn requires --p and --n")


@functools.lru_cache(maxsize=4)
def _parser(threads_env: str | None) -> argparse.ArgumentParser:
    """build_parser() once per raw APFREE_THREADS value, which it reads for
    the --threads default; a bad value raises, so it is never cached."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; its warnings become one ``warning:`` line each
    after a finished command (exit 0 or 1), and are dropped on exit 2."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            parser = _parser(os.environ.get("APFREE_THREADS"))
            args = parser.parse_args(argv)
            _validate(args, parser)
            code = args.fn(args)
        except (ValueError, RuntimeError, OSError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    for w in caught:
        sys.stderr.write("warning: " + " ".join(str(w.message).split()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
