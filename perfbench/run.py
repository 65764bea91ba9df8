"""apfree benchmark: drives the `apfree` CLI in-process on one workload.

    python3 perfbench/run.py --workload torus-large --seed 1 --seconds 20 --trace 0

One closed-loop client runs each workload's operations back to back
through `apfree.cli.main(argv)`.  With `--trace 0` it repeats whole passes
until `--seconds` have gone by and reports the end-to-end metrics (each
operation's median over passes, rescaled to a reference host speed by a
short probe around it); with `--trace 1` it runs one untraced and one
traced pass and reports the per-layer metrics.  Every operation's output is checked
independently (see check.py).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_op  # noqa: E402
from workloads import CERTIFY, CONSTRUCT, SWEEP, WORKLOADS, Op  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_N = 9  # set-ups timed per run, spread over it
# the probe's time on the reference machine (2 vCPUs of an Intel Xeon at
# 2.0 GHz, Python 3.11, numpy 2.4) when its host is quiet: its 5th
# percentile over many runs
REFERENCE_PROBE_S = 0.0028
DIGESTS = HERE / "digests.json"


@dataclass
class PassResult:
    wall: float
    latencies: list = field(default_factory=list)  # raw seconds per operation
    scaled: list = field(default_factory=list)     # the same at reference host speed
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # set name -> sha256
    set_size: int = 0


def run_op(cli, op: Op) -> tuple[int | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a wrong outcome, not a benchmark crash
            rc = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


_PROBE_DATA = np.random.default_rng(0).random(20_000)


def host_probe() -> float:
    """Seconds for a fixed ~3 ms mix of interpreter, numpy and `Fraction`
    work that does not touch apfree: a gauge of the host's current speed.
    Each part alone tracks some workloads poorly (`Fraction` the numpy-bound
    certificates, the integer loop the `Fraction`-bound torus builds); the
    sum tracks all three."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    np.sort(_PROBE_DATA)
    total = Fraction(0)
    for i in range(600):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """`seconds` rescaled to the host speed at which the probe takes
    REFERENCE_PROBE_S, using the probes taken just before and after."""
    return seconds * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)


def run_pass(cli, ops: list[Op], outdir: Path, expected_digests: dict | None) -> PassResult:
    """Run the operations back to back, then check every output (untimed)."""
    outdir.mkdir(parents=True, exist_ok=True)
    raw, probes = [], [host_probe()]
    t0 = time.perf_counter()
    for op in ops:
        raw.append((op, *run_op(cli, op)))
        probes.append(host_probe())
    res = PassResult(wall=time.perf_counter() - t0)
    for i, (op, rc, stdout, stderr, dt) in enumerate(raw):
        res.latencies.append(dt)
        res.scaled.append(at_reference_speed(dt, probes[i], probes[i + 1]))
        res.attempted += 1
        errors, emitted = check_op(op, rc, stdout, outdir) if rc is not None else (
            [f"traceback: {stderr.strip().splitlines()[-1]}"], None)
        if emitted is not None:
            size, digest = emitted
            res.set_size += size
            res.digests[op.set_name] = digest
            if expected_digests is not None and expected_digests.get(op.set_name) != digest:
                errors.append("set digest differs from the seed commit")
        if errors:
            res.failed += 1
            res.errors.append(f"{op.label}: {'; '.join(errors)}")
    return res


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when that percentile would not be above
    the median (twenty samples or fewer)."""
    xs, n = sorted(latencies), len(latencies)
    if n <= 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure_setup() -> tuple[float, float]:
    """(raw, reference-speed) seconds of one fresh interpreter running
    `import apfree.cli`.  The child inherits a pin to one CPU, so the probes
    around it gauge the CPU it runs on."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        before = host_probe()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import apfree.cli"], cwd=ROOT, env=env, check=True)
        dt = time.perf_counter() - t0
        after = host_probe()
    finally:
        os.sched_setaffinity(0, allowed)
    return dt, at_reference_speed(dt, before, after)


def environment(seed: int, workload: str) -> dict:
    import numpy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "apfree").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": _commit(),
        "source_sha256": src_hash.hexdigest(),
    }


def _commit() -> str | None:
    """HEAD of the checkout's own git directory, read without running git so
    that nothing outside the checkout is consulted; None outside git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def end_to_end(cli, wl, args, prepared, expected) -> tuple[dict, list[PassResult]]:
    """Repeat whole passes for `--seconds`, timing set-ups spread over the run.

    Every pass runs the same operations in the same order.  Each timing is
    rescaled to the reference host speed by the probes around it (see
    README.md, "Noise"), and each operation's figure is its median over the
    passes; the time metrics sum those medians.  Raw figures are printed too."""
    passes, setups = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        ops = wl.ops(args.seed, args.work / "out", prepared)
        passes.append(run_pass(cli, ops, args.work / "out", expected))
        if len(setups) < SETUP_N * (time.perf_counter() - t0) / args.seconds:
            setups.append(measure_setup())
    while len(setups) < SETUP_N:
        setups.append(measure_setup())
    per_op = lambda attr: [statistics.median(ts) for ts in zip(*(getattr(p, attr) for p in passes))]  # noqa: E731
    scaled, raw = per_op("scaled"), per_op("latencies")
    metrics = _time_metrics(scaled, ops, statistics.median(s for _, s in setups))
    metrics["set_size"] = (statistics.median(p.set_size for p in passes), "count")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    print("pass wall_s (raw) " + " ".join(f"{p.wall:.3f}" for p in passes))
    print("setup_s (raw) " + " ".join(f"{r:.3f}" for r, _ in setups))
    print(f"passes={len(passes)} ops_per_pass={len(scaled)} "
          f"op_tail_ms is p{tail(scaled)[1]:.2f} of {len(scaled)} operations")
    raw_metrics = _time_metrics(raw, ops, statistics.median(r for r, _ in setups))
    print("raw " + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw_metrics.items()))
    return metrics, passes


def _time_metrics(per_op: list[float], ops: list[Op], setup: float) -> dict:
    by_kind = lambda kind: sum(t for t, op in zip(per_op, ops) if op.kind == kind)  # noqa: E731
    return {
        "setup_s": (setup, "s"),
        "wall_s": (sum(per_op), "s"),
        "construct_s": (by_kind(CONSTRUCT), "s"),
        "certify_s": (by_kind(CERTIFY), "s"),
        "sweep_s": (by_kind(SWEEP), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail(per_op)[0] * 1e3, "ms"),
    }


def traced(cli, wl, args, prepared, expected) -> tuple[dict, list[PassResult], list[str]]:
    from tracer import Tracer

    plain = run_pass(cli, wl.ops(args.seed, args.work / "untraced", prepared),
                     args.work / "untraced", expected)
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = run_pass(cli, wl.ops(args.seed, args.work / "traced", prepared),
                               args.work / "traced", expected)
    finally:
        tracer.uninstall()
    metrics = {k: (v, _unit(k)) for k, v in tracer.layer_metrics().items()}
    one = Op(SWEEP, ["--threads", "1", *wl.sweep.argv[2:]], "sweep 1 worker")
    two = Op(SWEEP, ["--threads", "2", *wl.sweep.argv[2:]], "sweep 2 workers")
    metrics["gridscan.speedup_2w"] = (run_op(cli, one)[3] / run_op(cli, two)[3], "ratio")
    metrics["trace.overhead_ratio"] = (traced_pass.wall / plain.wall, "ratio")
    self_check = tracer.completeness_errors()
    for name in plain.digests:
        if plain.digests[name] != traced_pass.digests.get(name):
            self_check.append(f"{name}.set differs between traced and untraced passes")
    return metrics, [plain, traced_pass], self_check


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "storage.bytes_written":
        return "bytes"
    if name == "groups.enumerations_per_set":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apfree" / "cli.py").is_file():
        sys.stderr.write(f"no apfree sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import apfree.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "apfree":
        sys.stderr.write(f"imported apfree from {cli.__file__}, not from {SRC}\n")
        return 2
    wl = WORKLOADS[args.workload]
    args.work = ROOT / ".perfbench_work" / wl.name
    shutil.rmtree(args.work, ignore_errors=True)
    env = environment(args.seed, wl.name)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = recorded.get(wl.name, {}).get(str(args.seed))
    prepared = wl.prepare(args.seed, args.work / "inputs")
    warm = ["--outdir", str(args.work / "warmup")] if wl.warmup[0] == "construct" else []
    run_op(cli, Op("warmup", wl.warmup + warm, "warm-up"))

    self_check: list[str] = []
    if args.trace:
        metrics, passes, self_check = traced(cli, wl, args, prepared, expected)
    else:
        metrics, passes = end_to_end(cli, wl, args, prepared, expected)
    # in a traced run the self-check counts as one more checked operation
    attempted = sum(p.attempted for p in passes) + args.trace
    failed = sum(p.failed for p in passes) + bool(self_check)
    env["loadavg_end"] = os.getloadavg()
    env["digests_checked"] = expected is not None
    print("env " + json.dumps(env, sort_keys=True))
    for line in sorted({e for p in passes for e in p.errors}) + self_check:
        print(f"FAIL {line}")
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} operations)")
    if args.trace:
        print("trace self-check " + ("passed" if not self_check else "FAILED"))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
