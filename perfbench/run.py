"""Run one benchmark workload against the gffforge sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the src/ directory beside perfbench/.  The
run builds the workload's inputs from the seed, then repeats whole rounds
of the workload's operations: as many as fit in S seconds at the
workload's nominal round time (at least one).  Every operation is checked
against an independent oracle (oracles.py) outside the timed region.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end:
median round wall and CPU time, peak RSS and the median of three timed
set-ups.  With ``--trace 1`` rounds alternate untraced and traced, the
metrics are the per-layer numbers of the traced rounds (spans.PER_LAYER),
and the traced-minus-untraced wall time is reported as tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
SETUP_REPEATS = 3
MAX_THREADS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: only import and build the inputs, for the set-up timing
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def load_program():
    """Import gffforge from src/ of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gffforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no gffforge sources under {src}")
    # cap worker threads so the workload is the same on any core count
    cap = min(MAX_THREADS, os.cpu_count() or 1)
    threads = min(int(os.environ.get("GFFFORGE_THREADS", cap)), cap)
    os.environ["GFFFORGE_THREADS"] = str(threads)
    sys.path.insert(0, str(src))
    import gffforge

    if Path(gffforge.__file__).resolve().parent != (src / "gffforge").resolve():
        raise SystemExit(f"error: imported gffforge from {gffforge.__file__}, not {src}")
    import workloads

    return workloads


def build(workloads, name: str, seed: int):
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT_DIR))
    return workloads.WORKLOADS[name](seed, workdir), workdir


def timed_setups(args) -> list:
    """Wall time of SETUP_REPEATS fresh processes that start the interpreter,
    import numpy, scipy and gffforge and build this workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def output_bytes(paths) -> int:
    total = 0
    for p in map(Path, paths):
        if p.is_file():
            total += p.stat().st_size
        elif p.is_dir():
            total += sum(f.stat().st_size for f in p.rglob("*") if f.is_file())
    return total


def run_round(workloads, wl, tracer=None) -> dict:
    """Run each operation of one round; time only the call, then check it."""
    wall = cpu = 0.0
    failed = wrong = 0
    lines = []
    for op in wl.ops():
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.call()
            error = None
        except Exception:
            out, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        dt = time.perf_counter() - t0
        wall += dt
        cpu += time.process_time() - c0
        if error is not None:
            failed += 1
            lines.append(f"FAIL {op.name} ({dt:.2f} s): raised {error}")
            continue
        if tracer is not None and op.outputs:
            tracer.count("cli.output_bytes", output_bytes(op.outputs))
        try:
            lines.append(f"ok   {op.name} ({dt:.2f} s): {op.check(out)}")
        except workloads.CheckFailed as exc:
            failed += 1
            wrong += 1
            lines.append(f"FAIL {op.name} ({dt:.2f} s): {exc}")
        except Exception:
            failed += 1
            lines.append(f"FAIL {op.name} ({dt:.2f} s): check raised {traceback.format_exc(limit=3).strip().splitlines()[-1]}")
        finally:
            out = None  # release this output before the next call starts
    return {"wall": wall, "cpu": cpu, "attempted": len(lines), "failed": failed, "wrong": wrong, "lines": lines}


def round_plan(args, wl) -> list:
    """Whether each round of this run is traced.

    The count comes from the workload's nominal round time on the reference
    box, not from the clock, so a run attempts the same rounds on a quiet
    or a busy machine; a traced run alternates untraced and traced rounds
    and has at least one of each.
    """
    n = max(1, int(args.seconds // wl.ROUND_SECONDS))
    if not args.trace:
        return [False] * n
    return [k % 2 == 1 for k in range(max(2, n))]


def measure(args, workloads, wl) -> dict:
    rounds, traced, tracers = [], [], []
    for k, with_trace in enumerate(round_plan(args, wl)):
        if with_trace:
            tracer = spans.Tracer()
            with tracer.installed():
                res = run_round(workloads, wl, tracer)
            traced.append(res)
            tracers.append(tracer)
        else:
            res = run_round(workloads, wl)
            rounds.append(res)
        for line in res["lines"]:
            if k == 0 or line.startswith("FAIL"):
                print(line, file=sys.stderr)
        print(f"round {k + 1}{' traced' if with_trace else ''}: wall {res['wall']:.3f} s, cpu {res['cpu']:.3f} s",
              file=sys.stderr)
    every = rounds + traced
    result = {
        "correct": all(r["wrong"] == 0 for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
    }
    if args.trace:
        per_round = [t.metrics() for t in tracers]
        untraced = statistics.median(r["wall"] for r in rounds)
        overhead = statistics.median(r["wall"] for r in traced) - untraced
        metrics = {}
        for name, unit in spans.PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead
            elif name == "trace.overhead_ratio":
                value = overhead / untraced
            else:
                value = statistics.median(m[name] for m in per_round)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in rounds), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    result["metrics"] = metrics
    print(f"{args.workload}: seed {args.seed}, {len(every)} round(s), "
          f"GFFFORGE_THREADS={os.environ['GFFFORGE_THREADS']}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_program()
    wl, workdir = build(workloads, args.workload, args.seed)
    try:
        if args.setup_only:
            return 0
        setups = [] if args.trace else timed_setups(args)
        result = measure(args, workloads, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setups:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    verdicts = getattr(wl, "verdict_line", None)
    if verdicts is not None:
        print(verdicts())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
