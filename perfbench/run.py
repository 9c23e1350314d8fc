#!/usr/bin/env python3
"""pgrouplab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload aut_census --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The command byte-compiles `src/`, then
starts worker processes one after another, each single-threaded.  A worker
imports pgrouplab and builds the inputs, which is one `setup_s` sample, and
then runs whole rounds of the workload, each in a child forked from that
state so that the program's caches start cold.  The rounds of all workers
together take about `--seconds`, not counting set-ups and output checks.
With `--trace 0` three workers share the time; with `--trace 1` one
untraced and one traced worker do, the per-layer metrics come from the
traced rounds, and `trace.overhead_s` compares the two kinds.

The metric names and units are those of BENCHMARK.json.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  Compiled bytecode, working directories and span
files go under `$CARGO_TARGET_DIR` (default `.bench_build`).  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import bisect
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # untraced workers, each one set-up
# Reported times are scaled to a machine on which worker.reference() takes
# this long, about its time on the machine the README's figures come from.
REFERENCE_S = 0.0005
TAIL_SAMPLES = 10  # op_tail_ms is the operation time with this many operations above it
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# per-layer metrics whose tracer counter has another name
TRACER_COUNTER = {"walk.evolve_steps.steps": "walk.evolve_steps.items",
                  "walk.fourier_steps.steps": "walk.fourier_steps.items"}


class BenchError(Exception):
    pass


def scaled_op_times(rnd: dict) -> list:
    """The round's operation times, each scaled to a machine on which
    `reference()` takes REFERENCE_S: multiplied by REFERENCE_S over the
    faster of the reference samples taken just before and just after it.

    A reference sample, like an operation, can only be slowed by noise, so
    the faster of the two is the better reading of the machine's speed; a
    slow one would shrink the operation's scaled time.
    """
    ends = [end for end, _ in rnd["reference"]]
    secs = [s for _, s in rnd["reference"]]
    out = []
    for t, start in zip(rnd["op_times"], rnd["starts"]):
        before = bisect.bisect_right(ends, start) - 1
        after = bisect.bisect_left(ends, start + t)
        out.append(t * REFERENCE_S / min(secs[before:before + 1] + secs[after:after + 1]))
    return out


def best_op_times(rounds: list) -> list:
    """Each operation's fastest scaled time over the rounds.

    Every round issues the same operations in the same order, each from the
    same cold state.  The machines this runs on change speed by up to 1.7
    times from one moment to the next, in phases from a fraction of a second
    to minutes.  Scaling by the reference measured next to each operation
    takes out most of that; the fastest of several spread-out repeats takes
    out what is left, since that noise only ever adds time.
    """
    lengths = {len(r["op_times"]) for r in rounds}
    if len(lengths) != 1:
        raise BenchError(f"rounds issued different numbers of operations: {sorted(lengths)}")
    return [min(ts) for ts in zip(*(scaled_op_times(r) for r in rounds))]


def child_env(build: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [x for x in [os.environ.get("PYTHONPATH")] if x])
    env["PYTHONPYCACHEPREFIX"] = str(build / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(cfg: dict, env: dict, deadline: float) -> dict:
    """Run one worker in its own process group and return its measurements.

    The worker forks its rounds; whatever happens here, the whole group is
    killed and reaped before this returns or raises.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)], env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {cfg['workload']} ran past the deadline") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(cfg["workdir"], ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {cfg['workload']} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through run_worker, which kills and reaps the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "pgrouplab" / "__init__.py").is_file():
        print(f"no pgrouplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = build if build.is_absolute() else ROOT / build
    (build / "trace").mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(build / "pycache")
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            print(f"byte-compiling {tree} failed", file=sys.stderr)
            return 2
    env = child_env(build)

    traced_workers = [False, True] if args.trace else [False] * SETUP_SAMPLES
    workers = []  # (traced, measurements)
    used = 0.0  # seconds of rounds so far; a worker's unused share passes to the next
    try:
        for n, traced in enumerate(traced_workers):
            cfg = {"workload": args.workload, "seed": args.seed, "trace": traced, "check": n == 0,
                   "seconds": args.seconds * (n + 1) / len(traced_workers) - used, "root": str(ROOT),
                   "workdir": str(build / "runs" / f"{os.getpid()}-{n}"),
                   "spans_path": str(build / "trace" / f"{args.workload}.jsonl")}
            workers.append((traced, run_worker(cfg, env, deadline)))
            used += workers[-1][1]["rounds_s"]
        report = summarize(args, spec, workers)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


def summarize(args, spec: dict, workers: list) -> dict:
    rounds = [(traced, res) for traced, w in workers for res in w["rounds"]]
    for traced, w in workers:
        print(f"{args.workload} worker{' (traced)' if traced else ''}: set-up {w['setup_s']:.3f} s, "
              f"{len(w['rounds'])} rounds", file=sys.stderr)
        for res in w["rounds"]:
            print(f"  wall {res['wall_s']:.3f} s, {len(res['op_times'])} ops, {res['failed']} failed, "
                  f"{res['check_failures']} check failures", file=sys.stderr)
            for line in res["failed_ops"] + res["first_check_failures"]:
                print(f"    {line}", file=sys.stderr)
    results = [res for _, res in rounds]
    if len({r["digest"] for r in results}) != 1:
        raise BenchError("rounds produced different outputs from the same inputs")

    plain = [res for traced, res in rounds if not traced]
    fastest = best_op_times(plain)
    raw_wall = sum(min(ts) for ts in zip(*(r["op_times"] for r in plain)))
    reference_s = statistics.median(s for r in plain for _, s in r["reference"])
    print(f"{args.workload}: unscaled wall {raw_wall:.3f} s; reference() median {1e3 * reference_s:.3f} ms, "
          f"scaled to {1e3 * REFERENCE_S:.3f} ms", file=sys.stderr)
    if args.trace:
        traced_rows = [res for traced, res in rounds if traced]
        values = {"cli.out_bytes": results[0]["out_bytes"],
                  "trace.overhead_s": sum(best_op_times(traced_rows)) - sum(fastest)}
        for m in spec["per_layer"]:
            key = TRACER_COUNTER.get(m["name"], m["name"])
            values.setdefault(m["name"], statistics.median(r["trace"].get(key, 0) for r in traced_rows))
        kind = "per_layer"
    else:
        ranked = sorted(fastest)
        values = {
            "wall_s": sum(fastest),
            "setup_s": statistics.median(w["setup_s"] for _, w in workers),
            "op_p50_ms": 1e3 * statistics.median(ranked),
            "op_tail_ms": 1e3 * ranked[max(0, len(ranked) - 1 - TAIL_SAMPLES)],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        kind = "end_to_end"
    return {
        "correct": all(r["check_failures"] == 0 for r in results),
        "attempted": sum(len(r["op_times"]) for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]},
    }


if __name__ == "__main__":
    sys.exit(main())
