"""One benchmark process: the set-up, then rounds of a workload.

Usage (from run.py): python3 worker.py '<json config>'

The config names the workload, the seed, whether to trace, whether to check
the first round's outputs, the checkout root, a private working directory
and `seconds`, how long its rounds may take, not counting the checks.  The
process imports pgrouplab and builds the inputs once, which is one
`setup_s` sample.  Each round then runs in a child forked from that state,
so pgrouplab's caches (`submod._census_cache`, the `lru_cache` on
`fplin.monic_irreducibles`, `CayleyGroup._orders`) start cold in every
round, as they do for a user, without paying the set-up again.  Rounds
follow one another while the next still fits in `seconds`; there is at
least one.  The process prints one JSON line with its measurements.
"""
from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback


REFERENCE_EVERY_S = 0.02


def reference() -> int:
    """A fixed piece of pure-Python work that times the machine, not pgrouplab.

    It takes about 0.5 ms when nothing slows the machine.  It allocates
    nothing that outlives it; small numpy calls were tried here too, and
    made both the peak memory and the scaled times of the operations after
    large-array work vary from run to run.
    """
    counts: dict = {}
    total = 0
    for i in range(3000):
        counts[i % 61] = counts.get(i % 61, 0) + i
        total += (i * i) % 13
    return total


class Round:
    """Issues operations one at a time and records how long each took.

    Before an operation, when REFERENCE_EVERY_S have passed since the last
    sample, it also times `reference()`, so that the machine's speed is
    sampled next to the operations.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: list = []
        self.starts: list = []
        self.failed: list = []
        self.reference: list = []  # (end, seconds)
        self._last_reference = -float("inf")

    def op(self, label, fn, *args, ok=None, **kwargs):
        """Run fn(*args, **kwargs); return its output, or None if it failed."""
        now = time.perf_counter()
        if now - self._last_reference >= REFERENCE_EVERY_S:
            reference()
            self._last_reference = time.perf_counter()
            self.reference.append((self._last_reference, self._last_reference - now))
        mark = self.tracer.begin_op() if self.tracer else None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except (Exception, SystemExit) as exc:
            out, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            reason = None if ok is None or ok(out) else "rejected output"
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)
        if mark is not None:
            self.tracer.end_op(label, mark)
        if reason is not None:
            self.failed.append(f"{label}: {reason}")
            return None
        return out


def digest(outputs, files) -> str:
    """Hash of a round's outputs: the returned values and the bytes of the CSV
    and manifest files the CLI wrote.  The program is deterministic and its
    hash seed is fixed, so equal outputs pickle to equal bytes."""
    h = hashlib.sha256(pickle.dumps(outputs, protocol=4))
    for name in sorted(files):
        with open(name, "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def play(cfg, workload, inputs, tracer, check: bool, setup_peak_mb: float) -> dict:
    """One round: issue the operations, then check or digest the outputs."""
    # The first run of anything in a forked child pays for copying the pages
    # it writes; this keeps that cost out of the first reference sample.
    reference()
    r = Round(tracer)
    start = time.perf_counter()
    outputs = workload.run(r, inputs)
    wall_s = time.perf_counter() - start
    # A forked child's peak starts from the memory it was forked with, so the
    # set-up's own peak is added back: this is a fresh process's peak.
    peak = max(setup_peak_mb, peak_rss_mb())
    trace = tracer.report() if tracer else None

    # The first round checks its outputs against the oracles; the others must
    # reproduce them exactly, which the parent verifies through the digest.
    checked = time.perf_counter()
    failures = workload.check(inputs, outputs) if check else []
    check_s = time.perf_counter() - checked
    written = [f for f in os.listdir(".") if f.endswith((".csv", ".manifest.json"))]
    if tracer:
        with open(cfg["spans_path"], "w") as fh:
            for label, t0, t1, layers in tracer.op_spans:
                fh.write(json.dumps({"op": label, "start_s": t0 - start, "dur_s": t1 - t0,
                                     "self_s": layers}) + "\n")
    return {
        "digest": digest(outputs, written),
        "wall_s": wall_s,
        "op_times": r.times,
        "starts": r.starts,
        "reference": r.reference,
        "failed": len(r.failed),
        "failed_ops": r.failed[:5],
        "peak_rss_mb": peak,
        "check_failures": len(failures),
        "check_s": check_s,
        "first_check_failures": failures[:10],
        "out_bytes": sum(os.path.getsize(f) for f in written),
        "trace": trace,
    }


def forked_round(play_round) -> dict:
    """Run play_round() in a forked child and return what it returned."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            with os.fdopen(write_fd, "w") as fh:
                fh.write(json.dumps(play_round()))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"round process exited with status {status}")
    return json.loads(data)


def main() -> int:
    cfg = json.loads(sys.argv[1])
    os.makedirs(cfg["workdir"], exist_ok=True)
    os.chdir(cfg["workdir"])

    start = time.perf_counter()
    import pgrouplab
    import pgrouplab.cli  # noqa: F401  (what a command-line user loads too)

    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[cfg["workload"]]
    inputs = workload.setup(cfg["seed"])
    setup_s = time.perf_counter() - start

    expected = os.path.join(cfg["root"], "src", "pgrouplab")
    if os.path.dirname(os.path.abspath(pgrouplab.__file__)) != expected:
        print(f"imported pgrouplab from {pgrouplab.__file__}, not {expected}", file=sys.stderr)
        return 3
    setup_peak_mb = peak_rss_mb()
    setup_files = set(os.listdir("."))
    rounds, durations = [], []
    while not rounds or sum(durations) + statistics.median(durations) <= cfg["seconds"]:
        began = time.monotonic()
        check = cfg["check"] and not rounds
        rounds.append(forked_round(lambda: play(cfg, workload, inputs, tracer, check, setup_peak_mb)))
        durations.append(time.monotonic() - began - rounds[-1]["check_s"])
        for name in set(os.listdir(".")) - setup_files:  # the next round starts without them
            os.remove(name)
    print(json.dumps({"setup_s": setup_s, "rounds_s": sum(durations), "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
