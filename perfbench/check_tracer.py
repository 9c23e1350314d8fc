#!/usr/bin/env python3
"""Check the tracer's call counts against cProfile's `ncalls` on one small operation.

    python3 perfbench/check_tracer.py

The operation runs twice, each time in a fresh process so that pgrouplab's
caches start cold: once under the tracer, once under cProfile.  Every traced
function must show the same number of calls in both.  Generator functions
(cProfile counts each resumption) and `lru_cache` functions (cProfile sees
only the misses) are listed but not compared.  Exit status 0 means every
compared count agreed.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def operation():
    """`selftest` through the CLI, plus the by-name imports selftest does not reach."""
    import contextlib
    import io

    import pgrouplab.cli
    import pgrouplab.freelie as fl
    import pgrouplab.submod as sm

    with contextlib.redirect_stdout(io.StringIO()):
        pgrouplab.cli.main(["selftest"])
    sm.structural_submodule_count(((1, 1, 0), (0, 1, 0), (0, 0, 2)), 3)
    fl.expansion_check(fl.random_lie_subspace(3, 3, 3, 2, 7), "homogeneous")


def code_key(fn) -> str:
    code = inspect.unwrap(fn).__code__
    return f"{os.path.relpath(code.co_filename, ROOT)}:{code.co_firstlineno}:{code.co_name}"


def traced_counts() -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    operation()
    counts = {}
    for key, fn in tracer.wrapped.items():
        kind = ("generator" if inspect.isgeneratorfunction(fn)
                else "cached" if isinstance(fn, functools._lru_cache_wrapper) else "plain")
        counts[code_key(fn)] = (tracer.stats[key].calls, kind)
    return counts


def profiled_counts() -> dict:
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.runcall(operation)
    out = {}
    for (filename, line, name), (_, ncalls, _, _, _) in pstats.Stats(prof).stats.items():
        if filename.startswith(str(ROOT / "src")):
            out[f"{os.path.relpath(filename, ROOT)}:{line}:{name}"] = ncalls
    return out


def main() -> int:
    if len(sys.argv) > 1:
        counts = traced_counts() if sys.argv[1] == "trace" else profiled_counts()
        print(json.dumps(counts))
        return 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = []
    for mode in ("trace", "profile"):
        proc = subprocess.run([sys.executable, __file__, mode], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=120, check=True)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    traced, profiled = results
    bad = compared = 0
    for key, (calls, kind) in sorted(traced.items()):
        if kind != "plain":
            print(f"skip  {key}: {kind}, {calls} calls traced")
            continue
        compared += 1
        if calls != profiled.get(key, 0):
            bad += 1
            print(f"DIFF  {key}: tracer {calls}, cProfile {profiled.get(key, 0)}")
    print(f"{compared} functions compared, {bad} differ; "
          f"{sum(c for c, k in traced.values() if k == 'plain')} calls traced")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
