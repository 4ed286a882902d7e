"""Self-test of the benchmark harness, at tiny sizes (well under a minute).

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced with
``--tiny`` and checks that each run is correct and emits exactly the
metrics BENCHMARK.json names, with their units. It also checks that a
wrap target that no longer exists is recorded as absent instead of
raising, and that the benchmark fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0 or not proc.stdout.strip():
        return [f"{where}: exit {proc.returncode}, no result"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')} (see bench/out/results/)")
    if not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {name} = {value}")
    return problems


def check_absent_target() -> list[str]:
    tracer = Tracer()
    tracer.wrap("extrapolmv.no_such_module", "no_such_function", "gone.layer")
    if tracer.absent != ["gone.layer: extrapolmv.no_such_module.no_such_function not found"]:
        return [f"absent wrap target recorded as {tracer.absent}"]
    return []


def check_bare_directory() -> list[str]:
    bare = BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        proc = run(bare, "reference", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/ the benchmark exited {proc.returncode} "
                f"and printed {proc.stdout.strip()[:80]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_absent_target() + check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(f"problem: {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
