"""Self-test of the benchmark, at tiny input sizes.

    python3 perfbench/selftest.py

For every workload, at seed 0 and size tiny, it checks that:
- an untraced and a traced run each print every metric BENCHMARK.json names
  for that mode, with its unit, and report no failed operation;
- a run against a deliberately perturbed reference counts failed operations
  and reports `correct: false`.
It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stderr


def _perturb(entry):
    """The reference entry with its first leaf changed."""
    if isinstance(entry, dict):
        key = next(iter(entry))
        return {**entry, key: _perturb(entry[key])}
    if isinstance(entry, list):
        return [_perturb(entry[0])] + entry[1:]
    if isinstance(entry, bool):
        return not entry
    if isinstance(entry, (int, float)):
        return entry + 1.0
    return entry + " (perturbed)"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    perturbed = json.loads(json.dumps(reference))
    for sizes in perturbed["workloads"].values():
        sizes["tiny"] = {op: _perturb(e) for op, e in sizes["tiny"].items()}
    OUT.mkdir(exist_ok=True)
    perturbed_path = OUT / "perturbed-reference.json"
    perturbed_path.write_text(json.dumps(perturbed))

    problems = []
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = _run(ROOT, name, trace)
            if code != 0 or res is None:
                problems.append(f"{name} trace {trace}: exit {code}\n{err}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {got} != {want}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace {trace}: {res['failed']} failed ops")
        code, res, err = _run(ROOT, name, 0, "--reference", str(perturbed_path))
        if code != 0 or res is None or res["correct"] or res["failed"] < 1:
            problems.append(f"{name}: perturbed reference not caught: exit {code}, "
                            f"result {res}")
        print(f"{name}: checked", flush=True)

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, res, _ = _run(bare, workloads.WORKLOADS[0], 0)
    shutil.rmtree(bare)
    if code == 0 or res is not None:
        problems.append(f"bare directory: exit {code}, result {res}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
