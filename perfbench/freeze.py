"""Freeze the seed-0 reference outputs into reference.json.

    PYTHONPATH=src python3 perfbench/freeze.py

Runs every operation of every workload once at seed 0, in both sizes, on the
secrd in `src/`, and stores what each operation's reference check compares
against, together with the commit the values came from. Re-freeze only on
purpose: the references pin the behaviour later changes must keep.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=HERE.parent).stdout.strip()
    if subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"],
                      cwd=HERE.parent).returncode != 0:
        commit += " (with uncommitted changes under src/)"
    frozen = {"commit": commit, "workloads": {}}
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            wl = workloads.build(name, 0, size, None)
            entry = frozen["workloads"].setdefault(name, {}).setdefault(size, {})
            for op in wl.ops:
                out = op.call()
                issues = workloads.check_output(op, out)
                for issue in issues:
                    print(f"{name}/{size}/{op.name}: [{issue.defect or 'FAILED'}] "
                          f"{issue.message}")
                entry[op.name] = op.freeze(out)
    (HERE / "reference.json").write_text(json.dumps(frozen, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
