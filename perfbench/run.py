"""secrd benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload region-sweep --seed 0 --seconds 18 --trace 0

Run from the root of a secrd checkout (the package is imported from
`src/`). The run is a closed loop: one caller in one worker process issues
the workload's operations one after another, repeating the whole list (a
pass) until `--seconds` have elapsed, and finishing the pass in progress.
BLAS and OpenMP pools are capped at one thread. Outputs are checked after
each pass, outside the timed window.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones (`solve_s`, `setup_s`, `peak_rss_mb`); with `--trace 1` they
are the per-layer ones, from a run whose later passes are traced. A record
of the run (environment, inputs, per-operation verdicts, span summary) is
written under `perfbench/out/`. See NOTES.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import pickle
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_PROBES = 4          # extra fresh interpreters timed for setup_s
IMPORT_PROBES = 3         # `python -X importtime` runs in a traced run
RUN_LIMIT_S = 170.0       # the whole run, probes included
THREAD_CAP = 1            # BLAS/OpenMP threads per process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    return env


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the self-test")
    ap.add_argument("--reference", default=str(REFERENCE),
                    help="frozen reference outputs for seed 0")
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Worker: a fresh interpreter that sets up, then runs the timed passes.
# ---------------------------------------------------------------------------


def _import_secrd():
    import secrd

    if not Path(secrd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported secrd from {secrd.__file__}, not {SRC}")
    return secrd


def _op_verdict(issues) -> str:
    if not issues:
        return "ok"
    return "known-defect" if all(i.defect for i in issues) else "failed"


def worker(args) -> int:
    _import_secrd()
    import workloads
    from tracing import Tracer, layer_metrics

    reference = json.loads(Path(args.reference).read_text())
    wl = workloads.build(args.workload, args.seed, args.size, reference)
    tracer = Tracer()
    tracer.install_codebook_probe()
    wl.warmup()
    ready = time.monotonic()
    setup_s = ready - args.spawned_at
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    verdicts = {op.name: {"attempted": 0, "ok": 0, "known-defect": 0, "failed": 0,
                          "issues": []} for op in wl.ops}
    seen = {}   # op name -> (output digest, verdict), to skip re-checking
    untraced, traced = [], []
    op_s = {op.name: [] for op in wl.ops}   # untraced seconds per op and pass

    def one_pass(times):
        outputs = []
        with tracer.span("bench.pass"):
            t0 = t_op = time.perf_counter()
            for op in wl.ops:
                tracer.current_op = op.name
                with tracer.span("bench.op"):
                    try:
                        outputs.append(op.call())
                    except Exception as exc:  # an op that raises is a failed op
                        outputs.append(workloads.OpError(exc))
                t_end = time.perf_counter()
                if times is untraced:
                    op_s[op.name].append(t_end - t_op)
                t_op = t_end
            times.append(t_end - t0)
        active, tracer.active = tracer.active, False
        for op, out in zip(wl.ops, outputs):
            digest = hashlib.sha256(pickle.dumps(out)).hexdigest()
            if seen.get(op.name, (None,))[0] != digest:
                issues = workloads.check_output(op, out)
                seen[op.name] = (digest, _op_verdict(issues))
                verdicts[op.name]["issues"] = [
                    {"message": i.message, "defect": i.defect} for i in issues[:20]]
            v = verdicts[op.name]
            v["attempted"] += 1
            v[seen[op.name][1]] += 1
        tracer.active = active

    start = time.perf_counter()
    untraced_until = args.seconds / 3 if args.trace else args.seconds
    while not untraced or time.perf_counter() - start < untraced_until:
        one_pass(untraced)
    if args.trace:
        tracer.install()
        tracer.active = True
        while not traced or time.perf_counter() - start < args.seconds:
            one_pass(traced)
        tracer.active = False
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "op_s": op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts": verdicts,
        "inputs": wl.inputs,
        "simulator_codebooks": _codebooks_by_op(tracer.codebooks),
        "known_defects": workloads.KNOWN_DEFECTS,
        "versions": _versions(),
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, len(traced))
        result["span_summary"] = tracer.summary()
        _write_spans(args, tracer)
    print(json.dumps(result))
    return 0


def _codebooks_by_op(codebooks):
    """Sizes each simulator operation used (first pass; passes repeat them)."""
    out = {}
    for c in codebooks:
        if c["op"] is not None:
            out.setdefault(c["op"], {k: v for k, v in c.items()
                                     if k not in ("op", "traced")})
    return out


def _write_spans(args, tracer) -> None:
    import numpy as np

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-{args.size}-spans.npz"
    np.savez_compressed(path, names=np.array(tracer.names), **tracer.spans())


# ---------------------------------------------------------------------------
# Main: compile, time the set-up in fresh interpreters, run the worker.
# ---------------------------------------------------------------------------


def _child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a Python child to completion; it is killed at the run's deadline."""
    try:
        proc = subprocess.run([sys.executable, *cmd], capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: child killed at the run's {RUN_LIMIT_S:.0f} s "
                         f"limit: {cmd}") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: child exited with {proc.returncode}: {cmd}")
    return proc


def _spawn(args, role: str, deadline: float) -> dict:
    """A set-up probe or the worker, in a fresh interpreter; its result."""
    cmd = [str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--reference", args.reference, "--role", role,
           "--spawned-at", repr(time.monotonic())]
    return json.loads(_child(cmd, deadline).stdout.strip().splitlines()[-1])


def _import_times(deadline: float) -> tuple[float, float]:
    """(import secrd, import scipy.*) in seconds, medians over fresh
    interpreters, from `python -X importtime`."""
    line = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")
    secrd_s, scipy_s = [], []
    for _ in range(IMPORT_PROBES):
        proc = _child(["-X", "importtime", "-c", "import secrd"], deadline)
        rows = [(int(m[2]), len(m[3]), m[4]) for m in map(line.match,
                proc.stderr.splitlines()) if m]
        secrd_s.append(sum(c for c, _, name in rows if name == "secrd") / 1e6)
        scipy_rows = [(c, depth) for c, depth, name in rows
                      if name == "scipy" or name.startswith("scipy.")]
        top = min((depth for _, depth in scipy_rows), default=0)
        scipy_s.append(sum(c for c, depth in scipy_rows if depth == top) / 1e6)
    return statistics.median(secrd_s), statistics.median(scipy_s)


def _lower_quartile(times: list[float]) -> float:
    """First quartile of the pass times.

    Pass times on a shared host are bimodal: a pass runs in the host's fast
    or its contended mode, and the share of contended passes changes from
    run to run. The median flips between the modes when that share is near
    one half; the lower quartile stays in the fast mode unless most of the
    run is contended, so it tracks the program's own speed.
    """
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[0]


def _metric_specs(trace: int) -> list[dict]:
    spec = json.loads(BENCHMARK.read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _environment(args, versions: dict) -> dict:
    sources = sorted((SRC / "secrd").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    reference = json.loads(Path(args.reference).read_text())
    return {
        "commit": commit,
        "secrd_source_sha256": digest,
        "reference_commit": reference["commit"],
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_thread_cap": THREAD_CAP,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.role != "main":
        return worker(args)
    if not (SRC / "secrd" / "__init__.py").is_file():
        print(f"error: no secrd package under {SRC}; run from a secrd checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    # Bytecode is compiled once here, so no timed set-up includes it.
    compileall.compile_dir(str(SRC / "secrd"), quiet=1)

    setups = [_spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    imports = _import_times(deadline) if args.trace else None
    res = _spawn(args, "worker", deadline)
    setups.append(res["setup_s"])

    verdicts = res["verdicts"]
    attempted = sum(v["attempted"] for v in verdicts.values())
    failed = sum(v["failed"] for v in verdicts.values())
    known = sum(v["known-defect"] for v in verdicts.values())
    values = {
        "solve_s": _lower_quartile(res["untraced_pass_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if args.trace:
        layers = res["layers"]
        traced_s = statistics.fmean(res["traced_pass_s"])
        passes = len(res["traced_pass_s"])
        values.update(layers)
        values["cli.import_s"], values["cli.import_scipy_s"] = imports
        untraced_s = statistics.fmean(res["untraced_pass_s"])
        values["trace.solve_s"] = traced_s
        values["trace.untraced_solve_s"] = untraced_s
        values["trace.overhead_share"] = traced_s / untraced_s - 1.0
        values["check.known_defect_ops"] = known / (len(res["untraced_pass_s"]) + passes)
        values["check.fail_share"] = (failed + known) / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _metric_specs(args.trace)}

    record = {"environment": _environment(args, res["versions"]),
              "inputs": res["inputs"],
              "simulator_codebooks": res["simulator_codebooks"],
              "setup_samples_s": setups, "untraced_pass_s": res["untraced_pass_s"],
              "traced_pass_s": res["traced_pass_s"], "op_s": res["op_s"],
              "operations": verdicts,
              "known_defects": res["known_defects"],
              "metrics": metrics, "span_summary": res.get("span_summary"),
              "run_s": time.monotonic() - started}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    for name, v in verdicts.items():
        if v["failed"] or v["known-defect"]:
            for issue in v["issues"][:3]:
                tag = issue["defect"] or "FAILED"
                print(f"# {name}: [{tag}] {issue['message']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
