"""Per-layer tracing of secrd from outside the package.

`Tracer.install` wraps the public functions of each secrd module (and a few
methods) in place, in their home module and in every secrd module that
re-imports them, so calls made through any of those names are recorded.
Each wrapped call records a span (name, start, end, parent) in memory; self
times and per-layer metrics are computed from the spans when the run ends.

Scalar helpers called hundreds of thousands of times per pass
(`binary_entropy`, `binary_star`) are left unwrapped: their time counts as
self time of their caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("probs", "region", "ordering", "binary", "simulate", "cli")
UNWRAPPED = {"binary_entropy", "binary_star"}
INFO = ("probs.entropy", "probs.conditional_entropy", "probs.mutual_information")


class Tracer:
    """Spans of wrapped secrd calls, recorded while `active`."""

    def __init__(self):
        self.names: list[str] = []           # span name table
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.codebooks: list[dict] = []      # sizes of every Codebook built
        self.current_op: str | None = None   # set by the caller around each op
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, t0: float) -> None:
        self.span_end[idx] = time.perf_counter()
        self.span_start[idx] = t0
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own code."""
        if not self.active:
            yield
            return
        idx = self._enter(self._name_id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(idx, t0)

    def _wrap(self, fn, name: str):
        tracer, name_id = self, self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._enter(name_id)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx, t0)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install_codebook_probe(self) -> None:
        """Record the sizes of every Codebook built; one call per simulator
        operation, so it stays installed in untraced runs too."""
        from secrd import simulate

        original = simulate.Codebook.__post_init__
        tracer = self

        @functools.wraps(original)
        def post_init(codebook):
            original(codebook)
            na = len(codebook.source.a_alphabet)
            tracer.codebooks.append({
                "op": tracer.current_op, "traced": tracer.active,
                "M1": len(codebook.u_words), "M2": len(codebook.v_bins),
                "N1": codebook.n_bins[0], "N2": codebook.n_bins[1],
                "A": na, "n": codebook.cfg.n, "A^n": na ** codebook.cfg.n,
                "trials": codebook.cfg.trials, "sim_seed": codebook.cfg.seed})

        self._replace(simulate.Codebook, "__post_init__", post_init)

    def install(self) -> None:
        """Wrap every public function of each layer, plus the methods that
        carry the simulator's work and the JointPmf construction counter."""
        import secrd
        from secrd import probs, simulate

        modules = [sys.modules[f"secrd.{layer}"] for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in [secrd] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._replace(mod, attr, wrappers[obj])

        self._replace(simulate.Codebook, "__post_init__", self._wrap(
            simulate.Codebook.__post_init__, "simulate.Codebook"))
        for method in ("encode_all", "decode"):
            self._replace(simulate.Codebook, method, self._wrap(
                getattr(simulate.Codebook, method), f"simulate.Codebook.{method}"))

        original = probs.JointPmf.__post_init__
        counts = self.counts

        @functools.wraps(original)
        def counted(pmf):
            if self.active:
                counts["probs.jointpmf_built"] += 1
            original(pmf)

        self._replace(probs.JointPmf, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        if not self.span_start:
            return {}
        name = np.asarray(self.span_name)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        parent = np.asarray(self.span_parent)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out = {}
        for i, n in enumerate(self.names):
            sel = name == i
            out[n] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                      "self_s": float(self_time[sel].sum())}
        return out

    def spans(self) -> dict[str, np.ndarray]:
        """Every recorded span, as arrays, for the run record."""
        return {"name": np.asarray(self.span_name, dtype=np.int32),
                "start": np.asarray(self.span_start),
                "end": np.asarray(self.span_end),
                "parent": np.asarray(self.span_parent, dtype=np.int64)}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the spans of `tracer`."""
    summary = tracer.summary()
    codebooks = [c for c in tracer.codebooks if c["traced"]]
    trials = sum(c["trials"] for c in codebooks)

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def per_call(name, scale):
        calls = get(name, "calls")
        return get(name, "total_s") * scale / calls if calls else 0.0

    m = {}
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in summary.items()
                                   if layer_of(k) == layer) / passes
    m["probs.jointpmf_built"] = tracer.counts["probs.jointpmf_built"] / passes
    m["probs.info_calls"] = sum(get(n, "calls") for n in INFO) / passes
    m["probs.info_self_s"] = sum(get(n, "self_s") for n in INFO) / passes
    m["probs.joint_from_calls"] = get("probs.joint_from", "calls") / passes
    m["probs.joint_from_self_s"] = get("probs.joint_from", "self_s") / passes
    m["region.candidates"] = get("region.evaluate_scheme", "calls") / passes
    m["region.evaluate_us"] = per_call("region.evaluate_scheme", 1e6)
    m["region.best_reconstruction_us"] = per_call("region.best_reconstruction", 1e6)
    m["region.search_self_s"] = get("region.sweep_boundary", "self_s") / passes
    m["binary.closed_form_calls"] = get("binary.closed_form", "calls") / passes
    m["binary.closed_form_us"] = per_call("binary.closed_form", 1e6)
    m["binary.sweep_curve_self_s"] = get("binary.sweep_curve", "self_s") / passes
    m["ordering.lp_calls"] = get("ordering.is_degraded", "calls") / passes
    m["ordering.lp_ms"] = per_call("ordering.is_degraded", 1e3)
    m["ordering.less_noisy_calls"] = get("ordering.less_noisy_search", "calls") / passes
    m["ordering.less_noisy_s"] = get("ordering.less_noisy_search", "total_s") / passes

    encode_s = get("simulate.Codebook.encode_all", "total_s") / passes
    m["simulate.codebook_build_s"] = get("simulate.Codebook", "total_s") / passes
    m["simulate.encode_all_s"] = encode_s
    cells = sum(c["M1"] * c["M2"] * c["A^n"] * c["n"] for c in codebooks) / passes
    # Bytes the ML scoring reads and writes per u-word, float64: the gathered
    # log-likelihoods (M2, n, |A|), the one-hot sequences (|A|^n, n, |A|) and
    # the score matrix (M2, |A|^n). Computed from array sizes, not measured.
    computed = sum(c["M1"] * 8 * (c["M2"] * c["n"] * c["A"]
                                  + c["A^n"] * c["n"] * c["A"]
                                  + c["M2"] * c["A^n"]) for c in codebooks) / passes
    m["simulate.codewords"] = sum(c["M1"] * c["M2"] for c in codebooks) / passes
    m["simulate.enum_size"] = sum(c["A^n"] for c in codebooks) / passes
    m["simulate.score_cells"] = cells
    m["simulate.score_cells_per_s"] = cells / encode_s if encode_s else 0.0
    m["simulate.computed_mb"] = computed / 1e6
    m["simulate.decode_us"] = per_call("simulate.Codebook.decode", 1e6)
    m["simulate.equivocation_us"] = per_call("simulate.exact_equivocation", 1e6)
    run_self = get("simulate.run_trials", "self_s")
    m["simulate.trial_self_us"] = run_self * 1e6 / trials if trials else 0.0
    m["cli.main_self_s"] = get("cli.main", "self_s") / passes
    m["trace.self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS + ("bench",))
    return m
