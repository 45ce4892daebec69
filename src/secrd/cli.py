"""Command-line front end.

Subcommands: eval, sweep, binary, classify, simulate. Every run is
deterministic given its flags and optional config file; flags win over
config-file values. Exit codes: 0 success, 2 input error, 3 domain
invariant violation, 4 resource guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import binary as binary_mod
from . import ordering, region, simulate
from .probs import (
    InvalidArgument,
    ParseError,
    ResourceLimit,
    _checked,
    _clean_lines,
    load_scheme,
    load_source,
)
from .region import AuxScheme, SearchConfig, SecureSource, best_reconstruction

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3
EXIT_RESOURCE = 4
MAX_GRID = 1 << 16  # --grid points, checked before any grid is allocated


def _read_config(path: str) -> dict[str, str]:
    """Key-value config file: one `key value` (or `key = value`) per line."""
    out = {}
    for line in _clean_lines(Path(path).read_text()):
        key, _, val = line.partition("=" if "=" in line else " ")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ParseError(f"malformed config line: {line!r}")
        key = key.replace("-", "_")
        if key in out:
            raise ParseError(f"repeated config key {key!r}")
        out[key] = val
    return out


def _config_defaults(sub: argparse.ArgumentParser, path: str) -> dict:
    """Config-file values as defaults for the subcommand parser `sub`.

    Values stay strings, so argparse applies each option's `type` when it
    re-parses; a store_true flag is on for 1/true/yes.
    """
    actions = {a.dest: a for a in sub._actions
               if a.option_strings and a.dest not in ("help", "config")}
    out = {}
    for key, val in _read_config(path).items():
        action = actions.get(key)
        if action is None:
            raise ParseError(f"unknown config key {key!r}")
        if action.nargs == 0:
            val = val.lower() in ("1", "true", "yes")
        elif action.choices is not None and val not in action.choices:
            raise ParseError(f"config key {key!r}: {val!r} is not one of "
                             f"{', '.join(action.choices)}")
        out[key] = val
    return out


def load_source_file(path: str) -> SecureSource:
    """The source in the file at `path`, in the format of `probs.load_source`."""
    return _checked(SecureSource, *load_source(Path(path).read_text()))


def load_scheme_file(path: str, source: SecureSource) -> AuxScheme:
    """The scheme in the file at `path`, in the format of `probs.load_scheme`.

    The reconstruction map is the distortion-optimal one for `source`. A
    scheme that does not fit `source`, or whose blocks do not chain, is a
    file error.
    """
    v_channel, u_channel = load_scheme(Path(path).read_text())
    recon = _checked(best_reconstruction, source, v_channel)
    return _checked(AuxScheme, v_channel, u_channel, recon)


def _write(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    source = load_source_file(args.source)
    scheme = load_scheme_file(args.scheme, source)
    scheme.check_caps(source)
    tup = region.evaluate_scheme(source, scheme)
    if args.format == "json":
        _write(args.out, json.dumps({"R": round(tup.rate, 6),
                                     "D": round(tup.distortion, 6),
                                     "Delta": round(tup.equivocation, 6)}) + "\n")
    else:
        _write(args.out, f"R={tup.rate:.6f} D={tup.distortion:.6f} "
                         f"Delta={tup.equivocation:.6f}\n")
    return EXIT_OK


def _grid(stop: float, num: int) -> np.ndarray:
    """`num` evenly spaced distortions from 0 to `stop`."""
    if num < 0:
        raise InvalidArgument(f"--grid must be >= 0, got {num}")
    if num > MAX_GRID:
        raise ResourceLimit(f"--grid {num} exceeds the limit of {MAX_GRID} points")
    return np.linspace(0.0, stop, num)


def cmd_sweep(args) -> int:
    if not 0.0 <= args.d_max < np.inf:
        raise InvalidArgument(f"--d-max must be finite and >= 0, got {args.d_max}")
    params = ordering.BecBscParams(args.p, args.eps)
    source = binary_mod.build_source(params)
    grid = _grid(args.d_max, args.grid)
    config = SearchConfig(rate_budget=args.rate_budget)
    curve = region.sweep_boundary(source, grid, config)
    _write(args.out, curve.to_csv())
    return EXIT_OK


def cmd_binary(args) -> int:
    if not 0.0 <= args.rate_budget < np.inf:
        raise InvalidArgument(
            f"--rate-budget must be finite and >= 0, got {args.rate_budget}")
    params = ordering.BecBscParams(args.p, args.eps)
    if args.curve:
        if args.format == "text":
            raise InvalidArgument("--curve writes CSV; --format text is not available")
        points = binary_mod.sweep_curve(params, _grid(params.eps / 2.0, args.grid))
        _write(args.out, binary_mod.curve_csv(points))
        return EXIT_OK
    columns = binary_mod.benchmark_table(params, rate_budget_fraction=args.rate_budget)
    table = binary_mod.table_csv if args.format == "csv" else binary_mod.table_text
    _write(args.out, table(columns))
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.source:
        verdict = ordering.classify_source(load_source_file(args.source))
    else:
        verdict = ordering.classify_bec_bsc(ordering.BecBscParams(args.p, args.eps))
    _write(args.out, verdict.to_record() + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = ordering.BecBscParams(args.p, args.eps)
    source = binary_mod.build_source(params)
    scheme = binary_mod.aux_scheme(
        params, binary_mod.BinaryScheme(args.alpha, args.beta))
    rates = simulate.achievability_rates(source, scheme, slack=args.slack)
    cfg = simulate.SimConfig(n=args.n, rates=rates, trials=args.trials,
                             seed=args.seed)
    summary = simulate.run_trials(source, scheme, cfg)
    header = (f"# n={args.n} trials={args.trials} seed={args.seed} "
              f"mean_distortion={summary.mean_distortion:.6f} "
              f"mean_equivocation={summary.mean_equivocation:.6f} "
              f"encode_failure_rate={summary.encode_failure_rate:.6f} "
              f"decode_failure_rate={summary.decode_failure_rate:.6f}\n")
    _write(args.out, header + summary.to_csv())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrd",
        description="Secure lossy source coding: region evaluation, "
                    "side-information ordering, binary example, and "
                    "random-binning simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=()):
        p.add_argument("--config", help="key-value config file; flags win")
        p.add_argument("--out", help="output path (default: stdout)")
        if formats:
            p.add_argument("--format", choices=formats,
                           help=f"output format (default: {formats[0]})")
        p.set_defaults(subparser=p)

    p_eval = sub.add_parser("eval", help="evaluate a scheme on a source")
    p_eval.add_argument("--source", required=True)
    p_eval.add_argument("--scheme", required=True)
    common(p_eval, ("text", "json"))
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="boundary sweep on the binary model")
    p_sweep.add_argument("--p", type=float, default=0.1)
    p_sweep.add_argument("--eps", type=float, default=0.469)
    p_sweep.add_argument("--grid", type=int, default=8)
    p_sweep.add_argument("--d-max", type=float, default=0.2, dest="d_max")
    p_sweep.add_argument("--rate-budget", type=float, default=None)
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bin = sub.add_parser("binary", help="worked-example table and curve")
    p_bin.add_argument("--p", type=float, default=0.1)
    p_bin.add_argument("--eps", type=float, default=0.469)
    p_bin.add_argument("--curve", action="store_true",
                       help="write the equivocation-distortion curve as CSV")
    p_bin.add_argument("--grid", type=int, default=200)
    p_bin.add_argument("--rate-budget", type=float, default=0.8)
    common(p_bin, ("text", "csv"))
    p_bin.set_defaults(func=cmd_binary)

    p_cls = sub.add_parser("classify", help="side-information ordering verdict")
    p_cls.add_argument("--p", type=float, default=0.1)
    p_cls.add_argument("--eps", type=float, default=0.469)
    p_cls.add_argument("--source", help="classify a source file instead")
    common(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_sim = sub.add_parser("simulate", help="finite-blocklength binning trials")
    p_sim.add_argument("--p", type=float, default=0.1)
    p_sim.add_argument("--eps", type=float, default=0.469)
    p_sim.add_argument("--alpha", type=float, default=0.031)
    p_sim.add_argument("--beta", type=float, default=0.05)
    p_sim.add_argument("--n", type=int, default=10)
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--slack", type=float, default=0.1)
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:  # file values become defaults, so explicit flags win
            args.subparser.set_defaults(**_config_defaults(args.subparser, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
