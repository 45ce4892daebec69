"""Uniform binary source with BEC side information at Bob and BSC at Eve.

Closed-form region expressions for binary-symmetric auxiliary variables
(alpha: A->V crossover, beta: V->U crossover), the numeric table of
achievable tuples, and the equivocation-vs-distortion curve sweep. Every
closed-form value is cross-checkable against the general region
evaluator via `oracle_check`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .ordering import BecBscParams
from .probs import (
    Alphabet,
    InvalidArgument,
    JointPmf,
    binary_entropy,
    binary_star,
    bsc,
)
from .region import AuxScheme, RDETuple, SecureSource, evaluate_scheme

BITS = Alphabet(("0", "1"))
ERASED_BITS = Alphabet(("0", "e", "1"))  # the BEC output alphabet


@dataclass(frozen=True)
class BinaryScheme:
    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 0.5 or not 0.0 <= self.beta <= 0.5:
            raise InvalidArgument("alpha and beta must lie in [0, 1/2]")


@dataclass(frozen=True)
class CurvePoint:
    D: float
    delta_general: float
    delta_wz: float
    alpha: float
    beta_opt: float


def build_source(params: BecBscParams) -> SecureSource:
    """Uniform binary A, B = BEC(eps)(A), E = BSC(p)(A), Hamming distortion."""
    eps, p = params.eps, params.p
    to_b = np.array([[1 - eps, eps, 0.0], [0.0, eps, 1 - eps]])
    to_e = np.array([[1 - p, p], [p, 1 - p]])
    joint = JointPmf((("A", BITS), ("B", ERASED_BITS), ("E", BITS)),
                     (0.5 * to_b)[:, :, None] * to_e[:, None, :])
    hamming = np.array([[0.0, 1.0], [1.0, 0.0]])
    return SecureSource(joint, hamming, d_max=1.0)


def aux_scheme(params: BecBscParams, scheme: BinaryScheme) -> AuxScheme:
    """The binary-symmetric auxiliary scheme as a general AuxScheme.

    V = BSC(alpha)(A), U = BSC(beta)(V); the reconstruction copies b off
    the erasure symbol and falls back to v on it.
    """
    v_channel = bsc(scheme.alpha)
    u_channel = bsc(scheme.beta)
    # B alphabet order: 0, e, 1
    recon = np.array([[0, 0, 1],
                      [0, 1, 1]])
    return AuxScheme(v_channel, u_channel, recon)


def closed_form(params: BecBscParams, scheme: BinaryScheme) -> RDETuple:
    """Boundary tuple for the binary-symmetric auxiliary pair (alpha, beta)."""
    p, eps = params.p, params.eps
    al, be = scheme.alpha, scheme.beta
    rate = eps * (1.0 - binary_entropy(al))
    dist = eps * al
    ab = binary_star(al, be)
    delta = (eps * binary_entropy(al)
             + (1.0 - eps) * binary_entropy(ab)
             - binary_entropy(binary_star(p, ab))
             + binary_entropy(p))
    return RDETuple(rate, dist, max(0.0, delta))


def oracle_check(params: BecBscParams, scheme: BinaryScheme) -> float:
    """Max componentwise gap between closed_form and the general evaluator."""
    source = build_source(params)
    general = evaluate_scheme(source, aux_scheme(params, scheme))
    closed = closed_form(params, scheme)
    return max(abs(a - b) for a, b in zip(general, closed))


def _best_beta(params: BecBscParams, alpha: float,
               scan_points: int = 512, tol: float = 1e-7) -> tuple[float, float]:
    """Maximize the equivocation over beta in [0, 1/2].

    Coarse scan followed by golden-section refinement around the best
    scanned point; returns (beta, delta).
    """

    def delta(beta: float) -> float:
        return closed_form(params, BinaryScheme(alpha, beta)).equivocation

    betas = np.linspace(0.0, 0.5, scan_points)
    vals = [delta(b) for b in betas]
    i = int(np.argmax(vals))
    lo = betas[max(0, i - 1)]
    hi = betas[min(scan_points - 1, i + 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = delta(c), delta(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = delta(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = delta(d)
    beta = 0.5 * (a + b)
    if beta < tol:  # snap to the exact Wyner-Ziv endpoint
        if delta(0.0) >= delta(beta) - 1e-15:
            beta = 0.0
    return beta, delta(beta)


def sweep_curve(params: BecBscParams, d_grid) -> list[CurvePoint]:
    """Equivocation-vs-distortion curve for the distortion-tight alpha.

    For each D: alpha = D/eps, delta_wz is the beta = 0 value and
    delta_general the maximum over beta.
    """
    if params.eps <= 0:
        raise InvalidArgument("sweep needs eps > 0")
    points = []
    for d in d_grid:
        if d < 0 or d > params.eps / 2.0 + 1e-12:
            raise InvalidArgument(f"distortion {d} outside [0, eps/2]")
        alpha = min(d / params.eps, 0.5)
        beta_opt, dgen = _best_beta(params, alpha)
        dwz = closed_form(params, BinaryScheme(alpha, 0.0)).equivocation
        points.append(CurvePoint(d, dgen, dwz, alpha, beta_opt))
    return points


def curve_csv(points: list[CurvePoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["D", "delta_general", "delta_wz", "alpha", "beta_opt"])
    for pt in points:
        writer.writerow([f"{pt.D:.6f}", f"{pt.delta_general:.6f}",
                         f"{pt.delta_wz:.6f}", f"{pt.alpha:.6f}",
                         f"{pt.beta_opt:.6f}"])
    return buf.getvalue()


TABLE_COLUMNS = (
    "Lossless secure source coding",
    "Slepian-Wolf",
    "Lossy secure source coding",
    "Wyner-Ziv",
)


def benchmark_table(params: BecBscParams, rate_budget_fraction: float = 0.8):
    """The four achievable-tuple columns of the worked example.

    Lossless columns use alpha = 0; lossy columns pick alpha so that the
    rate equals `rate_budget_fraction` of the rate needed for perfect
    reconstruction (H(A|B) = eps). Within each pair, beta is either
    optimized for equivocation or set to 0 (plain Wyner-Ziv coding).
    """
    eps = params.eps
    beta_ll, _ = _best_beta(params, 0.0)
    columns = {}
    columns[TABLE_COLUMNS[0]] = (closed_form(params, BinaryScheme(0.0, beta_ll)),
                                  BinaryScheme(0.0, beta_ll))
    columns[TABLE_COLUMNS[1]] = (closed_form(params, BinaryScheme(0.0, 0.0)),
                                  BinaryScheme(0.0, 0.0))
    # rate equation: eps (1 - h2(alpha)) = fraction * eps
    target = 1.0 - min(rate_budget_fraction, 1.0)
    alpha = _inverse_h2(target)
    beta_l, _ = _best_beta(params, alpha)
    columns[TABLE_COLUMNS[2]] = (closed_form(params, BinaryScheme(alpha, beta_l)),
                                  BinaryScheme(alpha, beta_l))
    columns[TABLE_COLUMNS[3]] = (closed_form(params, BinaryScheme(alpha, 0.0)),
                                  BinaryScheme(alpha, 0.0))
    return columns


def _inverse_h2(y: float, tol: float = 1e-12) -> float:
    """The unique x in [0, 1/2] with h2(x) = y."""
    if not 0.0 <= y <= 1.0:
        raise InvalidArgument("h2 value must lie in [0, 1]")
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def table_text(columns) -> str:
    rows = [
        ("Rate R", lambda t, s: t.rate),
        ("Distortion D", lambda t, s: t.distortion),
        ("Equivocation Rate Delta", lambda t, s: t.equivocation),
        ("alpha", lambda t, s: s.alpha),
        ("beta", lambda t, s: s.beta),
    ]
    width = max(len(c) for c in TABLE_COLUMNS) + 2
    head = " " * 26 + "".join(c.ljust(width) for c in TABLE_COLUMNS)
    lines = [head]
    for label, get in rows:
        cells = []
        for c in TABLE_COLUMNS:
            tup, scheme = columns[c]
            cells.append(f"{get(tup, scheme):.3f}".ljust(width))
        lines.append(label.ljust(26) + "".join(cells))
    return "\n".join(lines) + "\n"


def table_csv(columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["column", "R", "D", "Delta", "alpha", "beta"])
    for c in TABLE_COLUMNS:
        tup, scheme = columns[c]
        writer.writerow([c, f"{tup.rate:.6f}", f"{tup.distortion:.6f}",
                         f"{tup.equivocation:.6f}", f"{scheme.alpha:.6f}",
                         f"{scheme.beta:.6f}"])
    return buf.getvalue()
