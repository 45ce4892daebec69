"""Uniform binary source with BEC side information at Bob and BSC at Eve.

Closed-form region expressions for binary-symmetric auxiliary variables
(alpha: A->V crossover, beta: V->U crossover), the numeric table of
achievable tuples, and the equivocation-vs-distortion curve sweep, whose
best beta comes from one maximizer of the x = alpha*beta part per (p, eps).
Every closed-form value is cross-checkable against the general region
evaluator via `oracle_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ordering import BecBscParams
from .probs import (
    BITS,
    ERASED_BITS,
    InvalidArgument,
    JointPmf,
    binary_entropy,
    binary_star,
    bsc,
    csv_text,
)
from .region import AuxScheme, RDETuple, SecureSource, evaluate_scheme


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


def closed_form_batch(params: BecBscParams, alpha, beta) -> tuple[np.ndarray, ...]:
    """(R, D, Delta) arrays for the binary-symmetric pairs (alpha, beta).

    `alpha` and `beta` broadcast against each other and must lie in
    [0, 1/2]; each element is computed independently of the others.
    """
    p, eps = params.p, params.eps
    al, be = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    h_al = binary_entropy(al)
    rate = eps * (1.0 - h_al)
    dist = eps * al
    ab = binary_star(al, be)
    delta = (eps * h_al
             + (1.0 - eps) * binary_entropy(ab)
             - binary_entropy(binary_star(p, ab))
             + binary_entropy(p))
    return np.broadcast_arrays(rate, dist, np.where(delta > 0.0, delta, 0.0))


def closed_form(params: BecBscParams, scheme: BinaryScheme) -> RDETuple:
    """Boundary tuple for the binary-symmetric auxiliary pair (alpha, beta)."""
    tup = closed_form_batch(params, scheme.alpha, scheme.beta)
    return RDETuple(*(float(x) for x in tup))


def oracle_check(params: BecBscParams, scheme: BinaryScheme) -> float:
    """Max componentwise gap between closed_form and the general evaluator."""
    source = build_source(params)
    general = evaluate_scheme(source, aux_scheme(params, scheme))
    closed = closed_form(params, scheme)
    return max(abs(a - b) for a, b in zip(general, closed))


def _bisect(rising, steps: int) -> tuple[float, float]:
    """Halve [0, 1/2] `steps` times; `lo` is the last point where `rising` held."""
    lo, hi = 0.0, 0.5
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if rising(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _best_beta(params: BecBscParams, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the equivocation over beta in [0, 1/2], for each alpha.

    Delta depends on beta only through x = alpha*beta = alpha + beta(1-2alpha),
    which runs over [alpha, 1/2]. Its x-part (1-eps) h2(x) - h2(p*x) is
    concave in h2(x) (Mrs. Gerber's Lemma), so one maximizer x0 serves every
    alpha. When Bob is less noisy (eps <= 4p(1-p)) the slope in h2(x) at
    x = 1/2 is (1-eps) - (1-2p)^2 >= 0 and x0 = 1/2; otherwise x0 is the
    last point found to have a positive slope in x, 0 when p = 0 or eps = 1.
    Beta carries alpha to x0, or is 0 (Wyner-Ziv) when alpha >= x0. Returns
    (beta, delta) arrays.
    """
    p, eps = params.p, params.eps
    x0 = 0.5
    if eps > 4.0 * p * (1.0 - p):
        def rising(x):
            y = p + x * (1.0 - 2.0 * p)
            return ((1.0 - eps) * math.log2((1.0 - x) / x)
                    > (1.0 - 2.0 * p) * math.log2((1.0 - y) / y))
        x0 = _bisect(rising, 64)[0]
    alphas = np.asarray(alphas, dtype=float)
    beta = np.zeros_like(alphas)
    below = alphas < x0
    beta[below] = (x0 - alphas[below]) / (1.0 - 2.0 * alphas[below])
    return beta, closed_form_batch(params, alphas, beta)[2]


def sweep_curve(params: BecBscParams, d_grid) -> list[CurvePoint]:
    """Equivocation-vs-distortion curve for the distortion-tight alpha.

    For each D: alpha = D/eps, delta_wz is the beta = 0 value and
    delta_general the maximum over beta, reached at beta_opt (`_best_beta`).
    """
    if params.eps <= 0:
        raise InvalidArgument("sweep needs eps > 0")
    ds = np.asarray(d_grid, dtype=float)
    bad = np.flatnonzero(~((ds >= 0) & (ds <= params.eps / 2.0 + 1e-12)))
    if bad.size:
        raise InvalidArgument(f"distortion {float(ds[bad[0]])} outside [0, eps/2]")
    alphas = np.minimum(ds / params.eps, 0.5)
    beta_opt, dgen = _best_beta(params, alphas)
    dwz = closed_form_batch(params, alphas, 0.0)[2]
    return [CurvePoint(*row) for row in
            zip(*(x.tolist() for x in (ds, dgen, dwz, alphas, beta_opt)))]


def delta_star(params: BecBscParams, d_budget: float,
               rate_budget: float = math.inf) -> float | None:
    """Delta*(d, r): the best equivocation of a binary-symmetric scheme with
    D <= d and R <= r, or None when none has both.

    D = eps alpha and `delta_general` do not fall as alpha grows, and
    R = eps (1 - h2(alpha)) does, so the best scheme takes the largest alpha
    the distortion budget allows, min(d, eps/2) / eps: `sweep_curve`'s
    delta_general there, if that alpha's rate is at most r + 1e-9.
    """
    point = sweep_curve(params, [min(d_budget, params.eps / 2.0)])[0]
    if params.eps * (1.0 - binary_entropy(point.alpha)) > rate_budget + 1e-9:
        return None
    return point.delta_general


def curve_csv(points: list[CurvePoint]) -> str:
    return csv_text(["D", "delta_general", "delta_wz", "alpha", "beta_opt"],
                    ([pt.D, pt.delta_general, pt.delta_wz, pt.alpha, pt.beta_opt]
                     for pt in points))


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
    # rate equation: eps (1 - h2(alpha)) = fraction * eps
    alpha = _inverse_h2(1.0 - min(rate_budget_fraction, 1.0))
    (beta_ll, beta_l), _ = _best_beta(params, [0.0, alpha])
    schemes = [BinaryScheme(0.0, float(beta_ll)), BinaryScheme(0.0, 0.0),
               BinaryScheme(alpha, float(beta_l)), BinaryScheme(alpha, 0.0)]
    tuples = zip(*(x.tolist() for x in closed_form_batch(
        params, [s.alpha for s in schemes], [s.beta for s in schemes])))
    return {name: (RDETuple(*tup), scheme)
            for name, tup, scheme in zip(TABLE_COLUMNS, tuples, schemes)}


def _inverse_h2(y: float) -> float:
    """The unique x in [0, 1/2] with h2(x) = y, to within 1e-12."""
    if not 0.0 <= y <= 1.0:
        raise InvalidArgument("h2 value must lie in [0, 1]")
    # h2 on plain floats (_bisect never tries x = 0 or 1/2); 0.5 / 2**39 < 1e-12
    lo, hi = _bisect(lambda x: -x * math.log2(x) - (1 - x) * math.log2(1 - x) < y, 39)
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
    rows = []
    for c in TABLE_COLUMNS:
        tup, scheme = columns[c]
        rows.append([c, *tup, scheme.alpha, scheme.beta])
    return csv_text(["column", "R", "D", "Delta", "alpha", "beta"], rows)
