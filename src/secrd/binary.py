"""Uniform binary source with BEC side information at Bob and BSC at Eve.

Closed-form region expressions for binary-symmetric auxiliary variables
(alpha: A->V crossover, beta: V->U crossover), the numeric table of
achievable tuples, and the equivocation-vs-distortion curve sweep. Every
closed-form value is cross-checkable against the general region
evaluator via `oracle_check`.
"""

from __future__ import annotations

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
    csv_text,
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


SCAN_BLOCK = 16  # alphas per beta-scan block; keeps the scan temporaries small


def _best_beta(params: BecBscParams, alphas, scan_points: int = 512,
               tol: float = 1e-7) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the equivocation over beta in [0, 1/2], for each alpha.

    Coarse scan followed by golden-section refinement around the best
    scanned point, run in lockstep over all alphas; each row stops once
    its own bracket is narrower than `tol`. Returns (beta, delta) arrays.
    """
    alphas = np.asarray(alphas, dtype=float)

    def delta(al, beta):
        return closed_form_batch(params, al, beta)[2]

    betas = np.linspace(0.0, 0.5, scan_points)
    best = np.empty(alphas.size, dtype=int)
    for i in range(0, alphas.size, SCAN_BLOCK):
        best[i:i + SCAN_BLOCK] = np.argmax(
            delta(alphas[i:i + SCAN_BLOCK, None], betas), axis=1)
    a = betas[np.maximum(0, best - 1)]
    b = betas[np.minimum(scan_points - 1, best + 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = delta(alphas, c), delta(alphas, d)
    rows = np.flatnonzero(b - a > tol)
    while rows.size:
        ra, rb, rc, rd = a[rows], b[rows], c[rows], d[rows]
        rfc, rfd = fc[rows], fd[rows]
        left = rfc >= rfd  # keep [a, d]: the new point is the lower one
        ra = np.where(left, ra, rc)
        rb = np.where(left, rd, rb)
        x = np.where(left, rb - phi * (rb - ra), ra + phi * (rb - ra))
        fx = delta(alphas[rows], x)
        a[rows], b[rows] = ra, rb
        c[rows] = np.where(left, x, rd)
        d[rows] = np.where(left, rc, x)
        fc[rows] = np.where(left, fx, rfd)
        fd[rows] = np.where(left, rfc, fx)
        rows = rows[rb - ra > tol]
    beta = 0.5 * (a + b)
    # snap to the exact Wyner-Ziv endpoint
    snap = (beta < tol) & (delta(alphas, 0.0) >= delta(alphas, beta) - 1e-15)
    beta[snap] = 0.0
    return beta, delta(alphas, beta)


def sweep_curve(params: BecBscParams, d_grid) -> list[CurvePoint]:
    """Equivocation-vs-distortion curve for the distortion-tight alpha.

    For each D: alpha = D/eps, delta_wz is the beta = 0 value and
    delta_general the maximum over beta.
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
    rows = []
    for c in TABLE_COLUMNS:
        tup, scheme = columns[c]
        rows.append([c, *tup, scheme.alpha, scheme.beta])
    return csv_text(["column", "R", "D", "Delta", "alpha", "beta"], rows)
