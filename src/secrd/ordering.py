"""Ordering tests between the two side-information channels.

Three nested relations are considered, from strongest to weakest:
stochastically degraded, less noisy, more capable. Degradedness is a
linear feasibility question; the more-capable test is a direct mutual
information comparison; general less-noisy testing is undecidable on a
finite grid, so the search reports evidence or a counterexample.

For the BEC/BSC family of the worked example the three thresholds in
the erasure probability are 2p, 4p(1-p) and h2(p).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .probs import (
    Alphabet,
    ConditionalPmf,
    InvalidArgument,
    JointPmf,
    batch_entropy,
    binary_entropy,
)
from .region import SecureSource, _channel_grid

FEAS_TOL = 1e-9


@dataclass(frozen=True)
class BecBscParams:
    """BSC crossover p to Eve, BEC erasure probability eps to Bob.

    p is restricted to [0, 1/2] (the canonical BSC form); eps may take any
    value in [0, 1], since every erasure probability is a valid channel and
    the interesting classification boundaries lie above 2p.
    """

    p: float
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise InvalidArgument("p must lie in [0, 1/2]")
        if not 0.0 <= self.eps <= 1.0:
            raise InvalidArgument("eps must lie in [0, 1]")


@dataclass(frozen=True)
class OrderingVerdict:
    """Per-direction verdicts; 'forward' means B dominates E.

    Hierarchy is enforced at construction: degraded implies less noisy,
    less noisy implies more capable.
    """

    degraded: tuple[bool, bool]
    less_noisy: tuple[str, str]      # "yes" | "no" | "unknown"
    more_capable: tuple[bool, bool]

    def __post_init__(self):
        for i in range(2):
            if self.degraded[i] and self.less_noisy[i] != "yes":
                raise InvalidArgument("degraded requires less_noisy=yes")
            if self.less_noisy[i] == "yes" and not self.more_capable[i]:
                raise InvalidArgument("less_noisy=yes requires more_capable")

    def to_record(self) -> str:
        keys = ("degraded", "less_noisy", "more_capable")
        fwd = (self.degraded[0], self.less_noisy[0], self.more_capable[0])
        rev = (self.degraded[1], self.less_noisy[1], self.more_capable[1])

        def fmt(v):
            return v if isinstance(v, str) else ("yes" if v else "no")

        parts = [f"{k}={fmt(v)}" for k, v in zip(keys, fwd)]
        parts += [f"rev_{k}={fmt(v)}" for k, v in zip(keys, rev)]
        return " ".join(parts)


def is_degraded(first: ConditionalPmf, second: ConditionalPmf,
                tol: float = FEAS_TOL) -> tuple[bool, ConditionalPmf | None]:
    """Is `second` a stochastically degraded version of `first`?

    Decides feasibility of p(e|a) = sum_b p(b|a) q(e|b) over row-stochastic
    q >= 0 by minimizing the L1 residual with an LP; returns the witness
    channel q when feasible.
    """
    from scipy.optimize import linprog  # deferred: importing scipy.optimize is slow

    if first.input != second.input:
        raise InvalidArgument("channels must share their input alphabet")
    pb = np.asarray(first.rows)   # |A| x |B|
    pe = np.asarray(second.rows)  # |A| x |E|
    na, nb = pb.shape
    ne = pe.shape[1]
    nq = nb * ne
    # variables: q (flattened row-major), t (slack per equality constraint)
    nt = na * ne
    c = np.concatenate([np.zeros(nq), np.ones(nt)])
    # |(pb q)_{a,e} - pe_{a,e}| <= t_{a,e}
    m = np.kron(pb, np.eye(ne))  # m[a * ne + e, b * ne + e] = pb[a, b]
    a_ub = np.block([[m, -np.eye(nt)], [-m, -np.eye(nt)]])
    b_ub = np.concatenate([pe.ravel(), -pe.ravel()])
    # rows of q sum to 1
    a_eq = np.hstack([np.kron(np.eye(nb), np.ones(ne)), np.zeros((nb, nt))])
    b_eq = np.ones(nb)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * (nq + nt), method="highs")
    if not res.success:
        raise RuntimeError(f"degradedness LP failed: {res.message}")
    if res.fun > tol * nt + tol:
        return False, None
    q = res.x[:nq].reshape(nb, ne)
    q = np.clip(q, 0.0, None)
    q /= q.sum(axis=1, keepdims=True)
    return True, ConditionalPmf(first.output, second.output, q)


def side_channels(source: SecureSource) -> tuple[ConditionalPmf, ConditionalPmf]:
    """The conditionals p(b|a) and p(e|a) extracted from the source joint."""
    p_abe = source.p_abe
    pa = p_abe.sum(axis=(1, 2))[:, None]
    if np.any(pa <= 0):
        raise InvalidArgument("side channels undefined for zero-mass A symbols")
    return (
        ConditionalPmf(source.a_alphabet, source.b_alphabet, p_abe.sum(axis=2) / pa),
        ConditionalPmf(source.a_alphabet, source.e_alphabet, p_abe.sum(axis=1) / pa),
    )


def _information(p: np.ndarray) -> np.ndarray:
    """I(X;Y) in bits of each p[k, x, y], clamped at 0."""
    return np.maximum(0.0, batch_entropy(p.sum(axis=2)) + batch_entropy(p.sum(axis=1))
                      - batch_entropy(p))


def is_more_capable(source: SecureSource, tol: float = FEAS_TOL) -> tuple[bool, bool]:
    """Compare I(A;B) against I(A;E); ties report yes in both directions."""
    iab = float(_information(source.p_abe.sum(axis=2)[None])[0])
    iae = float(_information(source.p_abe.sum(axis=1)[None])[0])
    return iab >= iae - tol, iae >= iab - tol


def classify_bec_bsc(params: BecBscParams) -> OrderingVerdict:
    """Exact verdict for the BEC(eps)-to-Bob / BSC(p)-to-Eve family.

    In the B-over-E direction: degraded iff eps <= 2p, less noisy iff
    eps <= 4p(1-p), more capable iff eps <= h2(p). The reverse direction
    holds only in the degenerate case p = 0 (Eve sees A perfectly).
    """
    p, eps = params.p, params.eps
    deg = eps <= 2.0 * p + FEAS_TOL
    ln = eps <= 4.0 * p * (1.0 - p) + FEAS_TOL
    mc = eps <= binary_entropy(p) + FEAS_TOL
    rev = p <= FEAS_TOL
    rev_eps = rev or eps >= 1.0 - FEAS_TOL and p >= 0.5 - FEAS_TOL
    return OrderingVerdict(
        degraded=(deg, rev_eps),
        less_noisy=("yes" if ln else "no", "yes" if rev_eps else "no"),
        more_capable=(mc, rev_eps),
    )


def classify_source(source: SecureSource) -> OrderingVerdict:
    """Ordering verdict for any source, from its joint p(a, b, e).

    Degraded is the LP; less noisy is yes when degraded, else the grid
    search's "no" or "unknown"; more capable is the MI test or less noisy.
    """
    ch_b, ch_e = side_channels(source)
    degraded = (is_degraded(ch_b, ch_e)[0], is_degraded(ch_e, ch_b)[0])
    # the reverse direction is the forward one with B and E swapped
    swapped = replace(source, joint=JointPmf(
        (("A", source.a_alphabet), ("B", source.e_alphabet), ("E", source.b_alphabet)),
        np.swapaxes(source.p_abe, 1, 2)))
    less_noisy = tuple(
        "yes" if deg else
        "unknown" if less_noisy_search(src)[0] == "no-violation" else "no"
        for deg, src in zip(degraded, (source, swapped)))
    more_capable = tuple(mc or ln == "yes"
                         for mc, ln in zip(is_more_capable(source), less_noisy))
    return OrderingVerdict(degraded, less_noisy, more_capable)


def less_noisy_search(source: SecureSource, resolution: int = 40,
                      u_size: int | None = None, tol: float = FEAS_TOL):
    """Grid search for a violation of I(U;B) >= I(U;E).

    Auxiliary U is parameterized by a channel A -> U (which enforces the
    Markov chain U - A - (B, E)); all row-stochastic matrices on a simplex
    grid are tried. Returns ("counterexample", channel) when a violating U
    is found, else ("no-violation", resolution) -- evidence, not proof.
    """
    a = source.a_alphabet
    u_size = u_size or 2
    if u_size > len(a) + 1:
        raise InvalidArgument("less-noisy search caps |U| at |A| + 1")
    u_alph = Alphabet(tuple(f"u{i}" for i in range(u_size)))
    # every channel A -> U on the region search's lattice, as one batch
    channels = _channel_grid(len(a), u_size, resolution)
    p_ba, p_ea = source.p_abe.sum(axis=2).T, source.p_abe.sum(axis=1).T
    violation = _information(p_ea @ channels) - _information(p_ba @ channels)
    worst = int(np.argmax(violation))  # the first of equal maxima
    if violation[worst] > tol:
        return "counterexample", ConditionalPmf(a, u_alph, channels[worst])
    return "no-violation", resolution
