"""Ordering tests between the two side-information channels.

Three nested relations are considered, from strongest to weakest:
stochastically degraded, less noisy, more capable. Degradedness is a
linear feasibility question, decided by a small dense simplex in this
module (numpy only, no LP library); the more-capable test is a direct
mutual information comparison; general less-noisy testing is undecidable
on a finite grid, so one batch of U channels on the region search's
lattice gives each direction a counterexample or evidence.

For the BEC/BSC family of the worked example the three thresholds in
the erasure probability are 2p, 4p(1-p) and h2(p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probs import (
    Alphabet,
    ConditionalPmf,
    InvalidArgument,
    ResourceLimit,
    binary_entropy,
    information,
)
from .region import SecureSource, _channel_grid

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9     # smallest pivot element and improving reduced cost
MAX_PIVOTS = 10_000  # the degradedness simplex gives up after this many
LESS_NOISY_RESOLUTION = 40  # simplex subdivisions per row of an A -> U channel


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


def _bland(t: np.ndarray, basis: np.ndarray) -> None:
    """Pivot a feasible canonical tableau to a minimum, in place.

    `t` holds one row per constraint plus a last row of reduced costs, and
    its last column the right-hand sides; basis[i] is row i's basic column.
    Bland's rule: the lowest-index improving column enters, and ratio ties
    leave by lowest basis index. Raises ResourceLimit after MAX_PIVOTS.
    """
    m, n = t.shape[0] - 1, t.shape[1] - 1
    for pivots in range(MAX_PIVOTS + 1):
        j = np.argmax(t[m, :n] < -PIVOT_TOL)
        if t[m, j] >= -PIVOT_TOL:
            return
        rows = np.nonzero(t[:m, j] > PIVOT_TOL)[0]  # empty only by round-off
        if pivots == MAX_PIVOTS or not rows.size:
            raise ResourceLimit(f"degradedness simplex stalled after {pivots} pivots")
        ratios = t[rows, -1] / t[rows, j]
        ties = rows[ratios == ratios.min()]
        i = ties[np.argmin(basis[ties])]
        t[i] /= t[i, j]
        col = t[:, j].copy()
        col[i] = 0.0
        t -= np.outer(col, t[i])
        basis[i] = j


def _l1_simplex(pb: np.ndarray, pe: np.ndarray) -> np.ndarray:
    """The row-stochastic q minimizing sum |pb q - pe|.

    The start puts every row of q on the last output, which is feasible, so
    no phase 1 is needed. Variables: q without its last column; one slack
    per row of q (q[b, -1] itself, from sum_e q[b, e] = 1); and per residual
    r = pb q - pe a pair w, w' >= 0 with w - w' = +-r, its sign chosen so
    that the start value |r| sits in w.
    """
    na, nb = pb.shape
    ne = pe.shape[1]
    nx, nr = nb * (ne - 1), na * ne
    m, n = nb + nr, nx + nb + 2 * nr
    r0 = -pe.copy()  # the residual at the start
    r0[:, -1] += pb.sum(axis=1)
    r0 = r0.ravel()
    # d r[a, e] / d q[b, e'] = pb[a, b] (delta(e, e') - delta(e, ne - 1))
    shift = np.eye(ne)[:, :-1] - np.eye(ne)[:, -1:]
    t = np.zeros((m + 1, n + 1))
    t[:nb, :nx] = np.repeat(np.eye(nb), ne - 1, axis=1)
    t[:nb, -1] = 1.0
    t[nb:m, :nx] = (pb[:, None, :, None] * shift[None, :, None, :]).reshape(nr, nx)
    t[nb:m, :nx] *= np.where(r0 < 0.0, 1.0, -1.0)[:, None]
    t[nb:m, -1] = np.abs(r0)
    basis = np.arange(nx, nx + m)  # the slacks of q's rows, then the w's
    t[:m, basis] = np.eye(m)
    t[nb:m, nx + m:n] = -np.eye(nr)
    t[m, nx + nb:n] = 1.0
    t[m] -= t[nb:m].sum(axis=0)  # price out the starting w's
    _bland(t, basis)
    x = np.zeros(n)
    x[basis] = t[:m, -1]
    return np.column_stack([x[:nx].reshape(nb, ne - 1), x[nx:nx + nb]])


def is_degraded(first: ConditionalPmf,
                second: ConditionalPmf) -> tuple[bool, ConditionalPmf | None]:
    """Is `second` a stochastically degraded version of `first`?

    Decides feasibility of p(e|a) = sum_b p(b|a) q(e|b) over row-stochastic
    q >= 0 by minimizing the L1 residual with an LP; returns the witness
    channel q when feasible. Raises ResourceLimit if the simplex stalls.
    """
    if first.input != second.input:
        raise InvalidArgument("channels must share their input alphabet")
    pb, pe = first.rows, second.rows
    q = _l1_simplex(pb, pe)
    if np.abs(pb @ q - pe).sum() > FEAS_TOL * pe.size + FEAS_TOL:
        return False, None
    q = np.clip(q, 0.0, None)
    q /= q.sum(axis=1, keepdims=True)
    return True, ConditionalPmf(first.output, second.output, q)


def side_channels(source: SecureSource) -> tuple[ConditionalPmf, ConditionalPmf]:
    """The conditionals p(b|a) and p(e|a) of the source, on the letters of A
    with p(a) > 0; the orderings, like the region, depend on p(a) only
    through its support."""
    keep = source.p_a > 0
    a = Alphabet(tuple(s for s, k in zip(source.a_alphabet.symbols, keep) if k))
    return (ConditionalPmf(a, source.b_alphabet, source.b_given_a[keep]),
            ConditionalPmf(a, source.e_alphabet, source.e_given_a[keep]))


def is_more_capable(source: SecureSource) -> tuple[bool, bool]:
    """Compare I(A;B) against I(A;E) as H(A|E) against H(A|B); ties say yes both ways."""
    h_a_b, h_a_e = source.h_a_b, float(information(source.p_ae, "AE", "A", given="E"))
    return h_a_e >= h_a_b - FEAS_TOL, h_a_b >= h_a_e - FEAS_TOL


def classify_bec_bsc(params: BecBscParams) -> OrderingVerdict:
    """Exact verdict for the BEC(eps)-to-Bob / BSC(p)-to-Eve family.

    In the B-over-E direction: degraded iff eps <= 2p, less noisy iff
    eps <= 4p(1-p), more capable iff eps <= h2(p). In reverse, degraded iff
    p = 0 (Eve sees A) or eps = 1 (Bob sees nothing); the reverse less-noisy
    and more-capable verdicts repeat it, so they miss the cases where only
    the weaker order holds (more capable wherever eps >= h2(p)).
    """
    p, eps = params.p, params.eps
    deg = eps <= 2.0 * p + FEAS_TOL
    ln = eps <= 4.0 * p * (1.0 - p) + FEAS_TOL
    mc = eps <= binary_entropy(p) + FEAS_TOL
    rev_eps = p <= FEAS_TOL or eps >= 1.0 - FEAS_TOL
    return OrderingVerdict(
        degraded=(deg, rev_eps),
        less_noisy=("yes" if ln else "no", "yes" if rev_eps else "no"),
        more_capable=(mc, rev_eps),
    )


def classify_source(source: SecureSource) -> OrderingVerdict:
    """Ordering verdict for any source, from its joint p(a, b, e).

    Degraded is the LP; less noisy is yes when degraded, else "no" where one
    batch's I(U;E) - I(U;B) (its negation, in reverse) exceeds FEAS_TOL, else
    "unknown"; more capable is the MI test or less noisy.
    """
    ch_b, ch_e = side_channels(source)
    degraded = (is_degraded(ch_b, ch_e)[0], is_degraded(ch_e, ch_b)[0])
    gap = None if all(degraded) else _less_noisy_gap(source, LESS_NOISY_RESOLUTION)[1]
    less_noisy = tuple("yes" if deg else "no" if np.max(sign * gap) > FEAS_TOL else "unknown"
                       for deg, sign in zip(degraded, (1.0, -1.0)))
    more_capable = tuple(mc or ln == "yes"
                         for mc, ln in zip(is_more_capable(source), less_noisy))
    return OrderingVerdict(degraded, less_noisy, more_capable)


def _less_noisy_gap(source: SecureSource, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """(channels, I(U;E) - I(U;B) = H(U|B) - H(U|E)) for every channel of the
    lattice from the letters of A with p(a) > 0 to a binary U; a letter with
    p(a) = 0 cannot change the gap."""
    keep = source.p_a > 0
    channels = _channel_grid(int(keep.sum()), 2, resolution)
    return channels, (information(source.p_ab[keep].T @ channels, "BU", "U", given="B")
                      - information(source.p_ae[keep].T @ channels, "EU", "U", given="E"))


def less_noisy_search(source: SecureSource, resolution: int = LESS_NOISY_RESOLUTION):
    """Grid search for a violation of I(U;B) >= I(U;E).

    A binary U is parameterized by a channel A -> U (which enforces the
    Markov chain U - A - (B, E)); all row-stochastic matrices on a simplex
    grid are tried, on the letters with p(a) > 0. Returns ("counterexample",
    channel) when a violating U is found, with the row (0, 1) for each letter
    with p(a) = 0, else ("no-violation", resolution) -- evidence, not proof.
    """
    channels, violation = _less_noisy_gap(source, resolution)
    worst = int(np.argmax(violation))  # the first of equal maxima
    if violation[worst] > FEAS_TOL:
        rows = np.tile([0.0, 1.0], (len(source.a_alphabet), 1))
        rows[source.p_a > 0] = channels[worst]
        return "counterexample", ConditionalPmf(source.a_alphabet, Alphabet(("u0", "u1")), rows)
    return "no-violation", resolution
