"""Rate-distortion-equivocation region evaluation and boundary search.

A problem instance is a joint p(a,b,e) plus a bounded distortion matrix.
An auxiliary scheme is a pair of channels A->V->U plus a deterministic
reconstruction map on V x B; `AuxScheme.check_fits` decides whether it fits
a source. `evaluate_scheme` returns the tightest (R, D, Delta) tuple the
scheme certifies; `sweep_boundary` searches over schemes on the channel
lattice of `_channel_grid`, which `ordering` shares, for boundary points
and reports a certified inner bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from math import comb
from typing import Sequence

import numpy as np

from .probs import (
    Alphabet,
    ConditionalPmf,
    InvalidArgument,
    JointPmf,
    ResourceLimit,
    all_words,
    constant_channel,
    csv_text,
    identity_channel,
    information,
    joint_from,
)


@dataclass(frozen=True)
class SecureSource:
    """Joint p(a,b,e) with a bounded distortion matrix d(a, a_hat).

    Construction also fixes, read-only, the arrays every layer reads:
    `p_abe`, the mass with its axes in (A, B, E) order; its marginals
    `p_ab`, `p_ae` and `p_a`; the side channels `b_given_a` and `e_given_a`,
    a row of zeros for a letter with p(a) = 0; and `h_a_b` = H(A|B).
    """

    joint: JointPmf
    distortion: np.ndarray = field(compare=False)
    d_max: float = 1.0

    def __post_init__(self):
        if set(self.joint.names) != {"A", "B", "E"}:
            raise InvalidArgument("source joint must have exactly axes A, B, E")
        na = len(self.joint.alphabet("A"))
        d = np.asarray(self.distortion, dtype=float).reshape(na, na)
        if not np.isfinite(self.d_max):
            raise InvalidArgument(f"d_max must be finite, got {self.d_max}")
        if not np.all((d >= 0) & (d <= self.d_max)):  # also false for NaN
            raise InvalidArgument("distortion entries must lie in [0, d_max]")
        p_abe = np.transpose(self.joint.mass, [self.joint.names.index(n) for n in "ABE"])
        p_ab, p_ae, p_a = p_abe.sum(axis=2), p_abe.sum(axis=1), p_abe.sum(axis=(1, 2))
        given_a = np.where(p_a > 0, p_a, 1.0)[:, None]
        arrays = dict(distortion=d, p_abe=p_abe, p_ab=p_ab, p_ae=p_ae, p_a=p_a,
                      b_given_a=p_ab / given_a, e_given_a=p_ae / given_a)
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "h_a_b", float(information(p_ab, "AB", "A", given="B")))

    @property
    def a_alphabet(self) -> Alphabet:
        return self.joint.alphabet("A")

    @property
    def b_alphabet(self) -> Alphabet:
        return self.joint.alphabet("B")

    @property
    def e_alphabet(self) -> Alphabet:
        return self.joint.alphabet("E")


def cardinality_caps(source: SecureSource) -> tuple[int, int]:
    """(|U|, |V|) caps beyond which nothing more is achievable."""
    na = len(source.a_alphabet)
    return na + 2, (na + 2) * (na + 1)


@dataclass(frozen=True)
class AuxScheme:
    """Channels A->V and V->U plus a deterministic map (v, b) -> a-hat index.

    U is generated from V only and V from A only, so the Markov chain
    U - V - A - (B, E) holds by construction.
    """

    v_channel: ConditionalPmf
    u_channel: ConditionalPmf
    reconstruction: np.ndarray = field(compare=False)

    def __post_init__(self):
        if self.v_channel.output != self.u_channel.input:
            raise InvalidArgument("u_channel input must equal v_channel output")
        recon = np.asarray(self.reconstruction, dtype=float)
        if recon.ndim != 2 or recon.shape[0] != len(self.v_channel.output):
            raise InvalidArgument("reconstruction must be a |V| x |B| index map")
        if not np.all(np.isfinite(recon) & (recon >= 0) & (recon == np.floor(recon))):
            raise InvalidArgument("reconstruction entries must be nonnegative integers")
        recon = recon.astype(int)
        recon.setflags(write=False)
        object.__setattr__(self, "reconstruction", recon)

    def check_fits(self, source: SecureSource) -> None:
        """Raise InvalidArgument unless V comes from A and the map is |V| x |B| -> A."""
        if self.v_channel.input != source.a_alphabet:
            raise InvalidArgument("v_channel input alphabet must match source A")
        if self.reconstruction.shape[1] != len(source.b_alphabet):
            raise InvalidArgument("reconstruction shape does not match |V| x |B|")
        if np.any(self.reconstruction >= len(source.a_alphabet)):
            raise InvalidArgument("reconstruction entries must be indices of A")

    def check_caps(self, source: SecureSource) -> None:
        u_cap, v_cap = cardinality_caps(source)
        if len(self.u_channel.output) > u_cap or len(self.v_channel.output) > v_cap:
            raise InvalidArgument(
                f"scheme exceeds cardinality caps |U|<={u_cap}, |V|<={v_cap}"
            )


@dataclass(frozen=True)
class RDETuple:
    rate: float
    distortion: float
    equivocation: float

    def __iter__(self):
        return iter((self.rate, self.distortion, self.equivocation))


def materialize(source: SecureSource, scheme: AuxScheme) -> JointPmf:
    """Full joint p(a, b, e, v, u) under the scheme's Markov structure."""
    scheme.check_fits(source)
    return joint_from(
        source.joint,
        [("V", scheme.v_channel, "A"), ("U", scheme.u_channel, "V")],
    )


def rde_batch(source: SecureSource, v: np.ndarray, u: np.ndarray,
              recon: np.ndarray | None = None):
    """(R, D, Delta, recon) of a batch of schemes on `source`, as
    `evaluate_scheme` defines them but with Delta = H(A|VB) + H(A|EU) -
    H(A|BU), the shared H(A|U) cancelled, before the positive part, so a
    search can climb it. The terms of the source alone are the source's own.

    `v[..., :, :]` holds |A| x |V| and `u[..., :, :]` |V| x |U| channel rows,
    and `recon[..., :, :]` |V| x |B| reconstruction maps; their leading batch
    axes broadcast, so `v[:, None]` with `u[None]` evaluates every V channel
    with every U channel. Terms of V alone (the costs, the map, D, H(A|BV)
    and R) are computed once per V channel. Without `recon` the
    distortion-optimal map is used and returned: ties break to the lowest
    symbol index, and zero-probability (v, b) pairs map to 0. Every output
    has the broadcast batch shape (plus |V| x |B| for the map).
    """
    p_abv = source.p_ab[:, :, None] * v[..., :, None, :]
    costs = np.swapaxes(p_abv, -1, -3) @ source.distortion  # costs[..., v, b, ahat]
    if recon is None:
        recon = costs.argmin(axis=-1)
        dist = costs.min(axis=-1).sum(axis=(-2, -1))
    else:
        dist = np.take_along_axis(costs, recon[..., None], axis=-1).sum(axis=(-3, -2, -1))
    w = v @ u  # the composite channel A -> U
    p_abu = source.p_ab[:, :, None] * w[..., :, None, :]
    p_aeu = source.p_ae[:, :, None] * w[..., :, None, :]
    h_a_bv = information(p_abv, "ABV", "A", given="BV")
    rate = np.maximum(0.0, source.h_a_b - h_a_bv)
    delta = (h_a_bv + information(p_aeu, "AEU", "A", given="EU")
             - information(p_abu, "ABU", "A", given="BU"))
    return (_broadcast(rate, delta.shape), _broadcast(dist, delta.shape), delta,
            _broadcast(recon, delta.shape + recon.shape[-2:]))


def _broadcast(x: np.ndarray, shape: tuple) -> np.ndarray:
    """`x` itself if it has `shape`, else a read-only view broadcast to it."""
    return x if x.shape == shape else np.broadcast_to(x, shape)


def evaluate_scheme(source: SecureSource, scheme: AuxScheme) -> RDETuple:
    """The tightest (R, D, Delta) tuple certified by the scheme.

    R = I(V;A|B), D = E[d(A, Ahat(V,B))], and
    Delta = [H(A|VB) + I(A;B|U) - I(A;E|U)]_+, the positive part applied
    here to the `rde_batch` value.
    """
    scheme.check_fits(source)
    rate, dist, delta, _ = rde_batch(source, scheme.v_channel.rows[None],
                                     scheme.u_channel.rows[None], scheme.reconstruction[None])
    return RDETuple(float(rate[0]), float(dist[0]), max(0.0, float(delta[0])))


def best_reconstruction(source: SecureSource, v_channel: ConditionalPmf) -> np.ndarray:
    """Distortion-optimal deterministic map (v, b) -> a-hat index.

    Ties break to the lowest symbol index; zero-probability (v, b) pairs
    map to index 0.
    """
    if v_channel.input != source.a_alphabet:
        raise InvalidArgument("v_channel input alphabet must match source A")
    u = np.ones((1, len(v_channel.output), 1))
    return rde_batch(source, v_channel.rows[None], u)[3][0]


def identity_scheme(source: SecureSource,
                    u_channel: ConditionalPmf | None = None) -> AuxScheme:
    """V = A with Ahat(v, b) = v; U defaults to a copy of V."""
    a = source.a_alphabet
    v_channel = identity_channel(a)
    u_channel = u_channel or identity_channel(a)
    nb = len(source.b_alphabet)
    recon = np.tile(np.arange(len(a))[:, None], (1, nb))
    return AuxScheme(v_channel, u_channel, recon)


def lossless_region_point(source: SecureSource,
                          u_channel: ConditionalPmf) -> RDETuple:
    """The V = A scheme's (H(A|B), E[d(A, A)], [I(A;B|U) - I(A;E|U)]_+), as evaluated."""
    return evaluate_scheme(source, identity_scheme(source, u_channel))


def less_noisy_bound(source: SecureSource, scheme: AuxScheme) -> RDETuple:
    """Specialized point with U constant (Wyner-Ziv coding, Bob less noisy)."""
    collapsed = replace(scheme, u_channel=constant_channel(scheme.v_channel.output))
    return evaluate_scheme(source, collapsed)


def eve_less_noisy_bound(source: SecureSource, scheme: AuxScheme) -> RDETuple:
    """Specialized point with U = V; equivocation reduces to H(A|VE)."""
    copied = replace(scheme, u_channel=identity_channel(scheme.v_channel.output))
    return evaluate_scheme(source, copied)


# ---------------------------------------------------------------------------
# Boundary search: a coarse grid over channel parameters, evaluated once per
# sweep, then coordinate-wise local refinement with step halving, one kernel
# call per improvement, replaying the step order. The result is a certified
# inner bound; every reported tuple is achievable by its stored scheme.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    v_size: int = 2
    u_size: int = 2
    grid_resolution: int = 6       # simplex subdivisions per channel row
    refine_rounds: int = 14        # step halves once per round
    rate_budget: float | None = None

    def __post_init__(self):
        for name, low in (("v_size", 1), ("u_size", 1), ("grid_resolution", 1),
                          ("refine_rounds", 0)):
            if not getattr(self, name) >= low:  # also false for NaN
                raise InvalidArgument(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.rate_budget is not None and not self.rate_budget >= 0.0:
            raise InvalidArgument(f"rate budget must be >= 0, got {self.rate_budget}")


@dataclass
class BoundaryCurve:
    points: list[tuple[float, RDETuple, AuxScheme]]  # (D budget, tuple, scheme)

    def to_csv(self) -> str:
        return csv_text(["D", "R", "Delta", "scheme_id"],
                        ([float(d), tup.rate, tup.equivocation, i]
                         for i, (d, tup, _) in enumerate(self.points)))


MAX_GRID_CHANNELS = 1 << 22  # above 41^4, so |A| = 4 still runs at resolution 40


def _channel_grid(n_in: int, n_out: int, resolution: int) -> np.ndarray:
    """All n_in x n_out channels whose entries are multiples of 1/resolution.

    Shape (M, n_in, n_out). Rows run over the simplex grid in lexicographic
    order, and the last input's row varies fastest.
    """
    if n_out < 1 or resolution < 1:
        raise InvalidArgument(f"a channel grid needs at least one output and "
                              f"resolution >= 1, got {n_out} and {resolution}")
    count = comb(resolution + n_out - 1, n_out - 1) ** n_in
    if count > MAX_GRID_CHANNELS:
        raise ResourceLimit(f"a grid of {count} channels exceeds the limit "
                            f"{MAX_GRID_CHANNELS}")
    rows = np.zeros((1, 0), dtype=np.int64)  # a row's leading entries, by column
    for _ in range(n_out - 1):
        room = resolution + 1 - rows.sum(axis=1)  # choices for the next entry
        nxt = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        rows = np.column_stack([np.repeat(rows, room, axis=0), nxt])
    rows = np.column_stack([rows, resolution - rows.sum(axis=1)]) / resolution
    return rows[all_words(len(rows), n_in)]


@lru_cache(maxsize=None)
def _moves(v_shape: tuple, u_shape: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every move of unit mass between two entries of one row of the V or the
    U channel: V moves then U moves, each row-major over (row, to, from) with
    to != from.

    Returns the moves as +1 at (row, to) and -1 at (row, from) of the moved
    channel and zero elsewhere, shapes (moves, *v_shape) and (moves,
    *u_shape), and the index of each move's (row, from) entry in the V and
    then the U rows, flattened and concatenated.
    """
    shapes = (v_shape, u_shape)
    moves = [(c, row, to, frm) for c, (n_in, n_out) in enumerate(shapes)
             for row, to, frm in product(range(n_in), range(n_out), range(n_out))
             if to != frm]
    shifts = tuple(np.zeros((len(moves), *shape)) for shape in shapes)
    for m, (c, row, to, frm) in enumerate(moves):
        shifts[c][m, row, to], shifts[c][m, row, frm] = 1.0, -1.0
    sources = [c * np.prod(v_shape) + row * shapes[c][1] + frm for c, row, _, frm in moves]
    cached = (*shifts, np.array(sources, dtype=np.intp))
    for a in cached:  # shared by every caller
        a.flags.writeable = False
    return cached


def _neighbors(v_rows: np.ndarray, u_rows: np.ndarray,
               steps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (V, U) rows that one move of each step makes, as one batch of blocks
    in step order, and each block's size. A block holds the moves of `_moves`
    in order, the other channel's rows kept, less each move whose `from`
    entry holds under the step."""
    dv, du, sources = _moves(v_rows.shape, u_rows.shape)
    ok = np.concatenate([v_rows.ravel(), u_rows.ravel()])[sources] >= steps[:, None]
    col = steps[:, None, None, None]
    return (v_rows + col * dv)[ok], (u_rows + col * du)[ok], ok.sum(axis=1)


def _normalized(rows: np.ndarray) -> np.ndarray:
    """Channel rows scaled to sum to 1, as ConditionalPmf scales them."""
    return rows / rows.sum(axis=-1, keepdims=True)


def _scored(source: SecureSource, score, v: np.ndarray, u: np.ndarray) -> tuple:
    """(v, u, R, D, Delta, recon, score) of candidates, their rows normalized."""
    v, u = _normalized(v), _normalized(u)
    found = rde_batch(source, v, u)
    return (v, u, *found, score(*found[:3]))


def _coarse_grid(source: SecureSource, config: SearchConfig) -> tuple:
    """Every V-grid channel with every U-grid channel, evaluated in one call.

    Returns the (v, u, R, D, Delta, recon) rows of all M x N candidates, V
    channel major, as `_search` takes them.
    """
    v_grid = _normalized(_channel_grid(len(source.a_alphabet), config.v_size,
                                       config.grid_resolution))
    u_grid = _normalized(_channel_grid(config.v_size, config.u_size,
                                       config.grid_resolution))
    rate, dist, delta, recon = rde_batch(source, v_grid[:, None], u_grid[None])
    m, n = delta.shape
    return (np.repeat(v_grid, n, axis=0), np.tile(u_grid, (m, 1, 1)), rate.ravel(),
            dist.ravel(), delta.ravel(), recon.reshape(m * n, *recon.shape[2:]))


def _search(source: SecureSource, score, config: SearchConfig, coarse: tuple,
            seeds: Sequence[AuxScheme] = ()) -> tuple[AuxScheme, RDETuple] | None:
    """Maximize `score` over schemes; None if no candidate is feasible.

    `score` maps arrays (R, D, Delta) of a candidate batch, Delta before the
    positive part, to the objective, -inf where a candidate is infeasible;
    the returned tuple's Delta is clamped. `coarse` is the evaluated grid
    from `_coarse_grid`, shared by every search of a sweep; only `seeds` and
    the refinement moves are evaluated here. Batches come in the order grid,
    seeds, moves. A batch's first maximum replaces the best when it is
    feasible and either nothing is kept yet or it beats the best by more
    than 1e-15, so the search is deterministic.

    Refinement moves one step of mass within one channel row, the step
    halving from 1/grid_resolution once per round while no move improves.
    It makes one kernel call per improvement, replaying the step order: the
    call holds the moves of every step still to come as blocks in step
    order, and the first block that improves sets the new best, from which
    the next call starts at that same step.
    """
    best = None  # (score, v rows, u rows, reconstruction, (R, D, Delta))

    def consider(v, u, rate, dist, delta, recon, scores):
        nonlocal best
        i = int(np.argmax(scores))
        if scores[i] > -np.inf and (best is None or scores[i] > best[0] + 1e-15):
            best = (float(scores[i]), v[i], u[i], recon[i], (rate[i], dist[i], delta[i]))

    consider(*coarse, score(*coarse[2:5]))
    if seeds:
        consider(*_scored(source, score, np.array([s.v_channel.rows for s in seeds]),
                          np.array([s.u_channel.rows for s in seeds])))
    if best is None:
        return None

    steps = 1.0 / config.grid_resolution / 2.0 ** np.arange(config.refine_rounds)
    while len(steps):
        v, u, counts = _neighbors(best[1], best[2], steps)
        batch = _scored(source, score, v, u)
        better = np.flatnonzero(batch[-1] > best[0] + 1e-15)
        if not better.size:
            break
        ends = np.cumsum(counts)
        k = int(np.searchsorted(ends, better[0], side="right"))  # the first block to improve
        kept = best
        consider(*(x[ends[k] - counts[k]:ends[k]] for x in batch))
        # a NaN first maximum keeps the best, and its step is then done
        steps = steps[k + (best is kept):]
    _, v_rows, u_rows, recon, (rate, dist, delta) = best
    v_alph = Alphabet(tuple(f"v{i}" for i in range(config.v_size)))
    u_alph = Alphabet(tuple(f"u{i}" for i in range(config.u_size)))
    v_channel = ConditionalPmf(source.a_alphabet, v_alph, v_rows)
    scheme = AuxScheme(v_channel, ConditionalPmf(v_alph, u_alph, u_rows), recon)
    return scheme, RDETuple(float(rate), float(dist), max(0.0, float(delta)))


def sweep_boundary(source: SecureSource, distortion_grid: Sequence[float],
                   config: SearchConfig = SearchConfig()) -> BoundaryCurve:
    """Best found (R, Delta) per distortion budget; certified inner bound.

    Budgets run in increasing order; a NaN budget is an error. For each D
    the minimal rate is searched first (score -R, -inf where E[d] > D); the
    equivocation is then maximized (score Delta, -inf where E[d] > D or, when
    a rate budget is configured, R > budget). Schemes found at smaller
    budgets seed larger ones, which keeps Delta nondecreasing along the
    curve. The coarse grid depends on neither the budget nor the score, so
    it is evaluated once per call and shared by all 2 x len(grid) searches.
    """
    grid = sorted(distortion_grid)
    if not grid or np.isnan(grid).any():
        raise InvalidArgument("distortion grid must be nonempty, with no NaN budget")
    u_cap, v_cap = cardinality_caps(source)
    if config.u_size > u_cap or config.v_size > v_cap:
        raise InvalidArgument("search config exceeds cardinality caps")
    coarse = _coarse_grid(source, config)
    points = []
    seeds: list[AuxScheme] = []
    budget = config.rate_budget if config.rate_budget is not None else np.inf
    for d_budget in grid:
        def min_rate(r, dist, eq):
            return np.where(dist <= d_budget + 1e-12, -r, -np.inf)

        def max_delta(r, dist, eq):
            return np.where((dist <= d_budget + 1e-12) & (r <= budget + 1e-9), eq, -np.inf)

        rate_found = _search(source, min_rate, config, coarse, seeds)
        if rate_found is None:
            continue
        delta_found = _search(source, max_delta, config, coarse, seeds + [rate_found[0]])
        if delta_found is None:
            continue
        scheme, tup = delta_found
        points.append((d_budget, tup, scheme))
        seeds = [scheme, rate_found[0]]
    return BoundaryCurve(points)
