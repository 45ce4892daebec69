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
    """Joint p(a,b,e) with a bounded distortion matrix d(a, a_hat)."""

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
        d.setflags(write=False)
        object.__setattr__(self, "distortion", d)

    @property
    def a_alphabet(self) -> Alphabet:
        return self.joint.alphabet("A")

    @property
    def b_alphabet(self) -> Alphabet:
        return self.joint.alphabet("B")

    @property
    def e_alphabet(self) -> Alphabet:
        return self.joint.alphabet("E")

    @property
    def p_abe(self) -> np.ndarray:
        """The joint mass with its axes in (A, B, E) order."""
        return np.transpose(self.joint.mass, [self.joint.names.index(n) for n in "ABE"])


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


def rde_batch(p_abe: np.ndarray, d: np.ndarray, v: np.ndarray, u: np.ndarray,
              recon: np.ndarray | None = None):
    """(R, D, Delta, recon) of a batch of schemes, as `evaluate_scheme` defines
    them but with Delta before the positive part, so a search can climb it.

    `v[..., :, :]` holds |A| x |V| and `u[..., :, :]` |V| x |U| channel rows,
    and `recon[..., :, :]` |V| x |B| reconstruction maps; their leading batch
    axes broadcast, so `v[:, None]` with `u[None]` evaluates every V channel
    with every U channel. Terms of V alone (the costs, the map, D, H(A|BV)
    and R) are computed once per V channel. Without `recon` the
    distortion-optimal map is used and returned: ties break to the lowest
    symbol index, and zero-probability (v, b) pairs map to 0. Every output
    has the broadcast batch shape (plus |V| x |B| for the map).
    """
    p_ab = p_abe.sum(axis=2)
    p_abv = p_ab[:, :, None] * v[..., :, None, :]
    costs = np.swapaxes(p_abv, -1, -3) @ d  # costs[..., v, b, ahat]
    if recon is None:
        recon = costs.argmin(axis=-1)
    dist = np.take_along_axis(costs, recon[..., None], axis=-1).sum(axis=(-3, -2, -1))
    w = v @ u  # the composite channel A -> U
    p_abu = p_ab[:, :, None] * w[..., :, None, :]
    p_aeu = p_abe.sum(axis=1)[:, :, None] * w[..., :, None, :]
    h_a_bv = information(p_abv, "ABV", "A", given="BV")
    h_a_u = information(p_abu.sum(axis=-2), "AU", "A", given="U")
    rate = np.maximum(0.0, information(p_ab, "AB", "A", given="B") - h_a_bv)
    i_ab_u = np.maximum(0.0, h_a_u - information(p_abu, "ABU", "A", given="BU"))
    i_ae_u = np.maximum(0.0, h_a_u - information(p_aeu, "AEU", "A", given="EU"))
    delta = h_a_bv + i_ab_u - i_ae_u
    return (np.broadcast_to(rate, delta.shape), np.broadcast_to(dist, delta.shape), delta,
            np.broadcast_to(recon, delta.shape + recon.shape[-2:]))


def evaluate_scheme(source: SecureSource, scheme: AuxScheme) -> RDETuple:
    """The tightest (R, D, Delta) tuple certified by the scheme.

    R = I(V;A|B), D = E[d(A, Ahat(V,B))], and
    Delta = [H(A|VB) + I(A;B|U) - I(A;E|U)]_+, the positive part applied
    here to the `rde_batch` value.
    """
    scheme.check_fits(source)
    rate, dist, delta, _ = rde_batch(
        source.p_abe, source.distortion, scheme.v_channel.rows[None],
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
    return rde_batch(source.p_abe, source.distortion, v_channel.rows[None], u)[3][0]


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
# sweep, then coordinate-wise local refinement with step halving. The result
# is a certified inner bound; every reported tuple is achievable by its
# stored scheme.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    v_size: int = 2
    u_size: int = 2
    grid_resolution: int = 6       # simplex subdivisions per channel row
    refine_rounds: int = 14        # step halves once per round
    rate_budget: float | None = None

    def __post_init__(self):
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


def _row_moves(rows: np.ndarray, step: float) -> np.ndarray:
    """Neighbor matrices: move `step` mass between two entries of one row."""
    n_in, n_out = rows.shape
    moves = []
    for i, j, k in product(range(n_in), range(n_out), range(n_out)):
        if j != k and rows[i, k] >= step:
            new = rows.copy()
            new[i, k] -= step
            new[i, j] += step
            moves.append(new)
    return np.array(moves).reshape(-1, n_in, n_out)


def _normalized(rows: np.ndarray) -> np.ndarray:
    """Channel rows scaled to sum to 1, as ConditionalPmf scales them."""
    return rows / rows.sum(axis=-1, keepdims=True)


def _coarse_grid(source: SecureSource, config: SearchConfig) -> tuple:
    """Every V-grid channel with every U-grid channel, evaluated in one call.

    Returns the (v, u, R, D, Delta, recon) rows of all M x N candidates, V
    channel major, as `_search` takes them.
    """
    v_grid = _normalized(_channel_grid(len(source.a_alphabet), config.v_size,
                                       config.grid_resolution))
    u_grid = _normalized(_channel_grid(config.v_size, config.u_size,
                                       config.grid_resolution))
    rate, dist, delta, recon = rde_batch(source.p_abe, source.distortion,
                                         v_grid[:, None], u_grid[None])
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
    """
    best = None  # (score, v rows, u rows, reconstruction, (R, D, Delta))

    def consider(v, u, rate, dist, delta, recon):
        nonlocal best
        scores = score(rate, dist, delta)
        if not scores.size:  # no moves when |V| = 1 or |U| = 1
            return
        i = int(np.argmax(scores))
        if scores[i] > -np.inf and (best is None or scores[i] > best[0] + 1e-15):
            best = (float(scores[i]), v[i], u[i], recon[i], (rate[i], dist[i], delta[i]))

    def evaluate(v, u):
        v, u = _normalized(v), _normalized(u)
        consider(v, u, *rde_batch(source.p_abe, source.distortion, v, u))

    consider(*coarse)
    if seeds:
        evaluate(np.array([s.v_channel.rows for s in seeds]),
                 np.array([s.u_channel.rows for s in seeds]))
    if best is None:
        return None

    # Coordinate-wise refinement with step halving; each sweep of neighbor
    # moves around the current best is one batch.
    step = 1.0 / config.grid_resolution
    for _ in range(config.refine_rounds):
        while True:
            before, v_rows, u_rows = best[:3]
            v_moves, u_moves = _row_moves(v_rows, step), _row_moves(u_rows, step)
            nv, nu = len(v_moves), len(u_moves)
            evaluate(np.concatenate([v_moves, np.broadcast_to(v_rows, (nu, *v_rows.shape))]),
                     np.concatenate([np.broadcast_to(u_rows, (nv, *u_rows.shape)), u_moves]))
            if best[0] <= before + 1e-15:
                break
        step /= 2.0
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
