"""Region invariants on random sources and schemes (property-based)."""

from itertools import permutations, product
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrd.binary import BinaryScheme, build_source, closed_form, delta_star, sweep_curve
from secrd.ordering import BecBscParams
from secrd import region
from secrd.probs import (
    Alphabet,
    ConditionalPmf,
    JointPmf,
    binary_entropy,
    conditional_entropy,
)
from secrd.region import (
    AuxScheme,
    RDETuple,
    SearchConfig,
    SecureSource,
    best_reconstruction,
    cardinality_caps,
    evaluate_scheme,
    sweep_boundary,
)

TOL = 1e-9
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _labels(prefix, n):
    return Alphabet(tuple(f"{prefix}{i}" for i in range(n)))


def _weights(n):
    """n nonnegative weights, at least one of them positive."""
    return st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(
        lambda w: sum(w) > 1e-3)


@st.composite
def sources(draw):
    na, nb = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):  # Eve sees A itself, so every scheme has Delta = 0
        ne = na
        p_ab = np.array(draw(_weights(na * nb))).reshape(na, nb)
        mass = p_ab[:, :, None] * np.eye(na)[:, None, :]
    else:
        ne = draw(st.integers(1, 3))
        mass = np.array(draw(_weights(na * nb * ne))).reshape(na, nb, ne)
    if draw(st.booleans()):
        d = 1.0 - np.eye(na)  # Hamming distortion
    else:
        d = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=na * na,
                                   max_size=na * na))).reshape(na, na)
    order = draw(st.permutations("ABE"))  # the axis order the joint stores
    sizes = dict(zip("ABE", (na, nb, ne)))
    axes = tuple((n, _labels(n.lower(), sizes[n])) for n in order)
    mass = np.transpose(mass, ["ABE".index(n) for n in order])
    return SecureSource(JointPmf(axes, mass / mass.sum()), d, d_max=1.0)


@pytest.mark.parametrize("order", ["".join(o) for o in permutations("ABE")])
def test_source_arrays_are_read_only_marginals_in_every_axis_order(order):
    rng = np.random.default_rng(20101021)
    sizes = {"A": 3, "B": 2, "E": 4}
    mass = rng.dirichlet(np.ones(24)).reshape([sizes[n] for n in order])
    mass[(slice(None),) * order.index("A") + (2,)] = 0.0  # p(a2) = 0
    joint = JointPmf(tuple((n, _labels(n.lower(), sizes[n])) for n in order),
                     mass / mass.sum())
    source = SecureSource(joint, 1.0 - np.eye(3))
    assert source == SecureSource(joint, np.ones((3, 3)))
    assert hash(source) == hash(SecureSource(joint, np.ones((3, 3))))

    def marginal(names):
        m = joint.marginal(names)
        return np.transpose(m.mass, [m.names.index(n) for n in names])

    p_a = marginal("A")
    given_a = np.where(p_a > 0, p_a, 1.0)[:, None]
    want = {"p_abe": marginal("ABE"), "p_ab": marginal("AB"), "p_ae": marginal("AE"),
            "p_a": p_a, "b_given_a": marginal("AB") / given_a,
            "e_given_a": marginal("AE") / given_a, "distortion": 1.0 - np.eye(3)}
    for name, array in want.items():
        got = getattr(source, name)
        assert not got.flags.writeable, name
        np.testing.assert_allclose(got, array, rtol=0, atol=1e-12, err_msg=name)
    assert not source.b_given_a[2].any() and not source.e_given_a[2].any()
    assert source.h_a_b == pytest.approx(conditional_entropy(joint, "A", "B"), abs=1e-12)


@st.composite
def channels(draw, input_alphabet, prefix):
    n_out = draw(st.integers(1, 3))
    rows = np.array([draw(_weights(n_out)) for _ in range(len(input_alphabet))])
    return ConditionalPmf(input_alphabet, _labels(prefix, n_out),
                          rows / rows.sum(axis=1, keepdims=True))


@st.composite
def sources_and_schemes(draw):
    source = draw(sources())
    v_channel = draw(channels(source.a_alphabet, "v"))
    u_channel = draw(channels(v_channel.output, "u"))
    scheme = AuxScheme(v_channel, u_channel, best_reconstruction(source, v_channel))
    return source, scheme


@SETTINGS
@given(sources_and_schemes())
def test_tuple_lies_in_its_bounds(case):
    source, scheme = case
    rate, dist, delta = evaluate_scheme(source, scheme)
    h_a_b = conditional_entropy(source.joint, ("A",), ("B",))
    h_a_e = conditional_entropy(source.joint, ("A",), ("E",))
    assert -TOL <= rate <= h_a_b + TOL
    assert -TOL <= dist <= source.d_max + TOL
    assert -TOL <= delta <= h_a_e + TOL  # Delta <= H(A|UE) under U - V - A


@SETTINGS
@given(sources(), st.integers(1, 2), st.integers(1, 2), st.integers(1, 3),
       st.integers(0, 3), st.sampled_from([None, 0.3, 0.8]),
       st.lists(st.floats(0.0, 0.3), min_size=1, max_size=3))
def test_sweep_points_are_their_schemes_tuples(source, nv, nu, resolution, rounds,
                                               rate_budget, budgets):
    config = SearchConfig(v_size=nv, u_size=nu, grid_resolution=resolution,
                          refine_rounds=rounds, rate_budget=rate_budget)
    for d_budget, tup, scheme in sweep_boundary(source, budgets, config).points:
        assert tup.distortion <= d_budget + 1e-12
        assert tuple(tup) == pytest.approx(tuple(evaluate_scheme(source, scheme)),
                                           abs=1e-12)


def _row_moves(rows, step):
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


def _search_one_step_per_call(source, score, config, coarse, seeds=()):
    """The boundary search with one kernel call per refinement step, as the
    batched refinement of `region._search` must replay it."""
    best = None

    def consider(v, u, rate, dist, delta, recon):
        nonlocal best
        scores = score(rate, dist, delta)
        if not scores.size:
            return
        i = int(np.argmax(scores))
        if scores[i] > -np.inf and (best is None or scores[i] > best[0] + 1e-15):
            best = (float(scores[i]), v[i], u[i], recon[i], (rate[i], dist[i], delta[i]))

    def evaluate(v, u):
        v, u = region._normalized(v), region._normalized(u)
        consider(v, u, *region.rde_batch(source, v, u))

    consider(*coarse)
    if seeds:
        evaluate(np.array([s.v_channel.rows for s in seeds]),
                 np.array([s.u_channel.rows for s in seeds]))
    if best is None:
        return None
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
    v_alph = _labels("v", config.v_size)
    u_alph = _labels("u", config.u_size)
    v_channel = ConditionalPmf(source.a_alphabet, v_alph, v_rows)
    scheme = AuxScheme(v_channel, ConditionalPmf(v_alph, u_alph, u_rows), recon)
    return scheme, RDETuple(float(rate), float(dist), max(0.0, float(delta)))


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 6), st.data())
def test_neighbors_are_the_one_step_moves_of_each_step(n_a, n_v, n_u, resolution,
                                                       rounds, data):
    # grid rows hold entries equal to the first step, which a move may empty
    v_grid = region._channel_grid(n_a, n_v, resolution)
    u_grid = region._channel_grid(n_v, n_u, resolution)
    v_rows = v_grid[data.draw(st.integers(0, len(v_grid) - 1))]
    u_rows = u_grid[data.draw(st.integers(0, len(u_grid) - 1))]
    steps = 1.0 / resolution / 2.0 ** np.arange(rounds)
    v, u, counts = region._neighbors(v_rows, u_rows, steps)
    ends = np.cumsum(counts)
    for step, lo, hi in zip(steps, ends - counts, ends):
        v_moves, u_moves = _row_moves(v_rows, step), _row_moves(u_rows, step)
        nv, nu = len(v_moves), len(u_moves)
        assert _bits(v[lo:hi]) == _bits(
            np.concatenate([v_moves, np.broadcast_to(v_rows, (nu, *v_rows.shape))]))
        assert _bits(u[lo:hi]) == _bits(
            np.concatenate([np.broadcast_to(u_rows, (nv, *u_rows.shape)), u_moves]))
    assert ends[-1] == len(v) == len(u)


@st.composite
def search_cases(draw):
    """A source and a search config whose coarse grid stays small."""
    source = draw(sources())
    na = len(source.a_alphabet)
    u_cap, v_cap = cardinality_caps(source)
    nv, nu = draw(st.integers(1, min(3, v_cap))), draw(st.integers(1, min(3, u_cap)))
    resolutions = [r for r in range(1, 5)
                   if comb(r + nv - 1, nv - 1) ** na * comb(r + nu - 1, nu - 1) ** nv
                   <= 8000]
    config = SearchConfig(v_size=nv, u_size=nu,
                          grid_resolution=draw(st.sampled_from(resolutions)),
                          refine_rounds=draw(st.integers(0, 8)),
                          rate_budget=draw(st.sampled_from([None, 0.0, 0.3, 0.8])))
    budgets = draw(st.lists(st.floats(0.0, 0.4), min_size=1, max_size=3))
    return source, config, budgets


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(search_cases())
def test_batched_refinement_replays_one_step_per_call(case):
    source, config, budgets = case
    with mock.patch.object(region, "_search", _search_one_step_per_call):
        want = sweep_boundary(source, budgets, config).points
    got = sweep_boundary(source, budgets, config).points
    assert len(got) == len(want)
    for (d_got, tup_got, s_got), (d_want, tup_want, s_want) in zip(got, want):
        assert _bits(d_got, *tup_got) == _bits(d_want, *tup_want)
        assert _bits(s_got.v_channel.rows, s_got.u_channel.rows, s_got.reconstruction) == \
            _bits(s_want.v_channel.rows, s_want.u_channel.rows, s_want.reconstruction)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(search_cases(), st.integers(2, 5))
def test_refinement_replays_nan_first_maxima(case, modulus):
    # A block whose first maximum is NaN keeps the best even when a later
    # move beats it; the step is then done, and the batched loop must move on.
    source, config, budgets = case
    coarse = region._coarse_grid(source, config)

    def score(rate, dist, delta):
        fresh = ~np.isin(dist, coarse[3])  # the grid stays NaN-free, so a best exists
        spoiled = fresh & (np.floor(dist * 1e7) % modulus == 0)
        return np.where(spoiled, np.nan, np.where(dist <= budgets[0] + 1e-12, delta, -np.inf))

    calls = []
    kernel = region.rde_batch

    def counted(*args):
        calls.append(1)
        if len(calls) > limit:
            raise AssertionError("refinement did not terminate")
        return kernel(*args)

    limit = np.inf
    with mock.patch.object(region, "rde_batch", counted):
        want = _search_one_step_per_call(source, score, config, coarse)
        limit, calls[:] = len(calls) + config.refine_rounds, []  # one extra call per kept step
        got = region._search(source, score, config, coarse)
    if want is None:
        assert got is None
        return
    (s_got, tup_got), (s_want, tup_want) = got, want
    assert _bits(*tup_got) == _bits(*tup_want)
    assert _bits(s_got.v_channel.rows, s_got.u_channel.rows, s_got.reconstruction) == \
        _bits(s_want.v_channel.rows, s_want.u_channel.rows, s_want.reconstruction)


@SETTINGS
@given(st.floats(0.0, 0.5), st.floats(1e-3, 1.0))
def test_binary_curve_is_monotone_and_self_consistent(p, eps):
    params = BecBscParams(p, eps)
    points = sweep_curve(params, np.linspace(0.0, eps / 2.0, 25))
    for prev, pt in zip(points, points[1:]):
        assert pt.delta_general >= prev.delta_general - TOL
        assert pt.delta_wz >= prev.delta_wz - TOL
    for pt in points:
        assert pt.delta_general >= pt.delta_wz - 1e-12
        general = closed_form(params, BinaryScheme(pt.alpha, pt.beta_opt))
        assert pt.delta_general == general.equivocation
        assert pt.delta_wz == closed_form(params, BinaryScheme(pt.alpha, 0.0)).equivocation
    # The paper's two claims. Non-zero distortion helps secrecy, unless D = 0
    # already reaches H(A|E) = h2(p).
    if abs(points[0].delta_general - binary_entropy(p)) > 1e-12:
        assert all(pt.delta_general > points[0].delta_general for pt in points[1:])
    # Statistical differences help: a positive beta gains over Wyner-Ziv. Near
    # p = 1/2 with eps = 1 the gain falls below float resolution.
    for pt in points:
        if pt.beta_opt == 0.0:
            assert pt.delta_general == pt.delta_wz
        elif pt.delta_general > 0.0 and p <= 0.49:
            assert pt.delta_general > pt.delta_wz


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7, 0.9, 1.0])
@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.3])
def test_sweep_comes_near_the_binary_family_optimum(p, eps):
    # Delta*(d, r) is the exact optimum over the paper's binary-symmetric
    # schemes; the grid search climbs Delta before the positive part, so it
    # also leaves the flat Delta = 0 region. Worst shortfall on this grid:
    # 0.054 at (0.3, 1.0) without a rate budget, 0.0115 with r = eps/2.
    params = BecBscParams(p, eps)
    source = build_source(params)
    budgets = np.linspace(0.0, min(0.2, eps / 2.0), 8)
    for rate_budget in (None, eps / 2.0):
        curve = sweep_boundary(source, budgets, SearchConfig(rate_budget=rate_budget))
        found = {d: tup for d, tup, _ in curve.points}
        for d in budgets:
            want = delta_star(params, d, np.inf if rate_budget is None else rate_budget)
            assert (d in found) == (want is not None)
            if want is not None:
                assert found[d].equivocation >= want - 0.06
