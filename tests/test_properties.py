"""Region invariants on random sources and schemes (property-based)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrd.binary import BinaryScheme, build_source, closed_form, delta_star, sweep_curve
from secrd.ordering import BecBscParams
from secrd.probs import (
    Alphabet,
    ConditionalPmf,
    JointPmf,
    binary_entropy,
    conditional_entropy,
)
from secrd.region import (
    AuxScheme,
    SearchConfig,
    SecureSource,
    best_reconstruction,
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
    axes = tuple((n, _labels(n.lower(), k)) for n, k in zip("ABE", (na, nb, ne)))
    return SecureSource(JointPmf(axes, mass / mass.sum()), d, d_max=1.0)


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
