"""Unit tests for the binary BEC/BSC worked example."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrd.binary import (
    BITS,
    TABLE_COLUMNS,
    BecBscParams,
    BinaryScheme,
    CurvePoint,
    _best_beta,
    _inverse_h2,
    aux_scheme,
    build_source,
    closed_form,
    closed_form_batch,
    curve_csv,
    delta_star,
    oracle_check,
    sweep_curve,
    benchmark_table,
    table_csv,
    table_text,
)
from secrd.probs import (
    InvalidArgument,
    JointPmf,
    bec,
    binary_entropy,
    binary_star,
    bsc,
    joint_from,
)

EPS_STAR = binary_entropy(0.1)  # erasure rate that balances I(A;B) = I(A;E)
PARAMS = BecBscParams(p=0.1, eps=EPS_STAR)

# Frozen achievable tuples for p = 0.1, eps = h2(0.1), rate budget 0.8 eps.
FROZEN_TABLE = {
    "Lossless secure source coding": (0.468996, 0.0, 0.038771, 0.0, 0.077670),
    "Slepian-Wolf": (0.468996, 0.0, 0.0, 0.0, 0.0),
    "Lossy secure source coding": (0.375196, 0.014597, 0.132570,
                                   0.031124, 0.049635),
    "Wyner-Ziv": (0.375196, 0.014597, 0.125713, 0.031124, 0.0),
}


def _h2(x):
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def _star(a, b):
    return a * (1.0 - b) + (1.0 - a) * b


def _scalar_delta(params, al, be):
    """Equivocation of the closed form, one scalar operation at a time."""
    p, eps = params.p, params.eps
    ab = _star(al, be)
    delta = eps * _h2(al) + (1.0 - eps) * _h2(ab) - _h2(_star(p, ab)) + _h2(p)
    return max(0.0, delta)


def _scalar_best_beta(params, alpha, scan_points=512, tol=1e-7):
    """Per-point beta scan and golden-section search (a lower reference)."""

    def delta(beta):
        return _scalar_delta(params, alpha, beta)

    betas = np.linspace(0.0, 0.5, scan_points)
    i = int(np.argmax([delta(b) for b in betas]))
    a, b = betas[max(0, i - 1)], betas[min(scan_points - 1, i + 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
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
    if beta < tol and delta(0.0) >= delta(beta) - 1e-15:
        beta = 0.0
    return beta, delta(beta)


def _scalar_curve(params, d_grid):
    points = []
    for d in d_grid:
        alpha = min(d / params.eps, 0.5)
        beta_opt, dgen = _scalar_best_beta(params, alpha)
        points.append(CurvePoint(d, dgen, _scalar_delta(params, alpha, 0.0),
                                 alpha, beta_opt))
    return points


def _bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


# (p, eps) pairs for the kernel-vs-loop checks: the paper point, the edges
# p = 0, p = 1/2 and eps = 1, and random interior pairs
EDGE_PAIRS = [(0.1, 0.469), (0.1, EPS_STAR), (0.0, 0.469), (0.5, 0.469),
              (0.1, 1.0), (0.0, 1.0), (0.5, 1.0), (0.25, 0.01)]
RANDOM_PAIRS = [(float(p), float(e)) for p, e in
                np.random.default_rng(5).uniform([0.0, 0.01], [0.5, 1.0], (16, 2))]
CURVE_CASES = [(p, e, 7) for p, e in EDGE_PAIRS + RANDOM_PAIRS] + [(0.1, 0.64, 60)]


def _best_x(params):
    """The maximizing x = alpha*beta: the best beta at alpha = 0."""
    return float(_best_beta(params, [0.0])[0][0])


def _check_exact_endpoints(params, alphas):
    """beta is exactly 0 iff alpha >= x0; x0 is exactly 1/2 when Bob is less
    noisy and exactly 0 when, outside that, p = 0 or eps = 1."""
    p, eps = params.p, params.eps
    x0 = _best_x(params)
    alphas = np.concatenate([alphas, [0.0, x0, np.nextafter(x0, 0.0), 0.5]])
    beta = _best_beta(params, alphas)[0]
    assert np.array_equal(beta == 0.0, alphas >= x0)
    assert np.all((0.0 <= beta) & (beta <= 0.5))
    if eps <= 4.0 * p * (1.0 - p):
        assert x0 == 0.5
        assert np.all(beta[alphas < 0.5] == 0.5)
    elif p == 0.0 or eps == 1.0:
        assert x0 == 0.0


class TestScheme:
    def test_parameter_domain(self):
        with pytest.raises(InvalidArgument):
            BinaryScheme(alpha=0.6, beta=0.1)
        with pytest.raises(InvalidArgument):
            BinaryScheme(alpha=0.1, beta=-0.01)


class TestClosedForm:
    def test_oracle_gap_is_tiny(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p, eps = rng.random() * 0.5, rng.random()
            al, be = rng.random() * 0.5, rng.random() * 0.5
            gap = oracle_check(BecBscParams(p, eps), BinaryScheme(al, be))
            assert gap <= 1e-12

    def test_lossless_rate_is_erasure_probability(self):
        tup = closed_form(PARAMS, BinaryScheme(0.0, 0.0))
        assert tup.rate == pytest.approx(EPS_STAR, abs=1e-12)
        assert tup.distortion == 0.0

    def test_equivocation_zero_when_alpha_beta_zero_and_balanced(self):
        # at eps = h2(p) revealing V = A leaves Eve no worse than Bob
        tup = closed_form(PARAMS, BinaryScheme(0.0, 0.0))
        assert tup.equivocation == pytest.approx(0.0, abs=1e-12)


class TestTable:
    def test_frozen_values(self):
        columns = benchmark_table(PARAMS)
        for name, expect in FROZEN_TABLE.items():
            tup, scheme = columns[name]
            got = (tup.rate, tup.distortion, tup.equivocation,
                   scheme.alpha, scheme.beta)
            assert got == pytest.approx(expect, abs=1e-5), name

    def test_lossy_beats_wyner_ziv(self):
        columns = benchmark_table(PARAMS)
        lossy = columns[TABLE_COLUMNS[2]][0]
        wz = columns[TABLE_COLUMNS[3]][0]
        assert lossy.equivocation > wz.equivocation
        assert lossy.rate == pytest.approx(wz.rate, abs=1e-12)
        assert lossy.distortion == pytest.approx(wz.distortion, abs=1e-12)

    def test_text_and_csv_renderings(self):
        columns = benchmark_table(PARAMS)
        text = table_text(columns)
        assert "0.469" in text and "0.133" in text
        lines = table_csv(columns).splitlines()
        assert lines[0] == "column,R,D,Delta,alpha,beta"
        assert len(lines) == 5


class TestCurve:
    def test_general_dominates_wyner_ziv(self):
        pts = sweep_curve(PARAMS, np.linspace(0.0, EPS_STAR / 2, 25))
        for pt in pts:
            assert pt.delta_general >= pt.delta_wz - 1e-12

    def test_curves_nondecreasing_in_distortion(self):
        pts = sweep_curve(PARAMS, np.linspace(0.0, EPS_STAR / 2, 25))
        for a, b in zip(pts, pts[1:]):
            assert b.delta_general >= a.delta_general - 1e-9
            assert b.delta_wz >= a.delta_wz - 1e-9

    def test_rejects_out_of_range_distortion(self):
        with pytest.raises(InvalidArgument):
            sweep_curve(PARAMS, [EPS_STAR])

    def test_rejects_nan_distortion(self):
        with pytest.raises(InvalidArgument):
            sweep_curve(PARAMS, [0.0, float("nan"), 0.01])

    # 7-point grids end at D = 0 (alpha = 0) and D = eps/2 (alpha = 1/2). The
    # 60-point grid has a D whose best beta lies inside the first cell of the
    # reference's 512-point scan.
    @pytest.mark.parametrize("p,eps,n", CURVE_CASES)
    def test_matches_scalar_loop(self, p, eps, n):
        params = BecBscParams(p, eps)
        grid = np.linspace(0.0, eps / 2.0, n)
        got, want = sweep_curve(params, grid), _scalar_curve(params, grid)
        for field in ("D", "alpha", "delta_wz"):
            assert (_bits([getattr(pt, field) for pt in got])
                    == _bits([getattr(pt, field) for pt in want])), field
        for new, ref in zip(got, want):
            assert new.delta_general >= ref.delta_general - 1e-15, new.D

    @pytest.mark.parametrize("p,eps,n", CURVE_CASES)
    def test_no_beta_on_a_grid_does_better(self, p, eps, n):
        params = BecBscParams(p, eps)
        pts = sweep_curve(params, np.linspace(0.0, eps / 2.0, n))
        alphas = np.array([pt.alpha for pt in pts])
        # closed_form_batch is bit for bit _scalar_delta (test_kernel_matches_closed_form)
        grid = closed_form_batch(params, alphas[:, None], np.linspace(0.0, 0.5, 4097))[2]
        for pt, best in zip(pts, grid.max(axis=1)):
            assert pt.delta_general >= best - 1e-15, pt.D

    @pytest.mark.parametrize("p,eps,n", CURVE_CASES)
    def test_best_x_is_the_argmax_on_a_dense_grid(self, p, eps, n):
        params = BecBscParams(p, eps)
        xs = np.linspace(0.0, 0.5, 100_001)
        x_part = (1.0 - eps) * binary_entropy(xs) - binary_entropy(binary_star(p, xs))
        # ties up to rounding: at p = 1/2, eps = 1 every x is a maximizer
        argmax = xs[x_part >= x_part.max() - 1e-15]
        assert np.min(np.abs(_best_x(params) - argmax)) <= xs[1]

    @pytest.mark.parametrize("p,eps,n", CURVE_CASES)
    def test_exact_endpoints(self, p, eps, n):
        _check_exact_endpoints(BecBscParams(p, eps), np.linspace(0.0, 0.5, n))

    @pytest.mark.parametrize("p,eps", EDGE_PAIRS + RANDOM_PAIRS[:4])
    def test_kernel_matches_closed_form(self, p, eps):
        params = BecBscParams(p, eps)
        rng = np.random.default_rng(7)
        alpha = np.concatenate([[0.0, 0.5, 0.0, 0.5], rng.uniform(0.0, 0.5, 60)])
        beta = np.concatenate([[0.0, 0.0, 0.5, 0.5], rng.uniform(0.0, 0.5, 60)])
        got = np.stack(closed_form_batch(params, alpha, beta), axis=1)
        scalar = [closed_form(params, BinaryScheme(a, b)) for a, b in zip(alpha, beta)]
        assert _bits(got) == _bits([tuple(t) for t in scalar])
        assert _bits(got[:, 2]) == _bits([_scalar_delta(params, a, b)
                                          for a, b in zip(alpha, beta)])

    def test_csv_header(self):
        pts = sweep_curve(PARAMS, [0.0, 0.01])
        lines = curve_csv(pts).splitlines()
        assert lines[0] == "D,delta_general,delta_wz,alpha,beta_opt"
        assert len(lines) == 3


class TestDeltaStar:
    @pytest.mark.parametrize("p,eps", EDGE_PAIRS + RANDOM_PAIRS[:4])
    def test_is_the_curve_at_the_distortion_budget(self, p, eps):
        params = BecBscParams(p, eps)
        for pt in sweep_curve(params, np.linspace(0.0, eps / 2.0, 9)):
            assert delta_star(params, pt.D) == pt.delta_general
            assert delta_star(params, pt.D, eps * (1.0 - binary_entropy(pt.alpha))) \
                == pt.delta_general
        # a budget past eps/2 buys nothing more
        assert delta_star(params, 1.0) == delta_star(params, eps / 2.0)

    @pytest.mark.parametrize("p,eps", EDGE_PAIRS + RANDOM_PAIRS[:4])
    def test_rate_edges(self, p, eps):
        params = BecBscParams(p, eps)
        # d = 0: alpha = 0 needs the lossless rate eps
        assert delta_star(params, 0.0, eps) == sweep_curve(params, [0.0])[0].delta_general
        assert delta_star(params, 0.0, eps - 1e-6) is None
        # d = eps/2: alpha = 1/2 needs no rate, and Delta is H(A|E) = h2(p)
        assert delta_star(params, eps / 2.0, 0.0) == pytest.approx(binary_entropy(p),
                                                                   abs=1e-12)
        # r just below the rate of alpha = d/eps
        d = eps / 8.0
        rate = eps * (1.0 - binary_entropy(0.125))
        assert delta_star(params, d, rate - 1e-6) is None
        assert delta_star(params, d, rate) == sweep_curve(params, [d])[0].delta_general

    def test_rejects_a_source_without_erasures(self):
        with pytest.raises(InvalidArgument):
            delta_star(BecBscParams(0.1, 0.0), 0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 0.5), st.floats(1e-3, 1.0), st.floats(0.0, 0.5))
def test_best_beta_beats_a_beta_grid(p, eps, d_share):
    # d_share picks D = d_share * eps, so alpha = d_share
    params = BecBscParams(p, eps)
    pt, = sweep_curve(params, [min(d_share * eps, eps / 2.0)])
    grid = closed_form_batch(params, pt.alpha, np.linspace(0.0, 0.5, 4097))[2]
    assert pt.delta_general >= grid.max() - 1e-15
    _check_exact_endpoints(params, np.array([pt.alpha]))


class TestHelpers:
    def test_inverse_h2_roundtrip(self):
        for y in (0.0, 0.1, 0.5, 0.9, 1.0):
            x = _inverse_h2(y)
            assert binary_entropy(x) == pytest.approx(y, abs=1e-10)
            assert 0.0 <= x <= 0.5

    def test_aux_scheme_reconstruction_layout(self):
        scheme = aux_scheme(PARAMS, BinaryScheme(0.1, 0.1))
        np.testing.assert_array_equal(scheme.reconstruction,
                                      [[0, 0, 1], [0, 1, 1]])

    def test_build_source_marginals(self):
        src = build_source(BecBscParams(0.2, 0.3))
        pa = src.joint.marginal(("A",)).mass
        np.testing.assert_allclose(pa, [0.5, 0.5], atol=1e-12)
        pb = src.joint.marginal(("B",)).mass
        np.testing.assert_allclose(pb, [0.35, 0.3, 0.35], atol=1e-12)

    def test_build_source_equals_channel_composition(self):
        # the direct (A, B, E) product is bit for bit the joint that
        # chaining BEC(eps) and BSC(p) off a uniform A builds
        uniform = JointPmf((("A", BITS),), np.array([0.5, 0.5]))
        for p in [*np.linspace(0.0, 0.5, 11), 0.031124, 0.1]:
            for eps in [*np.linspace(0.0, 1.0, 13), 0.469, EPS_STAR]:
                composed = joint_from(uniform, [("B", bec(eps), "A"),
                                                 ("E", bsc(p), "A")])
                joint = build_source(BecBscParams(p, eps)).joint
                assert joint.axes == composed.axes
                np.testing.assert_array_equal(joint.mass, composed.mass)
