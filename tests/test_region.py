"""Unit tests for region evaluation and the boundary search."""

import numpy as np
import pytest

from secrd.binary import BecBscParams, BinaryScheme, aux_scheme, build_source
from secrd.probs import (
    Alphabet,
    ConditionalPmf,
    InvalidArgument,
    JointPmf,
    bsc,
    conditional_entropy,
    identity_channel,
    joint_from,
    mutual_information,
)
from secrd.region import (
    AuxScheme,
    SearchConfig,
    SecureSource,
    best_reconstruction,
    cardinality_caps,
    evaluate_scheme,
    eve_less_noisy_bound,
    identity_scheme,
    less_noisy_bound,
    lossless_region_point,
    materialize,
    sweep_boundary,
    _search,
)
from secrd.simulate import SimConfig, achievability_rates, run_trials

PARAMS = BecBscParams(p=0.1, eps=0.4689955935892812)

# Frozen via the closed-form boundary expressions of the binary model.
FROZEN_TUPLE = (0.220727680351, 0.056279471231, 0.277729666137)


def random_source(rng, na=2, nb=2, ne=2):
    names = ("A", "B", "E")
    shape = (na, nb, ne)
    mass = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    axes = tuple(
        (n, Alphabet(tuple(f"{n.lower()}{i}" for i in range(k))))
        for n, k in zip(names, shape)
    )
    d = rng.random((na, na))
    np.fill_diagonal(d, 0.0)
    return SecureSource(JointPmf(axes, mass), d, d_max=1.0)


def random_scheme(rng, source, nv=2, nu=2):
    a = source.a_alphabet
    v_alph = Alphabet(tuple(f"v{i}" for i in range(nv)))
    u_alph = Alphabet(tuple(f"u{i}" for i in range(nu)))
    v_rows = rng.dirichlet(np.ones(nv), size=len(a))
    u_rows = rng.dirichlet(np.ones(nu), size=nv)
    v_channel = ConditionalPmf(a, v_alph, v_rows)
    u_channel = ConditionalPmf(v_alph, u_alph, u_rows)
    return AuxScheme(v_channel, u_channel, best_reconstruction(source, v_channel))


class TestSecureSource:
    def test_requires_exact_axes(self):
        pmf = JointPmf((("A", Alphabet(("0", "1"))),), np.array([0.5, 0.5]))
        with pytest.raises(InvalidArgument):
            SecureSource(pmf, np.zeros((2, 2)))

    def test_distortion_bounds(self):
        src = build_source(PARAMS)
        with pytest.raises(InvalidArgument):
            SecureSource(src.joint, np.array([[0.0, 2.0], [1.0, 0.0]]), d_max=1.0)

    @pytest.mark.parametrize("distortion, d_max", [
        ([[0.0, np.nan], [1.0, 0.0]], 1.0),
        ([[0.0, 1.0], [1.0, 0.0]], np.nan),
        ([[0.0, 1.0], [1.0, 0.0]], np.inf),
    ], ids=["nan-distortion", "nan-d-max", "inf-d-max"])
    def test_non_finite_distortion_is_rejected(self, distortion, d_max):
        src = build_source(PARAMS)
        with pytest.raises(InvalidArgument):
            SecureSource(src.joint, np.array(distortion), d_max=d_max)

    def test_cardinality_caps(self):
        src = build_source(PARAMS)
        assert cardinality_caps(src) == (4, 12)

    def test_check_caps_rejects_oversized_u(self):
        src = build_source(PARAMS)
        big = Alphabet(tuple(f"u{i}" for i in range(5)))
        v_channel = bsc(0.1)
        u_channel = ConditionalPmf(v_channel.output, big, np.full((2, 5), 0.2))
        scheme = AuxScheme(v_channel, u_channel, np.zeros((2, 3), dtype=int))
        with pytest.raises(InvalidArgument):
            scheme.check_caps(src)


class TestEvaluateScheme:
    def test_matches_frozen_closed_form_value(self):
        scheme = aux_scheme(PARAMS, BinaryScheme(0.12, 0.07))
        tup = evaluate_scheme(build_source(PARAMS), scheme)
        assert tuple(tup) == pytest.approx(FROZEN_TUPLE, abs=1e-9)

    def test_markov_structure_of_materialized_joint(self):
        rng = np.random.default_rng(5)
        src = random_source(rng, na=3, nb=2, ne=2)
        scheme = random_scheme(rng, src, nv=3, nu=2)
        joint = materialize(src, scheme)
        assert mutual_information(joint, ("U",), ("A",), ("V",)) == pytest.approx(
            0.0, abs=1e-12)
        assert mutual_information(joint, ("V",), ("B", "E"), ("A",)) == pytest.approx(
            0.0, abs=1e-12)

    def test_equivocation_never_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            src = random_source(rng)
            tup = evaluate_scheme(src, random_scheme(rng, src))
            assert tup.equivocation >= 0.0
            assert tup.rate >= 0.0

    def test_identity_scheme_is_lossless(self):
        src = build_source(PARAMS)
        tup = evaluate_scheme(src, identity_scheme(src))
        assert tup.distortion == pytest.approx(0.0, abs=1e-12)
        assert tup.rate == pytest.approx(
            conditional_entropy(src.joint, ("A",), ("B",)), abs=1e-12)


class TestSpecialPoints:
    def test_lossless_point_agrees_with_general_evaluator(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            src = random_source(rng, na=2, nb=3, ne=2)
            u_channel = ConditionalPmf(
                src.a_alphabet, Alphabet(("u0", "u1")),
                rng.dirichlet(np.ones(2), size=2))
            point = lossless_region_point(src, u_channel)
            general = evaluate_scheme(src, identity_scheme(src, u_channel))
            assert tuple(point) == pytest.approx(tuple(general), abs=1e-9)

    def test_lossless_point_reports_its_schemes_distortion(self):
        # d(a, a) > 0 here, so the V = A scheme's D is E[d(A, A)] = 0.375, not 0
        hamming = build_source(PARAMS)
        src = SecureSource(hamming.joint, np.array([[0.5, 1.0], [1.0, 0.25]]))
        u_channel = bsc(0.2)
        point = lossless_region_point(src, u_channel)
        assert point == evaluate_scheme(src, identity_scheme(src, u_channel))
        assert point.distortion == pytest.approx(0.375, abs=1e-15)
        zero = lossless_region_point(hamming, u_channel)
        assert zero.distortion == 0.0
        assert (zero.rate, zero.equivocation) == (point.rate, point.equivocation)

    def test_lossless_point_needs_u_from_a(self):
        src = build_source(PARAMS)
        xy = Alphabet(("x", "y"))
        with pytest.raises(InvalidArgument):
            lossless_region_point(src, ConditionalPmf(xy, xy, bsc(0.2).rows))

    def test_eve_less_noisy_bound_equals_residual_entropy(self):
        rng = np.random.default_rng(14)
        src = random_source(rng)
        scheme = random_scheme(rng, src)
        tup = eve_less_noisy_bound(src, scheme)
        joint = joint_from(src.joint, [("V", scheme.v_channel, "A")])
        h_ave = conditional_entropy(joint, ("A",), ("V", "E"))
        assert tup.equivocation == pytest.approx(max(0.0, h_ave), abs=1e-9)

    def test_less_noisy_bound_drops_u(self):
        rng = np.random.default_rng(15)
        src = random_source(rng)
        scheme = random_scheme(rng, src)
        tup = less_noisy_bound(src, scheme)
        joint = joint_from(src.joint, [("V", scheme.v_channel, "A")])
        delta = (conditional_entropy(joint, ("A",), ("V", "B"))
                 + mutual_information(joint, ("A",), ("B",))
                 - mutual_information(joint, ("A",), ("E",)))
        assert tup.equivocation == pytest.approx(max(0.0, delta), abs=1e-9)


class TestSchemeFitsSource:
    """A map or channel that does not fit the source is an InvalidArgument.

    The maps below once passed: 0.9 was truncated to 0, -1 wrapped to the
    last symbol, and an index of 7 or a |V| x 2 map on the three-symbol B
    ended in numpy's IndexError, in run_trials only after some trials.
    """

    @pytest.mark.parametrize("recon", [
        [[0.0, 0.9, 1.0], [0.0, 1.0, 1.0]],
        [[0, -1, 1], [0, 1, 1]],
        [[0.0, np.nan, 1.0], [0.0, 1.0, 1.0]],
        [[0.0, np.inf, 1.0], [0.0, 1.0, 1.0]],
        [[0, 1, 1]],
        [0, 1, 1],
    ], ids=["fraction", "negative", "nan", "inf", "one-row", "one-dimensional"])
    def test_construction_rejects_maps_that_are_not_index_maps(self, recon):
        with pytest.raises(InvalidArgument, match="reconstruction"):
            AuxScheme(bsc(0.1), identity_channel(bsc(0.1).output), recon)

    def test_integral_floats_are_indices(self):
        scheme = AuxScheme(bsc(0.1), identity_channel(bsc(0.1).output),
                           [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert scheme.reconstruction.dtype == int
        np.testing.assert_array_equal(scheme.reconstruction, [[0, 0, 1], [0, 1, 1]])

    @staticmethod
    def _callers(src):
        good = aux_scheme(PARAMS, BinaryScheme(0.031, 0.05))
        cfg = SimConfig(n=6, rates=achievability_rates(src, good), trials=50, seed=0)
        return {
            "evaluate_scheme": lambda scheme: evaluate_scheme(src, scheme),
            "materialize": lambda scheme: materialize(src, scheme),
            "achievability_rates": lambda scheme: achievability_rates(src, scheme),
            "run_trials": lambda scheme: run_trials(src, scheme, cfg),
        }

    @pytest.mark.parametrize("caller", ["evaluate_scheme", "materialize",
                                        "achievability_rates", "run_trials"])
    @pytest.mark.parametrize("recon, message", [
        ([[0, 0, 7], [0, 1, 1]], "indices of A"),
        ([[0, 0], [0, 1]], "does not match"),
    ], ids=["index-7", "two-columns"])
    def test_map_must_fit_the_source(self, caller, recon, message):
        src = build_source(PARAMS)
        good = aux_scheme(PARAMS, BinaryScheme(0.031, 0.05))
        scheme = AuxScheme(good.v_channel, good.u_channel, recon)
        with pytest.raises(InvalidArgument, match=message):
            self._callers(src)[caller](scheme)

    @pytest.mark.parametrize("caller", ["evaluate_scheme", "materialize",
                                        "achievability_rates", "run_trials"])
    def test_v_channel_must_come_from_a(self, caller):
        src = build_source(PARAMS)
        xy = Alphabet(("x", "y"))
        v_channel = ConditionalPmf(xy, Alphabet(("v0", "v1")), np.eye(2))
        scheme = AuxScheme(v_channel, identity_channel(v_channel.output),
                           np.zeros((2, 3), dtype=int))
        with pytest.raises(InvalidArgument, match="source A"):
            self._callers(src)[caller](scheme)


class TestBestReconstruction:
    def test_copies_b_off_erasure(self):
        src = build_source(PARAMS)
        recon = best_reconstruction(src, bsc(0.05))
        # B symbols are (0, e, 1): match b when visible, v on erasure
        np.testing.assert_array_equal(recon, [[0, 0, 1], [0, 1, 1]])

    def test_ties_break_to_lowest_index(self):
        axes = (("A", Alphabet(("0", "1"))),
                ("B", Alphabet(("b",))),
                ("E", Alphabet(("e",))))
        src = SecureSource(JointPmf(axes, np.array([[[0.5]], [[0.5]]])),
                           np.array([[0.0, 1.0], [1.0, 0.0]]))
        recon = best_reconstruction(src, ConditionalPmf(
            src.a_alphabet, Alphabet(("v0",)), [[1.0], [1.0]]))
        assert recon[0, 0] == 0


class TestBoundarySearch:
    def test_csv_header_and_shape(self):
        src = build_source(PARAMS)
        cfg = SearchConfig(grid_resolution=2, refine_rounds=4, rate_budget=0.5)
        curve = sweep_boundary(src, [0.05], cfg)
        lines = curve.to_csv().splitlines()
        assert lines[0] == "D,R,Delta,scheme_id"
        assert len(lines) == 1 + len(curve.points)

    def test_boundary_point_tuples_are_achievable(self):
        src = build_source(PARAMS)
        cfg = SearchConfig(grid_resolution=3, refine_rounds=6, rate_budget=0.5)
        curve = sweep_boundary(src, [0.03], cfg)
        for d_budget, tup, scheme in curve.points:
            again = evaluate_scheme(src, scheme)
            assert again.distortion <= d_budget + 1e-9
            assert tup.rate == pytest.approx(again.rate, abs=1e-9)
            assert tup.distortion == pytest.approx(again.distortion, abs=1e-9)
            assert tup.equivocation == pytest.approx(again.equivocation, abs=1e-9)

    def test_printed_rate_is_the_stored_schemes_rate(self):
        # The printed tuple is the stored scheme's own, not the minimal rate
        # found by the rate search. No coarse-grid scheme with D <= 0.03 has
        # Delta > 0, so a search of [Delta]_+ was flat there and kept Delta = 0.
        src = build_source(BecBscParams(p=0.1, eps=0.7))
        cfg = SearchConfig(grid_resolution=3, refine_rounds=6, rate_budget=0.9)
        (_, tup, scheme), = sweep_boundary(src, [0.03], cfg).points
        assert tuple(tup) == pytest.approx(tuple(evaluate_scheme(src, scheme)), abs=1e-12)
        assert tup.distortion <= 0.03 and tup.equivocation >= 0.1

    def test_infeasible_budget_dropped(self):
        src = build_source(PARAMS)
        # D = 0 needs R >= H(A|B) ~ 0.469 > budget, so no point is returned
        cfg = SearchConfig(grid_resolution=2, refine_rounds=3, rate_budget=0.3)
        curve = sweep_boundary(src, [0.0], cfg)
        assert curve.points == []

    def test_empty_distortion_grid_is_rejected(self):
        with pytest.raises(InvalidArgument, match="nonempty"):
            sweep_boundary(build_source(PARAMS), [])

    def test_nan_budget_is_rejected(self):
        # sorted() left [0.2, nan, 0.1] unsorted, and the NaN budget vanished
        with pytest.raises(InvalidArgument, match="NaN"):
            sweep_boundary(build_source(PARAMS), [0.2, float("nan"), 0.1])

    @pytest.mark.parametrize("budget", [float("nan"), -0.5])
    def test_bad_rate_budget_is_rejected(self, budget):
        # both once returned an empty curve
        with pytest.raises(InvalidArgument, match="rate budget"):
            SearchConfig(rate_budget=budget)

    @pytest.mark.parametrize("field, value", [
        ("v_size", 0), ("u_size", 0), ("grid_resolution", 0), ("v_size", -1),
        ("refine_rounds", -2), ("refine_rounds", -5), ("grid_resolution", float("nan")),
    ])
    def test_invalid_search_sizes_are_rejected(self, field, value):
        # sizes and resolution once failed only inside _channel_grid, and a
        # negative round count silently returned the coarse-grid point
        with pytest.raises(InvalidArgument, match=field):
            SearchConfig(**{field: value})

    def test_search_keeps_a_batchs_first_maximum_by_more_than_1e_15(self):
        src = build_source(PARAMS)
        cfg = SearchConfig(refine_rounds=0)
        k = 4
        v = np.array([[[1 - x, x], [x, 1 - x]] for x in np.linspace(0.0, 0.3, k)])
        coarse = (v, np.broadcast_to(np.eye(2), (k, 2, 2)), np.zeros(k), np.zeros(k),
                  np.zeros(k), np.zeros((k, 2, 3), dtype=int))
        seed = AuxScheme(bsc(0.4), bsc(0.2), np.zeros((2, 3), dtype=int))

        def run(*batches, seeds=()):
            scores = iter(np.array(b, dtype=float) for b in batches)
            return _search(src, lambda r, d, eq: next(scores), cfg, coarse, seeds)

        def row(found):
            return next(i for i in range(k)
                        if np.array_equal(found[0].v_channel.rows, v[i]))

        inf = np.inf
        assert row(run([0.1, 0.5, 0.5, 0.2])) == 1  # an exact tie keeps the first
        assert row(run([-inf, -0.7, -inf, -0.9])) == 1  # -inf rows never win
        assert row(run([0.5, 0.3, 0.1, 0.2], [0.5 + 5e-16], seeds=[seed])) == 0
        found = run([0.5, 0.3, 0.1, 0.2], [0.5 + 2e-15], seeds=[seed])
        assert np.array_equal(found[0].v_channel.rows, seed.v_channel.rows)
        assert run([-inf] * k) is None
        assert run([-inf] * k, [-inf], seeds=[seed]) is None

    def test_config_beyond_the_caps_is_rejected(self):
        src = build_source(PARAMS)  # caps |U| <= 4, |V| <= 12
        for cfg in (SearchConfig(u_size=5), SearchConfig(v_size=13)):
            with pytest.raises(InvalidArgument, match="cardinality caps"):
                sweep_boundary(src, [0.1], cfg)
