"""Unit tests for side-information channel ordering."""

import os
import subprocess
import sys
import tracemalloc
from itertools import product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import secrd
from secrd import ordering
from secrd.binary import BecBscParams, build_source
from secrd.ordering import (
    FEAS_TOL,
    OrderingVerdict,
    classify_bec_bsc,
    classify_source,
    is_degraded,
    is_more_capable,
    less_noisy_search,
    side_channels,
)
from secrd.probs import (
    Alphabet,
    ConditionalPmf,
    InvalidArgument,
    JointPmf,
    ResourceLimit,
    binary_entropy,
    bsc,
    bec,
    compose,
    joint_from,
    mutual_information,
)
from secrd.region import MAX_GRID_CHANNELS, SecureSource, _channel_grid


def _itertools_channel_grid(n_in, n_out, resolution):
    """The channel lattice as `_channel_grid` once built it, with itertools.product."""
    rows = np.array([c + (resolution - sum(c),)
                     for c in product(range(resolution + 1), repeat=n_out - 1)
                     if sum(c) <= resolution]) / resolution
    return rows[np.array(list(product(range(len(rows)), repeat=n_in)))]


def _channel(rows, name="y"):
    rows = np.asarray(rows, dtype=float)
    return ConditionalPmf(Alphabet(tuple(f"x{i}" for i in range(rows.shape[0]))),
                          Alphabet(tuple(f"{name}{i}" for i in range(rows.shape[1]))),
                          rows / rows.sum(axis=1, keepdims=True))


class TestParams:
    def test_domain_checks(self):
        with pytest.raises(InvalidArgument):
            BecBscParams(p=0.6, eps=0.1)
        with pytest.raises(InvalidArgument):
            BecBscParams(p=0.1, eps=1.2)


class TestDegradedness:
    def test_cascaded_bsc_is_degraded(self):
        first = bsc(0.1)
        second = compose(first, bsc(0.15))
        verdict, witness = is_degraded(first, second)
        assert verdict
        np.testing.assert_allclose(first.rows @ witness.rows, second.rows,
                                   atol=1e-8)

    def test_reverse_direction_fails(self):
        first = bsc(0.1)
        second = compose(first, bsc(0.15))
        verdict, witness = is_degraded(second, first)
        assert not verdict and witness is None

    def test_bec_bsc_threshold(self):
        # BSC(p) is a degraded version of BEC(eps) exactly when eps <= 2p
        assert is_degraded(bec(0.19), bsc(0.1))[0]
        assert not is_degraded(bec(0.21), bsc(0.1))[0]

    def test_input_alphabet_mismatch(self):
        ternary_in = ConditionalPmf(bec(0.1).output, bec(0.1).output, np.eye(3))
        with pytest.raises(InvalidArgument):
            is_degraded(bec(0.1), ternary_in)

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(ordering, "MAX_PIVOTS", 0)
        with pytest.raises(ResourceLimit, match="stalled after 0 pivots"):
            is_degraded(bec(0.19), bsc(0.1))

    @pytest.mark.parametrize("first, second, degraded", [
        # the best q averages two equal P_B rows: the residual is 6e-8
        ([[1, 0, 0], [1, 0, 0]], [[0.5, 0, 0.5], [0.5 - 2 ** -26, 2 ** -25, 0.5 - 2 ** -26]],
         False),
        # q's rows for b1 and b2 reproduce the last P_E row exactly
        ([[1, 0, 0], [1, 0, 0], [0, 0.5, 0.5]], [[1, 0, 0, 0], [1, 0, 0, 0],
                                                  [0.5, 0, 0.5 - 2 ** -25, 2 ** -25]],
         True),
    ], ids=["miss-by-6e-8", "exact-with-3e-8-entry"])
    def test_near_threshold(self, first, second, degraded):
        # hypothesis found these float pairs. On both, HiGHS reported
        # res.fun = -3e-8, an error within its 1e-7 feasibility tolerance, so
        # the expected verdicts are worked out by hand
        first, second = _channel(first, "b"), _channel(second, "e")
        verdict, witness = is_degraded(first, second)
        assert verdict == degraded
        if degraded:
            np.testing.assert_allclose(first.rows @ witness.rows, second.rows,
                                       rtol=0, atol=1e-9)


def _linprog_verdict(first, second, tol=FEAS_TOL):
    """The degradedness LP as scipy's HiGHS solved it before the in-package
    simplex: the same L1 residual over row-stochastic q, the same test."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    pb, pe = first.rows, second.rows
    na, nb = pb.shape
    ne = pe.shape[1]
    nq, nt = nb * ne, na * ne
    m = np.kron(pb, np.eye(ne))
    res = linprog(np.concatenate([np.zeros(nq), np.ones(nt)]),
                  A_ub=np.block([[m, -np.eye(nt)], [-m, -np.eye(nt)]]),
                  b_ub=np.concatenate([pe.ravel(), -pe.ravel()]),
                  A_eq=np.hstack([np.kron(np.eye(nb), np.ones(ne)), np.zeros((nb, nt))]),
                  b_eq=np.ones(nb), bounds=[(0, None)] * (nq + nt), method="highs")
    assert res.success, res.message
    return not res.fun > tol * nt + tol


def _assert_matches_linprog(first, second):
    verdict, witness = is_degraded(first, second)
    assert verdict == _linprog_verdict(first, second)
    if verdict:
        np.testing.assert_allclose(first.rows @ witness.rows, second.rows,
                                   rtol=0, atol=1e-9)
    else:
        assert witness is None


def _stochastic(draw, n_in, n_out):
    """Rows of small integer weights. Such pairs are degraded or miss by far
    more than HiGHS's 1e-7 feasibility tolerance, within which `res.fun`
    cannot decide the 1e-9 test (see `test_near_threshold`)."""
    w = np.array(draw(st.lists(st.integers(0, 8), min_size=n_in * n_out,
                               max_size=n_in * n_out)), dtype=float).reshape(n_in, n_out)
    w[w.sum(axis=1) == 0, 0] = 1.0
    return w / w.sum(axis=1, keepdims=True)


@st.composite
def channel_pairs(draw):
    na, nb, ne = (draw(st.integers(2, 5)) for _ in range(3))
    first = _stochastic(draw, na, nb)
    if draw(st.booleans()):  # degraded by construction: P_E = P_B Q
        second = first @ _stochastic(draw, nb, ne)
    else:
        second = _stochastic(draw, na, ne)
    return _channel(first, "b"), _channel(second, "e")


def _perturbed(rows, seed):
    rows = np.asarray(rows, dtype=float)
    noise = 1e-16 * np.random.default_rng(seed).choice([-1.0, 1.0], rows.shape)
    return np.where(rows > 0, rows + noise, 0.0)


DETERMINISTIC = [[1, 0, 0], [0, 0, 1], [1, 0, 0]]
ZERO_COLUMN = [[0.5, 0, 0.5], [0.2, 0, 0.8], [0.9, 0, 0.1]]


class TestDegradedAgainstLinprog:
    """`is_degraded` against the scipy LP it replaced (skipped without scipy)."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(channel_pairs())
    def test_random_pairs(self, pair):
        _assert_matches_linprog(*pair)

    @pytest.mark.parametrize("first, second", [
        (np.eye(3), [[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]]),
        ([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]], np.eye(2)[[0, 1, 1]]),
        (np.eye(4), np.eye(4)),
        (np.eye(3), np.eye(3)[[2, 0, 1]]),
        ([[0.3, 0.7], [0.6, 0.4]], [[1.0], [1.0]]),
        ([[1.0], [1.0]], [[0.3, 0.7], [0.6, 0.4]]),
        (DETERMINISTIC, [[0.1, 0.9], [0.7, 0.3], [0.1, 0.9]]),
        (DETERMINISTIC, [[0.1, 0.9], [0.7, 0.3], [0.2, 0.8]]),
        ([[0.1, 0.9], [0.7, 0.3], [0.1, 0.9]], DETERMINISTIC),
        (ZERO_COLUMN, ZERO_COLUMN),
        (ZERO_COLUMN, np.array(ZERO_COLUMN) @ [[0, 1], [1, 0], [0.5, 0.5]]),
        (ZERO_COLUMN, [[0, 0.5, 0.5], [0, 0.8, 0.2], [0, 0.1, 0.9]]),
        (_perturbed(bsc(0.1).rows, 0), _perturbed(bsc(0.1).rows, 1)),
        (_perturbed(bec(0.2).rows, 2), _perturbed(bsc(0.1).rows, 3)),
        (_perturbed(bsc(0.1).rows, 4), _perturbed(bec(0.2).rows, 5)),
        (_perturbed(ZERO_COLUMN, 6), _perturbed(ZERO_COLUMN, 7)),
        (_perturbed(DETERMINISTIC, 8), _perturbed(np.array(DETERMINISTIC)[:, ::-1], 9)),
    ], ids=["identity-first", "identity-second", "identity-both", "permutation",
            "one-output", "one-output-first", "deterministic-yes", "deterministic-no",
            "deterministic-second", "zero-column-same", "zero-column-yes",
            "zero-column-no", "perturbed-bsc", "perturbed-bec-bsc",
            "perturbed-bsc-bec", "perturbed-zero-column", "perturbed-deterministic"])
    def test_special_cases(self, first, second):
        _assert_matches_linprog(_channel(first, "b"), _channel(second, "e"))

    @pytest.mark.parametrize("p", np.linspace(0.02, 0.48, 6))
    def test_bec_bsc_grid_both_directions(self, p):
        for eps in np.linspace(0.01, 0.99, 12):
            _assert_matches_linprog(bec(eps), bsc(p))
            _assert_matches_linprog(bsc(p), bec(eps))


class TestMoreCapable:
    def test_matches_threshold_on_binary_model(self):
        h = binary_entropy(0.1)
        below = build_source(BecBscParams(0.1, h - 0.01))
        above = build_source(BecBscParams(0.1, h + 0.01))
        assert is_more_capable(below) == (True, False)
        assert is_more_capable(above) == (False, True)

    def test_matches_the_mutual_information_comparison(self):
        # H(A|E) >= H(A|B) exactly when I(A;B) >= I(A;E); every fifth source
        # is symmetric in B and E, a tie
        rng = np.random.default_rng(0)
        for i in range(200):
            source = _random_source(rng, tuple(int(k) for k in rng.integers(2, 4, size=3)))
            if i % 5 == 4:
                mass = source.p_abe[:, :2, :2] + source.p_abe[:, :2, :2].transpose(0, 2, 1)
                source = _source("ABE", mass / mass.sum(), mass.shape)
            iab, iae = (mutual_information(source.joint, "A", y) for y in "BE")
            assert is_more_capable(source) == (iab >= iae - FEAS_TOL, iae >= iab - FEAS_TOL)


class TestClassify:
    def test_thresholds_at_p01(self):
        for eps, expect in [
            (0.19, ("yes", "yes", "yes")),
            (0.21, ("no", "yes", "yes")),
            (0.35, ("no", "yes", "yes")),
            (0.37, ("no", "no", "yes")),
            (0.46, ("no", "no", "yes")),
            (0.48, ("no", "no", "no")),
        ]:
            v = classify_bec_bsc(BecBscParams(0.1, eps))
            got = ("yes" if v.degraded[0] else "no", v.less_noisy[0],
                   "yes" if v.more_capable[0] else "no")
            assert got == expect, f"eps={eps}"

    def test_reverse_direction_degenerate_only(self):
        assert classify_bec_bsc(BecBscParams(0.0, 0.3)).degraded[1]
        assert not classify_bec_bsc(BecBscParams(0.1, 0.3)).degraded[1]

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.1, 0.3, 0.5])
    def test_reverse_direction_at_eps_one(self, p):
        # Bob sees only erasures: his output is a degraded copy of any BSC(p)
        params = BecBscParams(p, 1.0)
        verdict = classify_bec_bsc(params)
        assert verdict.degraded[1] and is_degraded(bsc(p), bec(1.0))[0]
        assert verdict == classify_source(build_source(params))

    def test_record_format(self):
        rec = classify_bec_bsc(BecBscParams(0.1, 0.1)).to_record()
        assert rec == ("degraded=yes less_noisy=yes more_capable=yes "
                       "rev_degraded=no rev_less_noisy=no rev_more_capable=no")


class TestVerdictHierarchy:
    def test_degraded_implies_less_noisy(self):
        with pytest.raises(InvalidArgument):
            OrderingVerdict((True, False), ("no", "no"), (True, False))

    def test_less_noisy_implies_more_capable(self):
        with pytest.raises(InvalidArgument):
            OrderingVerdict((False, False), ("yes", "no"), (False, False))


class TestLessNoisySearch:
    def test_finds_counterexample_between_thresholds(self):
        # more capable but not less noisy: 4p(1-p) < eps < h2(p)
        src = build_source(BecBscParams(0.1, 0.40))
        tag, channel = less_noisy_search(src, resolution=40)
        assert tag == "counterexample"
        assert channel.rows.shape == (2, 2)

    def test_no_violation_inside_less_noisy_zone(self):
        src = build_source(BecBscParams(0.1, 0.30))
        tag, _ = less_noisy_search(src, resolution=40)
        assert tag == "no-violation"

    @pytest.mark.parametrize("shape", [(2, 3, 2), (3, 2, 3)], ids=["binary", "ternary"])
    def test_gap_is_the_mutual_information_difference(self, shape):
        # H(U|B) - H(U|E) is I(U;E) - I(U;B), as the general measures give it
        rng = np.random.default_rng(sum(shape))
        u_alph = Alphabet(("u0", "u1"))
        for _ in range(3):
            source = _random_source(rng, shape)
            channels, gap = ordering._less_noisy_gap(source, 4)
            for rows, value in zip(channels, gap):
                joint = joint_from(source.joint, [
                    ("U", ConditionalPmf(source.a_alphabet, u_alph, rows), "A")])
                want = (mutual_information(joint, "U", "E")
                        - mutual_information(joint, "U", "B"))
                assert value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kwargs", [{"resolution": 0}, {"resolution": -2}])
    def test_rejects_empty_grids(self, kwargs):
        src = build_source(BecBscParams(0.1, 0.3))
        with pytest.raises(InvalidArgument):
            less_noisy_search(src, **kwargs)

    @pytest.mark.parametrize("n_out, resolution", [(2, 0), (2, -2), (0, 4)])
    def test_channel_grid_rejects_empty_grids(self, n_out, resolution):
        with pytest.raises(InvalidArgument):
            _channel_grid(2, n_out, resolution)

    @pytest.mark.parametrize("n_in, n_out, resolution", [
        case for case in product((1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 6, 10, 40))
        if comb(case[2] + case[1] - 1, case[1] - 1) ** case[0] <= 200_000])
    def test_channel_grid_matches_itertools_reference(self, n_in, n_out, resolution):
        got = _channel_grid(n_in, n_out, resolution)
        want = _itertools_channel_grid(n_in, n_out, resolution)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 5, 40), (1, 4, 100)])
    def test_channel_grid_peak_memory_stays_near_its_result(self, shape):
        # filtering every (resolution + 1)^(n_out - 1) row prefix peaked at
        # 33x and 9x the result at these shapes
        tracemalloc.start()
        try:
            grid = _channel_grid(*shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * grid.nbytes


    def test_grid_guard_raises_before_allocating(self):
        # 41^5 channels at |A| = 5 would take about 19 GiB; |A| = 4 still runs
        assert 41 ** 4 <= MAX_GRID_CHANNELS < 41 ** 5
        a = Alphabet(tuple("01234"))
        joint = JointPmf((("A", a), ("B", a), ("E", Alphabet(("*",)))),
                         np.eye(5)[:, :, None] / 5)
        src = SecureSource(joint, 1.0 - np.eye(5))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match="channels exceeds"):
                less_noisy_search(src, resolution=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


def _source(order, mass, shape):
    """A source with joint p(a, b, e) = `mass`, stored with its axes in `order`."""
    mass = np.reshape(mass, shape)
    alphabets = {name: Alphabet(tuple(f"{name.lower()}{i}" for i in range(k)))
                 for name, k in zip("ABE", shape)}
    joint = JointPmf(tuple((name, alphabets[name]) for name in order),
                     np.transpose(mass, ["ABE".index(name) for name in order]))
    return SecureSource(joint, 1.0 - np.eye(shape[0]))


def _random_source(rng, shape):
    """A source with a Dirichlet joint p(a, b, e); every p(a) is positive."""
    return _source("ABE", rng.dirichlet(np.ones(int(np.prod(shape)))), shape)


BEC_BSC_MASS = [0.045, 0.005, 0.405, 0.045, 0, 0, 0, 0, 0.045, 0.405, 0.005, 0.045]
TERNARY_MASS = [0.092, 0.070, 0.054, 0.128, 0.029, 0.036,
                0.234, 0.115, 0.120, 0.011, 0.075, 0.036]


# The records `secrd classify --source` printed for these joints stored in
# (A, B, E) order, before the verdict moved into classify_source. Other axis
# orders must give the same record; side_channels once read its marginals in
# the stored order, which failed for B or E stored before A.
@pytest.mark.parametrize("source, record", [
    pytest.param(_source("ABE", [0.3, 0, 0, 0, 0, 0, 0, 0.7], (2, 2, 2)),
                 "degraded=yes less_noisy=yes more_capable=yes "
                 "rev_degraded=yes rev_less_noisy=yes rev_more_capable=yes",
                 id="B=E=A"),
    pytest.param(_source("ABE", [0.45, 0.05, 0, 0, 0, 0, 0.05, 0.45], (2, 2, 2)),
                 "degraded=yes less_noisy=yes more_capable=yes "
                 "rev_degraded=no rev_less_noisy=no rev_more_capable=no",
                 id="B=A-E=bsc0.1"),
    pytest.param(_source("ABE", BEC_BSC_MASS, (2, 3, 2)),
                 "degraded=no less_noisy=no more_capable=no "
                 "rev_degraded=no rev_less_noisy=unknown rev_more_capable=yes",
                 id="bec0.9-bsc0.1"),
    pytest.param(_source("EAB", BEC_BSC_MASS, (2, 3, 2)),
                 "degraded=no less_noisy=no more_capable=no "
                 "rev_degraded=no rev_less_noisy=unknown rev_more_capable=yes",
                 id="bec0.9-bsc0.1-EAB-order"),
    pytest.param(_source("ABE", TERNARY_MASS, (3, 2, 2)),
                 "degraded=no less_noisy=no more_capable=yes "
                 "rev_degraded=no rev_less_noisy=no rev_more_capable=no",
                 id="ternary"),
    pytest.param(_source("BEA", TERNARY_MASS, (3, 2, 2)),
                 "degraded=no less_noisy=no more_capable=yes "
                 "rev_degraded=no rev_less_noisy=no rev_more_capable=no",
                 id="ternary-BEA-order"),
])
def test_classify_source_records(source, record):
    assert classify_source(source).to_record() == record


def _two_call_record(source):
    """classify_source's record as two less_noisy_search calls once gave it, the
    reverse one on the source rebuilt with B and E swapped."""
    ch_b, ch_e = side_channels(source)
    degraded = (is_degraded(ch_b, ch_e)[0], is_degraded(ch_e, ch_b)[0])
    swapped = SecureSource(JointPmf(
        (("A", source.a_alphabet), ("B", source.e_alphabet), ("E", source.b_alphabet)),
        np.swapaxes(source.p_abe, 1, 2)), source.distortion)
    less_noisy = tuple(
        "yes" if deg else
        "unknown" if less_noisy_search(src)[0] == "no-violation" else "no"
        for deg, src in zip(degraded, (source, swapped)))
    more_capable = tuple(mc or ln == "yes"
                         for mc, ln in zip(is_more_capable(source), less_noisy))
    return OrderingVerdict(degraded, less_noisy, more_capable).to_record()


@st.composite
def small_sources(draw):
    shape = tuple(draw(st.integers(2, 3)) for _ in range(3))
    weights = np.array(draw(st.lists(st.integers(0, 6), min_size=int(np.prod(shape)),
                                     max_size=int(np.prod(shape)))), dtype=float)
    weights = weights.reshape(shape)
    assume(weights.sum() > 0)  # a letter of A may have p(a) = 0
    return _source("ABE", weights / weights.sum(), shape)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_sources())
def test_classify_source_matches_two_call_reference(source):
    assert classify_source(source).to_record() == _two_call_record(source)


def test_classify_source_builds_no_pmf_objects(monkeypatch):
    built = []
    for cls in (JointPmf, SecureSource):
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, post_init=post_init: (built.append(self),
                                                               post_init(self)))
    source = _source("ABE", TERNARY_MASS, (3, 2, 2))
    built.clear()
    assert classify_source(source).to_record() == (
        "degraded=no less_noisy=no more_capable=yes "
        "rev_degraded=no rev_less_noisy=no rev_more_capable=no")
    assert built == []


def test_classify_source_skips_the_grid_when_both_directions_are_degraded():
    # B = E = A on five symbols: a 41^5 channel grid would exceed the guard
    source = _source("ABE", np.eye(5)[:, :, None] * np.eye(5)[:, None, :] / 5, (5, 5, 5))
    assert classify_source(source).to_record() == (
        "degraded=yes less_noisy=yes more_capable=yes "
        "rev_degraded=yes rev_less_noisy=yes rev_more_capable=yes")


@pytest.mark.parametrize("order", ["ABE", "EAB"])
def test_a_zero_mass_letter_of_a_is_dropped(order):
    # classify --source once exited 3 on a letter with p(a) = 0, which eval
    # accepts; the side channels are those of the source without it
    mass = np.reshape(BEC_BSC_MASS, (2, 3, 2))
    padded = _source(order, np.concatenate([mass, np.zeros((1, 3, 2))]), (3, 3, 2))
    dropped = _source("ABE", mass, (2, 3, 2))
    for got, want in zip(side_channels(padded), side_channels(dropped)):
        assert got == want
        np.testing.assert_array_equal(got.rows, want.rows)
    assert classify_source(padded).to_record() == classify_source(dropped).to_record()


@pytest.mark.parametrize("position", [0, 1, 3])
def test_less_noisy_lattice_skips_zero_mass_letters(position):
    # a letter with p(a) = 0 once grew the lattice from 41^3 to 41^4 channels
    # (over 600 MB); the witness gives it the row (0, 1), as the first of the
    # equal maxima over the full lattice did
    mass = np.random.default_rng(0).dirichlet(np.ones(18)).reshape(3, 3, 2)
    dropped = _source("ABE", mass, (3, 3, 2))
    padded = _source("ABE", np.insert(mass, position, 0.0, axis=0), (4, 3, 2))
    tracemalloc.start()
    try:
        record = classify_source(padded).to_record()
        tag, witness = less_noisy_search(padded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want_tag, want = less_noisy_search(dropped)
    assert record == classify_source(dropped).to_record()
    assert tag == want_tag == "counterexample"
    np.testing.assert_array_equal(witness.rows,
                                  np.insert(want.rows, position, [0.0, 1.0], axis=0))
    assert peak < 50 << 20

def test_side_channels_recover_constructors():
    src = build_source(BecBscParams(0.1, 0.4))
    for order in ("ABE", "EBA"):  # whatever order the joint stores its axes in
        ch_b, ch_e = side_channels(_source(order, src.p_abe, src.p_abe.shape))
        np.testing.assert_allclose(ch_b.rows, bec(0.4).rows, atol=1e-12)
        np.testing.assert_allclose(ch_e.rows, bsc(0.1).rows, atol=1e-12)


def test_import_does_not_load_scipy_optimize():
    # neither `import secrd` nor `secrd classify --source` imports any scipy
    # module; the classify run blocks scipy and must print the same record
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(secrd.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    loaded = "print([m for m, v in sys.modules.items() if m.split('.')[0] == 'scipy' and v])"
    runs = {
        "import": f"import sys, secrd; {loaded}",
        "classify": ("import sys; sys.modules['scipy'] = None\n"
                     "from secrd.cli import main\n"
                     "assert main(['classify', '--source', "
                     f"{str(root / 'perfbench/data/bec_bsc_p0.1_eps0.9.txt')!r}]) == 0\n"
                     f"{loaded}"),
    }
    out = {name: subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout
           for name, code in runs.items()}
    assert out["import"] == "[]\n"
    assert out["classify"] == (
        "degraded=no less_noisy=no more_capable=no "
        "rev_degraded=no rev_less_noisy=unknown rev_more_capable=yes\n[]\n")
