"""Unit tests for the binary BEC/BSC worked example."""

import numpy as np
import pytest

from secrd.binary import (
    BITS,
    TABLE_COLUMNS,
    BecBscParams,
    BinaryScheme,
    _inverse_h2,
    aux_scheme,
    build_source,
    closed_form,
    curve_csv,
    oracle_check,
    sweep_curve,
    benchmark_table,
    table_csv,
    table_text,
)
from secrd.probs import InvalidArgument, JointPmf, bec, binary_entropy, bsc, joint_from

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

    def test_csv_header(self):
        pts = sweep_curve(PARAMS, [0.0, 0.01])
        lines = curve_csv(pts).splitlines()
        assert lines[0] == "D,delta_general,delta_wz,alpha,beta_opt"
        assert len(lines) == 3


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
