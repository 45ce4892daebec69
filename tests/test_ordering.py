"""Unit tests for side-information channel ordering."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import secrd
from secrd.binary import BecBscParams, build_source
from secrd.ordering import (
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
    InvalidArgument,
    JointPmf,
    binary_entropy,
    bsc,
    bec,
    compose,
)
from secrd.region import SecureSource


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
        from secrd.probs import ConditionalPmf

        ternary_in = ConditionalPmf(bec(0.1).output, bec(0.1).output, np.eye(3))
        with pytest.raises(InvalidArgument):
            is_degraded(bec(0.1), ternary_in)


class TestMoreCapable:
    def test_matches_threshold_on_binary_model(self):
        h = binary_entropy(0.1)
        below = build_source(BecBscParams(0.1, h - 0.01))
        above = build_source(BecBscParams(0.1, h + 0.01))
        assert is_more_capable(below) == (True, False)
        assert is_more_capable(above) == (False, True)


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

    def test_u_size_cap(self):
        src = build_source(BecBscParams(0.1, 0.3))
        with pytest.raises(InvalidArgument):
            less_noisy_search(src, u_size=4)


def _source(order, mass, shape):
    """A source with joint p(a, b, e) = `mass`, stored with its axes in `order`."""
    mass = np.reshape(mass, shape)
    alphabets = {name: Alphabet(tuple(f"{name.lower()}{i}" for i in range(k)))
                 for name, k in zip("ABE", shape)}
    joint = JointPmf(tuple((name, alphabets[name]) for name in order),
                     np.transpose(mass, ["ABE".index(name) for name in order]))
    return SecureSource(joint, 1.0 - np.eye(shape[0]))


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


def test_side_channels_recover_constructors():
    src = build_source(BecBscParams(0.1, 0.4))
    for order in ("ABE", "EBA"):  # whatever order the joint stores its axes in
        ch_b, ch_e = side_channels(_source(order, src.p_abe, src.p_abe.shape))
        np.testing.assert_allclose(ch_b.rows, bec(0.4).rows, atol=1e-12)
        np.testing.assert_allclose(ch_e.rows, bsc(0.1).rows, atol=1e-12)


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize is imported on the first degradedness test, not with secrd
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(secrd.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, secrd; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
