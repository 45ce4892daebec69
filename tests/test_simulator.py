"""Unit tests for the finite-blocklength simulator."""

import itertools

import numpy as np
import pytest

from secrd.binary import BITS, BecBscParams, BinaryScheme, aux_scheme, build_source
from secrd.probs import InvalidArgument, JointPmf, bec, bsc, joint_from
from secrd.region import SecureSource
from secrd.simulate import (
    SCORE_TOL,
    _LOG_FLOOR,
    Codebook,
    ResourceLimit,
    SimConfig,
    SimRates,
    exact_equivocation,
    run_trials,
    achievability_rates,
)

PARAMS = BecBscParams(p=0.1, eps=0.4689955935892812)
SCHEME = BinaryScheme(alpha=0.031124, beta=0.0496)


def brute_force_encoder(book, seqs):
    """Codeword index s1 * M2 + s2 and success flag for every word in `seqs`.

    Every (s1, s2, a) is scored by summing log p(u_i, v_i, a_i) letter by
    letter. Per u-word in index order, the top score over its v-words is
    taken at the lowest s2 within SCORE_TOL of it, and replaces the best so
    far only if it beats it by more than SCORE_TOL.
    """
    best = np.full(len(seqs), -np.inf)
    idx = np.zeros(len(seqs), dtype=np.int64)
    for s1, u in enumerate(book.u_words):
        v = book.v_words[s1]
        scores = book.log_uva[u, v[:, None, :], seqs].sum(axis=2)  # (M2, T)
        top = scores.max(axis=0)
        gain = top > best + SCORE_TOL
        s2 = np.argmax(scores >= top - SCORE_TOL, axis=0)  # first within tol
        best[gain] = top[gain]
        idx[gain] = s1 * len(book.v_bins) + s2[gain]
    return idx, best > _LOG_FLOOR / 2


def canonical():
    src = build_source(PARAMS)
    aux = aux_scheme(PARAMS, SCHEME)
    return src, aux


class TestRates:
    def test_achievability_rates_values(self):
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        # mutual-information constraint values plus 0.1 slack each
        assert rates.s1 == pytest.approx(0.706204, abs=1e-5)
        assert rates.r1 == pytest.approx(0.484307, abs=1e-5)
        assert rates.s2 == pytest.approx(0.293798, abs=1e-5)
        assert rates.r2 == pytest.approx(0.290891, abs=1e-5)

    def test_rates_ordering_enforced(self):
        with pytest.raises(InvalidArgument):
            SimRates(s1=0.1, r1=0.2, s2=0.1, r2=0.0)

    def test_config_validation(self):
        rates = SimRates(0.5, 0.4, 0.2, 0.1)
        with pytest.raises(InvalidArgument):
            SimConfig(n=0, rates=rates, trials=10, seed=0)
        with pytest.raises(InvalidArgument):
            SimConfig(n=4, rates=rates, trials=-1, seed=0)


class TestCodebook:
    def test_resource_guard_on_blocklength(self):
        src, aux = canonical()
        rates = SimRates(0.1, 0.1, 0.1, 0.1)  # tiny codebook, huge 2^n
        cfg = SimConfig(n=40, rates=rates, trials=1, seed=0)
        book = Codebook(src, aux, cfg)
        with pytest.raises(ResourceLimit):
            book.encode_all()

    def test_resource_guard_on_codebook_size(self):
        src, aux = canonical()
        rates = SimRates(2.0, 1.0, 2.0, 1.0)
        cfg = SimConfig(n=12, rates=rates, trials=1, seed=0, max_codewords=256)
        with pytest.raises(ResourceLimit):
            Codebook(src, aux, cfg)

    def test_single_encode_matches_batch(self):
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        cfg = SimConfig(n=6, rates=rates, trials=1, seed=3)
        book = Codebook(src, aux, cfg)
        messages, ok, seqs = book.encode_all()
        rng = np.random.default_rng(0)
        for i in rng.choice(len(seqs), size=10, replace=False):
            msg, good = book.encode(seqs[i])
            assert msg[0] * book.n_bins[1] + msg[1] == messages[i]
            assert good == ok[i]

    @pytest.mark.parametrize("case", ["paper", "noiseless-bob", "noisy"])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_encoder_matches_brute_force(self, case, n):
        # "noiseless-bob" has zero-mass (u, v, a) cells and encode failures
        params, scheme = {
            "paper": (PARAMS, SCHEME),
            "noiseless-bob": (BecBscParams(0.1, 0.0), BinaryScheme(0.0, 0.0)),
            "noisy": (BecBscParams(0.2, 0.7), BinaryScheme(0.1, 0.2)),
        }[case]
        src = build_source(params)
        aux = aux_scheme(params, scheme)
        rates = achievability_rates(src, aux, slack=0.1)
        for seed in range(3):
            book = Codebook(src, aux, SimConfig(n=n, rates=rates, trials=1,
                                                seed=seed))
            messages, ok, seqs = book.encode_all()
            np.testing.assert_array_equal(  # lexicographic, as indexed
                seqs, list(itertools.product(range(2), repeat=n)))
            idx, want_ok = brute_force_encoder(book, seqs)
            np.testing.assert_array_equal(book._encode_idx, idx)
            np.testing.assert_array_equal(ok, want_ok)
            s1, s2 = np.divmod(idx, len(book.v_bins))
            np.testing.assert_array_equal(
                messages, book.u_bins[s1] * book.n_bins[1] + book.v_bins[s2])
            if case == "noiseless-bob":
                assert not ok.all()

    def test_decode_recovers_clean_transmission(self):
        # with B = A (eps -> 0 has no erasures) the decoder should recover
        # the encoder's codeword pair on almost every trial
        params = BecBscParams(p=0.1, eps=0.0)
        src = build_source(params)
        aux = aux_scheme(params, BinaryScheme(0.0, 0.0))
        rates = achievability_rates(src, aux, slack=0.1)
        cfg = SimConfig(n=8, rates=rates, trials=50, seed=9)
        summary = run_trials(src, aux, cfg)
        assert summary.decode_failure_rate <= 0.05
        assert summary.mean_distortion <= 0.01


class TestEquivocation:
    def test_bounds_and_determinism(self):
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        cfg = SimConfig(n=6, rates=rates, trials=1, seed=4)
        book = Codebook(src, aux, cfg)
        messages, _, _ = book.encode_all()
        e_seq = np.array([0, 1, 0, 0, 1, 0])
        val = exact_equivocation(book, int(messages[5]), e_seq)
        assert 0.0 <= val <= 1.0
        assert val == exact_equivocation(book, int(messages[5]), e_seq)

    @pytest.mark.parametrize("p, p_a0", [(PARAMS.p, 0.5), (0.0, 0.5), (PARAMS.p, 0.8)])
    def test_matches_direct_posterior(self, p, p_a0):
        # p = 0 hands Eve A itself, so p(e | a) has zero cells; p_a0 != 1/2
        # makes the prior p(a) matter
        params = BecBscParams(p, PARAMS.eps)
        prior = JointPmf((("A", BITS),), np.array([p_a0, 1 - p_a0]))
        joint = joint_from(prior, [("B", bec(params.eps), "A"),
                                   ("E", bsc(params.p), "A")])
        src = SecureSource(joint, build_source(params).distortion, d_max=1.0)
        aux = aux_scheme(params, SCHEME)
        rates = achievability_rates(src, aux, slack=0.1)
        book = Codebook(src, aux, SimConfig(n=6, rates=rates, trials=1, seed=4))
        messages, _, seqs = book.encode_all()
        p_ae = src.joint.marginal(("A", "E")).mass
        for msg in np.unique(messages)[:8]:
            sub = seqs[messages == msg]
            e_seq = sub[-1]  # E alphabet = A alphabet, and this e is possible
            w = p_ae[sub, e_seq].prod(axis=1)
            post = w[w > 0] / w.sum()
            want = float(-(post * np.log2(post)).sum()) / 6
            got = exact_equivocation(book, int(msg), e_seq)
            assert got == pytest.approx(want, abs=1e-12)

    def test_unused_message_rejected(self):
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        cfg = SimConfig(n=6, rates=rates, trials=1, seed=4)
        book = Codebook(src, aux, cfg)
        messages, _, _ = book.encode_all()
        unused = int(messages.max()) + 1
        with pytest.raises(InvalidArgument):
            exact_equivocation(book, unused, np.zeros(6, dtype=int))


class TestTrials:
    def test_deterministic_given_seed(self):
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        cfg = SimConfig(n=6, rates=rates, trials=30, seed=11)
        a = run_trials(src, aux, cfg)
        b = run_trials(src, aux, cfg)
        assert a.records == b.records
        other = run_trials(src, aux, SimConfig(n=6, rates=rates,
                                               trials=30, seed=12))
        assert other.records != a.records

    def test_csv_layout(self):
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        summary = run_trials(src, aux, SimConfig(n=6, rates=rates,
                                                 trials=5, seed=2))
        lines = summary.to_csv().splitlines()
        assert lines[0] == "trial,encode_ok,decode_ok,distortion,equivocation"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert set(first[1]) <= {"0", "1"}

    def test_zero_trials(self):
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        summary = run_trials(src, aux, SimConfig(n=6, rates=rates,
                                                 trials=0, seed=0))
        assert summary.records == []
