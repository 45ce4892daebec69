"""Unit tests for the finite-blocklength simulator."""

import itertools
import tracemalloc

import numpy as np
import pytest

from secrd.binary import BITS, BecBscParams, BinaryScheme, aux_scheme, build_source
from secrd.probs import (Alphabet, ConditionalPmf, InvalidArgument, JointPmf, bec, bsc,
                         joint_from)
from secrd.region import AuxScheme, SecureSource
from secrd.simulate import (
    CHUNK_CELLS,
    SCORE_TOL,
    _LOG_FLOOR,
    Codebook,
    ResourceLimit,
    SimConfig,
    SimRates,
    TrialRecord,
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


def case_source(case):
    """(source, scheme) for the named reference case."""
    if case.startswith("ternary"):  # |A| = 3; E's first symbol has no mass
        rng = np.random.default_rng(7)
        a, b, e = (Alphabet(tuple(f"{c}{i}" for i in range(k)))
                   for c, k in (("a", 3), ("b", 2), ("e", 3)))
        mass = rng.dirichlet(np.ones(18)).reshape(3, 2, 3)
        mass[:, :, 0] = 0.0
        if case == "ternary-zero-a":
            mass[1] = 0.0
        joint = JointPmf((("A", a), ("B", b), ("E", e)), mass / mass.sum())
        v, u = Alphabet(("v0", "v1", "v2")), Alphabet(("u0", "u1"))
        aux = AuxScheme(ConditionalPmf(a, v, rng.dirichlet(np.ones(3), size=3)),
                        ConditionalPmf(v, u, rng.dirichlet(np.ones(2), size=3)),
                        rng.integers(0, 3, size=(3, 2)))
        return SecureSource(joint, 1.0 - np.eye(3), d_max=1.0), aux
    if case == "skewed":  # p(a) = (0.95, 0.05)
        prior = JointPmf((("A", BITS),), np.array([0.95, 0.05]))
        joint = joint_from(prior, [("B", bec(PARAMS.eps), "A"),
                                   ("E", bsc(PARAMS.p), "A")])
        src = SecureSource(joint, build_source(PARAMS).distortion, d_max=1.0)
        return src, aux_scheme(PARAMS, SCHEME)
    params, scheme = {
        "paper": (PARAMS, SCHEME),
        "noiseless-bob": (BecBscParams(0.1, 0.0), BinaryScheme(0.0, 0.0)),
        "p0": (BecBscParams(0.0, PARAMS.eps), SCHEME),
    }[case]
    return build_source(params), aux_scheme(params, scheme)


def reference_decode(book, log_prior, message, b):
    """Codeword pair by exact MAP over every source word, one trial."""
    r1, r2 = message
    seqs = book.encode_all()[2]
    logw = log_prior + book.log_b_given_a[seqs, b[None, :]].sum(axis=1)
    w = np.exp2(logw - logw.max())
    m2 = len(book.v_bins)
    scores = np.bincount(book._encode_idx, weights=w,
                         minlength=len(book.u_words) * m2)
    in_bins = ((book.u_bins[:, None] == r1) & (book.v_bins[None, :] == r2)).ravel()
    scores = np.where(in_bins, scores, -1.0)
    return divmod(int(np.argmax(scores >= scores.max() - SCORE_TOL)), m2)


def reference_equivocation(book, log_prior, message_id, e):
    """(1/n) H(A^n | W, E^n = e) from the message's preimage, one trial."""
    messages, _, seqs = book.encode_all()
    idx = np.nonzero(messages == message_id)[0]
    w = log_prior[idx] + book.log_e_given_a[seqs[idx], e[None, :]].sum(axis=1)
    post = np.exp2(w - w.max())
    post /= post.sum()
    nz = post[post > 0]
    return float(0.0 - (nz * np.log2(nz)).sum()) / book.cfg.n


def reference_trials(source, scheme, cfg):
    """run_trials one trial at a time, decoding and equivocating over all words."""
    book = Codebook(source, scheme, cfg)
    messages, enc_ok, seqs = book.encode_all()
    log_prior = book.log_a[seqs].sum(axis=1)
    p_abe = source.p_abe
    na, nb, ne = p_abe.shape
    p_a = p_abe.sum(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # a letter with p(a) = 0 gives a NaN row
        cdf_be = (p_abe / p_a[:, None, None]).reshape(na, nb * ne).cumsum(axis=1)
        cdf_be /= cdf_be[:, -1:]
    records = []
    for t, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.trials)):
        rng = np.random.default_rng(child)
        a = rng.choice(na, size=cfg.n, p=p_a)
        be = (cdf_be[a] <= rng.random(cfg.n)[:, None]).sum(axis=1)
        b, e = be // ne, be % ne
        idx = int(np.ravel_multi_index(tuple(a), (na,) * cfg.n))
        msg = int(messages[idx])
        pair = reference_decode(book, log_prior, divmod(msg, book.n_bins[1]), b)
        a_hat = scheme.reconstruction[book.v_words[pair], b]
        records.append(TrialRecord(
            t, bool(enc_ok[idx]),
            pair == divmod(int(book._encode_idx[idx]), len(book.v_bins)),
            float(source.distortion[a, a_hat].mean()),
            reference_equivocation(book, log_prior, msg, e)))
    return records


def assert_records_match(got, want):
    """Flags and distortion bitwise, equivocation within 1e-12."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.trial, g.encode_ok, g.decode_ok, g.distortion) == \
            (w.trial, w.encode_ok, w.decode_ok, w.distortion)
        assert g.equivocation == pytest.approx(w.equivocation, abs=1e-12)


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


    def test_decode_below_tolerance_picks_lowest_in_bin_pair(self):
        # B = A: a b_seq outside the preimage gives every preimage word
        # p(b | a) = 0, so every in-bin pair scores 0. The paper's scheme
        # spreads each bin over several pairs.
        params = BecBscParams(0.1, 0.0)
        src, aux = build_source(params), aux_scheme(params, SCHEME)
        rates = achievability_rates(src, aux, slack=0.1)
        book = Codebook(src, aux, SimConfig(n=8, rates=rates, trials=1, seed=1))
        messages, _, seqs = book.encode_all()
        log_prior = book.log_a[seqs].sum(axis=1)
        m2 = len(book.v_bins)
        b_of_a = np.array([0, 2])  # B alphabet order: 0, e, 1
        checked = 0
        for msg in np.unique(messages):
            r1, r2 = divmod(int(msg), book.n_bins[1])
            if (book._encode_idx[messages == msg] == r1 * m2 + r2).any():
                continue  # the lowest in-bin pair must not hold preimage mass
            b = b_of_a[seqs[np.flatnonzero(messages != msg)[0]]]
            a_hat, pair = book.decode((r1, r2), b)
            assert pair == (r1, r2) == reference_decode(book, log_prior, (r1, r2), b)
            np.testing.assert_array_equal(
                a_hat, aux.reconstruction[book.v_words[r1, r2], b])
            checked += 1
        assert checked == 3
        for outside in ((book.n_bins[0], 0), (0, -1)):
            with pytest.raises(InvalidArgument):
                book.decode(outside, b)


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

    @pytest.mark.parametrize("case", ["paper", "noiseless-bob", "p0", "skewed",
                                      "ternary", "ternary-zero-a"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
    def test_matches_per_trial_reference(self, case, n):
        src, aux = case_source(case)
        if case.startswith("ternary"):
            n = min(n, 8)  # 3^10 words exceed ENUM_LIMIT
        rates = achievability_rates(src, aux, slack=0.1)
        cfg = SimConfig(n=n, rates=rates, trials=40, seed=n)
        records = run_trials(src, aux, cfg).records
        assert_records_match(records, reference_trials(src, aux, cfg))
        if case == "noiseless-bob" and n == 10:
            assert not all(r.encode_ok for r in records)

    def one_message(self, trials):
        """The paper source with N1 = N2 = 1: every preimage is all 2^10 words."""
        src, aux = canonical()
        cfg = SimConfig(n=10, rates=SimRates(0.3, 0.0, 0.2, 0.0), trials=trials, seed=5)
        return src, aux, cfg

    def test_records_do_not_depend_on_chunking(self):
        src, aux, cfg = self.one_message(1)
        book = Codebook(src, aux, cfg)
        assert book.n_bins == (1, 1)
        chunk = CHUNK_CELLS // book._trial_cells()
        assert chunk >= 1
        trials = 2 * chunk + 3  # two full chunks and a short one
        src, aux, cfg = self.one_message(trials)
        records = run_trials(src, aux, cfg).records
        src, aux, longer = self.one_message(trials + chunk // 2)
        assert run_trials(src, aux, longer).records[:trials] == records
        assert_records_match(records, reference_trials(src, aux, cfg))

    def test_peak_memory_does_not_grow_with_trials(self):
        def peak(trials):
            src, aux, cfg = self.one_message(trials)
            tracemalloc.start()
            try:
                run_trials(src, aux, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 10x the trials adds only the records, about 0.2 KB each
        assert peak(1000) < peak(100) + (1 << 20)

    def test_zero_trials(self):
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        summary = run_trials(src, aux, SimConfig(n=6, rates=rates,
                                                 trials=0, seed=0))
        assert summary.records == []
