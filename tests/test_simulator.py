"""Unit tests for the finite-blocklength simulator."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrd import simulate
from secrd.binary import BITS, BecBscParams, BinaryScheme, aux_scheme, build_source
from secrd.probs import (Alphabet, ConditionalPmf, InvalidArgument, JointPmf, all_words,
                         bec, bsc, joint_from)
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
    _trial_uniforms,
    exact_equivocation,
    run_trials,
    achievability_rates,
)

PARAMS = BecBscParams(p=0.1, eps=0.4689955935892812)
SCHEME = BinaryScheme(alpha=0.031124, beta=0.0496)


def brute_force_encoder(book, seqs):
    """Codeword index s1 * M2 + s2 and success flag for every word in `seqs`.

    Every (s1, s2, a) is scored by summing log p(u_i, v_i) + log p(a_i | v_i)
    letter by letter. Per u-word in index order, the top score over its
    v-words is taken at the lowest s2 within SCORE_TOL of it, and replaces the
    best so far only if it beats it by more than SCORE_TOL.
    """
    best = np.full(len(seqs), -np.inf)
    idx = np.zeros(len(seqs), dtype=np.int64)
    for s1, u in enumerate(book.u_words):
        v = book.v_words[s1]
        scores = (book.log_uv[u, v][:, None, :]
                  + book.log_a_given_v[v[:, None, :], seqs]).sum(axis=2)  # (M2, T)
        top = scores.max(axis=0)
        gain = top > best + SCORE_TOL
        s2 = np.argmax(scores >= top - SCORE_TOL, axis=0)  # first within tol
        best[gain] = top[gain]
        idx[gain] = s1 * len(book.v_bins) + s2[gain]
    return idx, best > _LOG_FLOOR / 2


def lowest_index_encoder(book):
    """Codeword index s1 * M2 + s2 and success flag for every source word,
    by the encoder's rule on the full (codeword x word) score matrix.

    Each codeword scores sum_i log2 p(a_i, v_i, u_i), from a table built here
    from `_p_abvu`, and each word takes the lowest codeword index within
    SCORE_TOL of its best score.
    """
    log_avu = simulate._safe_log2(simulate._p_abvu(book.source, book.scheme).sum(axis=1))
    n = book.cfg.n
    u = np.repeat(book.u_words, len(book.v_bins), axis=0)  # row s1 * M2 + s2
    v = book.v_words.reshape(-1, n)
    scores = log_avu[source_words(book)[None], v[:, None], u[:, None]].sum(axis=2)
    top = scores.max(axis=0)
    return np.argmax(scores >= top - SCORE_TOL, axis=0), top > _LOG_FLOOR / 2


def quaternary_v_case():
    """(source, scheme, rates): the paper's source with a |V| = 4, |U| = 2
    scheme and 2^(n/4) u-words of 2^(3n/4) v-words each, so that at n = 8
    the v-words have more distinct halves than there are u-words."""
    v, u = Alphabet(tuple(f"v{i}" for i in range(4))), Alphabet(("u0", "u1"))
    aux = AuxScheme(
        ConditionalPmf(BITS, v, np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])),
        ConditionalPmf(v, u, np.array([[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]])),
        np.array([[0, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]]))
    return build_source(PARAMS), aux, SimRates(0.25, 0.1, 0.75, 0.2)


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


def source_words(book):
    """Every source word, in the lexicographic order the encoder indexes."""
    return all_words(len(book.source.a_alphabet), book.cfg.n)


def reference_decode(book, log_prior, message, b):
    """Codeword pair by exact MAP over every source word, one trial."""
    r1, r2 = message
    seqs = source_words(book)
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
    seqs = source_words(book)
    idx = np.nonzero(book._encode_map == message_id)[0]
    w = log_prior[idx] + book.log_e_given_a[seqs[idx], e[None, :]].sum(axis=1)
    post = np.exp2(w - w.max())
    post /= post.sum()
    nz = post[post > 0]
    return float(0.0 - (nz * np.log2(nz)).sum()) / book.cfg.n


def reference_trials(source, scheme, cfg):
    """run_trials one trial at a time, decoding and equivocating over all words."""
    book = Codebook(source, scheme, cfg)
    messages, enc_ok, seqs = book._encode_map, book._encode_ok, source_words(book)
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
        for budget in (0, -4):  # once a log2 RuntimeWarning, then "budget 0"
            with pytest.raises(InvalidArgument, match="max_codewords"):
                SimConfig(n=4, rates=rates, trials=1, seed=0, max_codewords=budget)

    def test_trial_count_within_one_word_spawn_keys(self):
        # constructed only: trial keys 0 .. trials - 1 must stay below 2^32
        rates = SimRates(0.5, 0.4, 0.2, 0.1)
        assert SimConfig(n=4, rates=rates, trials=1 << 32, seed=0).trials == 1 << 32
        with pytest.raises(InvalidArgument):
            SimConfig(n=4, rates=rates, trials=(1 << 32) + 1, seed=0)


def numpy_child_uniforms(seed, first, count, m):
    """random(m) of numpy's own generator for children first .. first + count - 1."""
    return np.array([
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(first + t,))).random(m)
        for t in range(count)]).reshape(count, m)


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def streams(draw):
    count = draw(st.integers(1, 64))
    return (draw(st.integers(0, (1 << 160) - 1)), draw(st.integers(0, (1 << 32) - count)),
            count, draw(st.integers(1, 40)))


class TestTrialUniforms:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(streams())
    def test_matches_numpy_child_generators(self, stream):
        assert_bitwise_equal(_trial_uniforms(*stream), numpy_child_uniforms(*stream))

    # the seed's uint32 word count moves the spawn key's hash offset
    @pytest.mark.parametrize("seed", [0, (1 << 32) - 1, 1 << 32, 1 << 96,
                                      (1 << 128) - 1, 1 << 128, 1 << 160])
    @pytest.mark.parametrize("first, count, m", [(0, 40, 20), (37, 5, 1),
                                                 ((1 << 32) - 3, 3, 28)])
    def test_word_count_boundaries(self, seed, first, count, m):
        assert_bitwise_equal(_trial_uniforms(seed, first, count, m),
                             numpy_child_uniforms(seed, first, count, m))


class TestCodebook:
    def test_resource_guard_on_blocklength(self):
        src, aux = canonical()
        rates = SimRates(0.1, 0.1, 0.1, 0.1)  # tiny codebook, huge 2^n
        cfg = SimConfig(n=40, rates=rates, trials=1, seed=0)
        with pytest.raises(ResourceLimit):
            Codebook(src, aux, cfg)

    def test_blocklength_guard_comes_before_the_codebook(self, monkeypatch):
        # rates past the codeword budget too: the enumeration check fires
        # first, and no codeword is drawn
        src, aux = canonical()
        cfg = SimConfig(n=40, rates=SimRates(2.0, 1.0, 2.0, 1.0), trials=1, seed=0)
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ResourceLimit, match="enumeration limit"):
            Codebook(src, aux, cfg)

    def test_resource_guard_on_codebook_size(self):
        src, aux = canonical()
        rates = SimRates(2.0, 1.0, 2.0, 1.0)
        cfg = SimConfig(n=12, rates=rates, trials=1, seed=0, max_codewords=256)
        with pytest.raises(ResourceLimit):
            Codebook(src, aux, cfg)

    def test_resource_guard_on_codebook_product(self, monkeypatch):
        # 32 u-words and 32 v-words each fit a budget of 256, 32 x 32 does not;
        # the guard fires before any codeword is drawn
        src, aux = canonical()
        cfg = SimConfig(n=10, rates=SimRates(0.5, 0.1, 0.5, 0.1), trials=1, seed=0,
                        max_codewords=256)
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ResourceLimit, match="codebook of 32x32 codewords exceeds budget 256"):
            run_trials(src, aux, cfg)

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
            (messages, ok), seqs = book.encode_all(), all_words(2, n)
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

    @pytest.mark.parametrize("case", ["paper", "noiseless-bob", "skewed", "p0",
                                      "ternary", "ternary-zero-a", "quaternary-v",
                                      "many-v-words"])
    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_encoder_takes_lowest_codeword_within_tolerance(self, case, n):
        if case == "quaternary-v":
            src, aux, rates = quaternary_v_case()
        elif case == "many-v-words":  # 2^(7n/8) v-words per u-word
            (src, aux), rates = canonical(), SimRates(0.25, 0.1, 0.875, 0.5)
        else:
            src, aux = case_source(case)
            rates = achievability_rates(src, aux, slack=0.1)
        book = Codebook(src, aux, SimConfig(n=n, rates=rates, trials=1, seed=0))
        idx, ok = lowest_index_encoder(book)
        np.testing.assert_array_equal(book._encode_idx, idx)
        np.testing.assert_array_equal(book._encode_ok, ok)
        halves = book.v_words.reshape(-1, n)
        if case == "quaternary-v" and n == 8:
            assert min(len(np.unique(halves[:, :4], axis=0)),
                       len(np.unique(halves[:, 4:], axis=0))) > len(book.u_words)
        if case == "many-v-words" and n > 1:  # some v-left half is split
            counts = np.unique(halves[:, :n // 2], axis=0, return_counts=True)[1]
            assert counts.max() > 2 * 2 ** (n // 2)

    def test_row_groups_of_rows_too_long_for_one_integer(self):
        # 70 binary letters overflow an int64 code, so the ids are renumbered;
        # rows that differ only in their first letters would collide
        rng = np.random.default_rng(3)
        distinct = np.concatenate([
            np.pad(all_words(2, 3), ((0, 0), (0, 67))),
            rng.integers(0, 2, size=(32, 70))])
        rows = distinct[rng.integers(0, 40, size=120)]
        first, ids = simulate._row_groups(rows, 2)
        np.testing.assert_array_equal(rows[first[ids]], rows)
        assert len(first) == len(np.unique(rows, axis=0))

    def test_v_letter_drawn_at_the_top_of_the_cdf_stays_in_range(self, monkeypatch):
        # p(v | u0) of this scheme sums to 2 ulps below 1, so a uniform of
        # 1 - 2^-53 lies above its last cdf entry unless the cdf is normalized
        v, u = Alphabet(("v0", "v1", "v2")), Alphabet(("u0", "u1"))
        aux = AuxScheme(ConditionalPmf(BITS, v, np.array([[0.1, 0.1, 0.8], [0.1, 0.2, 0.7]])),
                        ConditionalPmf(v, u, np.array([[0.1, 0.9], [0.5, 0.5], [0.7, 0.3]])),
                        np.zeros((3, 3), dtype=int))
        src = build_source(PARAMS)
        p_vu = simulate._p_abvu(src, aux).sum(axis=1).sum(axis=0)
        assert (p_vu[:, 0] / p_vu[:, 0].sum()).cumsum()[-1] < 1.0 - 2.0 ** -53

        class EdgeDraws:  # every u letter is u0, every uniform 1 - 2^-53
            def choice(self, k, size, p):
                return np.zeros(size, dtype=np.int64)

            def random(self, size):
                return np.full(size, 1.0 - 2.0 ** -53)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: EdgeDraws())
        book = Codebook(src, aux, SimConfig(n=4, rates=SimRates(0.5, 0.25, 0.5, 0.25),
                                            trials=1, seed=0))
        assert (book.v_words == 2).all()

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
        (messages, _), seqs = book.encode_all(), all_words(2, 8)
        log_prior = book.log_a[seqs].sum(axis=1)
        m2 = len(book.v_bins)
        b_of_a = np.array([0, 2])  # B alphabet order: 0, e, 1
        checked = 0
        for msg in np.unique(messages):
            r1, r2 = divmod(int(msg), book.n_bins[1])
            if (book._encode_idx[messages == msg] == r1 * m2 + r2).any():
                continue  # the lowest in-bin pair must not hold preimage mass
            b = b_of_a[seqs[np.flatnonzero(messages != msg)[0]]]
            (pair,) = book.decode([msg], b[None])
            assert divmod(int(pair), m2) == (r1, r2) == reference_decode(
                book, log_prior, (r1, r2), b)
            checked += 1
        assert checked == 3


class TestBatchCalls:
    """`Codebook.decode` and `exact_equivocation` on batches of trials."""

    @staticmethod
    def trials(book, k, seed):
        """k random trials with nonempty preimages: (message ids, b rows, e rows)."""
        rng = np.random.default_rng(seed)
        msg_ids = rng.choice(np.unique(book._encode_map), size=k)
        na, nb, ne = book.source.p_abe.shape
        return (msg_ids, rng.integers(nb, size=(k, book.cfg.n)),
                rng.integers(ne, size=(k, book.cfg.n)))

    @pytest.mark.parametrize("case", ["paper", "noiseless-bob", "p0", "skewed",
                                      "ternary", "ternary-zero-a"])
    def test_one_row_batch_matches_reference(self, case):
        src, aux = case_source(case)
        rates = achievability_rates(src, aux, slack=0.1)
        book = Codebook(src, aux, SimConfig(n=5, rates=rates, trials=1, seed=2))
        log_prior = book.log_a[source_words(book)].sum(axis=1)
        m2 = len(book.v_bins)
        for msg, b, e in zip(*self.trials(book, 12, seed=len(case))):
            (pair,) = book.decode([msg], b[None])
            want = reference_decode(book, log_prior, divmod(int(msg), book.n_bins[1]), b)
            assert divmod(int(pair), m2) == want
            (eq,) = exact_equivocation(book, [msg], e[None])
            assert eq == pytest.approx(
                reference_equivocation(book, log_prior, msg, e), abs=1e-12)

    @pytest.mark.parametrize("case", ["paper", "ternary"])
    def test_k_rows_equal_k_one_row_calls(self, case):
        src, aux = case_source(case)
        rates = achievability_rates(src, aux, slack=0.1)
        book = Codebook(src, aux, SimConfig(n=6, rates=rates, trials=1, seed=3))
        msg_ids, b_seqs, e_seqs = self.trials(book, 25, seed=1)
        pairs = book.decode(msg_ids, b_seqs)
        eqs = exact_equivocation(book, msg_ids, e_seqs)
        assert pairs.shape == eqs.shape == (25,)
        for k in range(25):
            one = slice(k, k + 1)
            assert _bits(book.decode(msg_ids[one], b_seqs[one])) == _bits(pairs[one])
            assert _bits(exact_equivocation(book, msg_ids[one], e_seqs[one])) == _bits(eqs[one])

    def test_run_trials_calls_each_kernel_once_per_chunk(self, monkeypatch):
        # perfbench times the simulator's trials through these two names
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        cfg = SimConfig(n=10, rates=rates, trials=1, seed=0)
        chunk = CHUNK_CELLS // Codebook(src, aux, cfg)._trial_cells()
        calls = []
        decode, equivocation = Codebook.decode, simulate.exact_equivocation

        def counting(name, kernel):
            def call(*args):
                calls.append((name, len(args[1])))
                return kernel(*args)
            return call

        monkeypatch.setattr(Codebook, "decode", counting("decode", decode))
        monkeypatch.setattr(simulate, "exact_equivocation",
                            counting("equivocation", equivocation))
        run_trials(src, aux, replace(cfg, trials=2 * chunk + 3))
        sizes = [chunk, chunk, 3]
        assert calls == [(name, k) for k in sizes for name in ("decode", "equivocation")]


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


class TestWordChecks:
    """decode and exact_equivocation take K message ids and K rows of n
    integer letters of B and E; each case here is a one-row batch."""

    CALLS = {
        "decode": lambda book, ids, seqs: book.decode(ids, seqs),
        "equivocation": lambda book, ids, seqs: exact_equivocation(book, ids, seqs),
    }

    @pytest.fixture(scope="class")
    def book(self):
        src, aux = canonical()  # |A| = |E| = 2, |B| = 3
        rates = achievability_rates(src, aux, slack=0.1)
        return Codebook(src, aux, SimConfig(n=6, rates=rates, trials=1, seed=4))

    @pytest.mark.parametrize("call, word", [
        ("decode", [0, 1, 2, 0, 1]),
        ("decode", [0, 1, 2, 0, 1, 3]),
        ("decode", [0, 1, 2, 0, 1, -1]),
        ("decode", [[0, 1, 2, 0, 1, 1]]),
        ("equivocation", [0, 1, 0, 0, 1]),
        ("equivocation", [0, 1, 0, 0, 1, 1, 0]),
        ("equivocation", [0, 1, 0, 0, 1, -1]),
        ("equivocation", [0, 1, 0, 0, 1, 2]),
        ("equivocation", [0.0, 1.0, 0.0, 0.0, 1.0, 1.0]),
    ], ids=["decode-short", "decode-letter-3", "decode-minus-one", "decode-2d",
            "equivocation-short", "equivocation-long", "equivocation-minus-one",
            "equivocation-letter-2", "equivocation-floats"])
    def test_bad_word_is_invalid_argument(self, book, call, word):
        # "decode-2d" is a 2-D word, so its one-row batch is 3-D
        with pytest.raises(InvalidArgument, match="6 letters"):
            self.CALLS[call](book, [book._encode_map[0]], [word])

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_one_dimensional_seqs_is_invalid_argument(self, book, call):
        with pytest.raises(InvalidArgument, match="6 letters"):
            self.CALLS[call](book, [book._encode_map[0]], [0, 1, 0, 0, 1, 1])

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_any_integer_dtype_is_a_word(self, book, call):
        word, msg = [0, 1, 1, 0, 0, 1], book._encode_map[0]
        got, want = (self.CALLS[call](book, ids, [w])
                     for ids, w in (([np.uint8(msg)], np.array(word, dtype=np.uint8)),
                                    ([int(msg)], word)))
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("ids", [[21], [-1], [0.0], [0, 0]],
                             ids=["past-bins", "minus-one", "float", "two-ids"])
    def test_bad_message_ids_are_invalid_argument(self, book, call, ids):
        # N1 N2 = 7 x 3 = 21; "two-ids" gives two ids for one row
        assert book.n_bins == (7, 3)
        with pytest.raises(InvalidArgument, match="message ids"):
            self.CALLS[call](book, ids, [[0, 1, 1, 0, 0, 1]])

    def test_decode_accepts_every_id_in_the_bins(self, book):
        # ids with an empty preimage decode to their lowest in-bin pair
        n1, n2 = book.n_bins
        ids = np.arange(n1 * n2)
        pairs = book.decode(ids, np.zeros((n1 * n2, 6), dtype=int))
        empty = np.diff(book._preimage_start) == 0
        assert empty.any()
        r1, r2 = np.divmod(ids[empty], n2)
        np.testing.assert_array_equal(pairs[empty], r1 * len(book.v_bins) + r2)


class TestEquivocation:
    def test_bounds_and_determinism(self):
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        cfg = SimConfig(n=6, rates=rates, trials=1, seed=4)
        book = Codebook(src, aux, cfg)
        messages, _ = book.encode_all()
        e_seqs = np.array([[0, 1, 0, 0, 1, 0]])
        val = exact_equivocation(book, messages[5:6], e_seqs)
        assert val.shape == (1,) and 0.0 <= val[0] <= 1.0
        assert _bits(val) == _bits(exact_equivocation(book, messages[5:6], e_seqs))

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
        (messages, _), seqs = book.encode_all(), all_words(2, 6)
        p_ae = src.joint.marginal(("A", "E")).mass
        msg_ids = np.unique(messages)[:8]
        # E alphabet = A alphabet, so a preimage's last word is a possible e
        e_seqs = np.array([seqs[messages == msg][-1] for msg in msg_ids])
        got = exact_equivocation(book, msg_ids, e_seqs)
        for msg, e_seq, val in zip(msg_ids, e_seqs, got):
            sub = seqs[messages == msg]
            w = p_ae[sub, e_seq].prod(axis=1)
            post = w[w > 0] / w.sum()
            want = float(-(post * np.log2(post)).sum()) / 6
            assert val == pytest.approx(want, abs=1e-12)

    def test_unused_message_rejected(self):
        src, aux = canonical()
        rates = achievability_rates(src, aux, slack=0.1)
        cfg = SimConfig(n=6, rates=rates, trials=1, seed=4)
        book = Codebook(src, aux, cfg)
        messages, _ = book.encode_all()
        unused = int(messages.max()) + 1  # in the bins, with an empty preimage
        assert unused < book.n_bins[0] * book.n_bins[1]
        with pytest.raises(InvalidArgument, match="empty source preimage"):
            exact_equivocation(book, [messages[0], unused], np.zeros((2, 6), dtype=int))


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
