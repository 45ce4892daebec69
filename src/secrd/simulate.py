"""Finite-blocklength Monte-Carlo runs of the superposition-binning scheme.

Codewords for U are drawn i.i.d. and binned; per u-word, V codewords are
drawn conditionally and binned again. Encoding maps the source word to a
codeword pair, transmission is the pair of bin indices, and decoding
resolves each bin with Bob's side information. Per-trial equivocation is
computed exactly by enumerating every source sequence consistent with
the transmitted message.

The encoder picks the jointly most likely codeword pair (maximum
likelihood), and the decoder is exact MAP over codeword pairs in the
transmitted bins: each pair is scored by the posterior mass of the
source sequences that encode to it, reusing the same enumeration that
the equivocation computation needs. Decode success means the encoder's
codeword indices were recovered. Blocklengths are capped so that |A|^n
enumeration stays cheap.

Trials are evaluated together, in chunks of bounded size. Each message's
preimage (the source words that encode to it) is cached once, and a
trial's decode scores and Eve's posterior are read over its preimage only,
each word's log-likelihood being the sum of a table over its first half
and a table over its second half.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .probs import InvalidArgument, batch_entropy
from .region import AuxScheme, SecureSource

ENUM_LIMIT = 1 << 14
CHUNK_CELLS = 1 << 14  # cap on the cells of one chunk of trials' arrays


class ResourceLimit(RuntimeError):
    """Raised when a configuration exceeds the enumeration/memory budget."""


@dataclass(frozen=True)
class SimRates:
    s1: float
    r1: float
    s2: float
    r2: float

    def __post_init__(self):
        if not (self.s1 >= self.r1 >= 0.0 and self.s2 >= self.r2 >= 0.0):
            raise InvalidArgument("rates must satisfy S >= R >= 0")


@dataclass(frozen=True)
class SimConfig:
    n: int
    rates: SimRates
    trials: int
    seed: int
    max_codewords: int = 1 << 16

    def __post_init__(self):
        if self.n <= 0:
            raise InvalidArgument("blocklength must be positive")
        if self.trials < 0:
            raise InvalidArgument("trial count must be nonnegative")


def _p_abvu(source: SecureSource, scheme: AuxScheme) -> np.ndarray:
    """p(a, b, v, u) = p(a, b) p(v | a) p(u | v), axes in that order."""
    if scheme.v_channel.input != source.a_alphabet:
        raise InvalidArgument("v_channel input alphabet must match source A")
    p_abv = source.p_abe.sum(axis=2)[:, :, None] * scheme.v_channel.rows[:, None, :]
    return p_abv[..., None] * scheme.u_channel.rows


def achievability_rates(source: SecureSource, scheme: AuxScheme,
                  slack: float = 0.1) -> SimRates:
    """Codebook rates at the achievability-constraint values plus slack.

    S1 > I(U;A), S1 - R1 < I(U;B), S2 > I(V;A|U), S2 - R2 < I(V;B|U);
    each constraint is met with margin `slack` (rates clamped at 0).
    """
    p = _p_abvu(source, scheme)

    def h(keep: str) -> float:  # entropy of the marginal on `keep`, out of "ABVU"
        drop = tuple(i for i, name in enumerate("ABVU") if name not in keep)
        return float(batch_entropy(p.sum(axis=drop)[None])[0])

    iua = max(0.0, h("U") + h("A") - h("AU"))
    iub = max(0.0, h("U") + h("B") - h("BU"))
    iva_u = max(0.0, h("VU") + h("AU") - h("AVU") - h("U"))
    ivb_u = max(0.0, h("VU") + h("BU") - h("BVU") - h("U"))
    s1 = iua + slack
    r1 = max(0.0, s1 - max(0.0, iub - slack))
    s2 = iva_u + slack
    r2 = max(0.0, s2 - max(0.0, ivb_u - slack))
    return SimRates(s1, r1, s2, r2)


def _count(rate: float, n: int) -> int:
    return max(1, int(round(2.0 ** (n * rate))))


_LOG_FLOOR = -1e30
SCORE_TOL = 1e-9


def _safe_log2(p: np.ndarray) -> np.ndarray:
    """log2 with zero cells mapped to a large negative sentinel."""
    return np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), _LOG_FLOOR)


def _words(size: int, n: int) -> np.ndarray:
    """All size**n words of length n, in lexicographic (base-`size`) order."""
    return np.arange(size ** n)[:, None] // size ** np.arange(n - 1, -1, -1) % size


def _onehot_words(size: int, n: int) -> np.ndarray:
    """(n*size, size**n) matrix: column t is the one-hot of the t-th word."""
    return np.eye(size)[_words(size, n)].reshape(size ** n, n * size).T


def _word_sums(table: np.ndarray) -> np.ndarray:
    """(K, m, A) per-letter tables -> (K, A**m) sums over every m-letter word.

    Words are in lexicographic order and each sum adds its letters first to
    last, so a row does not depend on K. A matmul against `_onehot_words`
    would not do: BLAS orders its sums differently for different row counts.
    """
    sums = np.zeros((len(table), 1))
    for letter in table.transpose(1, 0, 2):
        sums = (sums[:, :, None] + letter[:, None, :]).reshape(len(table), -1)
    return sums


@dataclass
class Codebook:
    """Nested binned codebooks plus the log-probability tables coding uses."""

    source: SecureSource
    scheme: AuxScheme
    cfg: SimConfig
    u_words: np.ndarray = field(init=False)       # (M1, n) int
    u_bins: np.ndarray = field(init=False)        # (M1,) int
    v_words: np.ndarray = field(init=False)       # (M1, M2, n) int
    v_bins: np.ndarray = field(init=False)        # (M2,) int, shared layout
    _encode_map: np.ndarray | None = field(init=False, default=None)
    _encode_ok: np.ndarray | None = field(init=False, default=None)
    _encode_idx: np.ndarray | None = field(init=False, default=None)
    _all_seqs: np.ndarray | None = field(init=False, default=None)
    # the source words that encode to message m, in word order, are
    # _preimage_words[_preimage_start[m]:_preimage_start[m + 1]]
    _preimage_words: np.ndarray | None = field(init=False, default=None)
    _preimage_start: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        cfg = self.cfg
        p_avu = _p_abvu(self.source, self.scheme).sum(axis=1)
        p_vu = p_avu.sum(axis=0)
        p_u = p_vu.sum(axis=0)
        p_v_given_u = (p_vu / np.where(p_u > 0, p_u, 1.0)).T
        self.log_uva = _safe_log2(p_avu.transpose(2, 1, 0))
        p_abe = self.source.p_abe
        p_a = p_abe.sum(axis=(1, 2))
        self.log_a = _safe_log2(p_a)
        given_a = np.where(p_a > 0, p_a, 1.0)[:, None]
        self.log_b_given_a = _safe_log2(p_abe.sum(axis=2) / given_a)
        self.log_e_given_a = _safe_log2(p_abe.sum(axis=1) / given_a)

        m1 = _count(cfg.rates.s1, cfg.n)
        m2 = _count(cfg.rates.s2, cfg.n)
        n1 = _count(cfg.rates.r1, cfg.n)
        n2 = _count(cfg.rates.r2, cfg.n)
        if m1 * m2 > cfg.max_codewords:
            raise ResourceLimit(
                f"codebook of {m1}x{m2} codewords exceeds budget {cfg.max_codewords}"
            )
        # i.i.d. draws: all u-words first, then the v-words of each u-word
        # in index order, each letter by inverting p(v | u_i)'s cdf.
        rng = np.random.default_rng(cfg.seed)
        self.u_words = rng.choice(len(p_u), size=(m1, cfg.n), p=p_u)
        cum = p_v_given_u[self.u_words].cumsum(axis=-1)  # (M1, n, V)
        draws = rng.random((m1, m2, cfg.n))
        self.v_words = (draws[..., None] > cum[:, None]).sum(axis=-1)
        self.u_bins = np.arange(m1) % n1
        self.v_bins = np.arange(m2) % n2
        self.n_bins = (n1, n2)

    # -- encoding ----------------------------------------------------------

    def encode(self, a_seq: np.ndarray) -> tuple[tuple[int, int], bool]:
        """Codeword pair for one source word, as a bin-index message.

        The pair is the one `encode_all` picks for the word: it maximizes
        the joint likelihood of (u, v, a), and success means that
        likelihood is nonzero.
        """
        messages, ok, _ = self.encode_all()
        na = len(self.source.a_alphabet)
        idx = int(np.ravel_multi_index(tuple(np.asarray(a_seq)), (na,) * self.cfg.n))
        r1, r2 = divmod(int(messages[idx]), self.n_bins[1])
        return (r1, r2), bool(ok[idx])

    def encode_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode every source sequence once; cached.

        Returns (messages, ok, seqs): messages[i] is a packed message id
        for the i-th enumerated sequence, ok[i] the encode-success flag.

        Each sequence gets the codeword pair maximizing
        sum_i log p(u_i, v_i, a_i). The u-words are visited in index order:
        a u-word's best score is the top over its v-words, reached first
        (within SCORE_TOL) at the lowest v index, and it replaces the best
        so far only if it beats it by more than SCORE_TOL. SCORE_TOL also
        absorbs summation-order noise.
        """
        if self._encode_map is not None:
            return self._encode_map, self._encode_ok, self._all_seqs

        na = len(self.source.a_alphabet)
        n = self.cfg.n
        total = na ** n
        if total > ENUM_LIMIT:
            raise ResourceLimit(f"|A|^n = {total} exceeds enumeration limit")
        seqs = _words(na, n)
        # Meet in the middle: in lexicographic order, the score of sequence
        # t = tl * |A|^(n-h) + tr is left[tl] + right[tr], a sum over its
        # first h and its last n - h letters.
        h = n // 2
        left_oh, right_oh = _onehot_words(na, h), _onehot_words(na, n - h)
        n_right = right_oh.shape[1]
        m2 = len(self.v_bins)
        pos = np.arange(n)
        best = np.full(total, -np.inf)
        best_s1 = np.zeros(total, dtype=np.int64)
        best_s2 = np.zeros(total, dtype=np.int64)
        for s1, u in enumerate(self.u_words):
            lv = self.log_uva[u][pos, self.v_words[s1]]       # (M2, n, A)
            left = lv[:, :h].reshape(m2, -1) @ left_oh        # (M2, A^h)
            right = lv[:, h:].reshape(m2, -1) @ right_oh      # (M2, A^(n-h))
            # max left + max right bounds every v-word's score, so only the
            # sequences where that bound beats the best so far can gain.
            bound = np.add.outer(left.max(axis=0), right.max(axis=0)).ravel()
            thresh = best + SCORE_TOL
            cand = np.flatnonzero(bound > thresh)
            scores = left[:, cand // n_right] + right[:, cand % n_right]
            top = scores.max(axis=0)
            gain = top > thresh[cand]
            hit, top = cand[gain], top[gain]
            best[hit] = top
            best_s1[hit] = s1
            best_s2[hit] = np.argmax(scores[:, gain] >= top - SCORE_TOL, axis=0)
        self._encode_map = (self.u_bins[best_s1] * self.n_bins[1]
                            + self.v_bins[best_s2])
        self._encode_ok = best > _LOG_FLOOR / 2
        self._encode_idx = best_s1 * m2 + best_s2
        self._all_seqs = seqs
        # stable, so each preimage is in word order, as np.nonzero lists it
        self._preimage_words = np.argsort(self._encode_map, kind="stable")
        sizes = np.bincount(self._encode_map,
                            minlength=self.n_bins[0] * self.n_bins[1])
        self._preimage_start = np.concatenate(([0], np.cumsum(sizes)))
        return self._encode_map, self._encode_ok, self._all_seqs

    def _trial_cells(self) -> int:
        """Cells one trial adds to a chunk's largest arrays: its (b, e) draw
        against the cdf, its preimage, its in-bin pair slots and its two
        half-word tables."""
        self.encode_all()
        na, nb, ne = self.source.p_abe.shape
        n = self.cfg.n
        return (n * nb * ne + int(np.diff(self._preimage_start).max())
                + self._pair_slots()[0] + na ** (n // 2) + na ** (n - n // 2))

    def _pair_slots(self) -> tuple[int, int]:
        """(slots, per_row): in-bin pair (r1 + j1 N1, r2 + j2 N2) has slot
        j1 * per_row + j2, so slot order is pair-index order."""
        n1, n2 = self.n_bins
        per_row = -(-len(self.v_bins) // n2)
        return -(-len(self.u_words) // n1) * per_row, per_row

    def _preimage_loglik(self, msg_ids: np.ndarray, x_seqs: np.ndarray,
                         log_x_given_a: np.ndarray):
        """log2 p(a) p(x | a) on every word of each trial's preimage.

        Trial k has message msg_ids[k] and observation x_seqs[k]. Returns
        (trial, first, words, scores, top), ragged over the trials in order
        and each preimage in word order: words[j] is a word of trial
        trial[j]'s preimage, which starts at first[trial[j]], and scores[j]
        its log-likelihood L[first h letters] + R[last n - h letters].
        top[k] = max L + max R is the exact maximum over all |A|^n words,
        because rounding is monotone.
        """
        self.encode_all()
        h = self.cfg.n // 2
        table = self.log_a + log_x_given_a[:, x_seqs].transpose(1, 2, 0)
        left, right = _word_sums(table[:, :h]), _word_sums(table[:, h:])
        lo = self._preimage_start[msg_ids]
        sizes = self._preimage_start[msg_ids + 1] - lo
        trial = np.repeat(np.arange(len(msg_ids)), sizes)
        first = np.cumsum(sizes) - sizes
        words = self._preimage_words[np.arange(sizes.sum())
                                     + np.repeat(lo - first, sizes)]
        n_right = right.shape[1]
        scores = left[trial, words // n_right] + right[trial, words % n_right]
        return trial, first, words, scores, left.max(axis=1) + right.max(axis=1)

    # -- decoding ----------------------------------------------------------

    def decode(self, message: tuple[int, int], b_seq: np.ndarray):
        """Reconstruction from the bin pair and Bob's sequence.

        The bin pair is resolved by exact MAP: every codeword pair in the
        bins is scored by the posterior mass of the source sequences that
        encode to it, weighted by p(b | a). Returns (a_hat_seq, (s1, s2));
        the caller judges success by comparing the indices with the
        encoder's. A bin index outside (N1, N2) raises InvalidArgument.
        """
        r1, r2 = message
        if not (0 <= r1 < self.n_bins[0] and 0 <= r2 < self.n_bins[1]):
            raise InvalidArgument(f"message {message} outside the bins {self.n_bins}")
        b = np.asarray(b_seq)
        s1, s2 = self._decode_batch(np.array([r1 * self.n_bins[1] + r2]), b[None])
        s1, s2 = int(s1[0]), int(s2[0])
        return self.scheme.reconstruction[self.v_words[s1, s2], b], (s1, s2)

    def _decode_batch(self, msg_ids: np.ndarray, b_seqs: np.ndarray):
        """`decode` for K trials at once: the (s1, s2) arrays.

        A pair's score is the mass of its source words, each weighted by
        2^(log2 p(a) p(b | a) - the maximum over all |A|^n words). The
        lowest in-bin pair within SCORE_TOL of the best score wins, so a
        pair no preimage word maps to scores 0 and, when every score is
        below SCORE_TOL, the winner is the lowest pair (r1, r2).
        """
        trial, _, words, scores, top = self._preimage_loglik(
            msg_ids, b_seqs, self.log_b_given_a)
        n1, n2 = self.n_bins
        slots, per_row = self._pair_slots()
        s1, s2 = np.divmod(self._encode_idx[words], len(self.v_bins))
        # bincount adds in word order, as a full-enumeration bincount does;
        # slot 0 is a real pair, so a slot past the codebook's edge (mass 0)
        # never comes first
        mass = np.bincount(trial * slots + s1 // n1 * per_row + s2 // n2,
                           weights=np.exp2(scores - top[trial]),
                           minlength=len(msg_ids) * slots).reshape(-1, slots)
        pick = np.argmax(mass >= mass.max(axis=1, keepdims=True) - SCORE_TOL,
                         axis=1)
        r1, r2 = np.divmod(msg_ids, n2)
        j1, j2 = np.divmod(pick, per_row)
        return r1 + j1 * n1, r2 + j2 * n2

    def _equivocation_batch(self, msg_ids: np.ndarray,
                            e_seqs: np.ndarray) -> np.ndarray:
        """`exact_equivocation` for K trials at once; no preimage may be empty."""
        trial, first, _, scores, _ = self._preimage_loglik(
            msg_ids, e_seqs, self.log_e_given_a)
        post = np.exp2(scores - np.maximum.reduceat(scores, first)[trial])
        post /= np.add.reduceat(post, first)[trial]
        plogp = post * np.log2(np.where(post > 0, post, 1.0))
        # 0.0 - x, not -x: a point-mass posterior gives +0.0 rather than -0.0
        return (0.0 - np.add.reduceat(plogp, first)) / self.cfg.n


def exact_equivocation(codebook: Codebook, message_id: int,
                       e_seq: np.ndarray) -> float:
    """(1/n) H(A^n | W = message, E^n = e_seq), by full enumeration."""
    codebook.encode_all()
    start = codebook._preimage_start
    if not (0 <= message_id < len(start) - 1
            and start[message_id] < start[message_id + 1]):
        raise InvalidArgument("message has an empty source preimage")
    e = np.asarray(e_seq)
    return float(codebook._equivocation_batch(np.array([message_id]), e[None])[0])


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    encode_ok: bool
    decode_ok: bool
    distortion: float
    equivocation: float


@dataclass(frozen=True)
class TrialSummary:
    records: list[TrialRecord]
    mean_distortion: float
    mean_equivocation: float
    encode_failure_rate: float
    decode_failure_rate: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["trial", "encode_ok", "decode_ok",
                         "distortion", "equivocation"])
        for r in self.records:
            writer.writerow([r.trial, int(r.encode_ok), int(r.decode_ok),
                             f"{r.distortion:.6f}", f"{r.equivocation:.6f}"])
        return buf.getvalue()


def run_trials(source: SecureSource, scheme: AuxScheme,
               cfg: SimConfig) -> TrialSummary:
    """Monte-Carlo trials with exact per-trial equivocation.

    Each trial draws (a, b, e) i.i.d. per letter from the source,
    encodes, decodes with b, and evaluates Eve's exact residual entropy.
    A decode failure (a codeword pair other than the encoder's) still
    reconstructs from the decoded pair. Deterministic given the config:
    per-trial seeds derive from the master seed. Trials run in chunks of
    at most CHUNK_CELLS array cells, so memory does not grow with
    `cfg.trials`, and the records do not depend on the chunking.
    """
    if cfg.trials == 0:
        return TrialSummary([], 0.0, 0.0, 0.0, 0.0)
    codebook = Codebook(source, scheme, cfg)
    messages, enc_ok, _ = codebook.encode_all()

    p_abe = source.p_abe
    na, nb, ne = p_abe.shape
    p_a = p_abe.sum(axis=(1, 2))
    # the cdfs of p(a) and of p(b, e | a) per letter a, normalized as
    # Generator.choice does; the row of a letter with p(a) = 0 is never read
    cdf_a = p_a.cumsum()
    cdf_a /= cdf_a[-1]
    p_be_given_a = p_abe / np.where(p_a > 0, p_a, 1.0)[:, None, None]
    cdf_be = p_be_given_a.reshape(na, nb * ne).cumsum(axis=1)
    cdf_be /= np.where(cdf_be[:, -1:] > 0, cdf_be[:, -1:], 1.0)
    d = source.distortion

    n = cfg.n
    pow_a = na ** np.arange(n - 1, -1, -1)
    chunk = max(1, CHUNK_CELLS // codebook._trial_cells())
    master = np.random.SeedSequence(cfg.seed)  # spawn() continues the children
    records = []
    for first in range(0, cfg.trials, chunk):
        seeds = master.spawn(min(chunk, cfg.trials - first))
        # per trial, choice(na, n, p=p(a)) and then one choice(nb * ne,
        # p=p(b, e | a_i)) per letter: the two halves of one random(2n)
        draws = np.array([np.random.default_rng(s).random(2 * n) for s in seeds])
        a_seqs = np.searchsorted(cdf_a, draws[:, :n], side="right")
        be = (cdf_be[a_seqs] <= draws[:, n:, None]).sum(axis=2)
        b_seqs, e_seqs = np.divmod(be, ne)
        idx = (a_seqs * pow_a).sum(axis=1)
        msg_ids = messages[idx]
        s1, s2 = codebook._decode_batch(msg_ids, b_seqs)
        a_hat = scheme.reconstruction[codebook.v_words[s1, s2], b_seqs]
        dist = d[a_seqs, a_hat].mean(axis=1)
        eq = codebook._equivocation_batch(msg_ids, e_seqs)
        dec_ok = s1 * len(codebook.v_bins) + s2 == codebook._encode_idx[idx]
        records.extend(
            TrialRecord(first + k, bool(enc_ok[i]), bool(ok), float(dk), float(ek))
            for k, (i, ok, dk, ek) in enumerate(zip(idx, dec_ok, dist, eq)))

    mean_d = float(np.mean([r.distortion for r in records]))
    mean_eq = float(np.mean([r.equivocation for r in records]))
    enc_fail = float(np.mean([not r.encode_ok for r in records]))
    dec_fail = float(np.mean([not r.decode_ok for r in records]))
    return TrialSummary(records, mean_d, mean_eq, enc_fail, dec_fail)
