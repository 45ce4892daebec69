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
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .probs import InvalidArgument, batch_entropy
from .region import AuxScheme, SecureSource

ENUM_LIMIT = 1 << 14


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
    _log_prior: np.ndarray | None = field(init=False, default=None)

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
        self._log_prior = self.log_a[seqs].sum(axis=1)
        return self._encode_map, self._encode_ok, self._all_seqs

    # -- decoding ----------------------------------------------------------

    def decode(self, message: tuple[int, int], b_seq: np.ndarray):
        """Reconstruction from the bin pair and Bob's sequence.

        The bin pair is resolved by exact MAP: every codeword pair in the
        bins is scored by the posterior mass of the source sequences that
        encode to it, weighted by p(b | a). Returns (a_hat_seq, (s1, s2));
        the caller judges success by comparing the indices with the
        encoder's.
        """
        r1, r2 = message
        b = np.asarray(b_seq)
        self.encode_all()
        loglik = self.log_b_given_a[self._all_seqs, b[None, :]].sum(axis=1)
        logw = self._log_prior + loglik
        w = np.exp2(logw - logw.max())
        m2 = len(self.v_bins)
        n_pairs = len(self.u_words) * m2
        scores = np.bincount(self._encode_idx, weights=w, minlength=n_pairs)
        in_bins = ((self.u_bins[:, None] == r1)
                   & (self.v_bins[None, :] == r2)).ravel()
        scores = np.where(in_bins, scores, -1.0)
        pair = int(np.argmax(scores >= scores.max() - SCORE_TOL))
        s1, s2 = divmod(pair, m2)
        v = self.v_words[s1][s2]
        return self.scheme.reconstruction[v, b], (s1, s2)


def exact_equivocation(codebook: Codebook, message_id: int,
                       e_seq: np.ndarray) -> float:
    """(1/n) H(A^n | W = message, E^n = e_seq), by full enumeration."""
    messages, _, seqs = codebook.encode_all()
    idx = np.nonzero(messages == message_id)[0]
    if idx.size == 0:
        raise InvalidArgument("message has an empty source preimage")
    sub = seqs[idx]
    e = np.asarray(e_seq)
    # log2-posterior up to a constant: sum_i log2 p(a_i) + log2 p(e_i | a_i)
    w = (codebook._log_prior[idx]
         + codebook.log_e_given_a[sub, e[None, :]].sum(axis=1))
    post = np.exp2(w - w.max())
    post /= post.sum()
    nz = post[post > 0]
    # 0.0 - x, not -x: a point-mass posterior gives +0.0 rather than -0.0
    return float(0.0 - (nz * np.log2(nz)).sum()) / codebook.cfg.n


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
    per-trial seeds derive from the master seed.
    """
    if cfg.trials == 0:
        return TrialSummary([], 0.0, 0.0, 0.0, 0.0)
    codebook = Codebook(source, scheme, cfg)
    messages, enc_ok, _ = codebook.encode_all()

    p_abe = source.p_abe
    na, nb, ne = p_abe.shape
    p_a = p_abe.sum(axis=(1, 2))
    p_be_given_a = p_abe / p_a[:, None, None]
    # the (b, e) cdf per letter a, normalized as Generator.choice does
    cdf_be = p_be_given_a.reshape(na, nb * ne).cumsum(axis=1)
    cdf_be /= cdf_be[:, -1:]
    d = source.distortion

    records = []
    master = np.random.SeedSequence(cfg.seed)
    child_seeds = master.spawn(cfg.trials)
    pow_a = na ** np.arange(cfg.n - 1, -1, -1)
    for t in range(cfg.trials):
        rng = np.random.default_rng(child_seeds[t])
        a_seq = rng.choice(na, size=cfg.n, p=p_a)
        # one choice(nb * ne, p=p(b, e | a_i)) per letter, in a single draw
        be = (cdf_be[a_seq] <= rng.random(cfg.n)[:, None]).sum(axis=1)
        b_seq, e_seq = be // ne, be % ne
        idx = int((a_seq * pow_a).sum())
        msg_id = int(messages[idx])
        r1, r2 = divmod(msg_id, codebook.n_bins[1])
        a_hat, pair = codebook.decode((r1, r2), b_seq)
        sent = divmod(int(codebook._encode_idx[idx]), len(codebook.v_bins))
        dist = float(d[a_seq, a_hat].mean())
        eq = exact_equivocation(codebook, msg_id, e_seq)
        records.append(TrialRecord(t, bool(enc_ok[idx]), pair == sent,
                                   dist, eq))

    mean_d = float(np.mean([r.distortion for r in records]))
    mean_eq = float(np.mean([r.equivocation for r in records]))
    enc_fail = float(np.mean([not r.encode_ok for r in records]))
    dec_fail = float(np.mean([not r.decode_ok for r in records]))
    return TrialSummary(records, mean_d, mean_eq, enc_fail, dec_fail)
