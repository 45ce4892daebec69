"""Finite-blocklength Monte-Carlo runs of the superposition-binning scheme.

Codewords for U are drawn i.i.d. and binned; per u-word, V codewords are
drawn conditionally and binned again. Encoding maps the source word to a
codeword pair, transmission is the pair of bin indices, and decoding
resolves each bin with Bob's side information. Per-trial equivocation is
computed exactly by enumerating every source sequence consistent with
the transmitted message.

The encoder picks the jointly most likely codeword pair (maximum
likelihood; of the pairs within SCORE_TOL of the best, the lowest index),
and the decoder is exact MAP over codeword pairs in the transmitted bins:
each pair is scored by the posterior mass of the source sequences that
encode to it, reusing the same enumeration that the equivocation
computation needs. Decode success means the encoder's codeword indices were
recovered. Blocklengths are capped so that |A|^n enumeration stays cheap.

Log-probabilities are exact: log 0 is -inf. A word that no codeword covers
scores -inf on every codeword, so the rule gives it codeword 0 and it counts
as an encoding failure. A row of Bob's letters that no source word explains
decodes to the lowest pair in the bins, and an observation of Eve's with
probability 0 under the message is refused, as a message with an empty
preimage is.

The auxiliaries form the chain U - V - A, so log p(a, v, u) = log p(u, v) +
log p(a | v): a codeword's score on a source word is a weight of the
codeword plus two tables over the halves of its v-word and of the source
word. The encoder takes every word's best score in two (max, +) passes over
those half-word tables, scoring each distinct codeword once, and splits the
words where the passes' cells are fewest. Its groupings rank keys of known
bound by counting, and its sorts take the narrowest dtype that holds them,
which numpy radix-sorts at 16 bits or less.

Trials run in chunks of at most BLOCK_CELLS array cells, the cap on the
encoder's blocks, and `Codebook.decode` and `exact_equivocation` each take a
whole chunk: 410 to 430 trials at n = 10 on the paper scheme. The cap is no
larger so that memory stays flat in the trial count. Each message's preimage
(the source words that encode to it) is built with the codebook; a trial's
decode scores and Eve's posterior are read over its preimage only, each
word's log-likelihood the sum of tables over its first and its second half.

Trial t draws its letters from child t of `SeedSequence(seed)`, as
`spawn()` numbers the children: they are the numbers
`default_rng(child).random(2n)` gives, but a chunk's streams are computed
in one array pass from numpy's published SeedSequence hash and PCG64
generator rather than by building a generator per trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probs import InvalidArgument, ResourceLimit, csv_text, information
from .region import AuxScheme, SecureSource

ENUM_LIMIT = 1 << 14
MAX_CODEWORDS = 1 << 16  # cap on the u-words, the v-words per u-word and their product
# Cap on the cells of one block of encoder scores and of one chunk of trials'
# arrays, 512 KB of float64: 410 to 430 trials at n = 10 on the paper scheme.
# It is no larger so that memory stays flat in the trial count.
BLOCK_CELLS = 1 << 16


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

    def __post_init__(self):
        if self.n <= 0:
            raise InvalidArgument("blocklength must be positive")
        if self.trials < 0:
            raise InvalidArgument("trial count must be nonnegative")
        if self.trials > 1 << 32:  # trial keys must be one-word spawn keys
            raise InvalidArgument(f"trial count must be at most 2^32, got {self.trials}")
        if self.seed < 0:
            raise InvalidArgument(f"seed must be nonnegative, got {self.seed}")


def _p_abvu(source: SecureSource, scheme: AuxScheme) -> np.ndarray:
    """p(a, b, v, u) = p(a, b) p(v | a) p(u | v), axes in that order."""
    scheme.check_fits(source)
    p_abv = source.p_ab[:, :, None] * scheme.v_channel.rows[:, None, :]
    return p_abv[..., None] * scheme.u_channel.rows


def achievability_rates(source: SecureSource, scheme: AuxScheme,
                  slack: float = 0.1) -> SimRates:
    """Codebook rates at the achievability-constraint values plus slack.

    S1 > I(U;A), S1 - R1 < I(U;B), S2 > I(V;A|U), S2 - R2 < I(V;B|U);
    each constraint is met with margin `slack` (rates clamped at 0).
    """
    if not np.isfinite(slack):
        raise InvalidArgument(f"slack must be finite, got {slack}")
    p = _p_abvu(source, scheme)
    iua, iub = (float(information(p, "ABVU", "U", y)) for y in "AB")
    iva_u, ivb_u = (float(information(p, "ABVU", "V", y, "U")) for y in "AB")
    s1 = iua + slack
    r1 = max(0.0, s1 - max(0.0, iub - slack))
    s2 = iva_u + slack
    r2 = max(0.0, s2 - max(0.0, ivb_u - slack))
    return SimRates(s1, r1, s2, r2)


def _count(rate: float, n: int) -> int:
    """round(2^(n rate)), at least 1, checked against MAX_CODEWORDS before it is computed."""
    if not n * rate < np.log2(MAX_CODEWORDS) + 1:  # else the count is at least twice the cap
        raise ResourceLimit(f"2^{n * rate:.4g} codewords exceed budget {MAX_CODEWORDS}")
    return max(1, int(round(2.0 ** (n * rate))))


SCORE_TOL = 1e-9


def _word_sums(table: np.ndarray) -> np.ndarray:
    """(K, m, A) per-letter tables -> (K, A**m) sums over every m-letter word.

    Words are in lexicographic order and each sum adds its letters first to
    last, so a row does not depend on K. A one-hot matmul would not do:
    BLAS orders its sums differently for different row counts.
    """
    sums = np.zeros((len(table), 1))
    for letter in table.transpose(1, 0, 2):
        sums = (sums[:, :, None] + letter[:, None, :]).reshape(
            len(table), sums.shape[1] * letter.shape[1])
    return sums


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") for integer keys in range(bound), sorted
    as the smallest unsigned type that holds them: numpy radix-sorts keys of
    16 bits or less."""
    return np.argsort(keys.astype(np.min_scalar_type(max(bound - 1, 0))), kind="stable")


def _rank(ids: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """Renumber ids in range(bound) as 0, 1, ... in the order of their values:
    (ranks, the number of distinct ids)."""
    rank = np.cumsum(np.bincount(ids, minlength=bound) > 0) - 1
    return rank[ids], (int(rank[-1]) + 1 if bound else 0)


def _prefixes(rows: np.ndarray, size: int):
    """Yield (ids, bound) for the first 0, 1, ..., m letters of a (K, m) array
    of letters in range(size): rows whose prefixes are equal have equal ids,
    ids in range(bound) order the prefixes lexicographically, and bound is
    at most K size: the ids are ranked again before they could pass that."""
    ids, bound = np.zeros(len(rows), dtype=np.int64), 1
    yield ids, bound
    for letter in rows.T:
        if bound * size > len(rows):
            ids, bound = _rank(ids, bound)
        ids, bound = ids * size + letter, bound * size
        yield ids, bound


def _groups(ids: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, ranks) for ids in range(bound): row k is in group ranks[k], the
    groups in the order of their ids, and first[g] is group g's lowest row."""
    ranks, count = _rank(ids, bound)
    size = np.bincount(ranks, minlength=count)
    return _stable_order(ranks, count)[np.cumsum(size) - size], ranks


def _row_groups(rows: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, ids) for a (K, m) array of letters in range(size): row k is
    the group ids[k], the groups in lexicographic order of their rows, and
    rows[first[g]] is group g's row."""
    for ids, bound in _prefixes(rows, size):
        pass
    return _groups(ids, bound)


def _first_copies(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows k, in order, where the pair (a[k], b[k]) of ids in range(K)
    first occurs: after stable passes by b and then by a, equal pairs are
    adjacent and in row order."""
    order = _stable_order(b, len(b))
    order = order[_stable_order(a[order], len(b))]
    a, b = a[order], b[order]
    first = order[np.append(True, (a[1:] != a[:-1]) | (b[1:] != b[:-1]))]
    return np.flatnonzero(np.bincount(first, minlength=len(b)))


def _split(v_words: np.ndarray, size: int, na: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(h, first, ids) for the encoder's C codewords with these (C, n)
    v-words of letters in range(size): h minimises the cells of its passes,
    C na^(n-h) + parts(h) na^n, where parts(h) cuts each group of equal
    first h letters into parts of at most 2 na^h, and (first, ids) are
    `_row_groups` of those first h letters."""
    count, n = v_words.shape
    for j, (ids, bound) in enumerate(_prefixes(v_words, size)):
        parts = int((-(-np.bincount(ids) // (2 * na ** j))).sum())
        cells = count * na ** (n - j) + parts * na ** n
        if not j or cells < least:
            h, least, left = j, cells, (ids, bound)
    return (h, *_groups(*left))


def _blocks(sizes: np.ndarray, cap: int):
    """Consecutive [lo, hi) ranges of items whose sizes add to at most `cap`,
    or to one item's size where that alone exceeds it."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
        yield lo, hi
        lo = hi


@dataclass
class Codebook:
    """Nested binned codebooks, the log-probability tables coding uses, and
    the encoder's map of every source word, all built at construction."""

    source: SecureSource
    scheme: AuxScheme
    cfg: SimConfig

    def __post_init__(self):
        cfg = self.cfg
        total = len(self.source.a_alphabet) ** cfg.n
        if total > ENUM_LIMIT:
            raise ResourceLimit(f"|A|^n = {total} exceeds enumeration limit")
        p_avu = _p_abvu(self.source, self.scheme).sum(axis=1)
        p_vu = p_avu.sum(axis=0)
        p_u = p_vu.sum(axis=0)
        p_v_given_u = (p_vu / np.where(p_u > 0, p_u, 1.0)).T
        p_v = p_vu.sum(axis=1)
        # log p(a, v, u) = log p(u, v) + log p(a | v), by the chain U - V - A;
        # log 0 is -inf
        with np.errstate(divide="ignore"):
            self.log_uv = np.log2(p_vu.T)
            self.log_a_given_v = np.log2((p_avu.sum(axis=2)
                                          / np.where(p_v > 0, p_v, 1.0)).T)
            self.log_a = np.log2(self.source.p_a)
            self.log_b_given_a = np.log2(self.source.b_given_a)
            self.log_e_given_a = np.log2(self.source.e_given_a)

        m1, m2, n1, n2 = (_count(rate, cfg.n) for rate in
                          (cfg.rates.s1, cfg.rates.s2, cfg.rates.r1, cfg.rates.r2))
        if m1 * m2 > MAX_CODEWORDS:
            raise ResourceLimit(f"codebook of {m1}x{m2} codewords exceeds budget "
                                f"{MAX_CODEWORDS}")
        # i.i.d. draws: all u-words first, then the v-words of each u-word
        # in index order, each letter by inverting p(v | u_i)'s cdf: the
        # number of cdf entries below the draw, counted one entry at a time.
        rng = np.random.default_rng(cfg.seed)
        self.u_words = rng.choice(len(p_u), size=(m1, cfg.n), p=p_u)  # (M1, n)
        cum = p_v_given_u[self.u_words].cumsum(axis=-1)  # (M1, n, V)
        cum /= cum[..., -1:]  # a draw below 1 is then below the last entry
        draws = rng.random((m1, m2, cfg.n))
        self.v_words = np.zeros(draws.shape, dtype=np.int64)  # (M1, M2, n)
        for col in cum[..., :-1].transpose(2, 0, 1):
            self.v_words += draws > col[:, None]
        self.u_bins = np.arange(m1) % n1
        self.v_bins = np.arange(m2) % n2  # the same layout for every u-word
        self.n_bins = (n1, n2)
        self.encode_all()

    def _check(self, msg_ids, seqs, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """K message ids in [0, N1 N2) and K rows of n letters of A, B or E (axis 0-2)."""
        ids, seqs = np.asarray(msg_ids), np.asarray(seqs)
        n, size = self.cfg.n, self.source.p_abe.shape[axis]
        if not (seqs.ndim == 2 and seqs.shape[1] == n and np.issubdtype(seqs.dtype, np.integer)
                and ((seqs >= 0) & (seqs < size)).all()):
            raise InvalidArgument(f"expected rows of {n} letters in range({size}), "
                                  f"got shape {seqs.shape} of {seqs.dtype}")
        count = self.n_bins[0] * self.n_bins[1]
        if not (ids.shape == seqs.shape[:1] and np.issubdtype(ids.dtype, np.integer)
                and ((ids >= 0) & (ids < count)).all()):
            raise InvalidArgument(f"expected {len(seqs)} message ids in range({count})")
        return ids.astype(np.int64, copy=False), seqs

    # -- encoding ----------------------------------------------------------

    def encode_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Encode every source word; `__post_init__` calls it once.

        Returns and stores (messages, ok): messages[i] is the packed message
        id of the i-th word in lexicographic order, ok[i] its encode-success
        flag. Also stores each word's codeword index s1 * M2 + s2 and the
        preimage of every message.

        Codeword c = (u-word, v-word) scores sum_i log p(u_i, v_i, a_i) on
        word a, and each word gets the lowest codeword index whose score is
        within SCORE_TOL of the word's best. SCORE_TOL absorbs
        summation-order noise; the rule does not depend on the order in
        which codewords are visited. A word whose best is -inf (no codeword
        covers it) ties at every codeword and gets codeword 0; its ok flag
        is false. Equal codewords score alike, so only the first copy of
        each (u-word, v-word) pair is scored.

        By the chain U - V - A the score is w(c) + GL[v-left, a-left] +
        GR[v-right, a-right]: w(c) sums log p(u_i, v_i), and GL and GR sum
        log p(a_i | v_i) over the first h and the last n - h letters, one row
        per distinct half of the v-words. The codewords are grouped by v-left
        half, and a group is cut into parts of at most 2 |A|^h codewords in
        index order. h minimises C |A|^(n-h) + parts(h) |A|^n, the cells of
        pass 1's w + GR blocks over the C distinct codewords and of its
        (max, +) products; one letter-by-letter grouping of the v-words
        gives parts(h) for every h, and h moves only the order in which a
        score's terms are added.

        Pass 1 takes, per part p, N[p, a-right] = the max over p's
        codewords of w(c) + GR, and then every word's best, M = max over p
        of GL[p] + N[p]. It keeps the codewords with w(c) + GR >= N -
        2 SCORE_TOL: a codeword within SCORE_TOL of M lies within SCORE_TOL
        of N plus the rounding of GL + (w + GR) and of M - SCORE_TOL, and
        at the magnitudes finite log-probabilities take that rounding is
        far below SCORE_TOL. A (part, a-right) pair whose N is -inf keeps
        nothing. Pass 2 reads the kept codewords of only the (part, word)
        pairs with GL + N within SCORE_TOL of M, and sums GL + N only on
        the (part, a-left) rows whose GL + max N gets within SCORE_TOL of
        the row's least M. A word whose M is -inf takes no part in it.
        """
        na, n = len(self.log_a), self.cfg.n
        m2 = len(self.v_bins)
        v_words = self.v_words.reshape(-1, n)  # row c = s1 * M2 + s2
        n_v = len(self.log_a_given_v)
        # the first copy of each (u-word, v-word) pair, in index order
        codeword = _first_copies(
            np.repeat(_row_groups(self.u_words, len(self.log_uv))[1], m2),
            _row_groups(v_words, n_v)[1])
        count = len(codeword)
        w = self.log_uv[self.u_words[codeword // m2], v_words[codeword]].sum(axis=1)
        # In lexicographic order word t = tl * |A|^(n-h) + tr has first half
        # tl and last half tr.
        h, left_first, left_id = _split(v_words[codeword], n_v, na)
        right_first, right_id = _row_groups(v_words[codeword, h:], n_v)
        left_first, right_first = codeword[left_first], codeword[right_first]
        gl = _word_sums(self.log_a_given_v[v_words[left_first, :h]])   # (G, A^h)
        gr = _word_sums(self.log_a_given_v[v_words[right_first, h:]])  # (H, A^(n-h))
        n_left, n_right = gl.shape[1], gr.shape[1]
        # Split each group, in index order, into parts of at most 2 |A|^h
        # codewords, which the passes then treat as groups, so that one
        # part's w + GR block has at most 2 |A|^n cells. Part p's codewords
        # are order[start[p]:start[p + 1]].
        order = _stable_order(left_id, len(left_first))
        group_size = np.bincount(left_id)
        rank = np.arange(count) - np.repeat(np.cumsum(group_size) - group_size, group_size)
        start = np.append(np.flatnonzero(rank % (2 * n_left) == 0), count)
        part_size = np.diff(start)
        gl = gl[left_id[order[start[:-1]]]]
        n_parts = len(gl)

        # Pass 1. N[p, tr] = max over part p's codewords of w(c) +
        # GR[v-right(c), tr]; the codewords within the margin of it are kept,
        # as flat indices pos * |A|^(n-h) + tr of codeword order[pos].
        part_max = np.empty((n_parts, n_right))
        kept = []
        for lo, hi in _blocks(part_size * n_right, BLOCK_CELLS):
            rows = order[start[lo]:start[hi]]
            val = w[rows, None] + gr[right_id[rows]]
            top = part_max[lo:hi] = np.maximum.reduceat(val, start[lo:hi] - start[lo])
            floor = np.where(top > -np.inf, top - 2 * SCORE_TOL, np.inf)
            kept.append(start[lo] * n_right + np.flatnonzero(
                val >= np.repeat(floor, part_size[lo:hi], axis=0)))
        # kept codeword r is kept_cw[r] at (p, tr) = divmod(key, |A|^(n-h))
        pos, tr = np.divmod(np.concatenate(kept), n_right)
        key = np.repeat(np.arange(n_parts), part_size)[pos] * n_right + tr
        by_key = _stable_order(key, n_parts * n_right)
        kept_cw = order[pos[by_key]]
        kept_val = w[kept_cw] + gr[right_id[kept_cw], tr[by_key]]
        kept_start = np.concatenate(([0], np.cumsum(np.bincount(
            key, minlength=n_parts * n_right))))
        best = np.full((n_left, n_right), -np.inf)
        for lo, hi in _blocks(np.full(n_parts, na ** n), BLOCK_CELLS):
            np.maximum(best, (gl[lo:hi, :, None] + part_max[lo:hi, None, :]).max(axis=0),
                       out=best)
        best = best.ravel()

        # Pass 2. Each word's lowest codeword within SCORE_TOL of M, read off
        # the kept codewords of the (part, word) pairs whose bound GL + N
        # gets there. Rounding is monotone, so such a pair lies in a (part,
        # first half) row whose GL + max N reaches the row's least threshold.
        # A word whose best is -inf scores -inf on every codeword, so the rule
        # gives it codeword 0 and its threshold +inf leaves it out of pass 2;
        # every other word hits its best codeword there.
        ok = best > -np.inf
        thresh = np.where(ok, best - SCORE_TOL, np.inf).reshape(n_left, n_right)
        row_p, row_tl = np.nonzero(gl + part_max.max(axis=1, keepdims=True)
                                   >= thresh.min(axis=1))
        best_idx = np.where(ok, count, 0)
        # a row gathers N and the thresholds and sums: 3 |A|^(n-h) cells
        for lo, hi in _blocks(np.full(len(row_p), 3 * n_right), BLOCK_CELLS):
            row, tr = np.divmod(np.flatnonzero(
                gl[row_p[lo:hi], row_tl[lo:hi], None] + part_max[row_p[lo:hi]]
                >= thresh[row_tl[lo:hi]]), n_right)
            p, tl = row_p[lo + row], row_tl[lo + row]
            word, key = tl * n_right + tr, p * n_right + tr
            base, limit = gl[p, tl], thresh[tl, tr]
            for plo, phi in _blocks(kept_start[key + 1] - kept_start[key], BLOCK_CELLS):
                first = kept_start[key[plo:phi]]
                sizes = kept_start[key[plo:phi] + 1] - first
                ends = np.cumsum(sizes)
                r = np.arange(ends[-1]) + np.repeat(first - ends + sizes, sizes)
                hit = (np.repeat(base[plo:phi], sizes) + kept_val[r]
                       >= np.repeat(limit[plo:phi], sizes))
                np.minimum.at(best_idx, word[plo:phi], np.minimum.reduceat(
                    np.where(hit, kept_cw[r], count), ends - sizes))
        best_idx = codeword[best_idx]
        best_s1, best_s2 = np.divmod(best_idx, m2)
        self._encode_map = (self.u_bins[best_s1] * self.n_bins[1]
                            + self.v_bins[best_s2])
        self._encode_ok = ok
        self._encode_idx = best_idx
        # the words that encode to message m, in word order (the sort is
        # stable), are _preimage_words[_preimage_start[m]:_preimage_start[m + 1]]
        n_msgs = self.n_bins[0] * self.n_bins[1]
        self._preimage_words = _stable_order(self._encode_map, n_msgs)
        sizes = np.bincount(self._encode_map, minlength=n_msgs)
        self._preimage_start = np.concatenate(([0], np.cumsum(sizes)))
        return self._encode_map, self._encode_ok

    def _trial_cells(self) -> int:
        """Cells one trial adds to a chunk's largest arrays: its (b, e) draw
        against the cdf, its preimage, its in-bin pair slots and its two
        half-word tables."""
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
        its log-likelihood L[first h letters] + R[last n - h letters], -inf
        on a word of probability 0. top[k] = max L + max R is the exact
        maximum over all |A|^n words, because rounding is monotone; it is
        -inf where no word explains x_seqs[k].
        """
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

    def decode(self, msg_ids, b_seqs) -> np.ndarray:
        """Codeword index s1 * M2 + s2 of each of K trials, from its message
        id r1 * N2 + r2 and its row of Bob's letters, by exact MAP.

        A pair in the bins scores the mass of its source words, each weighted
        by 2^(log2 p(a) p(b | a) - the maximum over all |A|^n words). The
        lowest in-bin pair within SCORE_TOL of the best score wins, so a
        pair no preimage word maps to scores 0 and, when every score is
        below SCORE_TOL, the winner is the lowest pair (r1, r2). A row that
        no source word explains weights every word 0, so it decodes to that
        pair too. Ids and rows that fail `_check` raise InvalidArgument.
        """
        msg_ids, b_seqs = self._check(msg_ids, b_seqs, 1)
        trial, _, words, scores, top = self._preimage_loglik(
            msg_ids, b_seqs, self.log_b_given_a)
        n1, n2 = self.n_bins
        m2 = len(self.v_bins)
        slots, per_row = self._pair_slots()
        s1, s2 = np.divmod(self._encode_idx[words], m2)
        # a row no word explains has top -inf and every score -inf; unshifted,
        # every weight is 0
        shift = np.where(top > -np.inf, top, 0.0)
        # bincount adds in word order, as a full-enumeration bincount does;
        # slot 0 is a real pair, so a slot past the codebook's edge (mass 0)
        # never comes first
        mass = np.bincount(trial * slots + s1 // n1 * per_row + s2 // n2,
                           weights=np.exp2(scores - shift[trial]),
                           minlength=len(msg_ids) * slots).reshape(-1, slots)
        pick = np.argmax(mass >= mass.max(axis=1, keepdims=True) - SCORE_TOL,
                         axis=1)
        r1, r2 = np.divmod(msg_ids, n2)
        j1, j2 = np.divmod(pick, per_row)
        return (r1 + j1 * n1) * m2 + r2 + j2 * n2


def exact_equivocation(codebook: Codebook, msg_ids, e_seqs) -> np.ndarray:
    """(1/n) H(A^n | W = message, E^n = e) of each of K trials, a (K,) array, over
    the message's preimage: H = log2 Z - sum w s / Z, with s each word's
    log-likelihood less the trial's maximum, w = 2^s and Z = sum w; a word of
    probability 0 adds 0 to both sums. Ids and rows that fail `Codebook._check`, an
    id with an empty preimage, or a row with probability 0 under the message (every
    preimage word scores -inf) raise InvalidArgument."""
    msg_ids, e_seqs = codebook._check(msg_ids, e_seqs, 2)
    start = codebook._preimage_start
    if not (start[msg_ids] < start[msg_ids + 1]).all():
        raise InvalidArgument("message has an empty source preimage")
    trial, first, _, scores, _ = codebook._preimage_loglik(
        msg_ids, e_seqs, codebook.log_e_given_a)
    peak = np.maximum.reduceat(scores, first)
    if not (peak > -np.inf).all():
        raise InvalidArgument("observation has probability 0 under the message")
    s = scores - peak[trial]
    w = np.exp2(s)
    z = np.add.reduceat(w, first)
    ws = np.multiply(w, s, out=np.zeros_like(s), where=w > 0)  # 0 log 0 = 0
    return (np.log2(z) - np.add.reduceat(ws, first) / z) / codebook.cfg.n


_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash(x, const: int, mult: int):
    """SeedSequence's hash of uint32 words held in uint64: (hashed, next const)."""
    nxt = const * mult & _M32
    x = (x ^ const) * nxt & _M32
    return x ^ x >> 16, nxt


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64 arrays, by 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints -> (high, low) uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & (1 << 64) - 1 for v in values], dtype=np.uint64))


def _trial_uniforms(seed: int, first: int, count: int, m: int) -> np.ndarray:
    """(count, m) uniforms; row t is, bit for bit,
    `default_rng(SeedSequence(seed, spawn_key=(first + t,))).random(m)`.

    Exact for spawn keys below 2^32, which numpy hashes as one uint32 word.
    """
    keys = np.arange(first, first + count, dtype=np.uint64)[:, None]
    # The child's pool is the parent's with the key mixed into each word,
    # after the 16 + 4 (max(4, seed words) - 4) = 4 max(4, seed words) hash
    # rounds the parent's pool took.
    pool = [int(w) for w in np.random.SeedSequence(seed).pool]
    words = max(4, -(-int(seed).bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _M32
    for i in range(4):
        hashed, const = _hash(keys, const, _MULT_A)
        x = _MIX_L * pool[i] - _MIX_R * hashed & _M32
        pool[i] = x ^ x >> 16
    # generate_state(4, uint64): eight hashed words cycling over the pool
    state, const = [], _INIT_B
    for i in range(8):
        word, const = _hash(pool[i % 4], const, _MULT_B)
        state.append(word)
    s0, s1, s2, s3 = (lo | hi << 32 for lo, hi in zip(state[::2], state[1::2]))
    # PCG64 seeded with (initstate, initseq) = (s0:s1, s2:s3) starts at
    # state (inc + initstate) M + inc, inc = 2 initseq + 1, and draw j >= 1
    # reads the state j steps on: initstate M^(j+1) + inc (1 + M + ... +
    # M^(j+1)), mod 2^128, here on 64-bit limbs.
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    mults, sums, power, total = [], [], _PCG_MULT, 1 + _PCG_MULT
    for _ in range(m):
        power = power * _PCG_MULT & (1 << 128) - 1
        total = total + power & (1 << 128) - 1
        mults.append(power)
        sums.append(total)
    (a_hi, a_lo), (b_hi, b_lo) = _limbs(mults), _limbs(sums)
    lo_a = a_lo * s1
    lo = lo_a + b_lo * inc_lo
    hi = (_mulhi(a_lo, s1) + a_lo * s0 + a_hi * s1 + _mulhi(b_lo, inc_lo)
          + b_lo * inc_hi + b_hi * inc_lo + (lo < lo_a))
    # XSL-RR output, then random()'s 53-bit double
    x, rot = hi ^ lo, hi >> 58
    out = x >> rot | x << (64 - rot & 63)
    return (out >> 11) * (1.0 / (1 << 53))


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    encode_ok: bool
    decode_ok: bool
    distortion: float
    equivocation: float


@dataclass(frozen=True)
class TrialSummary:
    """The trial records, their means and failure rates, and the sample
    standard errors std(ddof=1) / sqrt(K) of the K trials' distortions and
    equivocations (0.0 when K < 2)."""

    records: list[TrialRecord]
    mean_distortion: float
    mean_equivocation: float
    encode_failure_rate: float
    decode_failure_rate: float
    stderr_distortion: float
    stderr_equivocation: float

    def to_csv(self) -> str:
        return csv_text(["trial", "encode_ok", "decode_ok", "distortion", "equivocation"],
                        ([r.trial, int(r.encode_ok), int(r.decode_ok),
                          r.distortion, r.equivocation] for r in self.records))


def run_trials(source: SecureSource, scheme: AuxScheme,
               cfg: SimConfig) -> TrialSummary:
    """Monte-Carlo trials with exact per-trial equivocation.

    Each trial draws (a, b, e) i.i.d. per letter from the source,
    encodes, decodes with b, and evaluates Eve's exact residual entropy.
    A decode failure (a codeword pair other than the encoder's) still
    reconstructs from the decoded pair. Deterministic given the config:
    trial t's letters come from child t of `SeedSequence(cfg.seed)`, as
    `spawn()` numbers them, and are the numbers
    `default_rng(child).random(2 n)` gives, drawn for a whole chunk in one
    array pass. Trials run in chunks of at most BLOCK_CELLS array cells
    (410 to 430 trials at n = 10 on the paper scheme), so memory does not
    grow with `cfg.trials`, and the records do not depend on the chunking.
    The codebook is built, and its guards run, even when `cfg.trials` is 0.
    """
    codebook = Codebook(source, scheme, cfg)
    if cfg.trials == 0:
        return TrialSummary([], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    messages, enc_ok = codebook._encode_map, codebook._encode_ok

    p_abe, p_a = source.p_abe, source.p_a
    na, nb, ne = p_abe.shape
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
    v_words = codebook.v_words.reshape(-1, n)  # row s1 * M2 + s2
    chunk = max(1, BLOCK_CELLS // codebook._trial_cells())
    records, columns = [], []
    for first in range(0, cfg.trials, chunk):
        # per trial, choice(na, n, p=p(a)) and then one choice(nb * ne,
        # p=p(b, e | a_i)) per letter: the two halves of one random(2n)
        draws = _trial_uniforms(cfg.seed, first, min(chunk, cfg.trials - first),
                                2 * n)
        a_seqs = np.searchsorted(cdf_a, draws[:, :n], side="right")
        be = (cdf_be[a_seqs] <= draws[:, n:, None]).sum(axis=2)
        b_seqs, e_seqs = np.divmod(be, ne)
        word = (a_seqs * pow_a).sum(axis=1)
        msg_ids = messages[word]
        pair = codebook.decode(msg_ids, b_seqs)
        a_hat = scheme.reconstruction[v_words[pair], b_seqs]
        dist = d[a_seqs, a_hat].mean(axis=1)
        eq = exact_equivocation(codebook, msg_ids, e_seqs)
        dec_ok = pair == codebook._encode_idx[word]
        chunk_cols = (enc_ok[word], dec_ok, dist, eq)
        records.extend(map(TrialRecord, range(first, first + len(word)),
                           *(col.tolist() for col in chunk_cols)))
        columns.append(chunk_cols)

    enc, dec, dist, eq = map(np.concatenate, zip(*columns))
    stderr = [float(np.std(x, ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0
              for x in (dist, eq)]
    return TrialSummary(records, float(np.mean(dist)), float(np.mean(eq)),
                        float(np.mean(~enc)), float(np.mean(~dec)), *stderr)
