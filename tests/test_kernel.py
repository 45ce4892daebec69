"""The array kernels against the JointPmf reference path."""

import hashlib
from itertools import product

import numpy as np
import pytest

from secrd import region
from secrd.binary import BecBscParams, BinaryScheme, aux_scheme, build_source
from secrd.ordering import less_noisy_search
from secrd.probs import (
    Alphabet,
    ConditionalPmf,
    JointPmf,
    batch_entropy,
    conditional_entropy,
    joint_from,
    mutual_information,
)
from secrd.region import (
    AuxScheme,
    SecureSource,
    best_reconstruction,
    evaluate_scheme,
    lossless_region_point,
    materialize,
    rde_batch,
    sweep_boundary,
)
from secrd.simulate import Codebook, SimConfig, achievability_rates


def _labels(prefix, n):
    return Alphabet(tuple(f"{prefix}{i}" for i in range(n)))


def _stochastic(rng, n_in, n_out):
    """Random channel rows; some rows deterministic, some entries zero."""
    rows = rng.dirichlet(np.ones(n_out), size=n_in)
    for i in range(n_in):
        kind = rng.integers(3)
        if kind == 0:
            rows[i] = np.eye(n_out)[rng.integers(n_out)]
        elif kind == 1 and n_out > 1:
            rows[i, rng.integers(n_out)] = 0.0
            rows[i] /= rows[i].sum()
    return rows


def _random_source(rng):
    shape = (int(rng.choice([2, 3])), int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    mass = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    if rng.random() < 0.3:
        mass[rng.integers(shape[0])] = 0.0       # a zero-mass A symbol
    if rng.random() < 0.3:
        mass[:, rng.integers(shape[1])] = 0.0    # a zero-mass B symbol
    mass.ravel()[rng.random(mass.size) < 0.2] = 0.0
    if mass.sum() == 0.0:
        mass[0, 0, 0] = 1.0
    mass /= mass.sum()
    axes = [(n, _labels(n.lower(), k)) for n, k in zip("ABE", shape)]
    order = rng.permutation(3) if rng.random() < 0.2 else np.arange(3)
    joint = JointPmf(tuple(axes[i] for i in order), mass.transpose(order))
    d = rng.random((shape[0], shape[0]))
    np.fill_diagonal(d, 0.0)
    return SecureSource(joint, d, d_max=1.0)


def _mass(joint, names):
    """Marginal mass of `joint` on `names`, axes in the order given."""
    marg = joint.marginal(names)
    return np.transpose(marg.mass, [marg.names.index(n) for n in names])


def _reference(source, v_rows, u_rows):
    """(R, D, Delta) the pre-kernel way: one materialized JointPmf per scheme,
    with Delta before the positive part."""
    v_channel = ConditionalPmf(source.a_alphabet, _labels("v", v_rows.shape[1]), v_rows)
    u_channel = ConditionalPmf(v_channel.output, _labels("u", u_rows.shape[1]), u_rows)
    p_abv = _mass(joint_from(source.joint, [("V", v_channel, "A")]), ("A", "B", "V"))
    _, nb, nv = p_abv.shape
    recon = np.zeros((nv, nb), dtype=int)
    dist = 0.0
    for v, b in product(range(nv), range(nb)):
        costs = p_abv[:, b, v] @ source.distortion
        recon[v, b] = int(np.argmin(costs))
        dist += float(costs[recon[v, b]])
    joint = materialize(source, AuxScheme(v_channel, u_channel, recon))
    rate = mutual_information(joint, ("V",), ("A",), ("B",))
    delta = (conditional_entropy(joint, ("A",), ("V", "B"))
             + mutual_information(joint, ("A",), ("B",), ("U",))
             - mutual_information(joint, ("A",), ("E",), ("U",)))
    return (rate, dist, delta), AuxScheme(v_channel, u_channel, recon)


def test_batch_entropy_ignores_zero_mass():
    p = np.array([[[0.5, 0.5], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    np.testing.assert_allclose(batch_entropy(p), [1.0, 0.0], atol=1e-15)
    assert not np.signbit(batch_entropy(p)[1])  # +0.0 at a point mass


def test_kernel_matches_jointpmf_path():
    rng = np.random.default_rng(20100917)
    for _ in range(200):
        source = _random_source(rng)
        na = len(source.a_alphabet)
        nv, nu = (int(x) for x in rng.integers(1, 4, size=2))
        v = np.array([_stochastic(rng, na, nv) for _ in range(3)])
        u = np.array([_stochastic(rng, nv, nu) for _ in range(3)])
        rate, dist, delta, recon = rde_batch(source.p_abe, source.distortion, v, u)
        for k in range(3):
            want, scheme = _reference(source, v[k], u[k])
            got = (rate[k], dist[k], delta[k])
            assert got == pytest.approx(want, abs=1e-12)
            clamped = (*want[:2], max(0.0, want[2]))  # evaluate_scheme's [Delta]_+
            assert tuple(evaluate_scheme(source, scheme)) == pytest.approx(clamped, abs=1e-12)
            # the kernel's map is optimal: it costs what the reference map costs
            kernel_scheme = AuxScheme(scheme.v_channel, scheme.u_channel, recon[k])
            assert evaluate_scheme(source, kernel_scheme).distortion == pytest.approx(
                want[1], abs=1e-12)
            np.testing.assert_array_equal(
                best_reconstruction(source, scheme.v_channel), recon[k])


def _bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def test_product_form_matches_paired_rows():
    """v[:, None] with u[None] is bitwise the K = M * N row call, V channel major."""
    rng = np.random.default_rng(20101118)
    for _ in range(30):
        source = _random_source(rng)
        na, nb = len(source.a_alphabet), len(source.b_alphabet)
        for nv, nu in product(range(1, 4), repeat=2):
            m, n = (int(x) for x in rng.integers(1, 6, size=2))
            v = np.array([_stochastic(rng, na, nv) for _ in range(m)])
            u = np.array([_stochastic(rng, nv, nu) for _ in range(n)])
            v_rows, u_rows = np.repeat(v, n, axis=0), np.tile(u, (m, 1, 1))
            maps = rng.integers(na, size=(m, nv, nb))
            for recon, recon_rows in ((None, None),
                                      (maps[:, None], np.repeat(maps, n, axis=0))):
                got = rde_batch(source.p_abe, source.distortion, v[:, None], u[None], recon)
                want = rde_batch(source.p_abe, source.distortion, v_rows, u_rows, recon_rows)
                for g, w in zip(got, want):
                    assert g.shape[:2] == (m, n)
                    assert _bits(g.reshape(w.shape)) == _bits(w)


def test_sweep_evaluates_the_coarse_grid_once(monkeypatch):
    sizes = []
    kernel = region.rde_batch

    def counting(p_abe, d, v, u, recon=None):
        sizes.append(int(np.prod(np.broadcast_shapes(v.shape[:-2], u.shape[:-2]))))
        return kernel(p_abe, d, v, u, recon)

    monkeypatch.setattr(region, "rde_batch", counting)
    budgets = [0.05, 0.1, 0.15, 0.2]
    curve = sweep_boundary(build_source(BecBscParams(0.1, 0.469)), budgets)
    assert len(curve.points) == len(budgets)
    grid = 49 * 49  # resolution 6: 7 rows per binary channel row, two rows each
    assert sizes[0] == grid and sizes.count(grid) == 1
    assert max(sizes[1:]) <= 8  # seeds and neighbor moves only


def _violation(source, rows):
    """I(U;E) - I(U;B) for the channel A -> U with the given rows."""
    channel = ConditionalPmf(source.a_alphabet, _labels("u", rows.shape[1]), rows)
    joint = joint_from(source.joint, [("U", channel, "A")])
    return (mutual_information(joint, ("U",), ("E",))
            - mutual_information(joint, ("U",), ("B",)))


@pytest.mark.parametrize("case", [0.2, 0.3, 0.4, 0.6, 0.9, "ternary-0", "ternary-1"])
def test_less_noisy_search_matches_per_channel_reference(case):
    resolution = 10
    if isinstance(case, float):
        source = build_source(BecBscParams(0.1, case))
    else:
        rng = np.random.default_rng(int(case[-1]))
        mass = rng.dirichlet(np.ones(12)).reshape(3, 2, 2)
        axes = tuple((n, _labels(n.lower(), k)) for n, k in zip("ABE", mass.shape))
        source = SecureSource(JointPmf(axes, mass), 1.0 - np.eye(3))
    grid = [(c / resolution, (resolution - c) / resolution) for c in range(resolution + 1)]
    worst = max(_violation(source, np.array(rows))
                for rows in product(grid, repeat=len(source.a_alphabet)))
    tag, witness = less_noisy_search(source, resolution=resolution)
    if worst > 1e-9:
        assert tag == "counterexample"
        assert _violation(source, witness.rows) == pytest.approx(worst, abs=1e-12)
    else:
        assert (tag, witness) == ("no-violation", resolution)


def _random_scheme(rng, source):
    na = len(source.a_alphabet)
    nv, nu = (int(x) for x in rng.integers(1, 4, size=2))
    v_channel = ConditionalPmf(source.a_alphabet, _labels("v", nv), _stochastic(rng, na, nv))
    u_channel = ConditionalPmf(v_channel.output, _labels("u", nu), _stochastic(rng, nv, nu))
    return AuxScheme(v_channel, u_channel, np.zeros((nv, len(source.b_alphabet)), dtype=int))


def test_achievability_rates_match_jointpmf_path():
    rng = np.random.default_rng(1009)
    for _ in range(150):
        source = _random_source(rng)
        scheme = _random_scheme(rng, source)
        joint = materialize(source, scheme)
        iua = mutual_information(joint, ("U",), ("A",))
        iub = mutual_information(joint, ("U",), ("B",))
        iva_u = mutual_information(joint, ("V",), ("A",), ("U",))
        ivb_u = mutual_information(joint, ("V",), ("B",), ("U",))
        want = (iua + 0.1, max(0.0, iua + 0.1 - max(0.0, iub - 0.1)),
                iva_u + 0.1, max(0.0, iva_u + 0.1 - max(0.0, ivb_u - 0.1)))
        rates = achievability_rates(source, scheme, slack=0.1)
        assert (rates.s1, rates.r1, rates.s2, rates.r2) == pytest.approx(want, abs=1e-12)


def test_lossless_region_point_matches_jointpmf_path():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        source = _random_source(rng)
        nu = int(rng.integers(1, 4))
        channel = ConditionalPmf(source.a_alphabet, _labels("u", nu),
                                 _stochastic(rng, len(source.a_alphabet), nu))
        joint = joint_from(source.joint, [("U", channel, "A")])
        delta = (mutual_information(joint, ("A",), ("B",), ("U",))
                 - mutual_information(joint, ("A",), ("E",), ("U",)))
        want = (conditional_entropy(joint, ("A",), ("B",)), 0.0, max(0.0, delta))
        assert tuple(lossless_region_point(source, channel)) == pytest.approx(want, abs=1e-12)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


# (codewords, encoder outputs) digests of the paper scheme's codebook, recorded
# when Codebook drew its words from a materialized JointPmf
CODEBOOK_DIGESTS = {
    (4, 0): ("c90af551d9e0e17a", "73bbe95e61e30f89"),
    (4, 1): ("0dd5b5e2ecd292ef", "eb39e30967ceee2b"),
    (8, 0): ("0dccd7423106be0c", "2608f379e276d2e3"),
    (8, 1): ("f88d979d87cb7d67", "f81affdf3a1c1b55"),
}


@pytest.mark.parametrize("n, seed", sorted(CODEBOOK_DIGESTS))
def test_codebook_matches_jointpmf_construction(n, seed):
    params = BecBscParams(0.1, 0.469)
    source = build_source(params)
    scheme = aux_scheme(params, BinaryScheme(0.031, 0.05))
    rates = achievability_rates(source, scheme, slack=0.1)
    book = Codebook(source, scheme, SimConfig(n=n, rates=rates, trials=1, seed=seed))
    messages, ok = book.encode_all()
    got = (_digest(book.u_words, book.v_words), _digest(messages, ok, book._encode_idx))
    assert got == CODEBOOK_DIGESTS[n, seed]
    joint = materialize(source, scheme)
    p_av = joint.marginal(("A", "V")).mass
    p_uv = np.transpose(joint.marginal(("V", "U")).mass)
    np.testing.assert_allclose(np.exp2(book.log_uv), p_uv, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.exp2(book.log_a_given_v), (p_av / p_av.sum(axis=0)).T,
                               rtol=0, atol=1e-15)
