"""Unit tests for the probability / information-measure core."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrd.probs import (
    Alphabet,
    ConditionalPmf,
    InvalidArgument,
    JointPmf,
    ParseError,
    all_words,
    bec,
    binary_entropy,
    binary_star,
    bsc,
    compose,
    conditional_entropy,
    constant_channel,
    entropy,
    identity_channel,
    information,
    joint_from,
    load_conditional,
    load_joint,
    mutual_information,
)

BITS = Alphabet(("0", "1"))


def random_joint(rng, shape, names):
    mass = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    axes = tuple(
        (n, Alphabet(tuple(f"{n.lower()}{i}" for i in range(k))))
        for n, k in zip(names, shape)
    )
    return JointPmf(axes, mass)


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(InvalidArgument):
            Alphabet(())

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidArgument):
            Alphabet(("a", "a"))

    def test_index(self):
        assert BITS.index("1") == 1
        with pytest.raises(InvalidArgument):
            BITS.index("2")


class TestJointPmf:
    def test_rejects_bad_total(self):
        with pytest.raises(InvalidArgument):
            JointPmf((("A", BITS),), np.array([0.6, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgument):
            JointPmf((("A", BITS),), np.array([1.2, -0.2]))

    def test_rejects_duplicate_axis_names(self):
        with pytest.raises(InvalidArgument):
            JointPmf((("A", BITS), ("A", BITS)), np.full((2, 2), 0.25))

    def test_marginal_keeps_axis_order(self):
        rng = np.random.default_rng(0)
        pmf = random_joint(rng, (2, 3, 2), ("A", "B", "E"))
        marg = pmf.marginal(("E", "A"))  # request order must not matter
        assert marg.names == ("A", "E")
        np.testing.assert_allclose(marg.mass, pmf.mass.sum(axis=1), atol=1e-15)

    def test_marginal_unknown_axis(self):
        pmf = JointPmf((("A", BITS),), np.array([0.5, 0.5]))
        with pytest.raises(InvalidArgument):
            pmf.marginal(("Z",))


class TestConditionalPmf:
    def test_rejects_nonstochastic_row_with_diagnostic(self):
        with pytest.raises(InvalidArgument, match="'1'"):
            ConditionalPmf(BITS, BITS, [[0.5, 0.5], [0.9, 0.3]])

    def test_compose_is_matrix_product(self):
        ch = compose(bsc(0.1), bsc(0.2))
        q = binary_star(0.1, 0.2)
        np.testing.assert_allclose(ch.rows, [[1 - q, q], [q, 1 - q]], atol=1e-15)

    def test_compose_alphabet_mismatch(self):
        with pytest.raises(InvalidArgument):
            compose(bec(0.3), bsc(0.1))


class TestInformationMeasures:
    def test_uniform_entropy(self):
        pmf = JointPmf((("A", BITS),), np.array([0.5, 0.5]))
        assert entropy(pmf, ("A",)) == pytest.approx(1.0, abs=1e-12)

    def test_chain_rule_on_random_joints(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pmf = random_joint(rng, (3, 2), ("X", "Y"))
            lhs = entropy(pmf, ("X", "Y"))
            rhs = entropy(pmf, ("X",)) + conditional_entropy(pmf, ("Y",), ("X",))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_mutual_information_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pmf = random_joint(rng, (2, 3, 2), ("X", "Y", "Z"))
            fwd = mutual_information(pmf, ("X",), ("Y",), ("Z",))
            rev = mutual_information(pmf, ("Y",), ("X",), ("Z",))
            assert fwd == pytest.approx(rev, abs=1e-12)
            assert fwd >= 0.0

    def test_independent_variables_have_zero_mi(self):
        pmf = JointPmf((("X", BITS), ("Y", BITS)),
                       np.outer([0.3, 0.7], [0.6, 0.4]))
        assert mutual_information(pmf, ("X",), ("Y",)) == pytest.approx(0.0, abs=1e-12)

    def test_overlapping_sets_rejected(self):
        pmf = JointPmf((("X", BITS), ("Y", BITS)), np.full((2, 2), 0.25))
        for targets, z in [(("X",), ("X",)), (("X", "Y"), ("Y",))]:
            with pytest.raises(InvalidArgument,
                               match="target and conditioning sets must be disjoint"):
                conditional_entropy(pmf, targets, z)
        for x, y, z in [(("X",), ("Y",), ("X",)), (("X",), ("Y",), ("Y",)), (("X",), ("X",), ())]:
            with pytest.raises(InvalidArgument, match="x, y and given must be pairwise disjoint"):
                mutual_information(pmf, x, y, z)

    @pytest.mark.parametrize("call", [
        lambda pmf: entropy(pmf, ("Z",)),
        lambda pmf: entropy(pmf, ("X", "Z")),
        lambda pmf: conditional_entropy(pmf, ("X",), ("Z",)),
        lambda pmf: mutual_information(pmf, ("Z",), ("Y",)),
        lambda pmf: mutual_information(pmf, ("X",), ("Y",), ("Z",)),
    ], ids=["entropy", "entropy-of-two", "conditional-given", "mi-x", "mi-given"])
    def test_unknown_axis_rejected(self, call):
        pmf = JointPmf((("X", BITS), ("Y", BITS)), np.full((2, 2), 0.25))
        with pytest.raises(InvalidArgument, match="unknown axis 'Z'"):
            call(pmf)

    def test_empty_and_repeated_name_sets(self):
        pmf = random_joint(np.random.default_rng(10), (3, 2), ("X", "Y"))
        h_x = entropy(pmf, ("X",))
        assert entropy(pmf, ()) == 0.0
        assert conditional_entropy(pmf, (), ("X",)) == 0.0
        assert mutual_information(pmf, ("X",), ()) == 0.0
        assert entropy(pmf, ("X", "X")) == h_x  # a name set, as `marginal` takes it
        assert conditional_entropy(pmf, ("X", "X"), ()) == h_x
        assert mutual_information(pmf, ("X", "X"), ("Y", "Y")) == mutual_information(
            pmf, ("X",), ("Y",))

    def test_information_is_clamped_at_zero(self):
        # Z has one symbol, so I(X,Y; Z) = 0, but H(XY) - H(XY|Z) rounds to -4.4e-16
        p = np.array([10, 12, 19, 14, 13, 11]).reshape(2, 3, 1) / 79
        assert information(p, "XYZ", "XY") - information(p, "XYZ", "XY", given="Z") < 0.0
        got = information(p, "XYZ", "XY", "Z")
        assert got == 0.0 and not np.signbit(got)

    def test_joint_from_enforces_markov_chain(self):
        rng = np.random.default_rng(9)
        base = random_joint(rng, (2, 3), ("A", "B"))
        v_alph = Alphabet(("v0", "v1"))
        ch = ConditionalPmf(base.alphabet("A"), v_alph, [[0.8, 0.2], [0.3, 0.7]])
        joint = joint_from(base, [("V", ch, "A")])
        # V depends on A only, so I(V;B|A) = 0
        assert mutual_information(joint, ("V",), ("B",), ("A",)) == pytest.approx(
            0.0, abs=1e-12)

    def test_joint_from_rejects_name_clash(self):
        base = JointPmf((("A", BITS),), np.array([0.5, 0.5]))
        with pytest.raises(InvalidArgument):
            joint_from(base, [("A", bsc(0.1), "A")])

    def test_joint_from_rejects_a_channel_from_another_alphabet(self):
        base = JointPmf((("A", BITS),), np.array([0.5, 0.5]))
        with pytest.raises(InvalidArgument, match="does not match axis 'A'"):
            joint_from(base, [("V", bsc(0.1, Alphabet(("x", "y"))), "A")])


def _direct_information(p, names, x, y, z):
    """H(x|z) = -sum p(x,z) log2 p(x|z), or, if y, I(x;y|z) =
    sum p(x,y,z) log2 [p(x,y,z) p(z) / (p(x,z) p(y,z))], summed cell by cell."""
    lead = p.ndim - len(names)
    trailing = tuple(range(lead, p.ndim))

    def marginal(keep):  # keepdims, so the marginals broadcast against p
        return p.sum(axis=tuple(lead + i for i, n in enumerate(names) if n not in keep),
                     keepdims=True)

    x, y, z = set(x), set(y), set(z)
    p_xz, p_z = marginal(x | z), marginal(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        if not y:
            return 0.0 - np.where(p_xz > 0, p_xz * np.log2(p_xz / p_z), 0.0).sum(axis=trailing)
        p_xyz, p_yz = marginal(x | y | z), marginal(y | z)
        terms = np.where(p_xyz > 0, p_xyz * np.log2(p_xyz * p_z / (p_xz * p_yz)), 0.0)
    return np.maximum(0.0, terms.sum(axis=trailing))


@st.composite
def batched_joints(draw):
    """(p, names, x, y, given): 0-2 batch axes of joints on 2-4 named axes,
    some cells zero, each name in at most one of x, y and given."""
    names = draw(st.permutations("WXYZ"))[:draw(st.integers(2, 4))]
    shape = draw(st.lists(st.integers(1, 3), min_size=0, max_size=2))
    shape += draw(st.lists(st.integers(1, 3), min_size=len(names), max_size=len(names)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.random(shape) * (rng.random(shape) >= draw(st.sampled_from([0.0, 0.3, 0.7])))
    rows = p.reshape(-1, int(np.prod(shape[-len(names):])))
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    p = (rows / rows.sum(axis=1, keepdims=True)).reshape(shape)
    roles = draw(st.lists(st.sampled_from("xyg-"), min_size=len(names), max_size=len(names)))
    x, y, g = (tuple(n for n, r in zip(names, roles) if r == role) for role in "xyg")
    return p, tuple(names), x, y, g


@given(batched_joints())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_information_matches_the_direct_sums(case):
    p, names, x, y, g = case
    got = information(p, names, x, y, g)
    assert np.shape(got) == p.shape[:p.ndim - len(names)]
    np.testing.assert_allclose(got, _direct_information(p, names, x, y, g), rtol=0, atol=1e-12)
    assert not y or np.all(got >= 0.0)  # I is clamped at 0
    for row in np.ndindex(np.shape(got)):  # a batch row gives the bits it gives alone
        assert np.asarray(got)[row] == information(p[row], names, x, y, g)


class TestBinaryHelpers:
    def test_binary_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.1) == pytest.approx(binary_entropy(0.9), abs=1e-15)
        with pytest.raises(InvalidArgument):
            binary_entropy(1.5)

    def test_binary_helpers_are_elementwise(self):
        x = np.array([[0.0, 0.1, 0.5], [0.9, 1.0, 0.3]])
        np.testing.assert_array_equal(
            binary_entropy(x), [[binary_entropy(float(v)) for v in row] for row in x])
        np.testing.assert_array_equal(
            binary_star(x, 0.2), [[binary_star(float(v), 0.2) for v in row] for row in x])
        for bad in ([0.1, 1.5], [0.2, float("nan")]):
            with pytest.raises(InvalidArgument):
                binary_entropy(np.array(bad))
            with pytest.raises(InvalidArgument):
                binary_star(np.array(bad), 0.1)

    def test_binary_star_algebra(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, c = rng.random(3)
            assert binary_star(a, 0.0) == pytest.approx(a, abs=1e-15)
            assert binary_star(a, 1.0) == pytest.approx(1.0 - a, abs=1e-15)
            assert binary_star(a, b) == pytest.approx(binary_star(b, a), abs=1e-15)
            assert binary_star(a, binary_star(b, c)) == pytest.approx(
                binary_star(binary_star(a, b), c), abs=1e-12)
        assert binary_star(0.5, 0.123) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(InvalidArgument):
            binary_star(-0.1, 0.2)

    def test_channel_constructors(self):
        np.testing.assert_allclose(bsc(0.25).rows, [[0.75, 0.25], [0.25, 0.75]])
        ch = bec(0.4)
        assert ch.output.symbols == ("0", "e", "1")
        np.testing.assert_allclose(ch.rows, [[0.6, 0.4, 0.0], [0.0, 0.4, 0.6]])
        np.testing.assert_allclose(identity_channel(BITS).rows, np.eye(2))
        assert constant_channel(BITS).rows.shape == (2, 1)

    @pytest.mark.parametrize("build", [bsc, bec], ids=["bsc", "bec"])
    def test_channel_constructors_need_a_binary_input(self, build):
        with pytest.raises(InvalidArgument, match="binary"):
            build(0.1, Alphabet(("0", "1", "2")))


@pytest.mark.parametrize("size, n", [(1, 0), (1, 3), (2, 0), (2, 1), (2, 5), (3, 4), (41, 2)])
def test_all_words_is_the_lexicographic_product(size, n):
    want = np.array(list(product(range(size), repeat=n)), dtype=int).reshape(size ** n, n)
    got = all_words(size, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("build", [
    lambda: JointPmf((("A", BITS),), [np.nan, 1.0]),
    lambda: JointPmf((("A", BITS),), [np.nan, np.nan]),
    lambda: ConditionalPmf(BITS, BITS, [[1.0, 0.0], [np.nan, 1.0]]),
], ids=["joint", "joint-all-nan", "conditional"])
def test_nan_probabilities_are_rejected(build):
    with pytest.raises(InvalidArgument, match="NaN"):
        build()


class TestSerialization:
    def test_comments_and_blank_lines_ignored(self):
        text = """
        joint
        # a comment
        axis A: 0 1

        mass: 0.5 0.5  # trailing comment
        """
        pmf = load_joint(text)
        assert pmf.names == ("A",)

    @pytest.mark.parametrize("text, msg", [
        ("conditional\ninput: 0 1\noutput: 0 1\nrow 0: 1 0", "missing row"),
        ("joint\naxis A: 0 1\nmass: 0.5", "entries"),
        ("joint\nmass: 1.0", "at least one axis"),
        ("nope\n", "header"),
        ("joint\naxis A: 0 1\nmass: 0.9 0.5", "sums"),
    ])
    def test_parse_errors(self, text, msg):
        loader = load_conditional if text.startswith("conditional") else load_joint
        with pytest.raises(ParseError, match=msg):
            loader(text)
