"""Unit tests for the probability / information-measure core."""

from itertools import product

import numpy as np
import pytest

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
        with pytest.raises(InvalidArgument):
            conditional_entropy(pmf, ("X",), ("X",))
        with pytest.raises(InvalidArgument):
            mutual_information(pmf, ("X",), ("Y",), ("X",))

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
