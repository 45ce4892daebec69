"""The shared text reader against a reference copy of the earlier loaders.

The `_ref_*` functions below are the four loaders as they were before the
formats moved behind one `key [argument]: values` reader: `load_joint`,
`load_conditional`, and the CLI's source- and scheme-file loaders (here
taking text, and the scheme loader returning its two channels). On valid
files the new loaders must return the same alphabets and bit-identical
numbers.
"""

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
    csv_text,
    load_conditional,
    load_joint,
    load_scheme,
    load_source,
)
from secrd.region import SecureSource


def _ref_clean_lines(text):
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _ref_floats(text, line):
    try:
        return [float(t) for t in text.split()]
    except ValueError:
        raise ParseError(f"non-numeric value in line: {line!r}") from None


def _ref_alphabet(symbols, line):
    try:
        return Alphabet(symbols)
    except InvalidArgument as exc:
        raise ParseError(f"{exc} in line: {line!r}") from None


def _ref_load_joint(text):
    lines = _ref_clean_lines(text)
    if not lines or lines[0] != "joint":
        raise ParseError("expected 'joint' header")
    axes = []
    mass = None
    for line in lines[1:]:
        if line.startswith("axis "):
            head, _, rest = line[5:].partition(":")
            name = head.strip()
            symbols = tuple(rest.split())
            if not name or not symbols:
                raise ParseError(f"malformed axis line: {line!r}")
            axes.append((name, _ref_alphabet(symbols, line)))
        elif line.startswith("mass:"):
            mass = _ref_floats(line[5:], line)
        else:
            raise ParseError(f"unrecognized line: {line!r}")
    if not axes:
        raise ParseError("joint pmf needs at least one axis")
    if mass is None:
        raise ParseError("joint pmf missing 'mass:' line")
    shape = tuple(len(a) for _, a in axes)
    if len(mass) != int(np.prod(shape)):
        raise ParseError(
            f"mass has {len(mass)} entries, expected {int(np.prod(shape))}"
        )
    try:
        return JointPmf(tuple(axes), np.asarray(mass).reshape(shape))
    except InvalidArgument as exc:
        raise ParseError(str(exc)) from exc


def _ref_load_conditional(text):
    lines = _ref_clean_lines(text)
    if not lines or lines[0] != "conditional":
        raise ParseError("expected 'conditional' header")
    input_alph = output_alph = None
    rows = {}
    for line in lines[1:]:
        if line.startswith("input:"):
            input_alph = _ref_alphabet(tuple(line[6:].split()), line)
        elif line.startswith("output:"):
            output_alph = _ref_alphabet(tuple(line[7:].split()), line)
        elif line.startswith("row "):
            head, _, rest = line[4:].partition(":")
            rows[head.strip()] = _ref_floats(rest, line)
        else:
            raise ParseError(f"unrecognized line: {line!r}")
    if input_alph is None or output_alph is None:
        raise ParseError("conditional pmf needs 'input:' and 'output:' lines")
    matrix = []
    for sym in input_alph.symbols:
        if sym not in rows:
            raise ParseError(f"missing row for input symbol {sym!r}")
        if len(rows[sym]) != len(output_alph):
            raise ParseError(f"row {sym!r} has {len(rows[sym])} entries, "
                             f"expected {len(output_alph)}")
        matrix.append(rows[sym])
    try:
        return ConditionalPmf(input_alph, output_alph, matrix)
    except InvalidArgument as exc:
        raise ParseError(f"invalid conditional pmf: {exc}") from exc


def _ref_load_source(text):
    joint_lines, dmax, dist = [], [1.0], None
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("dmax:"):
            dmax = _ref_floats(stripped[5:], stripped)
        elif stripped.startswith("distortion:"):
            dist = _ref_floats(stripped[11:], stripped)
        else:
            joint_lines.append(line)
    joint = _ref_load_joint("\n".join(joint_lines))
    na = len(joint.alphabet("A"))
    if len(dmax) != 1:
        raise ParseError(f"'dmax:' needs one value, got {len(dmax)}")
    if dist is None:
        raise ParseError("source file missing 'distortion:' line")
    if len(dist) != na * na:
        raise ParseError(f"distortion needs {na * na} entries, got {len(dist)}")
    return SecureSource(joint, np.array(dist).reshape(na, na), d_max=dmax[0])


def _ref_load_scheme(text):
    blocks = [b for b in text.split("---") if b.strip()]
    if len(blocks) != 2:
        raise ParseError("scheme file needs two '---'-separated conditional blocks")
    return _ref_load_conditional(blocks[0]), _ref_load_conditional(blocks[1])


# --- generated valid files -------------------------------------------------

LABEL = st.text(alphabet="abxyz019_.", min_size=1, max_size=3)
COMMENT = st.text(alphabet="abc XYZ:=.,01#", max_size=12)  # never '---'
SEP = st.sampled_from([" ", "  ", "\t"])


def _alphabets(draw, n_max=3):
    return tuple(draw(st.lists(LABEL, min_size=1, max_size=n_max, unique=True)))


def _probs(draw, n):
    w = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)
                      .filter(lambda w: sum(w) > 0)), dtype=float)
    return [repr(float(x)) for x in w / w.sum()]


@st.composite
def _line(draw, key, arg, values):
    """One `key [arg]: values` line, with whitespace and a trailing comment."""
    head = key + (" " * draw(st.integers(1, 2)) + arg + draw(st.sampled_from(["", " "]))
                  if arg is not None else "")
    sep = draw(SEP)
    text = (draw(st.sampled_from(["", " ", "\t"])) + head + ":"
            + draw(st.sampled_from(["", " ", "\t"])) + sep.join(values)
            + draw(st.sampled_from(["", " ", "\t "])))
    if draw(st.booleans()):
        text += " #" + draw(COMMENT)
    return text


@st.composite
def _block(draw, header, lines):
    """`header` then `lines` shuffled, with comment and blank lines mixed in."""
    body = [header] + draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.sampled_from(["", "   ", "# " + draw(COMMENT)]))
        body.insert(draw(st.integers(0, len(body))), extra)
    return "\n".join(body) + draw(st.sampled_from(["", "\n", "\n\n"]))


@st.composite
def source_texts(draw):
    names = draw(st.permutations("ABE"))
    alphabets = {n: _alphabets(draw) for n in names}
    size = int(np.prod([len(alphabets[n]) for n in names]))
    lines = [draw(_line("axis", n, alphabets[n])) for n in names]
    lines.append(draw(_line("mass", None, _probs(draw, size))))
    d_max = 1.0
    if draw(st.booleans()):
        d_max = draw(st.floats(0.5, 4.0))
        lines.append(draw(_line("dmax", None, [repr(d_max)])))
    na = len(alphabets["A"])
    dist = draw(st.lists(st.floats(0.0, d_max), min_size=na * na, max_size=na * na))
    lines.append(draw(_line("distortion", None, [repr(x) for x in dist])))
    return draw(_block("joint", lines))


@st.composite
def conditional_texts(draw):
    inputs, outputs = _alphabets(draw), _alphabets(draw)
    lines = [draw(_line("input", None, inputs)), draw(_line("output", None, outputs))]
    lines += [draw(_line("row", s, _probs(draw, len(outputs)))) for s in inputs]
    return draw(_block("conditional", lines))


def _assert_same_joint(got, want):
    assert got.axes == want.axes
    assert got.mass.tobytes() == want.mass.tobytes()


def _assert_same_conditional(got, want):
    assert (got.input, got.output) == (want.input, want.output)
    assert got.rows.tobytes() == want.rows.tobytes()


SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(source_texts())
def test_source_loaders_match_reference(text):
    joint, distortion, d_max = load_source(text)
    want = _ref_load_source(text)
    _assert_same_joint(joint, want.joint)
    assert distortion.tobytes() == want.distortion.tobytes()
    assert d_max == want.d_max
    joint_only = "\n".join(line for line in text.splitlines()
                           if not line.split("#", 1)[0].strip().startswith(("dmax", "distortion")))
    _assert_same_joint(load_joint(joint_only), _ref_load_joint(joint_only))


@SETTINGS
@given(conditional_texts(), conditional_texts(), st.sampled_from(["---", " --- ", "---\t"]))
def test_scheme_loaders_match_reference(first, second, rule):
    _assert_same_conditional(load_conditional(first), _ref_load_conditional(first))
    text = first + "\n" + rule + "\n" + second
    for got, want in zip(load_scheme(text), _ref_load_scheme(text)):
        _assert_same_conditional(got, want)


@pytest.mark.parametrize("text, msg", [
    ("conditional\ninput: 0 1\ninput: 0 1\noutput: 0\nrow 0: 1\nrow 1: 1", "repeated 'input'"),
    ("conditional\ninput: 0\noutput: 0\nrow 0: 1\nrow 0: 1", "repeated 'row 0'"),
    ("conditional\ninput: 0\noutput: 0\nrow 0: 1\nrow zz: 1", "'zz' is not an 'input:'"),
    ("joint\naxis A: 0 1\nmass: 0.5 0.5\nmass: 1 0", "repeated 'mass'"),
    ("joint\naxis A: 0 1\nmass extra: 0.5 0.5", "'mass' takes no argument"),
    ("joint\naxis: 0 1\nmass: 0.5 0.5", "'axis' takes one argument"),
    ("joint\naxis A B: 0 1\nmass: 0.5 0.5", "'axis' takes one argument"),
    ("joint\naxis A: 0 1\nmass 0.5 0.5", "unrecognized"),
])
def test_reader_rejects_what_the_grammar_excludes(text, msg):
    loader = load_conditional if text.startswith("conditional") else load_joint
    with pytest.raises(ParseError, match=msg):
        loader(text)


def test_scheme_rule_must_be_a_line_of_its_own():
    block = "conditional\ninput: 0\noutput: 0\nrow 0: 1  # --- not a rule ---\n"
    assert len(load_scheme("# --- A to V ---\n" + block + "---\n" + block)) == 2
    with pytest.raises(ParseError, match="two '---'-separated"):
        load_scheme(block + "--- " + block)


def test_csv_text_formats_floats_only():
    assert csv_text(["a", "b", "c"], [[1, 0.5, "x,y"], [True, -0.0, 2.0]]) == (
        'a,b,c\r\n1,0.500000,"x,y"\r\nTrue,-0.000000,2.000000\r\n')
