"""Exact probability and information-measure arithmetic on finite joints.

Everything here works on dense numpy arrays indexed by named axes.
Alphabets are tiny (a handful of symbols), so no attempt is made at
sparse storage. All logs are base 2 and 0*log(0) = 0 throughout.
`information` is the one kernel for H(x|z) and I(x;y|z), on batches of joints.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

PMF_TOL = 1e-12


class InvalidArgument(ValueError):
    """Raised when an operation's preconditions are violated."""


class ParseError(ValueError):
    """Raised when a serialized pmf fails validation."""


class ResourceLimit(RuntimeError):
    """Raised when a computation would exceed its work or memory budget."""


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise InvalidArgument("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise InvalidArgument("alphabet labels must be distinct")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise InvalidArgument(f"symbol {symbol!r} not in alphabet") from None


def _as_prob_array(values, shape) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(shape)
    if not np.all(arr >= -PMF_TOL):  # also false for NaN
        raise InvalidArgument("probabilities must be nonnegative numbers, not NaN")
    return np.clip(arr, 0.0, None)


@dataclass(frozen=True)
class JointPmf:
    """Dense joint pmf over a product of named, labeled alphabets."""

    axes: tuple[tuple[str, Alphabet], ...]
    mass: np.ndarray = field(compare=False)

    def __post_init__(self):
        names = [n for n, _ in self.axes]
        if len(set(names)) != len(names):
            raise InvalidArgument("axis names must be distinct")
        shape = tuple(len(a) for _, a in self.axes)
        mass = _as_prob_array(self.mass, shape)
        total = mass.sum()
        if abs(total - 1.0) > 1e-9:
            raise InvalidArgument(f"pmf mass sums to {total}, expected 1")
        mass = mass / total
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.axes)

    def alphabet(self, name: str) -> Alphabet:
        for n, a in self.axes:
            if n == name:
                return a
        raise InvalidArgument(f"unknown axis {name!r}")

    def _axis_indices(self, names: Iterable[str]) -> list[int]:
        order = self.names
        out = []
        for n in names:
            if n not in order:
                raise InvalidArgument(f"unknown axis {n!r}")
            out.append(order.index(n))
        return out

    def marginal(self, keep: Sequence[str]) -> "JointPmf":
        """Marginal over `keep`, axes retained in this pmf's order."""
        keep_set = set(keep)
        self._axis_indices(keep_set)  # validates names
        drop = tuple(i for i, n in enumerate(self.names) if n not in keep_set)
        mass = self.mass.sum(axis=drop) if drop else self.mass
        axes = tuple((n, a) for n, a in self.axes if n in keep_set)
        return JointPmf(axes, mass)


@dataclass(frozen=True)
class ConditionalPmf:
    """Row-stochastic channel from one labeled alphabet to another."""

    input: Alphabet
    output: Alphabet
    rows: np.ndarray = field(compare=False)

    def __post_init__(self):
        rows = _as_prob_array(self.rows, (len(self.input), len(self.output)))
        sums = rows.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > 1e-9)[0]
        if bad.size:
            i = int(bad[0])
            raise InvalidArgument(
                f"row {i} (input {self.input.symbols[i]!r}) sums to {sums[i]}"
            )
        rows = rows / sums[:, None]
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)


def batch_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of each p[k, ...] over all axes but the first; +0.0, never -0.0."""
    logs = np.log2(np.where(p > 0, p, 1.0))
    return 0.0 - (p * logs).sum(axis=tuple(range(1, p.ndim)))


def information(p: np.ndarray, axes: Sequence[str], x: Sequence[str],
                y: Sequence[str] = (), given: Sequence[str] = ()) -> np.ndarray:
    """H(x|given) in bits, or I(x;y|given) clamped at 0 if `y` is nonempty.

    `axes` names the trailing axes of `p`; the result keeps its leading batch
    axes. Names come in strings or tuples, read as sets, and are not checked."""
    batch = p.shape[:p.ndim - len(axes)]
    q = p if len(batch) == 1 else p.reshape(-1, *p.shape[len(batch):])  # one batch axis
    h = [batch_entropy(q if axis == () else q.sum(axis=axis)) if axis is not None
         else np.zeros(len(q)) for axis in _entropy_sums(axes, x, y, given)]
    h_x = h[0] - h[1]
    return (np.maximum(0.0, h_x - (h[2] - h[3])) if len(h) > 2 else h_x).reshape(batch)


@lru_cache(maxsize=1024)
def _entropy_sums(axes, x, y, given) -> tuple:
    """For H(x,z), H(z) and, if y, H(x,y,z) and H(y,z): the `axis` argument that
    sums a (batch, *axes) array to the marginal, () if none, None for no names."""
    x, y, given = set(x), set(y), set(given)
    keeps = (x | given, given) + ((x | y | given, y | given) if y else ())
    drops = [tuple(i for i, n in enumerate(axes, 1) if n not in keep) for keep in keeps]
    return tuple(None if len(d) == len(axes) else d[0] if len(d) == 1 else d for d in drops)


def entropy(pmf: JointPmf, targets: Iterable[str]) -> float:
    """H of the marginal on `targets`, in bits."""
    return conditional_entropy(pmf, targets, ())


def conditional_entropy(pmf: JointPmf, targets: Iterable[str], given: Iterable[str]) -> float:
    """H(targets | given) = H(targets, given) - H(given)."""
    targets, given = tuple(targets), tuple(given)
    if set(targets) & set(given):
        raise InvalidArgument("target and conditioning sets must be disjoint")
    pmf._axis_indices(targets + given)
    return float(information(pmf.mass, pmf.names, targets, given=given))


def mutual_information(pmf: JointPmf, x: Iterable[str], y: Iterable[str],
                       given: Iterable[str] = ()) -> float:
    """I(x;y|given) in bits; tiny negative round-off is clamped to 0."""
    x, y, given = tuple(x), tuple(y), tuple(given)
    if set(x) & set(y) or set(given) & set(x + y):
        raise InvalidArgument("x, y and given must be pairwise disjoint")
    pmf._axis_indices(x + y + given)
    return float(information(pmf.mass, pmf.names, x, y, given)) if y else 0.0


def compose(first: ConditionalPmf, second: ConditionalPmf) -> ConditionalPmf:
    """Cascade of two channels: matrix product of the row-stochastic matrices."""
    if first.output != second.input:
        raise InvalidArgument("output alphabet of first must equal input of second")
    return ConditionalPmf(first.input, second.output, first.rows @ second.rows)


def joint_from(
    source: JointPmf,
    channels: Sequence[tuple[str, ConditionalPmf, str]],
) -> JointPmf:
    """Extend a joint with new variables, each generated through a channel.

    `channels` is a sequence of (new_axis_name, channel, input_axis_name).
    Each added variable depends only on its named input axis, so the
    declared conditional independencies hold by construction.
    """
    pmf = source
    for new_name, channel, input_name in channels:
        if new_name in pmf.names:
            raise InvalidArgument(f"axis name {new_name!r} already present")
        idx = pmf._axis_indices([input_name])[0]
        if channel.input != pmf.axes[idx][1]:
            raise InvalidArgument(
                f"channel input alphabet does not match axis {input_name!r}"
            )
        # p(x..., new) = p(x...) * rows[x_input, new], broadcast over the rest
        shape = [1] * pmf.mass.ndim + [len(channel.output)]
        shape[idx] = len(channel.input)
        mass = pmf.mass[..., None] * channel.rows.reshape(shape)
        pmf = JointPmf(pmf.axes + ((new_name, channel.output),), mass)
    return pmf


def _in_unit_interval(*xs) -> bool:
    return all(np.all((np.asarray(x) >= 0.0) & (np.asarray(x) <= 1.0)) for x in xs)


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """h2(x) = -x log2 x - (1-x) log2 (1-x), in bits; element-wise on arrays."""
    if not _in_unit_interval(x):
        raise InvalidArgument(f"binary_entropy argument {x} outside [0, 1]")
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    h = np.where((x == 0.0) | (x == 1.0), 0.0, h)
    return float(h) if h.ndim == 0 else h


def binary_star(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """Binary convolution a*b = a(1-b) + (1-a)b (cascaded BSC crossover).

    Element-wise on arrays.
    """
    if not _in_unit_interval(a, b):
        raise InvalidArgument("binary_star arguments must lie in [0, 1]")
    return a * (1.0 - b) + (1.0 - a) * b


def bsc(p: float, alphabet: Alphabet | None = None) -> ConditionalPmf:
    """Binary symmetric channel with crossover probability p."""
    alphabet = alphabet or Alphabet(("0", "1"))
    if len(alphabet) != 2:
        raise InvalidArgument("bsc needs a binary alphabet")
    return ConditionalPmf(alphabet, alphabet, [[1 - p, p], [p, 1 - p]])


def bec(eps: float, alphabet: Alphabet | None = None) -> ConditionalPmf:
    """Binary erasure channel; output alphabet is ('0', 'e', '1')."""
    alphabet = alphabet or Alphabet(("0", "1"))
    if len(alphabet) != 2:
        raise InvalidArgument("bec needs a binary input alphabet")
    out = Alphabet(("0", "e", "1"))
    return ConditionalPmf(alphabet, out, [[1 - eps, eps, 0.0], [0.0, eps, 1 - eps]])


def identity_channel(alphabet: Alphabet) -> ConditionalPmf:
    return ConditionalPmf(alphabet, alphabet, np.eye(len(alphabet)))


def constant_channel(input_alphabet: Alphabet) -> ConditionalPmf:
    """Channel collapsing every input to a single output symbol."""
    out = Alphabet(("*",))
    return ConditionalPmf(input_alphabet, out, np.ones((len(input_alphabet), 1)))


def all_words(size: int, n: int) -> np.ndarray:
    """All size**n words of length n, in lexicographic (base-`size`) order."""
    return np.arange(size ** n)[:, None] // size ** np.arange(n - 1, -1, -1) % size


# ---------------------------------------------------------------------------
# Text formats. A block is a header line, then `key [argument]: values`
# lines in any order; blank lines and text after '#' are ignored. Each key
# appears once, except `axis` and `row`, which appear once per argument.
#
#     joint                          conditional
#     axis <name>: <symbols>         input: <symbols>
#     mass: <row-major floats>       output: <symbols>
#                                    row <input symbol>: <floats>
#
# A source is a joint over A, B, E whose block also holds `dmax: <float>`
# (default 1) and `distortion: <|A|*|A| row-major floats>`. A scheme is the
# conditionals p(v|a) and p(u|v), separated by a line '---'.
# ---------------------------------------------------------------------------

_JOINT_KEYS = {"axis": True, "mass": False}
_SOURCE_KEYS = {**_JOINT_KEYS, "dmax": False, "distortion": False}
_CONDITIONAL_KEYS = {"input": False, "output": False, "row": True}


def _clean_lines(text: str) -> list[str]:
    """The nonblank lines of `text`, without comments or outer whitespace."""
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]


def _checked(build, *args, line: str = ""):
    """build(*args), an InvalidArgument reported as a ParseError."""
    try:
        return build(*args)
    except InvalidArgument as exc:
        raise ParseError(f"{exc} in line: {line!r}" if line else str(exc)) from None


def _fields(lines: list[str], header: str, keys: dict[str, bool]) -> dict[str, dict]:
    """The `key [argument]: values` lines under a `header` line.

    `keys` maps each allowed key to whether it takes one argument. Returns
    {key: {argument: (value tokens, line)}} in file order, with argument
    None for a key that takes none.
    """
    if not lines or lines[0] != header:
        raise ParseError(f"expected {header!r} header")
    fields = {key: {} for key in keys}
    for line in lines[1:]:
        head, colon, values = line.partition(":")
        key, *args = head.split() or [""]
        if not colon or key not in keys:
            raise ParseError(f"unrecognized line: {line!r}")
        if len(args) != keys[key]:
            raise ParseError(f"{key!r} takes {'one argument' if keys[key] else 'no argument'}"
                             f" in line: {line!r}")
        arg = args[0] if args else None
        if arg in fields[key]:
            raise ParseError(f"repeated {' '.join(head.split())!r} line: {line!r}")
        fields[key][arg] = (values.split(), line)
    return fields


def _floats(values: list[str], line: str) -> list[float]:
    try:
        return [float(t) for t in values]
    except ValueError:
        raise ParseError(f"non-numeric value in line: {line!r}") from None


def _alphabet(values: list[str], line: str) -> Alphabet:
    return _checked(Alphabet, tuple(values), line=line)


def _joint(fields: dict[str, dict]) -> JointPmf:
    axes = tuple((name, _alphabet(*got)) for name, got in fields["axis"].items())
    if not axes:
        raise ParseError("joint pmf needs at least one axis")
    if not fields["mass"]:
        raise ParseError("joint pmf missing 'mass:' line")
    mass = _floats(*fields["mass"][None])
    shape = tuple(len(a) for _, a in axes)
    if len(mass) != int(np.prod(shape)):
        raise ParseError(
            f"mass has {len(mass)} entries, expected {int(np.prod(shape))}"
        )
    return _checked(JointPmf, axes, np.reshape(mass, shape))


def _conditional(fields: dict[str, dict]) -> ConditionalPmf:
    if not (fields["input"] and fields["output"]):
        raise ParseError("conditional pmf needs 'input:' and 'output:' lines")
    input_alph = _alphabet(*fields["input"][None])
    output_alph = _alphabet(*fields["output"][None])
    rows = fields["row"]
    for sym, (_, line) in rows.items():
        if sym not in input_alph.symbols:
            raise ParseError(f"row symbol {sym!r} is not an 'input:' symbol in line: {line!r}")
    matrix = []
    for sym in input_alph.symbols:
        if sym not in rows:
            raise ParseError(f"missing row for input symbol {sym!r}")
        row = _floats(*rows[sym])
        if len(row) != len(output_alph):
            raise ParseError(f"row {sym!r} has {len(row)} entries, "
                             f"expected {len(output_alph)}")
        matrix.append(row)
    return _checked(ConditionalPmf, input_alph, output_alph, matrix)


def load_joint(text: str) -> JointPmf:
    return _joint(_fields(_clean_lines(text), "joint", _JOINT_KEYS))


def load_conditional(text: str) -> ConditionalPmf:
    return _conditional(_fields(_clean_lines(text), "conditional", _CONDITIONAL_KEYS))


def load_source(text: str) -> tuple[JointPmf, np.ndarray, float]:
    """(joint, distortion, d_max) of a source file's text."""
    fields = _fields(_clean_lines(text), "joint", _SOURCE_KEYS)
    joint = _joint(fields)
    na = len(_checked(joint.alphabet, "A"))
    dmax = _floats(*fields["dmax"][None]) if fields["dmax"] else [1.0]
    if len(dmax) != 1:
        raise ParseError(f"'dmax:' needs one value, got {len(dmax)}")
    if not fields["distortion"]:
        raise ParseError("source file missing 'distortion:' line")
    dist = _floats(*fields["distortion"][None])
    if len(dist) != na * na:
        raise ParseError(f"distortion needs {na * na} entries, got {len(dist)}")
    return joint, np.reshape(dist, (na, na)), dmax[0]


def load_scheme(text: str) -> tuple[ConditionalPmf, ConditionalPmf]:
    """(p(v|a), p(u|v)) of a scheme file's text."""
    blocks = [list(block) for is_rule, block in
              groupby(_clean_lines(text), lambda line: line == "---") if not is_rule]
    if len(blocks) != 2:
        raise ParseError("scheme file needs two '---'-separated conditional blocks")
    return tuple(_conditional(_fields(b, "conditional", _CONDITIONAL_KEYS)) for b in blocks)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of a header row and data rows; floats are written as %.6f."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f"{x:.6f}" if isinstance(x, float) else x for x in row]
                     for row in rows)
    return buf.getvalue()
