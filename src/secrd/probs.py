"""Exact probability and information-measure arithmetic on finite joints.

Everything here works on dense numpy arrays indexed by named axes.
Alphabets are tiny (a handful of symbols), so no attempt is made at
sparse storage. All logs are base 2 and 0*log(0) = 0 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

PMF_TOL = 1e-12


class InvalidArgument(ValueError):
    """Raised when an operation's preconditions are violated."""


class ParseError(ValueError):
    """Raised when a serialized pmf fails validation."""


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
    if np.any(arr < -PMF_TOL):
        raise InvalidArgument("probabilities must be nonnegative")
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


def entropy(pmf: JointPmf, targets: Iterable[str]) -> float:
    """H of the marginal on `targets`, in bits."""
    targets = tuple(targets)
    if not targets:
        return 0.0
    return float(batch_entropy(pmf.marginal(targets).mass[None])[0])


def conditional_entropy(pmf: JointPmf, targets: Iterable[str], given: Iterable[str]) -> float:
    """H(targets | given) = H(targets, given) - H(given)."""
    targets, given = tuple(targets), tuple(given)
    if set(targets) & set(given):
        raise InvalidArgument("target and conditioning sets must be disjoint")
    return entropy(pmf, targets + given) - entropy(pmf, given)


def mutual_information(
    pmf: JointPmf,
    x: Iterable[str],
    y: Iterable[str],
    given: Iterable[str] = (),
) -> float:
    """I(x;y|given) in bits; tiny negative round-off is clamped to 0."""
    x, y, given = tuple(x), tuple(y), tuple(given)
    sets = [set(x), set(y), set(given)]
    for i in range(3):
        for j in range(i + 1, 3):
            if sets[i] & sets[j]:
                raise InvalidArgument("x, y and given must be pairwise disjoint")
    val = conditional_entropy(pmf, x, given) - conditional_entropy(pmf, x, y + given)
    return max(0.0, val)


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


# ---------------------------------------------------------------------------
# Structured-text serialization.
#
# Joint pmf:
#     joint
#     axis <name>: <sym> <sym> ...
#     ...
#     mass: <row-major floats>
#
# Conditional pmf:
#     conditional
#     input: <sym> <sym> ...
#     output: <sym> <sym> ...
#     row <sym>: <floats>
#     ...
#
# Blank lines and '#' comments are ignored.
# ---------------------------------------------------------------------------


def _clean_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _floats(text: str, line: str) -> list[float]:
    try:
        return [float(t) for t in text.split()]
    except ValueError:
        raise ParseError(f"non-numeric value in line: {line!r}") from None


def _alphabet(symbols: tuple[str, ...], line: str) -> Alphabet:
    try:
        return Alphabet(symbols)
    except InvalidArgument as exc:
        raise ParseError(f"{exc} in line: {line!r}") from None


def dump_joint(pmf: JointPmf) -> str:
    lines = ["joint"]
    for name, alph in pmf.axes:
        lines.append(f"axis {name}: " + " ".join(alph.symbols))
    lines.append("mass: " + " ".join(f"{x:.17g}" for x in pmf.mass.ravel()))
    return "\n".join(lines) + "\n"


def load_joint(text: str) -> JointPmf:
    lines = _clean_lines(text)
    if not lines or lines[0] != "joint":
        raise ParseError("expected 'joint' header")
    axes: list[tuple[str, Alphabet]] = []
    mass = None
    for line in lines[1:]:
        if line.startswith("axis "):
            head, _, rest = line[5:].partition(":")
            name = head.strip()
            symbols = tuple(rest.split())
            if not name or not symbols:
                raise ParseError(f"malformed axis line: {line!r}")
            axes.append((name, _alphabet(symbols, line)))
        elif line.startswith("mass:"):
            mass = _floats(line[5:], line)
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


def dump_conditional(ch: ConditionalPmf) -> str:
    lines = ["conditional"]
    lines.append("input: " + " ".join(ch.input.symbols))
    lines.append("output: " + " ".join(ch.output.symbols))
    for sym, row in zip(ch.input.symbols, ch.rows):
        lines.append(f"row {sym}: " + " ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def load_conditional(text: str) -> ConditionalPmf:
    lines = _clean_lines(text)
    if not lines or lines[0] != "conditional":
        raise ParseError("expected 'conditional' header")
    input_alph = output_alph = None
    rows: dict[str, list[float]] = {}
    for line in lines[1:]:
        if line.startswith("input:"):
            input_alph = _alphabet(tuple(line[6:].split()), line)
        elif line.startswith("output:"):
            output_alph = _alphabet(tuple(line[7:].split()), line)
        elif line.startswith("row "):
            head, _, rest = line[4:].partition(":")
            rows[head.strip()] = _floats(rest, line)
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
