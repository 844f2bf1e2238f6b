"""Foundation types: exact rationals, partitions, bottom-indexed matrices, model specs.

Exact probabilities and model parameters are `fractions.Fraction` throughout;
floats only ever enter through Monte Carlo estimates and the fixed-point
continuum (`hammersley`) determinants, and containers tag them as
approximate.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import attrgetter, index
from typing import Iterator, NamedTuple, Union

Rational = Fraction

Scalar = Union[Fraction, float]


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, a field of a record."""


def record(cls):
    """Class decorator with the semantics of a frozen dataclasses.dataclass.

    The fields are the class annotations, in order; a class attribute is the
    field's default.  It adds __init__ (which calls __post_init__, if the class
    has one), __eq__ (the same class and equal fields, so records of two
    classes never collide as cache keys), __repr__ (`Name(f=v, ...)`),
    __hash__ over the fields, and a __setattr__ and __delattr__ that raise
    FrozenRecordError.  A method the class defines itself is kept.  The
    methods are closures over the field names, so nothing is generated as
    source or compiled, and importing this module does not load dataclasses,
    inspect or ast.
    """
    names = tuple(cls.__annotations__)  # the class's own, on Python 3.10 and later
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count = len(names)
    post_init = cls.__dict__.get("__post_init__")
    get = attrgetter(*names)  # one field's value, or the tuple of several
    # Fields are set as dataclasses sets them, through object.__setattr__:
    # writing to self.__dict__ would make each record build a dict of its own,
    # 64 bytes more, with attribute loads twice as slow.
    set_field = object.__setattr__

    def bind(args, kwargs):
        """The field values of a call that does not pass every field positionally."""
        if len(args) > count or kwargs.keys() - set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {len(args)} "
                            f"positional and the keywords {sorted(kwargs)}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() is missing the field {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if len(args) != count or kwargs:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __hash__(self):
        return hash(get(self))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__,
               "__setattr__": __setattr__, "__delattr__": __delattr__}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    # a class that defines __eq__ gets __hash__ = None from Python itself
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = __hash__
    return cls


class _Parameters(NamedTuple):
    lists: tuple[str, ...]      # the nonempty parameter lists
    weight: str | None          # the weight parameter, if the variant has one
    side: int | None            # matrix side in units of n; None for len(a) x len(b)


# What parsing needs of each variant; every other per-variant fact is its
# symlpp.variants.Variant record.
MODEL_PARAMETERS = {
    "johansson": _Parameters(("a", "b"), None, 1),
    "bernoulli": _Parameters(("a", "b"), None, None),
    "antidiagonal": _Parameters(("q",), "beta", 1),
    "diagonal": _Parameters(("q",), "alpha", 1),
    "doublysymmetric": _Parameters(("q",), "alpha", 2),
    "pointreflection": _Parameters(("q",), None, 2),
}


class BudgetError(ValueError):
    """A computation would exceed a fixed resource budget; raised before
    anything is allocated.  `field` names the argument that sets the size,
    when the raiser knows it."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


# Most bounds a table may hold, for the tables whose cost no box or sweep
# budget bounds first: Monte Carlo counts, and the saturating Bernoulli law.
TABLE_BOUND_BUDGET = 1 << 16


def check_table_bound(lmax: int) -> None:
    if lmax > TABLE_BOUND_BUDGET:
        raise BudgetError(f"table to bound {lmax} is over the budget of "
                          f"{TABLE_BOUND_BUDGET} bounds")


def parse_rational(value) -> Fraction:
    """Parse a rational from an int, a Fraction, or a decimal-free "p/q" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text.lower():
            raise ValueError(f"rational strings must be decimal-free 'p/q', got {value!r}")
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as a decimal-free string, "p/q" or "p"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


@record
class Partition:
    """Weakly decreasing positive parts; trailing zeros are never stored."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must weakly decrease, got {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, k: int) -> int:
        """k-th part, 1-based, zero beyond the stored length."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        """Parts padded with zeros to the requested length (local use only)."""
        if length < len(self.parts):
            raise ValueError(f"cannot pad {self.parts} down to length {length}")
        return self.parts + (0,) * (length - len(self.parts))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")" if self.parts else "()"


def box_parts(max_part: int, max_length: int) -> Iterator[tuple[int, ...]]:
    """The parts of every partition in the box, in lexicographic order.

    Removing a cell from any row gives a partition that comes earlier.
    """
    if max_part < 0 or max_length < 0:
        raise ValueError("box dimensions must be nonnegative")

    def rec(bound: int, rows_left: int) -> Iterator[tuple[int, ...]]:
        yield ()
        if rows_left == 0:
            return
        for first in range(1, bound + 1):
            for rest in rec(first, rows_left - 1):
                yield (first,) + rest

    yield from rec(max_part, max_length)


def partitions_in_box(max_part: int, max_length: int) -> Iterator[Partition]:
    """Yield every partition with first part <= max_part and length <= max_length.

    The count is C(max_part + max_length, max_length).
    """
    for parts in box_parts(max_part, max_length):
        yield Partition(parts)


def count_partitions_in_box(max_part: int, max_length: int) -> int:
    return comb(max_part + max_length, max_length)


# ---------------------------------------------------------------------------
# Matrices with rows labelled from the bottom
# ---------------------------------------------------------------------------


@record
class IntMatrix:
    """Nonnegative integer matrix; row i counts from the BOTTOM, column j from the left.

    `rows[0]` is the bottom row.  All printing puts the top row first with
    explicit row labels so the orientation can never be silently transposed.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(map(index, r)) for r in self.rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            if min(r) < 0:
                raise ValueError("entries must be nonnegative")
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def rows_top_to_bottom(self) -> list[list[int]]:
        return [list(r) for r in reversed(self.rows)]

    def __str__(self):
        lines = []
        for i in range(self.n_rows, 0, -1):
            lines.append(f"i={i}: " + " ".join(f"{x:3d}" for x in self.rows[i - 1]))
        return "\n".join(lines)


def matrix_from_rows_top_to_bottom(rows) -> IntMatrix:
    return IntMatrix(tuple(tuple(r) for r in reversed(list(rows))))


# ---------------------------------------------------------------------------
# Model specifications
# ---------------------------------------------------------------------------


@record
class ModelSpec:
    """One of the six site-weight ensembles together with its exact parameters.

    variant            parameters            matrix shape      symmetry of samples
    johansson          a (n), b (n)          n x n             none
    bernoulli          a (m rows), b (n)     m x n, 0/1        none
    antidiagonal       q (n), beta           n x n             x_{i,j} = x_{n+1-j,n+1-i}
    diagonal           q (n), alpha          n x n             x_{i,j} = x_{j,i}
    doublysymmetric    q (n), alpha          2n x 2n           both, even anti-diagonal
    pointreflection    q (n)                 2n x 2n           x_{i,j} = x_{2n+1-i,2n+1-j}
    """

    variant: str
    a: tuple[Fraction, ...] = ()
    b: tuple[Fraction, ...] = ()
    q: tuple[Fraction, ...] = ()
    alpha: Fraction | None = None
    beta: Fraction | None = None

    def __post_init__(self):
        if self.variant not in MODEL_PARAMETERS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"expected one of {tuple(MODEL_PARAMETERS)}")
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))
        object.__setattr__(self, "q", tuple(Fraction(x) for x in self.q))
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if value is not None:
                object.__setattr__(self, name, Fraction(value))
        self._validate()

    def _validate(self):
        v = self.variant
        lists, weight, side = MODEL_PARAMETERS[v]
        if lists == ("a", "b"):
            if not self.a or not self.b:
                raise ValueError(f"{v} needs nonempty parameter lists 'a' and 'b'")
            if self.q or self.alpha is not None or self.beta is not None:
                raise ValueError(f"{v} permits only 'a' and 'b'")
            if side and len(self.a) != len(self.b):
                raise ValueError(f"{v} is square: len(a) must equal len(b)")
        else:
            if not self.q:
                raise ValueError(f"{v} needs a nonempty parameter list 'q'")
            if self.a or self.b:
                raise ValueError(f"{v} permits only 'q' plus its weight parameter")
            if weight is not None and getattr(self, weight) is None:
                raise ValueError(f"{v} needs {weight!r}")
            for name in ("alpha", "beta"):
                if name != weight and getattr(self, name) is not None:
                    raise ValueError(f"{name!r} not permitted for {v}")
        for name, values in (("a", self.a), ("b", self.b), ("q", self.q)):
            for k, x in enumerate(values):
                if not 0 <= x < 1:
                    raise ValueError(f"{name}[{k}] = {x} outside [0, 1)")
        for name, x in (("alpha", self.alpha), ("beta", self.beta)):
            if x is not None and not 0 <= x < 1:
                raise ValueError(f"{name} = {x} outside [0, 1)")

    @property
    def n(self) -> int:
        """Number of parameters on each side (the model's size parameter)."""
        return len(getattr(self, MODEL_PARAMETERS[self.variant].lists[0]))

    @property
    def matrix_shape(self) -> tuple[int, int]:
        """(n_rows, n_cols) of a sampled matrix."""
        side = MODEL_PARAMETERS[self.variant].side
        if side is None:
            return (len(self.a), len(self.b))
        return (side * self.n, side * self.n)

    def to_json_dict(self) -> dict:
        out: dict = {"variant": self.variant}
        if self.a:
            out["a"] = [format_rational(x) for x in self.a]
        if self.b:
            out["b"] = [format_rational(x) for x in self.b]
        if self.q:
            out["q"] = [format_rational(x) for x in self.q]
        if self.alpha is not None:
            out["alpha"] = format_rational(self.alpha)
        if self.beta is not None:
            out["beta"] = format_rational(self.beta)
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "ModelSpec":
        if "variant" not in data:
            raise ValueError("model JSON is missing required field 'variant'")
        allowed = {"variant", "a", "b", "q", "alpha", "beta"}
        extra = set(data) - allowed
        if extra:
            raise ValueError(f"model JSON has unknown fields {sorted(extra)}")
        kwargs: dict = {"variant": data["variant"]}
        for key in ("a", "b", "q"):
            if key in data:
                kwargs[key] = tuple(parse_rational(x) for x in data[key])
        for key in ("alpha", "beta"):
            if key in data:
                kwargs[key] = parse_rational(data[key])
        return ModelSpec(**kwargs)


# ---------------------------------------------------------------------------
# Distribution tables
# ---------------------------------------------------------------------------


@record
class DistributionTable:
    """Cumulative law l -> Pr(L <= l), exact or tagged approximate.

    `exact` is True only when every probability is a Fraction produced by an
    exact engine; Monte Carlo values are floats with exact=False, and carry a
    per-entry standard error.
    """

    probs: dict[int, Scalar]
    exact: bool
    stderr: dict[int, float] | None = None

    def __post_init__(self):
        prev = None
        for l in sorted(self.probs):
            p = self.probs[l]
            if self.exact and not isinstance(p, Fraction):
                raise ValueError("exact tables must hold Fractions")
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} at l={l} outside [0, 1]")
            if prev is not None and p < prev - (0 if self.exact else 1e-15):
                raise ValueError("cumulative probabilities must be nondecreasing in l")
            prev = p

    def to_rows(self) -> list[dict]:
        rows = []
        for l in sorted(self.probs):
            p = self.probs[l]
            row: dict = {"l": l}
            if isinstance(p, Fraction):
                row["p"] = format_rational(p)
                row["approx"] = False
            else:
                row["p"] = float(p)
                row["approx"] = True
            if self.stderr is not None:
                row["stderr"] = float(self.stderr[l])
            rows.append(row)
        return rows
