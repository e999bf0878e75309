"""Soft sets over a finite ordered universe, with a lossless 0/1 matrix form.

A soft set pairs an ordered tuple of attribute names with a map sending
each attribute to a subset of a fixed universe.  Both orders are stored
data, never conventions: the universe order fixes matrix rows, the
attribute order fixes matrix columns, and two soft sets interoperate
only when their universes agree element for element and position for
position.

Everything here is an immutable value after construction and safe to
share across threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

__all__ = [
    "BitMatrix",
    "DimensionMismatch",
    "DuplicateAttribute",
    "DuplicateElement",
    "MissingValue",
    "SoftSet",
    "SoftSetError",
    "TauFamily",
    "UniverseMismatch",
    "UnknownAttribute",
    "UnknownElement",
    "require_same_universe",
    "soft_set_from_document",
    "soft_set_to_document",
]

TauFamily = frozenset  # family of frozensets of element names


class SoftSetError(ValueError):
    """Base class for every domain error raised by this package."""


class DuplicateElement(SoftSetError):
    """A universe lists the same element name twice."""


class DuplicateAttribute(SoftSetError):
    """An attribute tuple lists the same name twice."""


class UnknownAttribute(SoftSetError):
    """An attribute name outside the soft set's attribute tuple."""


class UnknownElement(SoftSetError):
    """A value subset mentions an element outside the universe."""


class MissingValue(SoftSetError):
    """An attribute has no entry in the value map."""


class DimensionMismatch(SoftSetError):
    """Matrix dimensions disagree with the declared universe/attributes."""


class UniverseMismatch(SoftSetError):
    """Two soft sets were combined across different (or differently ordered) universes."""


# Lookup that also maps True/False and 0.0/1.0, which hash and compare
# equal to the int bits, onto plain ints.
_BITS = {0: 0, 1: 1}


def _bit(entry) -> int:
    """The slow path for entries the lookup refuses, unhashable ones included."""
    if entry != 0 and entry != 1:
        raise SoftSetError(f"matrix entries must be 0 or 1, got {entry!r}")
    return int(entry)


class BitMatrix:
    """Immutable 0/1 matrix stored as a tuple of row tuples.

    A zero-row matrix cannot recover its width from the data, so `cols`
    may be passed explicitly; when rows exist it doubles as a check.
    """

    __slots__ = ("_bits", "_cols")

    def __init__(self, rows: Iterable[Iterable[int]], cols: int | None = None) -> None:
        # one pass: check and normalise entries, note the first ragged row;
        # a bad entry anywhere outranks raggedness, which outranks `cols`
        bits = []
        ragged = None
        for row in rows:
            row = tuple(row)
            try:
                row = tuple(map(_BITS.__getitem__, row))
            except (KeyError, TypeError):
                row = tuple(map(_bit, row))
            if bits and ragged is None and len(row) != len(bits[0]):
                ragged = f"ragged matrix: row widths {len(row)} and {len(bits[0])}"
            bits.append(row)
        if ragged is not None:
            raise DimensionMismatch(ragged)
        if bits:
            width = len(bits[0])
            if cols is not None and cols != width:
                raise DimensionMismatch(f"declared {cols} columns, rows carry {width}")
        else:
            width = 0 if cols is None else cols
            if width < 0:
                raise DimensionMismatch("column count cannot be negative")
        self._bits = tuple(bits)
        self._cols = width

    @property
    def bits(self) -> tuple[tuple[int, ...], ...]:
        return self._bits

    @property
    def rows(self) -> int:
        return len(self._bits)

    @property
    def cols(self) -> int:
        return self._cols

    def column(self, j: int) -> tuple[int, ...]:
        """Column j read top to bottom, in universe order."""
        if not 0 <= j < self._cols:
            raise IndexError(f"column {j} out of range for {self._cols} columns")
        return tuple(row[j] for row in self._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self._bits == other._bits and self._cols == other._cols

    def __hash__(self) -> int:
        return hash((self._bits, self._cols))

    def __repr__(self) -> str:
        return f"BitMatrix({[list(row) for row in self._bits]!r}, cols={self._cols})"


class SoftSet:
    """An ordered finite universe plus one subset of it per attribute."""

    __slots__ = ("_universe", "_attributes", "_values", "_universe_set", "_matrix", "_tau")

    def __init__(
        self,
        universe: Sequence[str],
        attributes: Sequence[str],
        values: Mapping[str, Iterable[str]],
    ) -> None:
        self._universe = tuple(universe)
        self._attributes = tuple(attributes)
        seen: set[str] = set()
        for name in self._universe:
            if name in seen:
                raise DuplicateElement(f"universe element {name!r} repeats")
            seen.add(name)
        self._universe_set = frozenset(self._universe)
        seen = set()
        for name in self._attributes:
            if name in seen:
                raise DuplicateAttribute(f"attribute {name!r} repeats")
            seen.add(name)
        extra = set(values) - seen
        if extra:
            raise UnknownAttribute(
                f"values given for unknown attributes {sorted(extra)!r}"
            )
        fixed: dict[str, frozenset[str]] = {}
        for name in self._attributes:
            if name not in values:
                raise MissingValue(f"attribute {name!r} has no value")
            subset = frozenset(values[name])
            stray = subset - self._universe_set
            if stray:
                raise UnknownElement(
                    f"value of {name!r} contains {sorted(stray)!r}, not in the universe"
                )
            fixed[name] = subset
        self._values = fixed
        self._matrix: BitMatrix | None = None
        self._tau: frozenset[frozenset[str]] | None = None

    @property
    def universe(self) -> tuple[str, ...]:
        return self._universe

    @property
    def universe_set(self) -> frozenset[str]:
        return self._universe_set

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def values(self) -> dict[str, frozenset[str]]:
        """Value map as a fresh dict, keyed in attribute order."""
        return dict(self._values)

    def value(self, attribute: str) -> frozenset[str]:
        try:
            return self._values[attribute]
        except KeyError:
            raise UnknownAttribute(f"no attribute {attribute!r}") from None

    def tau(self) -> frozenset[frozenset[str]]:
        """The deduplicated family of all value subsets, empty set included."""
        if self._tau is None:
            self._tau = frozenset(self._values.values())
        return self._tau

    def to_matrix(self) -> BitMatrix:
        """Rows follow universe order, columns follow attribute order."""
        if self._matrix is None:
            columns = [self._values[a] for a in self._attributes]
            rows = tuple(
                tuple(1 if element in subset else 0 for subset in columns)
                for element in self._universe
            )
            self._matrix = BitMatrix(rows, cols=len(self._attributes))
        return self._matrix

    @classmethod
    def from_matrix(
        cls,
        universe: Sequence[str],
        attributes: Sequence[str],
        matrix: BitMatrix,
    ) -> "SoftSet":
        """Inverse of to_matrix for matching universe/attribute orders."""
        universe = tuple(universe)
        attributes = tuple(attributes)
        if matrix.rows != len(universe) or matrix.cols != len(attributes):
            raise DimensionMismatch(
                f"matrix is {matrix.rows}x{matrix.cols}, "
                f"expected {len(universe)}x{len(attributes)}"
            )
        bits = matrix.bits
        values = {
            attribute: frozenset(
                universe[i] for i in range(len(universe)) if bits[i][j]
            )
            for j, attribute in enumerate(attributes)
        }
        built = cls(universe, attributes, values)
        built._matrix = matrix
        return built

    def canonicalize(self) -> "SoftSet":
        """Reorder attributes into nondecreasing lexicographic column order.

        Ties break on the attribute name.  Universe order and the value
        map are untouched, so tau is preserved exactly; two soft sets
        with equal column multisets canonicalize to equal matrices.
        """

        def column(attribute: str) -> tuple[int, ...]:
            subset = self._values[attribute]
            return tuple(1 if e in subset else 0 for e in self._universe)

        order = sorted(self._attributes, key=lambda a: (column(a), a))
        return SoftSet(self._universe, order, self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SoftSet):
            return NotImplemented
        return (
            self._universe == other._universe
            and self._attributes == other._attributes
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._universe,
                self._attributes,
                tuple(self._values[a] for a in self._attributes),
            )
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"{a!r}: {sorted(self._values[a])!r}" for a in self._attributes)
        return f"SoftSet(universe={list(self._universe)!r}, values={{{parts}}})"


def require_same_universe(s: SoftSet, f: SoftSet) -> None:
    """Binary operations align rows positionally, so order matters too."""
    if s.universe != f.universe:
        raise UniverseMismatch(
            f"universes differ: {list(s.universe)!r} vs {list(f.universe)!r}"
        )


def soft_set_to_document(s: SoftSet) -> dict:
    """JSON-ready document; value subsets are listed in universe order."""
    position = {name: i for i, name in enumerate(s.universe)}
    return {
        "universe": list(s.universe),
        "attributes": list(s.attributes),
        "values": {
            a: sorted(s.value(a), key=position.__getitem__) for a in s.attributes
        },
    }


def soft_set_from_document(doc: object) -> SoftSet:
    """Parse and validate the JSON soft set document shape."""
    if not isinstance(doc, dict):
        raise SoftSetError("soft set document must be a JSON object")
    missing = {"universe", "attributes", "values"} - set(doc)
    if missing:
        raise SoftSetError(f"soft set document lacks keys {sorted(missing)!r}")
    universe = doc["universe"]
    attributes = doc["attributes"]
    values = doc["values"]
    if not isinstance(universe, list) or not all(isinstance(e, str) for e in universe):
        raise SoftSetError("'universe' must be an array of strings")
    if not isinstance(attributes, list) or not all(isinstance(a, str) for a in attributes):
        raise SoftSetError("'attributes' must be an array of strings")
    if not isinstance(values, dict):
        raise SoftSetError("'values' must be an object keyed by attribute")
    for name, subset in values.items():
        if not isinstance(subset, list) or not all(isinstance(e, str) for e in subset):
            raise SoftSetError(f"value of {name!r} must be an array of strings")
    return SoftSet(universe, attributes, values)
