"""Soft sets over a finite ordered universe, with a lossless 0/1 matrix form.

A soft set pairs an ordered tuple of attribute names with a map sending
each attribute to a subset of a fixed universe.  Both orders are stored
data, never conventions: the universe order fixes matrix rows, the
attribute order fixes matrix columns, and two soft sets interoperate
only when their universes agree element for element and position for
position.

Each value is stored as one int mask, bit i standing for universe[i];
names become indices once, in the constructor.  Masks are the only form
the kernels read.  The matrix and the JSON document are built from the
masks on demand, at the boundary.  A value's name set is built on its
first request and kept, at most one per distinct value, so tau and the
families share their member sets; sets for other masks are not kept.
Everything here is an immutable value after construction and safe to
share across threads: the kept sets are a cache, equal whichever thread
builds them, and play no part in equality or hashing.

The package's errors and `ApproxKind`, the seven approximation kinds,
live here too: the set-form oracles and the CLI's --kind choices name
them, and this way need no module but core.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from enum import Enum
from itertools import chain, compress
from operator import countOf
from types import MappingProxyType

__all__ = [
    "ApproxKind",
    "DimensionMismatch",
    "DuplicateAttribute",
    "DuplicateElement",
    "EmptyDenominator",
    "InvalidValue",
    "MissingValue",
    "SoftSet",
    "SoftSetError",
    "UniverseMismatch",
    "UnknownAttribute",
    "UnknownElement",
    "soft_set_from_document",
    "soft_set_to_document",
]

class SoftSetError(ValueError):
    """Base class for every domain error raised by this package."""


class DuplicateElement(SoftSetError):
    """A universe, or a value, lists the same element name twice."""


class DuplicateAttribute(SoftSetError):
    """An attribute tuple lists the same name twice."""


class UnknownAttribute(SoftSetError):
    """An attribute name outside the soft set's attribute tuple."""


class UnknownElement(SoftSetError):
    """A value subset mentions an element outside the universe."""


class InvalidValue(SoftSetError):
    """A name that is no str; a universe, attributes or value map of the wrong
    container type; a value that is no collection of hashable elements (a
    string, a mapping, an iterator, None); or a mask outside the universe."""


class MissingValue(SoftSetError):
    """An attribute has no entry in the value map."""


class DimensionMismatch(SoftSetError):
    """Matrix dimensions disagree with the declared universe/attributes."""


class UniverseMismatch(SoftSetError):
    """Two soft sets were combined across different (or differently ordered) universes."""


class EmptyDenominator(SoftSetError):
    """Similarity is undefined without universe elements and attributes.
    Here, not in analysis, so the oracles need only core."""


class ApproxKind(Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"
    STRICT_INTERNAL = "strict-internal"
    STRICT_EXTERNAL = "strict-external"
    INTERNAL_EQUIV = "internal-equiv"
    EXTERNAL_EQUIV = "external-equiv"
    WEAK_EQUIV = "weak-equiv"


# between "0"/"1" text and 0/1 bytes, one byte per matrix cell
_TO_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def _column(mask: int, m: int) -> bytes:
    """The column as m bytes 0/1, row 0 (bit 0) first."""
    return bin(mask | 1 << m)[:2:-1].encode().translate(_TO_BYTES)


def _first_repeat(names: Iterable[str]) -> str:
    seen: set[str] = set()
    return next(name for name in names if name in seen or seen.add(name))


def _stray(name, element, rest: Iterable, index: dict) -> SoftSetError:
    """The error for a value whose element is not in the universe; the rest
    of the value is read for more strays, or for an unhashable element."""
    try:
        stray = {element, *rest} - index.keys()
    except TypeError as exc:
        return InvalidValue(f"value of {name!r} must be a collection of universe elements: {exc}")
    return UnknownElement(f"value of {name!r} contains {_repr(_sorted(stray))}, "
                          "not in the universe")


def _repr(value: object) -> str:
    """repr(value) for an error message about caller data, or a placeholder if
    repr refuses it, as it refuses an int past the interpreter's digit limit."""
    try:
        return repr(value)
    except ValueError:
        return f"<unprintable {type(value).__name__}>"


def _sorted(items: Iterable) -> list:
    """Strays or extra value-map keys, sorted; by their text if their types refuse to compare,
    and unsorted if str refuses one, as it does an int past the digit limit."""
    try:
        return sorted(items)
    except TypeError:
        try:
            return sorted(items, key=str)
        except ValueError:
            return list(items)


def _name_tuple(names: object, what: str) -> tuple[str, ...]:
    """names as a tuple, if it is a sequence of str and no str or bytes, which would
    split into characters, or set, whose order varies: the one check of names."""
    # tuple and list come first: they pass without the slower check against the ABC
    if isinstance(names, (str, bytes)) or not isinstance(names, (tuple, list, Sequence)):
        raise InvalidValue(f"{what} must be a sequence of names, not {type(names).__name__}")
    names = tuple(names)
    try:
        "".join(names)  # one C pass that refuses any member that is no str
    except TypeError:
        bad = next(name for name in names if not isinstance(name, str))
        raise InvalidValue(f"{what}: names must be strings, not {_repr(bad)}") from None
    return names


def check_names(universe: tuple[str, ...], attributes: tuple[str, ...]) -> dict[str, int]:
    """Check neither name tuple repeats a name; return name -> row index."""
    index = dict(zip(universe, range(len(universe))))
    if len(index) != len(universe):
        raise DuplicateElement(f"universe element {_first_repeat(universe)!r} repeats")
    if len(set(attributes)) != len(attributes):
        raise DuplicateAttribute(f"attribute {_first_repeat(attributes)!r} repeats")
    return index


class SoftSet:
    """An ordered finite universe plus one subset of it per attribute.

    Stored as the two name tuples and an attribute -> int mask dict, bit i
    of a mask standing for universe[i], plus the name sets `names` keeps
    once asked, which equality and hashing ignore.  The kernel modules
    work through `masks`, `mask`, `full_mask`, `names` and the unchecked
    `_new`.
    """

    __slots__ = ("_universe", "_attributes", "_masks", "_names")

    def __init__(self, universe: Sequence[str], attributes: Sequence[str],
                 values: Mapping[str, Collection[str]]) -> None:
        universe = _name_tuple(universe, "universe")
        attributes = _name_tuple(attributes, "attributes")
        if not isinstance(values, (dict, Mapping)):
            raise InvalidValue(f"values must be a mapping of attribute to value, "
                               f"not {type(values).__name__}")
        index = check_names(universe, attributes)
        extra = set(values) - set(attributes)
        if extra:
            raise UnknownAttribute("values given for unknown attributes "
                                   f"{_repr(_sorted(extra))}")
        masks = {}
        for name in attributes:
            if name not in values:
                raise MissingValue(f"attribute {name!r} has no value")
            subset = values[name]
            if isinstance(subset, (str, Mapping)):
                kind = "string" if isinstance(subset, str) else "mapping"
                raise InvalidValue(f"value of {name!r} must be a collection, not a {kind}")
            row = bytearray(b"0") * len(universe)
            try:
                for element in subset:
                    row[index[element]] = 49  # ord("1")
                mask = int(row[::-1] or b"0", 2)  # an empty universe gives no digits
                if len(subset) != mask.bit_count():  # the mask counts each element once
                    twice = _first_repeat(subset)
                    raise DuplicateElement(f"value of {name!r} lists {twice!r} twice")
            except KeyError:
                raise _stray(name, element, subset, index) from None
            except TypeError as exc:  # not iterable, an unhashable element, or no length
                raise InvalidValue(f"value of {name!r} must be a collection of "
                                   f"universe elements: {exc}") from None
            masks[name] = mask
        self._universe, self._attributes, self._masks = universe, attributes, masks

    @classmethod
    def _new(cls, universe: tuple, attributes: tuple, masks: Iterable[int]) -> "SoftSet":
        """Build from checked parts, masks in attribute order.  Only the names
        are checked, because derived ones (pair labels, copies) can collide."""
        s = object.__new__(cls)
        s._universe, s._attributes = universe, attributes
        s._masks = dict(zip(attributes, masks))
        if len(s._masks) != len(attributes):
            raise DuplicateAttribute(f"attribute {_first_repeat(attributes)!r} repeats")
        return s

    @property
    def masks(self) -> Mapping[str, int]:
        """Read-only attribute -> mask map, in attribute order."""
        return MappingProxyType(self._masks)

    @property
    def full_mask(self) -> int:
        """The mask of the whole universe."""
        return (1 << len(self._universe)) - 1

    def mask(self, attribute: str) -> int:
        try:
            return self._masks[attribute]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownAttribute(f"no attribute {_repr(attribute)}") from None

    def names(self, mask: int) -> frozenset[str]:
        """The universe elements whose bits are set in mask.

        The set of a value of this soft set is built on first request and
        kept, so later calls with that int return the same object; the set
        of any other mask, or of a bool, is built afresh each time and not
        kept.  A mask below 0 or above full_mask, or one that is no int,
        raises InvalidValue.
        """
        try:
            kept = self._names  # distinct value mask -> its set, or None until built
        except AttributeError:  # first request: neither __init__ nor _new pays
            kept = self._names = dict.fromkeys(self._masks.values())
        exact = type(mask) is int  # 1.0 or True would hash as the kept mask 1
        found = kept.get(mask) if exact else None
        if found is None:  # only a miss pays for the range check
            if not (isinstance(mask, int) and 0 <= mask <= self.full_mask):
                raise InvalidValue(f"mask {_repr(mask)} is outside 0..{_repr(self.full_mask)}")
            # copying a set sizes the table once, often half what growing it leaves
            found = frozenset(set(compress(self._universe, _column(mask, len(self._universe)))))
            if exact and mask in kept:  # racing threads each keep an equal set, so no lock
                kept[mask] = found
        return found

    @property
    def universe(self) -> tuple[str, ...]:
        return self._universe

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def values(self) -> dict[str, frozenset[str]]:
        """Value map as a fresh dict, keyed in attribute order."""
        return {a: self.names(mask) for a, mask in self._masks.items()}

    def value(self, attribute: str) -> frozenset[str]:
        return self.names(self.mask(attribute))

    def tau(self) -> frozenset[frozenset[str]]:
        """The deduplicated family of all value subsets, empty set included."""
        return frozenset(map(self.names, set(self._masks.values())))

    def to_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Row tuples of int 0/1: rows follow universe order, columns attribute order."""
        m = len(self._universe)
        columns = [_column(mask, m) for mask in self._masks.values()]
        return tuple(zip(*columns)) if columns else ((),) * m

    @classmethod
    def from_matrix(cls, universe: Sequence[str], attributes: Sequence[str],
                    rows: Iterable[Iterable[int]]) -> "SoftSet":
        """Inverse of to_matrix for matching universe/attribute orders.

        Entries must be the ints 0 and 1; bool and float are refused.  A bad
        name or name container outranks a bad entry anywhere, which
        outranks ragged rows, which outrank the width, which outranks the
        row count.
        """
        universe = _name_tuple(universe, "universe")
        attributes = _name_tuple(attributes, "attributes")
        n = len(attributes)
        try:
            rows = [tuple(row) for row in rows]
        except TypeError as exc:
            raise SoftSetError(f"matrix must be an iterable of row iterables: {exc}") from None
        try:  # C passes: bytes refuse non-integers and ints past 0..255, then types
            flat = b"".join(map(bytes, rows))
            ints = countOf(map(type, chain.from_iterable(rows)), int)
            bad = flat.translate(None, b"\0\1") or ints != len(flat)
        except (TypeError, ValueError):
            bad = True
        if bad:  # report the first bad entry in row-major order
            cells = chain.from_iterable(rows)
            entry = next(e for e in cells if type(e) is not int or e not in (0, 1))
            raise SoftSetError(f"matrix entries must be 0 or 1, got {_repr(entry)}")
        width = len(rows[0]) if rows else n
        for row in rows:
            if len(row) != width:
                raise DimensionMismatch(f"ragged matrix: row widths {len(row)} and {width}")
        if width != n:
            raise DimensionMismatch(f"declared {n} columns, rows carry {width}")
        if len(rows) != len(universe):
            raise DimensionMismatch(f"matrix is {len(rows)}x{n}, expected {len(universe)}x{n}")
        check_names(universe, attributes)
        text = flat.translate(_TO_TEXT)  # row-major, so column j is every n-th byte from j
        return cls._new(universe, attributes, [int(text[j::n][::-1] or b"0", 2) for j in range(n)])

    def canonicalize(self) -> "SoftSet":
        """Reorder attributes into nondecreasing lexicographic column order.

        Ties break on the attribute name.  Universe order and the value
        map are untouched, so tau is preserved exactly; two soft sets
        with equal column multisets canonicalize to equal matrices.
        Columns compare as their 0/1 bytes read from row 0 down.
        """
        m = len(self._universe)
        masks = self._masks
        order = sorted(masks, key=lambda a: (_column(masks[a], m), a))
        return self._new(self._universe, tuple(order), map(masks.__getitem__, order))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SoftSet):
            return NotImplemented
        return (
            self._universe == other._universe
            and self._attributes == other._attributes
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self._universe, self._attributes, tuple(self._masks.values())))

    def __repr__(self) -> str:
        doc = soft_set_to_document(self)
        return f"SoftSet(universe={doc['universe']!r}, values={doc['values']!r})"


def _require_same_universe(s: SoftSet, f: SoftSet) -> None:
    """Binary operations align rows positionally, so order matters too."""
    if s.universe != f.universe:
        raise UniverseMismatch(
            f"universes differ: {list(s.universe)!r} vs {list(f.universe)!r}"
        )


def soft_set_to_document(s: SoftSet) -> dict:
    """JSON-ready document; value subsets are listed in universe order."""
    universe = s.universe
    m = len(universe)
    return {
        "universe": list(universe),
        "attributes": list(s.attributes),
        "values": {
            a: list(compress(universe, _column(mask, m))) for a, mask in s._masks.items()
        },
    }


def soft_set_from_document(doc: object) -> SoftSet:
    """The soft set of a parsed JSON document: an object with the three keys,
    whose names and values the constructor checks, as any others."""
    if not isinstance(doc, dict):
        raise SoftSetError("soft set document must be a JSON object")
    missing = {"universe", "attributes", "values"} - set(doc)
    if missing:
        raise SoftSetError(f"soft set document lacks keys {sorted(missing)!r}")
    return SoftSet(doc["universe"], doc["attributes"], doc["values"])
