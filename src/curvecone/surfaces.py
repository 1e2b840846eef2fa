"""Orientable surfaces of finite type, the base objects of the library, and
the rules for input from outside: what is an integer (:func:`as_integer`) or
a real number (:func:`as_real`), the one JSON reader (:func:`read_payload`)
and the one payload envelope check (:func:`payload_fields`).  The base of
the library's immutable records, :class:`Record`, lives here too."""

from __future__ import annotations

import json
import operator
from functools import total_ordering
from numbers import Real


def as_integer(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an ``int`` if it has an integer type, numpy's too; a
    bool, a float, a string or ``None`` raises ``error``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def as_real(value, name: str) -> float:
    """``value`` as a ``float`` if it is a real number in the float range,
    numpy's too; a bool, a string, ``None`` or a ``Decimal`` raises ``ValueError``."""
    # float and int first: every coordinate comes through here.
    if type(value) is not bool and isinstance(value, (float, int, Real)):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{name} exceeds the float range") from None
    raise ValueError(f"{name} must be a real number, got {value!r}")


def read_payload(data: bytes | str, what: str):
    """Decode a ``what`` file's JSON, text or bytes (decoded whatever the
    locale); malformed, undecodable or too deep input raises ``ValueError``
    naming ``what``."""
    try:
        return json.loads(data)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None


def payload_fields(payload, schema: str, keys, what: str) -> list:
    """The values of ``keys`` in a ``what`` payload, an object with
    ``schema_version`` ``schema``; any other payload raises ``ValueError``."""
    if not isinstance(payload, dict):
        raise ValueError(f"a {what} must be an object, got {type(payload).__name__}")
    if payload.get("schema_version") != schema:
        raise ValueError(f"unsupported {what} schema {payload.get('schema_version')!r}")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{what} payload lacks {key!r}")
    return [payload[key] for key in keys]


class Record:
    """An immutable record.  A subclass lists its fields in ``__slots__``
    and gets an ``__init__`` taking them in order, by position or keyword,
    unless it writes one that checks or converts them.  No field can be
    set or deleted afterwards; copies and pickles go through ``__init__``.
    Two records of one class are equal, hash alike and print alike by
    their ``_fields``, which are the slots unless the subclass names fewer."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        slots = cls._slots = tuple(name for name in cls.__slots__ if name != "__dict__")
        if "_fields" not in cls.__dict__:
            cls._fields = slots
        if "__init__" not in cls.__dict__:
            cls.__init__ = _field_constructor(cls.__name__, slots)

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self._slots))

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _field_constructor(name: str, slots: tuple[str, ...]):
    """An ``__init__`` storing ``slots``, compiled from source so that it
    runs the bytecode a hand-written one would: a loop over the slots
    makes a hot record such as ``Transit`` about three times slower."""
    body = "".join(f"\n    _set(self, {slot!r}, {slot})" for slot in slots) or "\n    pass"
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(slots)}):{body}", namespace)
    namespace["__init__"].__qualname__ = f"{name}.__init__"
    return namespace["__init__"]


class UnsupportedSurfaceError(ValueError):
    """The surface carries no essential curve system (complexity < 1), or
    its genus or marked point count is not an integer."""


@total_ordering
class Surface(Record):
    """A closed orientable surface with unlabeled marked points.

    Only surfaces with ``complexity = 3*genus - 3 + marked_points >= 1``
    are accepted; the handful of lower-complexity surfaces carry no
    pants decomposition and are out of scope.  Both fields must be
    integers; integer types such as numpy's are stored as ``int``, and a
    bool, float, string or ``None`` raises ``UnsupportedSurfaceError``.

    Examples::

        >>> Surface(1, 2).complexity
        2
        >>> Surface(2, 0).curve_complex_dim
        2
    """

    __slots__ = ("genus", "marked_points")

    def __init__(self, genus: int, marked_points: int):
        genus = as_integer(genus, "genus", UnsupportedSurfaceError)
        marked_points = as_integer(marked_points, "marked_points", UnsupportedSurfaceError)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "marked_points", marked_points)
        if self.genus < 0 or self.marked_points < 0:
            raise UnsupportedSurfaceError(
                f"genus and marked point count must be nonnegative, "
                f"got ({self.genus}, {self.marked_points})"
            )
        if self.complexity < 1:
            raise UnsupportedSurfaceError(
                f"surface ({self.genus}, {self.marked_points}) has complexity "
                f"{self.complexity} < 1; no essential curve systems"
            )

    def __lt__(self, other):
        if other.__class__ is not Surface:
            return NotImplemented
        return self._values() < other._values()

    @property
    def complexity(self) -> int:
        """Number of curves in a pants decomposition: 3g - 3 + n."""
        return 3 * self.genus - 3 + self.marked_points

    @property
    def curve_complex_dim(self) -> int:
        """Dimension of the curve-system complex: complexity - 1."""
        return self.complexity - 1

    def __str__(self) -> str:
        return f"S_{{{self.genus},{self.marked_points}}}"
