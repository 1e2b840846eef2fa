"""Orientable surfaces of finite type, the base objects of the library, and
the rules for input from outside: what is an integer (:func:`as_integer`) or
a real number (:func:`as_real`), the one JSON reader (:func:`read_payload`)
and the one payload envelope check (:func:`payload_fields`)."""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
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


def read_payload(text: str, what: str):
    """Decode a ``what`` file's JSON; malformed or too deep text raises ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply") from None


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


class UnsupportedSurfaceError(ValueError):
    """The surface carries no essential curve system (complexity < 1), or
    its genus or marked point count is not an integer."""


@dataclass(frozen=True, order=True)
class Surface:
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

    genus: int
    marked_points: int

    def __post_init__(self):
        for name in ("genus", "marked_points"):
            value = as_integer(getattr(self, name), name, UnsupportedSurfaceError)
            object.__setattr__(self, name, value)
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
