"""Orientable surfaces of finite type, the base objects of the library."""

from __future__ import annotations

import operator
from dataclasses import dataclass


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
            value = getattr(self, name)
            if not isinstance(value, bool):
                try:
                    object.__setattr__(self, name, operator.index(value))
                    continue
                except TypeError:
                    pass
            raise UnsupportedSurfaceError(f"{name} must be an integer, got {value!r}")
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
