"""Value classes: ``__slots__`` classes compared, hashed and shown by their fields.

A value class names its ``__init__`` parameters, in order, in ``_fields`` and
keeps them in ``__slots__``, beside any slot it derives from them. Values are
not frozen, but the library changes none once built, apart from filling in a
``ValidationReport`` or the CLI's config: ``replace`` builds a changed copy.
This module imports only ``typing``, so that every layer can build on it.
"""

from __future__ import annotations

from typing import Any, TypeVar

V = TypeVar("V", bound="Value")


class Value:
    """Equal to a value of its own class with equal ``_fields``, and hashed and
    shown by them. A mutable subclass sets ``__hash__ = None``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


def replace(obj: V, **changes: Any) -> V:
    """``obj`` with ``changes``, built through its ``__init__``, which derives the rest again.

    Raises:
        ValueError: a change names no ``__init__`` field, a derived one among them.
    """
    unknown = changes.keys() - obj._fields
    if unknown:
        raise ValueError(f"{type(obj).__name__} has no __init__ field {min(unknown)!r}; "
                         "replace derives the rest again")
    return type(obj)(**{name: getattr(obj, name) for name in obj._fields} | changes)
