"""Immutable value records, the base of the package's public value types.

A record's fields are the public names in its ``__slots__``; a slot whose
name starts with ``_`` holds state derived from the fields.  Each slot ``x``
gets a class attribute ``_set_x``, its member descriptor's ``__set__``, bound
once when the class is made; ``__init__`` writes each slot once by calling
``self._set_x(self, value)``, which skips the per-call name lookup of
``object.__setattr__``.  Afterwards assigning or deleting an attribute raises
``AttributeError``.  Records compare and hash by type and fields, print as
``Name(field=value, ...)``, and pickle and copy by calling the constructor
with their fields in slot order.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in slots if not name.startswith("_"))
        for name in slots:
            setattr(cls, f"_set_{name}", cls.__dict__[name].__set__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())
