"""The base of the package's immutable record types.

A record is a plain class with `__slots__` and its own `__init__`, which
checks its arguments and sets each field once through `setfield`. The base
gives every record the rest: equality only with a record of the same class,
a hash consistent with it, the repr `Name(field=value, ...)`, and an
AttributeError when a field is assigned or deleted. Records are written out
by hand rather than generated by the standard library's decorator, whose
import and per-class code generation cost about a millisecond per class at
start-up.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__  # how an __init__ sets a field past `Record.__setattr__`


class Record:
    __slots__ = ()
    # A class that leaves a field out of equality and the hash, or out of
    # repr, lists the fields that count in `_compared` or `_shown`; by
    # default every slot counts in both.
    _compared: tuple[str, ...]
    _shown: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._shown = cls.__dict__.get("_shown", cls.__slots__)
        cls._key = staticmethod(attrgetter(*cls.__dict__.get("_compared", cls.__slots__)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return other is self or self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
