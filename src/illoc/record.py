"""The base of the package's immutable record types.

A record is a plain class with `__slots__`. The base gives every record the
rest: equality only with a record of the same class, a hash consistent with
it, the repr `Name(field=value, ...)`, an AttributeError when a field is
assigned or deleted, a constructor, and copying and pickling through that
constructor. Records are written out by hand rather than generated by the
standard library's decorator, whose import and per-class code generation cost
about a millisecond per class at start-up.

The base constructor takes the fields by position in `__slots__` order or by
name. A field left out takes its value from the class's `_defaults`, and a
missing, extra, repeated or unknown field raises TypeError. Two groups of
records define their own `__init__`:
- the records that check or normalise their input, which set each field
  by name through `setfield`: `AlgebraSpec`, `Element`, `HyperValue`,
  `CheckSpace` and `ForceDecl`;
- the records built once per formula node or per scan witness, where the
  base constructor's argument handling would add to the cost of every node
  the parser and `substitute` build and of every check: the seven formula
  nodes and `MBValuation`, which also checks its input. Each calls its
  slots' `__set__` from `_setters` (a node's bound to module names once
  after the class), since `setfield` by name looks the slot up on the class
  at every call. A scan's witness is an `MBValuation` set through `_setters`
  without the checks, which its slots' domains already passed.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Mapping

setfield = object.__setattr__  # how an __init__ sets a field past `Record.__setattr__`


class Record:
    __slots__ = ()
    # A class that leaves a field out of equality and the hash, or out of
    # repr, lists the fields that count in `_compared` or `_shown`; by
    # default every slot counts in both.
    _compared: tuple[str, ...]
    _shown: tuple[str, ...]
    _defaults: Mapping[str, object] = {}  # field -> value when the constructor leaves it out
    _setters: tuple[Callable[[Record, object], None], ...]  # one per slot, in order

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._shown = cls.__dict__.get("_shown", cls.__slots__)
        cls._key = staticmethod(attrgetter(*cls.__dict__.get("_compared", cls.__slots__)))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args: object, **named: object) -> None:
        setters = self._setters
        if len(args) == len(setters) and not named:
            for i, set_field in enumerate(setters):
                set_field(self, args[i])
            return
        fields, record = self.__slots__, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{record}() takes {len(fields)} fields but {len(args)} were given")
        given = dict(zip(fields, args))
        for name in named:
            if name not in fields:
                raise TypeError(f"{record}() has no field {name!r}")
            if name in given:
                raise TypeError(f"{record}() got field {name!r} by position and by name")
        given.update(named)
        missing = [name for name in fields if name not in given and name not in self._defaults]
        if missing:
            raise TypeError(f"{record}() is missing field(s) {', '.join(map(repr, missing))}")
        for name, set_field in zip(fields, setters):
            set_field(self, given[name] if name in given else self._defaults[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return other is self or self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a record through its constructor, which
        # every record gives its fields by position in `__slots__` order
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
