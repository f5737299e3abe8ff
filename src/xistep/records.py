"""Frozen value records, built without `dataclasses`: its import pulls in
`inspect`, `ast` and `dis`, and its decorator compiles six methods per
class, which together made up half of the package's import time.

A record subclasses `Record`, names its `__init__` arguments in order in
`_fields`, and writes its own `__init__`, which checks them and sets each
field once with `set_field`. ==, != and hash take every field, and repr
takes `_shown`, which defaults to `_fields`. What else an instance keeps,
such as a cache, is neither compared nor shown, and `replace` does not
carry it over."""

from operator import attrgetter

# `object.__setattr__`, looked up once: with it an `__init__` builds a
# record faster than a frozen dataclass's generated one. A store into
# `self.__dict__` would be faster still, but a materialized `__dict__`
# makes every later attribute read several times slower.
set_field = object.__setattr__


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


class Record:
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._shown = cls.__dict__.get("_shown", cls._fields)
        key = attrgetter(*cls._fields)
        if len(cls._fields) == 1:   # attrgetter of one name: no tuple
            key = lambda record, one=key: (one(record),)
        cls._key = staticmethod(key)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def replace(record, **changes):
    """A record of the same class whose `__init__` takes `record`'s fields
    with `changes` applied, so it is checked again and starts with empty
    caches. A name that is not an `__init__` argument is refused."""
    cls = record.__class__
    for name in changes:
        if name not in cls._fields:
            raise ValueError(f"field {name} is not an argument of "
                             f"{cls.__name__}(), so replace cannot set it")
    args = {name: getattr(record, name) for name in cls._fields}
    args.update(changes)
    return cls(**args)
