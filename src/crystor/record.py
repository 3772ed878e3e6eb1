"""The immutable record base of crystor's value classes.

A record lists its constructor fields, in order, in ``_fields`` and
writes them in an explicit ``__init__`` with ``set_field``, then calls
``__post_init__`` for validation and derived attributes where it has
one.  The base gives what ``@dataclass(frozen=True)`` would, without
generating code when a class is defined:

- equality between records of the same class only, on ``_fields``,
  and a hash of the same fields; no subclass overrides either, so
  every value class compares and hashes by this one rule;
- the repr ``Name(field=value, ...)`` over ``_fields``;
- no ordering;
- plain assignment and deletion raise AttributeError, while
  ``set_field`` (``object.__setattr__``) still writes;
- ``replace(**changes)``, a new record through the constructor, which
  is also how copy and pickle rebuild one.

>>> class Point(Record):
...     __slots__ = _fields = ("x", "y")
...     def __init__(self, x, y=0):
...         set_field(self, "x", x)
...         set_field(self, "y", y)
>>> Point(1, y=2)
Point(x=1, y=2)
>>> Point(1) == Point(1, 0), Point(1).replace(y=5)
(True, Point(x=1, y=5))
>>> Point(1).x = 3
Traceback (most recent call last):
    ...
AttributeError: cannot assign to field 'x'
"""

from operator import attrgetter

# writes a field past the frozen __setattr__, as __init__ and
# __post_init__ do
set_field = object.__setattr__


class Record:
    """Base class of frozen records; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def replace(self, **changes):
        """A copy with the given fields changed, built and validated by
        the constructor."""
        values = {f: getattr(self, f) for f in self._fields}
        values.update(changes)
        return self.__class__(**values)
