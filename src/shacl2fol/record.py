"""Plain value records: the base of the formula and shape trees and of the
package's results.

A record class lists its fields in `__slots__` and assigns them in a
hand-written `__init__`.  `Record` derives the rest from the slots:
`==` compares the fields of two instances of the same class, `hash` is
the hash of the field tuple, and `repr` reads `Name(field=value, ...)`.
A slot whose name starts with an underscore is a cache, not a field: it
is neither compared, hashed nor shown.  Records are immutable by
convention; a class whose instances change after they are built sets
`__hash__ = None`.

The records are plain classes, with no generated methods, because every
command starts a fresh interpreter: importing a record-class library and
generating each class's methods at import cost more than the work of a
small problem.
"""

from operator import attrgetter


def _getter(names: tuple[str, ...]):
    """A function from a record to the tuple of its `names` fields."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._values = staticmethod(_getter(cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
