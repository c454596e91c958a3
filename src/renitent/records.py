"""Plain record classes for the package's reports and instances.

A record subclass lists its fields, in order, as ``__slots__`` and
stores them in a hand-written ``__init__``.  The base gives it what
``@dataclass`` would: ``==`` between two records of the same class
compares the fields as one tuple, and the repr is
``Name(field=value, ...)``.  A `Record` is unhashable, as a dataclass
with ``eq=True`` is; a `FrozenRecord` hashes its field tuple, as a
frozen dataclass does.  Neither checks assignment: records are built
once and then only read.
"""


class Record:
    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())
