"""Plain record classes for the package's reports and instances.

A record subclass lists its fields, in order, as ``__slots__`` and
nothing else.  The base gives it what ``@dataclass`` would: an
``__init__`` taking the fields in slot order, positionally or by
keyword; ``==`` between two records of the same class compares the
fields as one tuple; and the repr is ``Name(field=value, ...)``.  A
`Record` is unhashable, as a dataclass with ``eq=True`` is; a
`FrozenRecord` hashes its field tuple, as a frozen dataclass does.
Neither checks assignment: records are built once and then only read.

The ``__init__`` is compiled on the first construction of each class,
not when the class is made, so importing the package compiles nothing.
It is stored on the class, and every later record of that class runs
it directly: one ``self.field = field`` per slot, as a hand-written
one would.  A class that others inherit from, such as `Record`
itself, keeps the generic one, so no subclass inherits another
class's fields.  A class that needs a default writes its own
``__init__``.
"""


def _compile_init(cls):
    """``def __init__(self, a, b): self.a = a; self.b = b`` for slots a, b."""
    names = cls.__slots__
    body = "".join(f"\n    self.{name} = {name}" for name in names) or "\n    pass"
    namespace = {}
    exec(f"def __init__(self, {', '.join(names)}):{body}\n", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    __slots__ = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        init = _compile_init(cls)
        if not cls.__subclasses__():   # a base keeps this one for its subclasses
            cls.__init__ = init
        init(self, *args, **kwargs)

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
