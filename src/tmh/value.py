"""The base of the frozen value types of tmh.

A subclass lists its slots.  Its fields, the slots without a leading
underscore (at least two), make up equality, the hash, the repr and the
constructor arguments that copy and pickle rebuild from; a slot with one,
such as a cache, is outside all four.  A type without an ``__init__`` of
its own gets one built for it, once, that takes exactly the fields,
positionally, in slot order, and writes one slot per field.  A type that
checks its input or derives slots has its own ``__init__`` and sets its
slots through ``object.__setattr__``.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._values = attrgetter(*cls._fields)
        if "__init__" not in vars(cls):
            namespace = {"setattr": object.__setattr__}
            exec(f"def __init__(self, {', '.join(cls._fields)}, /):"
                 + "".join(f"\n setattr(self, {name!r}, {name})" for name in cls._fields),
                 namespace)
            init = cls.__init__ = namespace["__init__"]
            init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError  # imported on this error path only
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
