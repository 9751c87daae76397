"""The immutable value-type base: what this package used of frozen dataclasses.

A subclass lists its fields as annotated names in its class body; a class
attribute of the same name is a default, and the class keyword
``uncompared`` leaves fields out of ``==`` and ``hash``.  The annotations
are read as names, never evaluated, so nothing is imported: ``dataclasses``
pulled ``inspect`` and a dozen more modules into every process and compiled
six methods per class at import.  Fields are written with `set_field`, not
through ``self.__dict__``, which would give the instance a real dict and
slow every later attribute read of it (``p.x`` 2.6x on CPython 3.11); the
``__dict__`` is still there for ``cached_property``, pickle and copy.
"""

set_field = object.__setattr__


class Frozen:
    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._compared = tuple(f for f in cls._fields if f not in uncompared)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **kwargs}
        values.update(zip(fields, args))
        if (len(args) > len(fields) or kwargs.keys() & fields[:len(args)]
                or values.keys() != set(fields)):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}; "
                            f"got {len(args)} positional and the keywords {sorted(kwargs)}")
        for f in fields:
            set_field(self, f, values[f])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
