"""The base of the package's immutable value classes.

A value class lists its fields in ``_fields`` and keeps them in
``__slots__``, with any hidden state after them.  The base writes its
``__init__`` from ``_fields``, taking the fields by position or by name,
unless the class writes its own: one that converts, checks or defaults a
field, or sets hidden state, takes the fields in the same order and under
the same names, and stores each with ``store``, since assigning to an
attribute raises.  The base also gives it, from the fields alone:

- equality with an instance of the same class whose fields are equal, so
  ``Var("x") != Const("x")``, and a hash that agrees;
- a ``repr`` such as ``Var(name='x')``;
- pickling and ``copy`` as a call of the class on the fields, so hidden
  state is left out and rebuilt by ``__init__``.

Nothing here is public API: ``dataclasses.replace`` and ``fields`` do not
apply to these classes; call the class on new field values instead.
"""

from __future__ import annotations

from operator import attrgetter

# sets a field from ``__init__``, past ``Value.__setattr__``
store = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            # the field itself for one field, else the tuple of them
            cls._key = attrgetter(*cls._fields)
        if "_fields" in cls.__dict__ and "__init__" not in cls.__dict__:
            # compiled once per class, as ``namedtuple`` does, so that it
            # runs as fast as the same constructor written out by hand
            params = ", ".join(cls._fields)
            body = "".join(f"\n    store(self, {name!r}, {name})"
                           for name in cls._fields)
            namespace = {"store": store, "__name__": cls.__module__}
            exec(f"def __init__(self, {params}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash((self.__class__, self._key(self)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
