"""Immutable value classes, built without ``dataclasses``.

A subclass of ``Value`` annotates its fields in order, gives a default as a
class attribute, and is constructed with the fields positionally or by
keyword.  A class that validates its fields overrides ``__post_init__``,
which the constructor looks up on each call, so a wrapper put on the class
sees every construction.  Instances keep a ``__dict__``, so
``functools.cached_property`` works on them, but refuse assignment and
deletion.  Two instances are equal when they are of the same class and their
compared fields are equal, and the hash is that of the tuple of compared
fields.  The compared fields are the annotated ones unless the class names
fewer in ``_compared``.  No method is compiled from source, so creating a
class, and with it importing the package, stays cheap.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        attrs = vars(cls)
        cls._fields = tuple(attrs.get("__annotations__", ()))
        cls._defaults = {name: attrs[name] for name in cls._fields if name in attrs}
        names = attrs.get("_compared", cls._fields)
        get = attrgetter(*names)
        cls._key = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args), **kwargs)
            values = {**self._defaults, **given}
            if len(given) != len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(
                    f"{type(self).__name__}() takes the fields {fields}, with defaults for "
                    f"{tuple(self._defaults)}; got {len(args)} positional and {tuple(kwargs)}"
                )
            args = [values[name] for name in fields]
        # object.__setattr__ keeps CPython's compact per-instance attribute
        # storage; filling vars(self) instead builds a dict and slows every
        # later read of a field
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
