"""Frozen value records without generated code.

A subclass of Record declares its fields as class annotations, in order,
with an optional class-level default each, as a frozen dataclass does:

    class Decision(Record):
        implement: bool
        scale: int
        alpha_used: Optional[float] = None

The fields are read once, when the class is defined, and every record
shares the methods below: an ``__init__`` that binds positional and
keyword arguments and then calls ``__post_init__``, a ``__repr__`` of the
form ``Name(field=value, ...)``, ``__eq__`` between records of one class,
``__hash__`` of the field values, and assignment and deletion that raise
FrozenRecordError. ``__post_init__`` may normalise a field with
``object.__setattr__``, and ``functools.cached_property`` works, because
each record keeps its fields in its own ``__dict__``.

Nothing is compiled per class, which is what a dataclass decorator costs
at import; every command of the CLI pays that import.
"""

from __future__ import annotations

__all__ = ["Record", "FrozenRecordError", "asdict"]

_REQUIRED = object()


class FrozenRecordError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


class Record:
    """Base class of the package's frozen value types."""

    # field name -> default, or _REQUIRED, in declaration order
    _defaults: dict = {}
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        defaults = dict(cls._defaults)
        for name in cls.__dict__.get("__annotations__", {}):
            defaults[name] = cls.__dict__.get(name, _REQUIRED)
        defaulted = False
        for name, default in defaults.items():
            if default is _REQUIRED and defaulted:
                raise TypeError(f"non-default argument {name!r} follows "
                                f"default argument")
            defaulted = defaulted or default is not _REQUIRED
        cls._defaults = defaults
        cls._fields = tuple(defaults)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(cls._fields)} "
                            f"arguments but {len(args)} were given")
        given = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name in given:
                raise TypeError(f"{cls.__qualname__}() got multiple values "
                                f"for argument {name!r}")
            if name not in cls._defaults:
                raise TypeError(f"{cls.__qualname__}() got an unexpected "
                                f"keyword argument {name!r}")
            given[name] = value
        values = {name: given.get(name, default)
                  for name, default in cls._defaults.items()}
        missing = [name for name, value in values.items() if value is _REQUIRED]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required "
                            f"argument(s): {', '.join(map(repr, missing))}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")


def asdict(record: Record) -> dict:
    """The record's fields as a dict, with nested records turned into
    dicts inside lists, tuples and dicts too. Other values are shared,
    not copied."""
    return {name: _plain(getattr(record, name)) for name in record._fields}


def _plain(value):
    if isinstance(value, Record):
        return asdict(value)
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    if isinstance(value, dict):
        return type(value)((_plain(key), _plain(item))
                           for key, item in value.items())
    return value
