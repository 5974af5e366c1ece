"""``Value``, the base of the package's immutable value objects.

A subclass's fields are its own annotations, in order; a class attribute of
the same name is the default.  An instance equals only an instance of its
own class with equal fields, hashes as its field tuple, prints as
``Name(field=value, ...)``, refuses assignment and gives changed copies by
``replace``.  ``__init__`` sets the fields by ``object.__setattr__`` (never
through ``__dict__``, which would slow every later attribute read), then
calls ``__post_init__``, where subclasses validate.

>>> class Point(Value):
...     x: int
...     y: int = 0
>>> Point(1), Point(1).replace(y=2) == Point(1, 2), hash(Point(1, 2)) == hash((1, 2))
(Point(x=1, y=0), True, True)
"""

from itertools import repeat
from operator import attrgetter, is_

_set = object.__setattr__
_MISSING = object()  # the default of a field that has none


class Value:
    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = tuple(cls.__dict__.get(n, _MISSING) for n in names)
        get = attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            given = len(args)
            args = (*args, *map(kwargs.pop, names[given:], self._defaults[given:]))
            if kwargs or len(args) != len(names) or any(map(is_, args, repeat(_MISSING))):
                missing = [n for n, value in zip(names, args) if value is _MISSING]
                raise TypeError(f"{type(self).__name__}({', '.join(names)}): {given} positional, "
                                f"unknown or repeated {sorted(kwargs)}, missing {missing}")
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated by ``__post_init__`` again."""
        return self.__class__(**dict(zip(self._fields, self._values(self)), **changes))
