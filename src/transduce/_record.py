"""The base of the package's frozen value types.

Each type stores its fields from its own ``__init__`` with one
``self.__dict__.update(...)``.  Its fields, ``_fields``, are the positional
parameters of that ``__init__`` in order, then the ones it derives
(``_computed``), so a record declares each field once, in its constructor.
Repr, ``==`` and the hash follow ``_fields`` as a frozen dataclass's do, but
nothing is generated with ``exec`` at import time, and neither the
decorator's module nor ``inspect`` is imported.  A mapping field is stored
as a ``FrozenDict``, so editing it, or the dict it was built from, cannot
change the record.
"""

from operator import attrgetter


class Record:
    """Frozen value: assignment and deletion raise, ``replace`` rebuilds."""

    _fields: tuple[str, ...] = ()       # repr, ==, hash: in this order
    _computed: tuple[str, ...] = ()     # fields __init__ derives, not takes

    def __init_subclass__(cls):
        # The names of __init__'s positional parameters, after self.
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount] + cls._computed
        # The field values as one tuple, also for a single field.
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with ``changes``, built by ``__init__``, so its checks run
        again; a name ``__init__`` does not take raises TypeError."""
        args = {f: getattr(self, f) for f in self._fields if f not in self._computed}
        return type(self)(**{**args, **changes})


class FrozenDict(dict):
    """A dict copy that raises TypeError on any change.

    Repr, ``==`` and order are a dict's, and it stays unhashable, as a dict
    is.  Copies and pickles rebuild it from a plain dict.
    """

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)
