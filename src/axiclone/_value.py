"""Frozen value classes, written out instead of generated.

Generating the methods of a class at import time loads ``inspect`` and runs
``exec`` per class, which on a cold CLI call cost more than the math.  A
value class here names its fields once, in ``keys``, declares them as
``__slots__``, and sets them in its own short ``__init__`` through
``object.__setattr__``, after any checks.  The base writes the rest once
from ``keys``: a type-strict ``__eq__``, a ``__hash__`` of the key values, a
``Name(key=value, ...)`` repr, assignment and deletion that raise
``AttributeError``, and ``with_``, which builds a copy with some keys
changed and validates it again.
"""

__all__ = ["Value"]


def _restore(cls, values):
    """Unpickle an instance as it was, without running ``__init__`` again."""
    obj = object.__new__(cls)
    for key, value in zip(cls.keys, values):
        object.__setattr__(obj, key, value)
    return obj


class Value:
    """Base of the immutable value classes; see the module docstring."""

    __slots__ = ()
    keys = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, key) for key in self.keys])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{key}={getattr(self, key)!r}"
                            for key in self.keys])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a table is renormalised once; a copy or pickle keeps its values
        return _restore, (self.__class__, self._values())

    def with_(self, **values):
        """A copy with ``values`` replacing some keys, validated again."""
        for key in self.keys:
            if key not in values:
                values[key] = getattr(self, key)
        return self.__class__(**values)
