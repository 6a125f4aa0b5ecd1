"""Immutable value records: the package's one base for plain data types.

A subclass names its fields, in order, as class annotations, which the
metaclass makes its ``__slots__``; a module that defines records starts
with ``from __future__ import annotations``, which keeps the body's
annotations a plain dict.  A record builds by position or keyword, runs
``__post_init__`` when the class defines one, and refuses assignment and
deletion with ``AttributeError``; ``__post_init__`` may normalise a field
with ``object.__setattr__``.  Two records are equal when they have the
same type and equal fields; nested records are compared from an explicit
stack, so a 3000-deep expression compares without recursion.  The hash
covers the type and the fields, with each nested record replaced by its
type, so equal records hash equal and no hash recurses.  The repr is
``Name(field=value, ...)``, with nested records rendered from an
explicit stack as well.
"""

from __future__ import annotations

_set_field = object.__setattr__


class _Fields(type):
    """Sets each record class's ``__slots__`` to the names its body annotates."""

    def __new__(mcls, name, bases, namespace):
        namespace["__slots__"] = tuple(namespace.get("__annotations__", ()))
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_Fields):
    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)})")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            _set_field(self, name, value)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            for name in a.__slots__:
                x, y = getattr(a, name), getattr(b, name)
                if x is y:
                    continue
                if isinstance(x, Record) and type(y) is type(x):
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        fields = (getattr(self, name) for name in self.__slots__)
        return hash((type(self), *(type(v) if isinstance(v, Record) else v for v in fields)))

    def __repr__(self):
        # Stack items are text already rendered or records still to render.
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, Record):
                out.append(item)
                continue
            parts = [f"{type(item).__qualname__}("]
            for k, name in enumerate(item.__slots__):
                value = getattr(item, name)
                nested = isinstance(value, Record) and type(value).__repr__ is Record.__repr__
                parts += [f", {name}=" if k else f"{name}=", value if nested else repr(value)]
            stack += reversed(parts + [")"])
        return "".join(out)
