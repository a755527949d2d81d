"""Frozen records: small immutable value types.

A subclass of Record lists its fields as class annotations.  It gets
``__slots__`` and one generated ``__init__`` (positional or keyword
arguments, then ``__post_init__`` when the class defines one); assignment
and deletion raise, equality is by exact type and fields, the hash agrees
with it, and the repr reads ``Impossible(L=5, R=4)``.  The standard
library's frozen-record decorator would import ``inspect`` and compile
several methods per class as each module loads, a cost every short CLI call
pays before doing any work.
"""


class _RecordType(type):
    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace.update(__slots__=fields, _fields=fields)
        cls = super().__new__(mcls, name, bases, namespace)
        if fields:
            lines = [f"def __init__(self, {', '.join(fields)}):"]
            lines += [f"    _set(self, {f!r}, {f})" for f in fields]
            if hasattr(cls, "__post_init__"):
                lines.append("    self.__post_init__()")
            scope = {"_set": object.__setattr__}
            exec("\n".join(lines), scope)
            cls.__init__ = scope["__init__"]
        return cls


class Record(metaclass=_RecordType):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def _asdict(self) -> dict:
        return {f: getattr(self, f) for f in self._fields}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._astuple()
