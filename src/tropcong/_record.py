"""Base class of tropcong's immutable records, which every value type is.

A record class names its fields in ``_fields``; this base is its one
constructor and gives it the semantics of a frozen dataclass.  The
constructor binds its arguments as a function whose parameters are
``_fields`` would (by position or keyword, each field exactly once, no
defaults; ``TypeError`` otherwise) and stores each with
``object.__setattr__``.  A class that checks its fields or has default
values defines an ``__init__`` that calls this one; a toric context first
reduces its rays to the extreme rays of its cone, so it is identified by its
cone.  The base also supplies ``==`` within one class only (``True`` at once
for one object, ``NotImplemented`` against any other class, a subclass
included), a hash equal to the hash of the tuple of fields, the
``Name(field=value, ...)`` repr, ``AttributeError`` on any assignment or
deletion, and pickling as a call of the class on the field values.

The hash is computed on first use and kept in ``_hash``, left out of
``_fields``, which keeps it out of ``==``, the repr and pickles: cache and
dict lookups hash one record many times and each hash of a ``Fraction``
field costs a modular inverse, while ``str`` hashes are seeded per process,
so an unpickled record computes its hash afresh.  A record holds no other
state: results computed from one, a context's faces say, are cached by the
functions that compute them, keyed on the record.

``==`` and the hash are closures over an ``operator.attrgetter``, made once
per class: unlike ``dataclasses``, no method source is generated and
compiled at import.
"""

from operator import attrgetter


def _compare(fields):
    """``__eq__`` and ``__hash__`` over the tuple of the named fields."""
    one = attrgetter(*fields)  # of one field, the bare value: wrap it in a 1-tuple
    get = one if len(fields) > 1 else lambda self: (one(self),)

    def __eq__(self, other):
        if other is self:  # polynomials of one context share its object
            return True
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(get(self))
            object.__setattr__(self, "_hash", h)
        return h
    return __eq__, __hash__


class _Record:
    __slots__ = ()
    _hash = None  # until first hashed

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__eq__, cls.__hash__ = _compare(cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        if named:  # the later fields in order; a field not named leaves values short
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
            if named:
                raise TypeError("%s() got an unknown or repeated field: %s" % (
                    type(self).__name__, ", ".join(named)))
        if len(values) != len(fields):
            raise TypeError("%s() takes the fields (%s), each once" % (
                type(self).__name__, ", ".join(fields)))
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
