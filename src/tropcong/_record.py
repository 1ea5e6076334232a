"""Base class of tropcong's immutable records.

A record class names its compared fields in ``_fields`` and writes out its
own ``__init__``: one ``object.__setattr__`` per field, then its checks.
This base supplies the rest, with the semantics of a frozen dataclass:
``==`` within one class only (``NotImplemented`` against any other class, a
subclass included), a hash equal to the hash of the tuple of compared
fields, the ``Name(field=value, ...)`` repr, and ``AttributeError`` on any
assignment or deletion.  The hash is computed on first use and kept in
``_hash``, set with ``object.__setattr__`` and left out of ``_fields``, which
keeps it out of ``==`` and the repr: cache and dict lookups hash one record
many times and each hash of a ``Fraction`` field costs a modular inverse.
(The kept hash is only valid in the process that computed it: ``str`` hashes
are seeded per process, so a record must not be pickled with it.)  A record
holds no other state: results computed from one are cached by the functions
that compute them, keyed on the record.

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

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
