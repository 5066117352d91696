"""A copy of an immutable value object with some fields changed, for tests.

The value classes derive from ``fields.Frozen`` and list their fields in
``_fields``, in the order their constructors take them.  The one
dataclass left, ``checker.TriangularSystem``, is copied by
``dataclasses.replace``.
"""

import dataclasses


def replace(obj, **changes):
    """A new ``type(obj)`` with obj's fields, ``changes`` taking the place of
    those it names; the constructor's checks run again."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **changes)
    unknown = set(changes) - set(obj._fields)
    if unknown:
        raise TypeError(f"{type(obj).__qualname__} has no field {min(unknown)!r}")
    return type(obj)(*(changes.get(name, getattr(obj, name)) for name in obj._fields))
