"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain values: ``Fraction`` over the rationals, ``int`` in
``[0, p)`` over a prime field.  A ``BaseField`` instance supplies the
operations whose meaning depends on which field is intended, so polynomial
code can stay field-agnostic.

This module also owns the two formats the other layers share.

- Integer rows.  Exact values are stored as integers over one positive
  denominator (residues over 1 over F_p), and the kernels of ``dense``
  compute on them.  ``clear_denominators`` reads a list of rationals that
  way, and ``BaseField.settle_row`` turns a row back into canonical
  scalars, for the views that printers and tests read, computed on each
  read.
- Text.  ``BaseField.scalar_str`` renders one scalar and
  ``BaseField.sum_str`` a signed sum of scalar multiples of monomials,
  the form every printer of the package emits.

It also holds ``Frozen``, the base of the package's immutable value
classes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

from .errors import InputError, PreconditionError

Scalar = Union[Fraction, int]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the witness set covers all n < 3.3e24
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def clear_denominators(values) -> tuple[list[int], int]:
    """(nums, den) with values[i] == nums[i] / den, for ints and Fractions;
    den is the lcm of the denominators, 1 for an empty list."""
    den = lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


class Frozen:
    """An immutable value that compares, hashes and prints like a frozen dataclass.

    A subclass lists its fields in ``__slots__``; a name with a leading
    underscore is a cache that ``__init__`` builds (``GroupOrder`` and
    ``valuegroup._Block`` have some), which ``repr`` leaves out.  ``_key``
    holds the tuple of fields that ``==`` and ``hash`` see, in the order
    ``__init__`` takes them, so neither builds a tuple.  Assignment raises,
    so ``__init__`` writes each slot through ``_setters``: the slots' own
    ``__set__`` in ``__slots__`` order, then the one of ``_key``.  A
    subclass with no check and no cache keeps the ``__init__`` here, which
    takes the fields in ``__slots__`` order, the last ones falling back to
    the class's ``_defaults``; one with checks or keywords calls it last.
    Unlike a dataclass, the class generates no code at import.
    """

    __slots__ = ("_key",)
    _defaults: tuple = ()

    def __init__(self, *values):
        missing = len(self.__slots__) - len(values)
        if missing:
            if not 0 < missing <= len(self._defaults):
                raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} fields")
            values += self._defaults[-missing:]
        for set_field, value in zip(self._setters, values):
            set_field(self, value)
        self._setters[-1](self, values)

    def __init_subclass__(cls):
        own = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._setters = own + (Frozen._key.__set__,)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key


class BaseField(Frozen):
    """The rationals when ``p`` is None, else the field with ``p`` elements."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or p >= 1 << 63:
                raise PreconditionError("characteristic must be a machine-word integer")
            if not _is_prime(p):
                raise PreconditionError(f"characteristic {p} is not prime")
        Frozen.__init__(self, p)

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    def coerce(self, value) -> Scalar:
        """Bring an int, Fraction, or decimal/ratio string into canonical form."""
        if isinstance(value, str):
            value = parse_rational(value)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise PreconditionError(f"cannot coerce {value!r} into the base field")
        if self.p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise PreconditionError(
                    f"denominator of {value} vanishes in characteristic {self.p}"
                )
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return value % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.p else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p else a * b

    def neg(self, a: Scalar) -> Scalar:
        return -a % self.p if self.p else -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def pow(self, a: Scalar, k: int) -> Scalar:
        """a ** k for an integer k >= 0, by square-and-multiply."""
        return pow(a, k, self.p) if self.p else a ** k

    def settle_row(self, nums, den: int) -> list:
        """Canonical scalars nums[i] / den."""
        if self.p:
            p = self.p
            return [c % p for c in nums]
        if den == 1:
            return [Fraction(c) for c in nums]
        return [Fraction(c, den) for c in nums]

    def scalar_str(self, a: Scalar) -> str:
        if self.p is None:
            f = Fraction(a)
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        return str(a % self.p)

    def sum_str(self, terms) -> str:
        """Render  c1*m1 + c2*m2 - ...  from nonzero (scalar, monomial text)
        pairs.  A unit coefficient before a monomial is left out, and an
        empty monomial leaves the coefficient alone."""
        parts = []
        for c, mono in terms:
            cs = self.scalar_str(c)
            negative = cs.startswith("-")
            body = cs[1:] if negative else cs
            if mono:
                body = mono if body == "1" else f"{body}*{mono}"
            parts.append(("- " if negative else "+ ") + body)
        text = " ".join(parts)
        return "-" + text[2:] if text.startswith("- ") else text[2:]

    def __str__(self):
        return "Q" if self.p is None else f"F{self.p}"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` with optional sign; raise InputError otherwise."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


# one instance per field, so that comparisons of fields end at ``is``
_FIELDS: dict = {}


def QQ() -> BaseField:
    field = _FIELDS.get(None)
    return field if field is not None else _FIELDS.setdefault(None, BaseField(None))


def GF(p: int) -> BaseField:
    # only an exact int is a key: 5.0 == 5, but BaseField(5.0) is an error
    field = _FIELDS.get(p) if type(p) is int else None
    return field if field is not None else _FIELDS.setdefault(p, BaseField(p))
