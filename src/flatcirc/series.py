"""Exact truncated multivariate power series over the rationals.

Series live in Q[[x^0, ..., x^{n-1}]] cut off at a total-degree cap; there
is no floating point anywhere.  Besides the cap each series carries
``valid_to``, the degree up to which its coefficients are actually
trustworthy.  Arithmetic propagates ``valid_to`` monotonically (a derivative
costs one degree, a formal integration gains one), so a residual computed
downstream knows the degree to which its vanishing is proven.

A series is stored as FLINT's ``fmpq_poly`` stores a polynomial: integer
numerators over one positive denominator.  Each numerator is keyed by its
exponent packed into one integer, digits in base cap + 1, so integer order
is lexicographic order, and adding packed exponents whose degrees sum to at
most the cap adds the exponents.  The storage is normal (no zero
numerator, no exponent above the cap but a constant at a negative cap, no
factor shared by the denominator and all numerators), so equal series have
equal storage.  All arithmetic here is on integers; a ``Fraction`` is built
only where a coefficient enters or leaves: the constructor, ``coeffs``,
``items()``, ``coefficient()``, ``constant_term``, ``first_nonzero`` and
``canonical_text``.

Every product is made by one kernel, ``dot(xs, ys)``, the sum of products
sum_i xs[i] * ys[i]; the product of two series is its one-pair case.  It
reads each operand's terms sorted by degree, a list built once per series
and kept, scales every pair onto the lcm of the pair denominators and sums
integer products per packed exponent.  An operand (or summand) with a cap
above the smallest one is re-keyed to it, keeping its terms of degree <=
that cap.  The result carries the smallest cap and the smallest
``valid_to`` over all operands, empty ones included.  Other modules read
series with ``items()``, ``coefficient()`` and ``from_degree``; only the
correlator family conversion calls the constructor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
                    Union)

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]


class InputError(ValueError):
    """Raised where a document, a family or a flag is read and found malformed;
    the only exception the command line reports as bad input (exit 2)."""


class DimensionMismatchError(ValueError):
    """Raised when series over different coordinate sets are combined."""


class NonUnitError(ValueError):
    """Raised when inverting a series with zero constant term."""


class NotClosedError(ValueError):
    """Raised when a 1-form family fails the closedness test.

    Carries the offending coordinate pair and exponent vector so callers can
    name the first bad monomial in reports.
    """

    def __init__(self, pair: Tuple[int, int], exponent: Exponent):
        self.pair = pair
        self.exponent = exponent
        super().__init__(
            "family not closed: d_%d f_%d != d_%d f_%d at monomial %s"
            % (pair[0], pair[1], pair[1], pair[0], ",".join(map(str, exponent)))
        )


def as_fraction(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _ratio(value: Scalar) -> Tuple[int, int]:
    """Numerator and positive denominator of an exact rational."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    return value.numerator, value.denominator


def _pack(exponent: Sequence[int], base: int) -> int:
    key = 0
    for v in exponent:
        key = key * base + v
    return key


def _unpack(key: int, num_vars: int, base: int) -> Exponent:
    digits = [0] * num_vars
    for i in range(num_vars - 1, -1, -1):
        key, digits[i] = divmod(key, base)
    return tuple(digits)


def _base(cap: int) -> int:
    """Digit base at ``cap``; below cap 0 only a constant is ever stored."""
    return max(cap, 0) + 1


_set = object.__setattr__


def _series(num_vars: int, cap: int, valid_to: int, num: Dict[int, int],
            den: int, s: Optional["TruncatedSeries"] = None) -> "TruncatedSeries":
    """The series (``s``, else a new one) of the nonzero numerators ``num``
    over ``den`` > 0, both divided by their common factor."""
    s = object.__new__(TruncatedSeries) if s is None else s
    if valid_to > cap:
        raise ValueError("valid_to must not exceed cap")
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: v // g for k, v in num.items()}
    _set(s, "num_vars", num_vars)
    _set(s, "cap", cap)
    _set(s, "valid_to", valid_to)
    _set(s, "_num", num)
    _set(s, "_den", den)
    _set(s, "_terms", None)
    return s


class TruncatedSeries:
    """A sparse truncated power series with exact rational coefficients.

    Immutable: all arithmetic returns new values and assigning an attribute
    raises ``AttributeError``.  ``_num`` maps packed exponents to nonzero
    integer numerators over the denominator ``_den``; ``_terms``, set on
    first use, holds them as (degree, packed exponent, numerator), sorted.
    """

    __slots__ = ("num_vars", "cap", "valid_to", "_num", "_den", "_terms")

    def __init__(self, num_vars: int, cap: int, valid_to: int,
                 coeffs: Optional[Dict[Exponent, Scalar]] = None) -> None:
        coeffs = coeffs or {}
        for e in coeffs:
            if len(e) != num_vars or min(e, default=0) < 0 or sum(e) > cap:
                raise ValueError(f"exponent {e} is not one of {num_vars} "
                                 f"variables of degree at most {cap}")
        ratios = {_pack(e, cap + 1): _ratio(c) for e, c in coeffs.items()}
        den = lcm(*(q for _, q in ratios.values()))
        _series(num_vars, cap, valid_to, {k: p * (den // q) for k, (p, q)
                                          in ratios.items() if p}, den, self)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot change {name!r}: series are immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> Tuple[object, tuple]:
        # copy, deepcopy and pickle rebuild from the storage
        return _series, (self.num_vars, self.cap, self.valid_to, self._num, self._den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, cap: int, valid_to: Optional[int] = None) -> "TruncatedSeries":
        return _series(num_vars, cap, cap if valid_to is None else valid_to, {}, 1)

    @classmethod
    def constant(cls, num_vars: int, cap: int, value: Scalar,
                 valid_to: Optional[int] = None) -> "TruncatedSeries":
        p, q = _ratio(value)
        return _series(num_vars, cap, cap if valid_to is None else valid_to,
                       {0: p} if p else {}, q)

    @classmethod
    def variable(cls, num_vars: int, cap: int, axis: int) -> "TruncatedSeries":
        if not 0 <= axis < num_vars:
            raise IndexError(f"axis {axis} out of range for {num_vars} variables")
        exponent = tuple(1 if i == axis else 0 for i in range(num_vars))
        return cls.monomial(num_vars, cap, exponent, 1)

    @classmethod
    def monomial(cls, num_vars: int, cap: int, exponent: Exponent,
                 coeff: Scalar) -> "TruncatedSeries":
        if len(exponent) != num_vars:
            raise DimensionMismatchError("exponent length does not match num_vars")
        if sum(exponent) > cap:
            return cls.zero(num_vars, cap)
        return cls(num_vars, cap, cap, {tuple(exponent): coeff})

    # -- storage -----------------------------------------------------------

    def _terms_at(self, cap: int) -> List[Tuple[int, int, int]]:
        """The terms as (degree, packed exponent, numerator), sorted, built
        once and kept; below the own cap only those of degree <= ``cap``,
        re-keyed to it (packing keeps the lexicographic order)."""
        terms = self._terms
        if terms is not None and cap == self.cap:
            return terms
        n, base = self.num_vars, _base(self.cap)
        if terms is None:
            # base = cap + 1 is 1 mod cap, so a key is its degree mod cap;
            # 0 < degree <= cap off key 0, and at cap <= 0 only key 0 is kept
            c = self.cap
            terms = sorted(((k % c or c) if k else 0, k, v)
                           for k, v in self._num.items())
            _set(self, "_terms", terms)
        if cap == self.cap:
            return terms
        return [(d, _pack(_unpack(k, n, base), cap + 1), v)
                for d, k, v in terms if d <= cap]

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> Mapping[Exponent, Fraction]:
        """Read-only map from exponent to nonzero coefficient."""
        return MappingProxyType(dict(self.items()))

    def coefficient(self, exponent: Exponent) -> Fraction:
        exponent = tuple(exponent)
        if (len(exponent) != self.num_vars or min(exponent, default=0) < 0
                or sum(exponent) > max(self.cap, 0)):
            return Fraction(0)
        return Fraction(self._num.get(_pack(exponent, _base(self.cap)), 0),
                        self._den)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def items(self) -> Iterator[Tuple[Exponent, Fraction]]:
        """Iterate (exponent, coefficient) in canonical lexicographic order."""
        n, base, den = self.num_vars, _base(self.cap), self._den
        for key in sorted(self._num):
            yield _unpack(key, n, base), Fraction(self._num[key], den)

    def vanishes_through(self, degree: int) -> bool:
        """True if every stored coefficient of total degree <= degree is zero."""
        terms = self._terms_at(self.cap)
        return not terms or terms[0][0] > degree

    def first_nonzero(self) -> Optional[Tuple[Exponent, Fraction]]:
        """Stored nonzero monomial of lowest total degree, or None.

        Ties within a degree go to the lexicographically first exponent, so
        a failure witness lies inside the proven range whenever one does.
        """
        terms = self._terms_at(self.cap)
        if not terms:
            return None
        _, key, num = terms[0]
        return (_unpack(key, self.num_vars, _base(self.cap)),
                Fraction(num, self._den))

    def cut(self, cap: int) -> "TruncatedSeries":
        """The terms of degree <= ``cap`` at that cap, storage-equal to the
        product by the constant 1 there; the series itself at or above its
        own cap."""
        if cap >= self.cap:
            return self
        return _series(self.num_vars, cap, min(self.valid_to, cap),
                       {k: v for _, k, v in self._terms_at(cap)}, self._den)

    def from_degree(self, degree: int) -> "TruncatedSeries":
        """The terms of total degree >= ``degree``, same cap and ``valid_to``."""
        return _series(self.num_vars, self.cap, self.valid_to,
                       {k: v for d, k, v in self._terms_at(self.cap)
                        if d >= degree}, self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.num_vars == other.num_vars and self.cap == other.cap
                and self.valid_to == other.valid_to
                and self._den == other._den and self._num == other._num)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, value: Union[Scalar, "TruncatedSeries"]) -> "TruncatedSeries":
        if isinstance(value, TruncatedSeries):
            return value
        return TruncatedSeries.constant(self.num_vars, self.cap, value)

    def _plus(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * other, at the smaller cap and ``valid_to``."""
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError(
                f"series over {self.num_vars} and {other.num_vars} variables")
        cap = min(self.cap, other.cap)
        den = lcm(self._den, other._den)
        scale, other_scale = den // self._den, sign * (den // other._den)
        num, add = ({k: v for _, k, v in s._terms_at(cap)} if s.cap > cap
                    else s._num for s in (self, other))
        num = {k: v * scale for k, v in num.items()} if scale != 1 else dict(num)
        for k, v in add.items():
            total = num.get(k, 0) + v * other_scale
            if total:
                num[k] = total
            else:
                del num[k]
        return _series(self.num_vars, cap, min(self.valid_to, other.valid_to),
                       num, den)

    def __add__(self, other: Union[Scalar, "TruncatedSeries"]) -> "TruncatedSeries":
        return self._plus(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return self._scaled(-1, 1)

    def __sub__(self, other: Union[Scalar, "TruncatedSeries"]) -> "TruncatedSeries":
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other: Scalar) -> "TruncatedSeries":
        return self._coerce(other) - self

    def _scaled(self, p: int, q: int) -> "TruncatedSeries":
        """The series times p/q, for integers p and q != 0."""
        if q < 0:
            p, q = -p, -q
        return _series(self.num_vars, self.cap, self.valid_to,
                       {k: v * p for k, v in self._num.items()} if p else {},
                       self._den * q)

    def __mul__(self, other: Union[Scalar, "TruncatedSeries"]) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return dot((self,), (other,))
        return self._scaled(*_ratio(other))

    __rmul__ = __mul__

    def __truediv__(self, other: Union[Scalar, "TruncatedSeries"]) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return self * other.invert_unit()
        p, q = _ratio(other)
        if p == 0:
            raise ZeroDivisionError("series divided by zero")
        return self._scaled(q, p)

    def pow_int(self, exponent: int) -> "TruncatedSeries":
        """By squaring: every factor has this cap and ``valid_to``, and the cut
        at the cap commutes with ``*``, so this equals repeated ``*``."""
        if not exponent:
            return TruncatedSeries.constant(self.num_vars, self.cap, 1)
        result, power = None, self
        while True:
            if exponent & 1:
                result = power if result is None else result * power
            exponent >>= 1
            if not exponent:
                return result
            power = power * power

    # -- calculus ----------------------------------------------------------

    def derivative(self, axis: int) -> "TruncatedSeries":
        """Exact term-wise partial derivative; costs one degree of validity."""
        if not 0 <= axis < self.num_vars:
            raise IndexError(f"axis {axis} out of range for {self.num_vars} variables")
        base = _base(self.cap)
        place = base ** (self.num_vars - 1 - axis)
        # lowering one exponent is injective, so every term lands on its own key
        num = {key - place: v * k for key, v in self._num.items()
               for k in (key // place % base,) if k}
        return _series(self.num_vars, self.cap, self.valid_to - 1, num, self._den)

    def invert_unit(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        Computed from the geometric series in (1 - a/a0), which terminates at
        the cap because the tail has positive order.
        """
        c0 = self._num.get(0)
        if not c0:
            raise NonUnitError("cannot invert a series with zero constant term")
        tail = 1 - self._scaled(self._den, c0)  # order >= 1
        acc = TruncatedSeries.constant(self.num_vars, self.cap, 1, valid_to=self.valid_to)
        term = acc
        for _ in range(self.cap):
            term = term * tail
            if not term._num:
                break
            acc = acc + term
        return acc._scaled(self._den, c0)

    # -- serialization -----------------------------------------------------

    def canonical_text(self) -> str:
        """Canonical text form: sorted ``e0,e1,...:num/den`` lines."""
        return "\n".join("%s:%d/%d" % (",".join(map(str, e)), c.numerator,
                                      c.denominator) for e, c in self.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " + ".join(
            f"{c}*x^{e}" for e, c in self.items()) or "0"
        return f"<series n={self.num_vars} cap={self.cap} valid={self.valid_to}: {body}>"


def dot(xs: Sequence[TruncatedSeries],
        ys: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """The sum of products sum_i xs[i] * ys[i], with at least one pair.

    A pair with an empty operand adds no terms, but every operand folds its
    cap and ``valid_to`` into the result: a product is proven only as far as
    both of its factors are, even when one of them is zero.
    """
    num_vars, cap, valid_to = xs[0].num_vars, xs[0].cap, xs[0].valid_to
    for s in (*xs, *ys):
        if s.num_vars != num_vars:
            raise DimensionMismatchError(
                f"series over {num_vars} and {s.num_vars} variables")
        cap = min(cap, s.cap)
        valid_to = min(valid_to, s.valid_to)
    pairs = [(x._terms_at(cap), y._terms_at(cap), x._den * y._den)
             for x, y in zip(xs, ys) if x._num and y._num]
    den = lcm(*(d for _, _, d in pairs))
    sums: Dict[int, int] = {}
    for left, right, d in pairs:
        scale = den // d
        for d1, k1, n1 in left:
            room = cap - d1
            n1 *= scale
            for d2, k2, n2 in right:
                if d2 > room:
                    break
                k = k1 + k2
                sums[k] = sums.get(k, 0) + n1 * n2
    return _series(num_vars, cap, valid_to,
                   {k: v for k, v in sums.items() if v}, den)


def exp_series(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, expanded to the cap."""
    if 0 in s._num:
        raise NonUnitError("exp requires zero constant term for exact expansion")
    acc = TruncatedSeries.constant(s.num_vars, s.cap, 1, valid_to=s.valid_to)
    term = acc
    for k in range(1, s.cap + 1):
        term = (term * s)._scaled(1, k)
        if not term._num:
            break
        acc = acc + term
    return acc


def primitive_of_closed_family(family: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """Formal Poincare primitive of a closed family (f_0, ..., f_{n-1}).

    Returns g with ``g(0) = 0`` and ``d_a g = f_a`` up to the common validity,
    via the homotopy formula: a monomial of degree d in f_a contributes with
    weight 1/(d+1) after raising the a-th exponent.  Closedness
    ``d_a f_b = d_b f_a`` is verified first; a violation is reported with
    the lowest (degree, pair, exponent) among the offending coefficients.
    """
    n = len(family)
    if n == 0:
        raise ValueError("empty family")
    for f in family:
        if f.num_vars != n:
            raise DimensionMismatchError("family length must equal num_vars")
    cap = min(f.cap for f in family)
    valid = min(f.valid_to for f in family)
    offending = [(d, (a, b), _unpack(k, n, _base(curl.cap)))
                 for a in range(n) for b in range(a + 1, n)
                 for curl in (family[a].derivative(b) - family[b].derivative(a),)
                 for d, k, _ in curl._terms_at(curl.cap) if d <= valid - 1]
    if offending:
        raise NotClosedError(*min(offending)[1:])
    m = lcm(*range(1, cap + 1))  # every weight 1/(d + 1), d < cap, divides m
    g = TruncatedSeries.zero(n, cap, min(cap, valid + 1))
    for a, f in enumerate(family):
        place = _base(cap) ** (n - 1 - a)
        g += _series(n, cap, cap, {k + place: v * (m // (d + 1))
                                   for d, k, v in f._terms_at(cap) if d < cap},
                     f._den * m)
    return g
