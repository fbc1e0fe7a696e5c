"""Exact truncated multivariate power series over the rationals.

Series live in Q[[x^0, ..., x^{n-1}]] cut off at a total-degree cap.  Every
coefficient is a ``fractions.Fraction``; there is no floating point anywhere.
Besides the cap each series carries ``valid_to``, the degree up to which its
coefficients are actually trustworthy.  Arithmetic propagates ``valid_to``
monotonically (a derivative costs one degree, a formal integration gains one),
so a residual computed downstream knows the degree to which its vanishing is
proven.

Every product is made by one kernel, ``dot(xs, ys)``, the sum of products
sum_i xs[i] * ys[i]; the product of two series is its one-pair case.  It
multiplies integers, not fractions: each operand is written as integer
numerators over one denominator (the lcm of its coefficients'
denominators), its terms sorted by degree and its exponents packed into one
integer each (digits in base cap + 1, so adding packed exponents of degree
sum <= cap is adding the exponents).  Every pair is scaled onto the lcm of
the pair denominators, so each output coefficient is one sum of integer
products, turned into a single ``Fraction``.  The result carries the
smallest cap and the smallest ``valid_to`` over all operands, empty ones
included.  Storage stays a dict from exponent to ``Fraction``, which no
other module reads: they read ``items()``, ``coefficient()`` and
``from_degree``, and only the correlator family conversion calls the
constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def total_degree(exponent: Exponent) -> int:
    return sum(exponent)


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """A sparse truncated power series with exact rational coefficients.

    Immutable after construction; all arithmetic returns new values.  The
    coefficient map never stores zeros and never stores exponents of total
    degree above ``cap``.
    """

    num_vars: int
    cap: int
    valid_to: int
    coeffs: Dict[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.valid_to > self.cap:
            raise ValueError("valid_to must not exceed cap")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, cap: int, valid_to: Optional[int] = None) -> "TruncatedSeries":
        return cls(num_vars, cap, cap if valid_to is None else valid_to, {})

    @classmethod
    def constant(cls, num_vars: int, cap: int, value: Scalar,
                 valid_to: Optional[int] = None) -> "TruncatedSeries":
        value = as_fraction(value)
        coeffs = {} if value == 0 else {(0,) * num_vars: value}
        return cls(num_vars, cap, cap if valid_to is None else valid_to, coeffs)

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
        coeff = as_fraction(coeff)
        if coeff == 0 or total_degree(exponent) > cap:
            return cls.zero(num_vars, cap)
        return cls(num_vars, cap, cap, {tuple(exponent): coeff})

    # -- basic queries -----------------------------------------------------

    def coefficient(self, exponent: Exponent) -> Fraction:
        return self.coeffs.get(tuple(exponent), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * self.num_vars, Fraction(0))

    def items(self) -> Iterator[Tuple[Exponent, Fraction]]:
        """Iterate (exponent, coefficient) in canonical lexicographic order."""
        for exponent in sorted(self.coeffs):
            yield exponent, self.coeffs[exponent]

    def vanishes_through(self, degree: int) -> bool:
        """True if every stored coefficient of total degree <= degree is zero."""
        return all(total_degree(e) > degree for e in self.coeffs)

    def first_nonzero(self) -> Optional[Tuple[Exponent, Fraction]]:
        """Stored nonzero monomial of lowest total degree, or None.

        Ties within a degree go to the lexicographically first exponent, so
        a failure witness lies inside the proven range whenever one does.
        """
        if not self.coeffs:
            return None
        exponent = min(self.coeffs, key=lambda e: (total_degree(e), e))
        return exponent, self.coeffs[exponent]

    def from_degree(self, degree: int) -> "TruncatedSeries":
        """The terms of total degree >= ``degree``, same cap and ``valid_to``."""
        return TruncatedSeries(self.num_vars, self.cap, self.valid_to,
                               {e: c for e, c in self.coeffs.items()
                                if total_degree(e) >= degree})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.num_vars == other.num_vars and self.cap == other.cap
                and self.valid_to == other.valid_to and self.coeffs == other.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError(
                f"series over {self.num_vars} and {other.num_vars} variables")

    def _coerce(self, value: Union[Scalar, "TruncatedSeries"]) -> "TruncatedSeries":
        if isinstance(value, TruncatedSeries):
            return value
        return TruncatedSeries.constant(self.num_vars, self.cap, as_fraction(value))

    def __add__(self, other: Union[Scalar, "TruncatedSeries"]) -> "TruncatedSeries":
        other = self._coerce(other)
        self._check_compatible(other)
        cap = min(self.cap, other.cap)
        valid_to = min(self.valid_to, other.valid_to)
        coeffs = dict(self.coeffs)
        for exponent, c in other.coeffs.items():
            s = coeffs.get(exponent)
            if s is None:
                coeffs[exponent] = c
                continue
            s += c
            if s:
                coeffs[exponent] = s
            else:
                del coeffs[exponent]
        if cap < max(self.cap, other.cap):
            coeffs = {e: c for e, c in coeffs.items() if total_degree(e) <= cap}
        return TruncatedSeries(self.num_vars, cap, valid_to, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.num_vars, self.cap, self.valid_to,
                               {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: Union[Scalar, "TruncatedSeries"]) -> "TruncatedSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other: Union[Scalar, "TruncatedSeries"]) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            factor = as_fraction(other)
            if factor == 0:
                return TruncatedSeries(self.num_vars, self.cap, self.valid_to, {})
            return TruncatedSeries(self.num_vars, self.cap, self.valid_to,
                                   {e: c * factor for e, c in self.coeffs.items()})
        return dot((self,), (other,))

    __rmul__ = __mul__

    def __truediv__(self, other: Union[Scalar, "TruncatedSeries"]) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return self * other.invert_unit()
        return self * (Fraction(1) / as_fraction(other))

    def pow_int(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            return self.invert_unit().pow_int(-exponent)
        result = TruncatedSeries.constant(self.num_vars, self.cap, 1,
                                          valid_to=self.valid_to if exponent else self.cap)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus ----------------------------------------------------------

    def derivative(self, axis: int) -> "TruncatedSeries":
        """Exact term-wise partial derivative; costs one degree of validity."""
        if not 0 <= axis < self.num_vars:
            raise IndexError(f"axis {axis} out of range for {self.num_vars} variables")
        # lowering one exponent is injective, so every term lands on its own key
        coeffs = {exponent[:axis] + (k - 1,) + exponent[axis + 1:]: c * k
                  for exponent, c in self.coeffs.items()
                  for k in (exponent[axis],) if k}
        return TruncatedSeries(self.num_vars, self.cap, self.valid_to - 1, coeffs)

    def invert_unit(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        Computed from the geometric series in (1 - a/a0), which terminates at
        the cap because the tail has positive order.
        """
        c0 = self.constant_term
        if c0 == 0:
            raise NonUnitError("cannot invert a series with zero constant term")
        tail = 1 - self * (Fraction(1) / c0)  # order >= 1
        acc = TruncatedSeries.constant(self.num_vars, self.cap, 1, valid_to=self.valid_to)
        term = acc
        for _ in range(self.cap):
            term = term * tail
            if not term.coeffs:
                break
            acc = acc + term
        return acc * (Fraction(1) / c0)

    # -- serialization -----------------------------------------------------

    def canonical_text(self) -> str:
        """Canonical text form: sorted ``e0,e1,...:num/den`` lines."""
        lines = []
        for exponent, c in self.items():
            lines.append("%s:%d/%d" % (",".join(map(str, exponent)),
                                       c.numerator, c.denominator))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " + ".join(
            f"{c}*x^{e}" for e, c in self.items()) or "0"
        return f"<series n={self.num_vars} cap={self.cap} valid={self.valid_to}: {body}>"


def _integer_terms(coeffs: Dict[Exponent, Fraction], cap: int,
                   base: int) -> Tuple[List[Tuple[int, int, int]], int]:
    """Terms of degree <= cap as (degree, packed exponent, numerator) sorted by
    degree, over one common denominator (the lcm of the coefficients').

    An exponent packs into one integer with digit base ``base`` = cap + 1;
    exponents whose degrees sum to at most the cap add without a carry.
    """
    den = lcm(*(c.denominator for c in coeffs.values()))
    terms = []
    for exponent, c in coeffs.items():
        degree = sum(exponent)
        if degree > cap:
            continue
        key = 0
        for v in exponent:
            key = key * base + v
        terms.append((degree, key, c.numerator * (den // c.denominator)))
    terms.sort()
    return terms, den


def dot(xs: Sequence[TruncatedSeries],
        ys: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """The sum of products sum_i xs[i] * ys[i], with at least one pair.

    A pair with an empty operand adds no terms, but every operand folds its
    cap and ``valid_to`` into the result: a product is proven only as far as
    both of its factors are, even when one of them is zero.
    """
    num_vars = xs[0].num_vars
    cap = xs[0].cap
    valid_to = xs[0].valid_to
    for s in (*xs, *ys):
        if s.num_vars != num_vars:
            raise DimensionMismatchError(
                f"series over {num_vars} and {s.num_vars} variables")
        cap = min(cap, s.cap)
        valid_to = min(valid_to, s.valid_to)
    base = cap + 1
    pairs = [(_integer_terms(x.coeffs, cap, base),
              _integer_terms(y.coeffs, cap, base))
             for x, y in zip(xs, ys) if x.coeffs and y.coeffs]
    den = lcm(*(dx * dy for (_, dx), (_, dy) in pairs))
    sums: Dict[int, int] = {}
    for (left, dx), (right, dy) in pairs:
        scale = den // (dx * dy)
        for d1, k1, n1 in left:
            room = cap - d1
            n1 *= scale
            for d2, k2, n2 in right:
                if d2 > room:
                    break
                k = k1 + k2
                sums[k] = sums.get(k, 0) + n1 * n2
    places = [base ** i for i in reversed(range(num_vars))]
    return TruncatedSeries(num_vars, cap, valid_to, {
        tuple([k // p % base for p in places]): Fraction(num, den)
        for k, num in sums.items() if num})


def exp_series(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, expanded to the cap."""
    if s.constant_term != 0:
        raise NonUnitError("exp requires zero constant term for exact expansion")
    acc = TruncatedSeries.constant(s.num_vars, s.cap, 1, valid_to=s.valid_to)
    term = acc
    for k in range(1, s.cap + 1):
        term = term * s * Fraction(1, k)
        if not term.coeffs:
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
    offending = [(total_degree(e), (a, b), e)
                 for a in range(n) for b in range(a + 1, n)
                 for e in (family[a].derivative(b) - family[b].derivative(a)).coeffs
                 if total_degree(e) <= valid - 1]
    if offending:
        raise NotClosedError(*min(offending)[1:])
    coeffs: Dict[Exponent, Fraction] = {}
    for a, f in enumerate(family):
        for exponent, c in f.coeffs.items():
            d = total_degree(exponent)
            if d + 1 > cap:
                continue
            raised = tuple(v + 1 if i == a else v for i, v in enumerate(exponent))
            s = coeffs.get(raised, Fraction(0)) + c * Fraction(1, d + 1)
            if s == 0:
                coeffs.pop(raised, None)
            else:
                coeffs[raised] = s
    return TruncatedSeries(n, cap, min(cap, valid + 1), coeffs)
