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
equal storage.  Every series is made by ``_series``, which sets the six
slots through their own descriptor setters.  All arithmetic here is on
integers; a ``Fraction`` is built only where a coefficient enters or
leaves: the constructor, ``coeffs``, ``items()``, ``coefficient()``,
``constant_term`` and ``first_nonzero``.  ``canonical_text`` divides each
numerator and the denominator by their gcd, and ``vanishes_through`` and
``first_nonzero`` find the lowest term with one ``min`` unless the sorted
terms are already built.

Products are made by two kernels.  ``dot(xs, ys)`` is the sum of products
sum_i xs[i] * ys[i]; the product of two series is its one-pair case.  It
reads each operand's terms sorted by degree, a list built once per series
and kept, scales every pair onto the lcm of the pair denominators (one
pair keeps its own) and sums integer products per packed exponent; a call
whose pairs all have an empty operand returns the empty series at once.
An operand (or summand) with a cap above the smallest one is re-keyed to
it, keeping its terms of degree <= that cap.  The result carries the
smallest cap and the smallest ``valid_to`` over all operands, empty ones
included.  ``dots(xss, ys)`` is ``[dot(xs, ys) for xs in xss]``, output
by output the same storage; where the operands are large enough, it packs
the numerators of all outputs at one exponent into one integer (Kronecker
substitution on coefficients) and forms the products that share a right
operand in one term-pair loop.  ``exp_series`` forms no product: it runs
the graded recurrence k f_k = sum_j j s_j f_{k-j} on integer numerators,
one pass over the homogeneous parts.  Other modules read series with
``items()``, ``coefficient()`` and ``from_degree``; only the correlator
family conversion calls the constructor.
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


def _series(num_vars: int, cap: int, valid_to: int, num: Dict[int, int],
            den: int, s: Optional["TruncatedSeries"] = None) -> "TruncatedSeries":
    """The series (``s``, else a new one) of the nonzero numerators ``num``
    over ``den`` > 0, both divided by their common factor."""
    s = _new(TruncatedSeries) if s is None else s
    if valid_to > cap:
        raise ValueError("valid_to must not exceed cap")
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: v // g for k, v in num.items()}
    _set_num_vars(s, num_vars)
    _set_cap(s, cap)
    _set_valid_to(s, valid_to)
    _set_num(s, num)
    _set_den(s, den)
    _set_terms(s, None)
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
            _set_terms(self, terms)
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

    def _lowest(self) -> Optional[Tuple[int, int]]:
        """The lowest (degree, packed exponent) stored, or None; read off
        ``_terms`` if built, else found by one ``min`` with no sort."""
        terms, c = self._terms, self.cap
        if terms is not None:
            return terms[0][:2] if terms else None
        return min((((k % c or c) if k else 0, k) for k in self._num),
                   default=None)

    def vanishes_through(self, degree: int) -> bool:
        """True if every stored coefficient of total degree <= degree is zero."""
        lowest = self._lowest()
        return lowest is None or lowest[0] > degree

    def first_nonzero(self) -> Optional[Tuple[Exponent, Fraction]]:
        """Stored nonzero monomial of lowest total degree, or None.

        Ties within a degree go to the lexicographically first exponent, so
        a failure witness lies inside the proven range whenever one does.
        """
        lowest = self._lowest()
        if lowest is None:
            return None
        key = lowest[1]
        return (_unpack(key, self.num_vars, _base(self.cap)),
                Fraction(self._num[key], self._den))

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
        n, base, den = self.num_vars, _base(self.cap), self._den
        return "\n".join("%s:%d/%d" % (",".join(map(str, _unpack(k, n, base))),
                                        v // g, den // g)
                         for k, v in sorted(self._num.items())
                         for g in (gcd(v, den),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " + ".join(
            f"{c}*x^{e}" for e, c in self.items()) or "0"
        return f"<series n={self.num_vars} cap={self.cap} valid={self.valid_to}: {body}>"


# The slots' own setters, which the immutable ``__setattr__`` does not reach.
_new = object.__new__
(_set_num_vars, _set_cap, _set_valid_to, _set_num, _set_den,
 _set_terms) = (getattr(TruncatedSeries, name).__set__
                for name in TruncatedSeries.__slots__)


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
        if s.cap < cap:
            cap = s.cap
        if s.valid_to < valid_to:
            valid_to = s.valid_to
    pairs = [(x, y) for x, y in zip(xs, ys) if x._num and y._num]
    if not pairs:
        return _series(num_vars, cap, valid_to, {}, 1)
    den = (pairs[0][0]._den * pairs[0][1]._den if len(pairs) == 1
           else lcm(*(x._den * y._den for x, y in pairs)))
    sums: Dict[int, int] = {}
    for x, y in pairs:
        left, right = x._terms_at(cap), y._terms_at(cap)
        scale = den // (x._den * y._den)
        if scale != 1:
            left = [(d1, k1, n1 * scale) for d1, k1, n1 in left]
        for d1, k1, n1 in left:
            room = cap - d1
            for d2, k2, n2 in right:
                if d2 > room:
                    break
                k = k1 + k2
                sums[k] = sums.get(k, 0) + n1 * n2
    return _series(num_vars, cap, valid_to,
                   {k: v for k, v in sums.items() if v}, den)


# ``dots`` calls the kernel by this name, so a counter patched over ``dot``
# counts each of its products once.
_dot = dot

# ``dots`` packs when the plain path's term pairs are at least this many
# times the packed path's steps.  The crossover measured on the calls of
# the benchmark workloads and of ``qqo5`` lies between 3.1 (n = 4
# commutators at cap 2, no gain) and 3.9 (n = 5 commutators at cap 4,
# 0.55 of the plain time).
PACK_GAIN = 3.5


def dots(xss: Sequence[Sequence[TruncatedSeries]],
         ys: Sequence[TruncatedSeries]) -> List[TruncatedSeries]:
    """``[dot(xs, ys) for xs in xss]``, each xs as long as ys, each output
    storage-equal to its ``dot``; where it pays, the products that share a
    right operand y_j are formed in one term-pair loop.

    Output i at cap c holds the sums S_i(k) = sum over j and over the term
    pairs k1 + k2 = k of degree <= c of s_ij n_ij(k1) m_j(k2), over its
    denominator D_i = lcm of x_ij._den y_j._den on its pairs with terms,
    where s_ij = D_i / (x_ij._den y_j._den) scales the numerators n_ij of
    x_ij = xss[i][j] and m_j are those of y_j: the sums of ``dot``.  The
    outputs at one cap with a term pair take slots i = 0, 1, ... of one
    integer: the packed left operand at j and exponent k1 is
    P_j(k1) = sum_i s_ij n_ij(k1) 2^(B i), in balanced digits.  One
    term-pair loop over (P_j, y_j) for all j sums
    P(k) = sum_j P_j(k1) m_j(k2), and by linearity
    P(k) = sum_i S_i(k) 2^(B i).  Let L be the largest |s_ij n_ij|, M the
    largest |m_j| and T = sum_ij |x_ij| |y_j| the term pairs of all the
    outputs' ``dot`` calls, which bound the term pairs summed into one
    S_i(k), and let B = bitlen(L) + bitlen(M) + bitlen(T) + 1.  Then
    |S_i(k)| <= T L M < 2^(B - 1), so each S_i(k) + 2^(B - 1) lies in
    [1, 2^B - 1], and P(k) + sum_i 2^(B - 1) 2^(B i) has exactly these
    base-2^B digits.  A base-2^B expansion is unique, so the digits less
    2^(B - 1) are every S_i(k), exactly.  Each output keeps its own cap,
    ``valid_to`` and denominator, and ``_series`` normalizes it as ``dot``
    does; each packed sum is dropped as it is decoded.

    The choice reads term counts only.  The plain path takes the T term
    pairs above.  The packed path takes one step per left term it packs
    and one per term pair of its loop, about sum_j t_j |y_j| when the
    packed left at j has as many terms as its longest operand t_j, as
    where the supports nest (dense series).  Packing is chosen when T is at
    least ``PACK_GAIN`` times those steps.  With k outputs t_j is at least
    the mean sum_i |x_ij| / k, so T over the steps is at most
    k Y / (k + Y), Y the most terms of a y_j; the steps are counted only
    where that bound reaches ``PACK_GAIN``.
    """
    k = len(xss)
    if k > PACK_GAIN and max(len(y._num) for y in ys) * (k - PACK_GAIN) \
            >= PACK_GAIN * k:
        pairs = steps = 0
        for column, y in zip(zip(*xss), ys):
            lengths = [len(x._num) for x in column]
            size, terms = len(y._num), sum(lengths)
            pairs += terms * size
            steps += terms + max(lengths) * size
        if pairs >= PACK_GAIN * steps:
            num_vars = ys[0].num_vars
            for s in (*ys, *(x for xs in xss for x in xs)):
                if s.num_vars != num_vars:
                    raise DimensionMismatchError(
                        f"series over {num_vars} and {s.num_vars} variables")
            y_cap, y_valid = min(y.cap for y in ys), min(y.valid_to for y in ys)
            heads = [(min(y_cap, *(x.cap for x in xs)),
                      min(y_valid, *(x.valid_to for x in xs))) for xs in xss]
            out: List[TruncatedSeries] = [None] * len(xss)
            for cap in {cap for cap, _ in heads}:
                _packed(xss, ys, heads, cap, pairs, out)
            return out
    return [_dot(xs, ys) for xs in xss]


def _packed(xss: Sequence[Sequence[TruncatedSeries]],
            ys: Sequence[TruncatedSeries], heads: List[Tuple[int, int]],
            cap: int, pairs: int, out: List[TruncatedSeries]) -> None:
    """Set ``out[i]`` for the outputs i at ``cap``, ``heads[i]`` = (cap,
    ``valid_to``), by one packed term-pair loop (``dots``); ``pairs``
    bounds the term pairs summed into one coefficient."""
    num_vars = ys[0].num_vars
    slots = []  # (output, denominator, scale per j: 0 on an empty pair)
    for i, xs in enumerate(xss):
        if heads[i][0] != cap:
            continue
        dens = [x._den * y._den if x._num and y._num else 0
                for x, y in zip(xs, ys)]
        if not any(dens):
            out[i] = _series(num_vars, cap, heads[i][1], {}, 1)
            continue
        den = lcm(*filter(None, dens))
        slots.append((i, den, [den // d if d else 0 for d in dens]))
    if not slots:
        return
    left_top = max(s * max(map(abs, x._num.values()))
                   for i, _, scales in slots
                   for x, s in zip(xss[i], scales) if s)
    right_top = max(max(map(abs, y._num.values())) for y in ys if y._num)
    step = (left_top.bit_length() + right_top.bit_length()
            + pairs.bit_length() + 1)
    sums: Dict[int, int] = {}
    for j, y in enumerate(ys):
        if not y._num:
            continue
        left: Dict[int, int] = {}
        for slot, (i, _, scales) in enumerate(slots):
            s = scales[j]
            if s:
                shift = step * slot
                for _, k, v in xss[i][j]._terms_at(cap):
                    left[k] = left.get(k, 0) + (v * s << shift)
        right = y._terms_at(cap)
        for k1, p1 in left.items():  # the key's degree as in ``_terms_at``
            room = cap - ((k1 % cap or cap) if k1 else 0)
            for d2, k2, n2 in right:
                if d2 > room:
                    break
                k = k1 + k2
                sums[k] = sums.get(k, 0) + p1 * n2
    half, mask = 1 << (step - 1), (1 << step) - 1
    offset = half * ((1 << step * len(slots)) - 1) // mask
    nums: List[Dict[int, int]] = [{} for _ in slots]
    while sums:  # each packed sum is dropped as it is decoded
        k, p = sums.popitem()
        if p:
            p += offset
            for num in nums:
                v = (p & mask) - half
                if v:
                    num[k] = v
                p >>= step
    for (i, den, _), num in zip(slots, nums):
        out[i] = _series(num_vars, cap, heads[i][1], num, den)


def exp_series(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, expanded to the cap, by the
    graded recurrence on integers; at the cap and ``valid_to`` of s.

    Let f = exp(s) and write s_j, f_k for the homogeneous parts of degree
    j and k.  The Euler operator sum_i x_i d_i multiplies a part of degree
    k by k and is a derivation, so it turns f' = s' f into
    k f_k = sum_{j=1..k} j s_j f_{k-j}, f_0 = 1 (Knuth, TAOCP vol. 2,
    4.7).  With s = S / d, S the numerators and d the denominator, let
    G_k = k! d^k f_k.  Then G_0 = 1 and

        G_k = sum_{j=1..k} [(k-1)! / (k-j)!] d^(j-1) j S_j G_{k-j},

    where (k-1)! / (k-j)! = (k-1)(k-2)...(k-j+1) is a product of j - 1
    integers and j >= 1, so every G_k is integral by induction.  The
    parts of degree <= c, c the cap, are f_k = G_k (c!/k!) d^(c-k) over
    the one denominator c! d^c, and ``_series`` divides out the common
    factor.  The loop this replaced summed s^k / k! for k = 0..c, each
    power formed by ``*`` at the cap; s^k has order >= k, so that sum is
    exp(s) cut at the cap as well, carrying the cap and ``valid_to`` of s.
    Normal storage is unique, so the two give equal storage.
    """
    if 0 in s._num:
        raise NonUnitError("exp requires zero constant term for exact expansion")
    cap, d = max(s.cap, 0), s._den
    parts: List[List[Tuple[int, int]]] = [[] for _ in range(cap + 1)]
    for j, k, v in s._terms_at(s.cap):
        parts[j].append((k, j * v))
    g: List[Dict[int, int]] = [{0: 1}]
    for k in range(1, cap + 1):
        gk: Dict[int, int] = {}
        factor = 1  # (k-1)!/(k-j)! d^(j-1)
        for j in range(1, k + 1):
            if j > 1:
                factor *= (k - j + 1) * d
            low = g[k - j]
            if parts[j] and low:
                for k1, n1 in parts[j]:
                    n1 *= factor
                    for k2, n2 in low.items():
                        key = k1 + k2
                        gk[key] = gk.get(key, 0) + n1 * n2
        g.append({key: v for key, v in gk.items() if v})
    num: Dict[int, int] = {}
    scale = 1  # c!/k! d^(c-k), from k = c down
    for k in range(cap, -1, -1):
        for key, v in g[k].items():
            num[key] = v * scale
        scale *= k * d if k else 1
    return _series(s.num_vars, s.cap, s.valid_to, num, scale)


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
