"""Finite-field arithmetic over GF(2^m).

NAND Flash error correction in the reproduced paper uses binary BCH codes,
which are defined over an extension field GF(2^m).  This module provides a
complete, self-contained implementation of that arithmetic:

* :class:`GF2m` — the field itself, built from a primitive polynomial, with
  log/antilog tables for O(1) multiplication, division, inversion and
  exponentiation.
* :class:`GF2Poly` — dense polynomials over GF(2) (bit-packed in an ``int``),
  used to build BCH generator polynomials and the encoder's byte table.
* :class:`GFPoly` — polynomials with coefficients in GF(2^m), used by the
  Berlekamp–Massey decoding stage.  :meth:`GFPoly.distinct_roots` finds
  the roots of an error locator with the Berlekamp trace algorithm, in
  O(m·d²) field operations for a degree-d polynomial, independent of the
  block length.

Everything is pure Python.  The per-page work of the BCH codec lives in
table-driven kernels (:mod:`repro.ecc.bch`); the bit-serial
:meth:`GF2Poly.mod` is used only while a code is constructed.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = [
    "PRIMITIVE_POLYNOMIALS",
    "GF2m",
    "GF2Poly",
    "GFPoly",
]

# Primitive polynomials over GF(2), one per field degree m.  Each entry is the
# polynomial's bit representation; bit i set means the x^i term is present.
# E.g. m=4 -> 0b10011 = x^4 + x + 1.  These are the standard minimal-weight
# primitive polynomials used throughout the coding literature.
PRIMITIVE_POLYNOMIALS = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


class GF2m:
    """The finite field GF(2^m) realised with log/antilog tables.

    Elements are represented as integers in ``[0, 2^m - 1]`` whose bits are
    the coefficients of the element's polynomial representation.  ``alpha``
    (the primitive element) is ``2``, i.e. the polynomial ``x``.

    Parameters
    ----------
    m:
        Field degree.  Must be a key of :data:`PRIMITIVE_POLYNOMIALS`.
    primitive_poly:
        Optional override of the defining primitive polynomial (bit form).
    """

    def __init__(self, m: int, primitive_poly: int | None = None):
        if primitive_poly is None:
            if m not in PRIMITIVE_POLYNOMIALS:
                raise ValueError(
                    f"no primitive polynomial on file for m={m}; "
                    f"supported degrees: {sorted(PRIMITIVE_POLYNOMIALS)}"
                )
            primitive_poly = PRIMITIVE_POLYNOMIALS[m]
        if primitive_poly.bit_length() != m + 1:
            raise ValueError(
                f"primitive polynomial must have degree {m}, got degree "
                f"{primitive_poly.bit_length() - 1}"
            )
        self.m = m
        self.primitive_poly = primitive_poly
        self.order = 1 << m          # |GF(2^m)| = 2^m
        self.size = self.order - 1   # multiplicative group order = 2^m - 1

        # Build exponential (antilog) and logarithm tables by repeatedly
        # multiplying by alpha (= x) and reducing modulo the primitive poly.
        self._exp: List[int] = [0] * (2 * self.size)
        self._log: List[int] = [0] * self.order
        value = 1
        for power in range(self.size):
            if power > 0 and value == 1:
                # alpha's multiplicative order divides `power` < 2^m - 1:
                # the polynomial is irreducible at best, but not primitive.
                raise ValueError(
                    f"polynomial {primitive_poly:#b} is not primitive "
                    f"for m={m} (alpha has order {power})"
                )
            self._exp[power] = value
            self._log[value] = power
            value <<= 1
            if value & self.order:
                value ^= primitive_poly
        if value != 1:
            raise ValueError(
                f"polynomial {primitive_poly:#b} is not primitive for m={m}"
            )
        # Duplicate the table so exp(i + j) never needs an explicit modulo.
        for power in range(self.size, 2 * self.size):
            self._exp[power] = self._exp[power - self.size]

    # -- element operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition (== subtraction): bitwise XOR."""
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log tables."""
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``; raises on division by zero."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % self.size]

    def inv(self, a: int) -> int:
        """Multiplicative inverse."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        return self._exp[self.size - self._log[a]]

    def pow(self, a: int, exponent: int) -> int:
        """Raise element ``a`` to an (arbitrary-sign) integer power."""
        if a == 0:
            if exponent <= 0:
                raise ZeroDivisionError("0 cannot be raised to a non-positive power")
            return 0
        return self._exp[(self._log[a] * exponent) % self.size]

    def alpha_pow(self, exponent: int) -> int:
        """Return alpha^exponent, the workhorse of BCH root bookkeeping."""
        return self._exp[exponent % self.size]

    def log(self, a: int) -> int:
        """Discrete log base alpha."""
        if a == 0:
            raise ValueError("log(0) is undefined")
        return self._log[a]

    def elements(self) -> Iterable[int]:
        """Iterate over all field elements, 0 first then alpha^0..alpha^(n-1)."""
        yield 0
        for power in range(self.size):
            yield self._exp[power]

    # -- minimal polynomials (needed for BCH generator construction) --------

    def minimal_polynomial(self, element: int) -> "GF2Poly":
        """Minimal polynomial over GF(2) of ``element``.

        Computed as the product of ``(x - c)`` over the conjugacy class
        ``{element, element^2, element^4, ...}``.  The result always has
        coefficients in GF(2) by Galois theory; we assert that.
        """
        if element == 0:
            return GF2Poly(0b10)  # just x
        conjugates = []
        current = element
        while current not in conjugates:
            conjugates.append(current)
            current = self.mul(current, current)
        # Multiply out prod (x + c) with coefficients in GF(2^m).
        poly = GFPoly(self, [1])
        for conjugate in conjugates:
            poly = poly.mul(GFPoly(self, [conjugate, 1]))
        bits = 0
        for degree, coeff in enumerate(poly.coeffs):
            if coeff not in (0, 1):
                raise AssertionError(
                    "minimal polynomial has a coefficient outside GF(2); "
                    "field construction is inconsistent"
                )
            if coeff:
                bits |= 1 << degree
        return GF2Poly(bits)

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, primitive_poly={self.primitive_poly:#b})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF2m)
            and other.m == self.m
            and other.primitive_poly == self.primitive_poly
        )

    def __hash__(self) -> int:
        return hash((self.m, self.primitive_poly))


class GF2Poly:
    """A dense polynomial over GF(2), bit-packed into a Python int.

    Bit ``i`` of :attr:`bits` is the coefficient of ``x^i``.  Python's
    arbitrary-precision integers make XOR-based polynomial arithmetic both
    simple and fast, which matters because BCH generator polynomials for
    2KB pages reach degree ~180.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("polynomial bits must be non-negative")
        self.bits = bits

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[int]) -> "GF2Poly":
        """Build from a low-to-high coefficient sequence of 0/1 values."""
        bits = 0
        for degree, coeff in enumerate(coeffs):
            if coeff not in (0, 1):
                raise ValueError("GF(2) coefficients must be 0 or 1")
            if coeff:
                bits |= 1 << degree
        return cls(bits)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def add(self, other: "GF2Poly") -> "GF2Poly":
        return GF2Poly(self.bits ^ other.bits)

    sub = add

    def mul(self, other: "GF2Poly") -> "GF2Poly":
        """Carry-less multiplication."""
        a, b = self.bits, other.bits
        result = 0
        shift = 0
        while b:
            if b & 1:
                result ^= a << shift
            b >>= 1
            shift += 1
        return GF2Poly(result)

    def divmod(self, divisor: "GF2Poly") -> tuple["GF2Poly", "GF2Poly"]:
        """Polynomial long division returning (quotient, remainder)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        remainder = self.bits
        quotient = 0
        divisor_bits = divisor.bits
        divisor_degree = divisor.degree
        while remainder.bit_length() - 1 >= divisor_degree and remainder:
            shift = (remainder.bit_length() - 1) - divisor_degree
            remainder ^= divisor_bits << shift
            quotient |= 1 << shift
        return GF2Poly(quotient), GF2Poly(remainder)

    def mod(self, divisor: "GF2Poly") -> "GF2Poly":
        return self.divmod(divisor)[1]

    def lcm(self, other: "GF2Poly") -> "GF2Poly":
        """Least common multiple via gcd."""
        gcd = self.gcd(other)
        quotient, remainder = self.divmod(gcd)
        if not remainder.is_zero():
            raise AssertionError("gcd does not divide its operand")
        return quotient.mul(other)

    def gcd(self, other: "GF2Poly") -> "GF2Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.mod(b)
        return a

    def evaluate(self, field: GF2m, point: int) -> int:
        """Evaluate at ``point`` in GF(2^m) (Horner's rule)."""
        result = 0
        for degree in range(self.degree, -1, -1):
            result = field.mul(result, point)
            if (self.bits >> degree) & 1:
                result ^= 1
        return result

    def coefficients(self) -> List[int]:
        """Return low-to-high coefficient list (empty for zero poly)."""
        return [(self.bits >> i) & 1 for i in range(self.bits.bit_length())]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2Poly) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("GF2Poly", self.bits))

    def __repr__(self) -> str:
        if self.is_zero():
            return "GF2Poly(0)"
        terms = [
            ("1" if i == 0 else "x" if i == 1 else f"x^{i}")
            for i in range(self.bits.bit_length())
            if (self.bits >> i) & 1
        ]
        return "GF2Poly(" + " + ".join(reversed(terms)) + ")"


class GFPoly:
    """A polynomial with coefficients in GF(2^m), low-order first.

    Used for the decoder-side objects of BCH decoding: the error-locator
    polynomial produced by Berlekamp–Massey and its roots.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF2m, coeffs: Sequence[int] | None = None):
        self.field = field
        trimmed = list(coeffs or [])
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        self.coeffs = trimmed

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def copy(self) -> "GFPoly":
        return GFPoly(self.field, list(self.coeffs))

    def add(self, other: "GFPoly") -> "GFPoly":
        self._check_field(other)
        length = max(len(self.coeffs), len(other.coeffs))
        coeffs = [0] * length
        for i, c in enumerate(self.coeffs):
            coeffs[i] ^= c
        for i, c in enumerate(other.coeffs):
            coeffs[i] ^= c
        return GFPoly(self.field, coeffs)

    def scale(self, scalar: int) -> "GFPoly":
        return GFPoly(self.field, [self.field.mul(c, scalar) for c in self.coeffs])

    def shift(self, amount: int) -> "GFPoly":
        """Multiply by x^amount."""
        if amount < 0:
            raise ValueError("shift amount must be non-negative")
        if self.is_zero():
            return self.copy()
        return GFPoly(self.field, [0] * amount + self.coeffs)

    def mul(self, other: "GFPoly") -> "GFPoly":
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return GFPoly(self.field, [])
        coeffs = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    coeffs[i + j] ^= self.field.mul(a, b)
        return GFPoly(self.field, coeffs)

    def evaluate(self, point: int) -> int:
        """Horner evaluation at a field element."""
        result = 0
        for coeff in reversed(self.coeffs):
            result = self.field.mul(result, point) ^ coeff
        return result

    def derivative(self) -> "GFPoly":
        """Formal derivative; in characteristic 2 even-power terms vanish."""
        coeffs = [
            self.coeffs[i] if i % 2 == 1 else 0
            for i in range(1, len(self.coeffs))
        ]
        return GFPoly(self.field, coeffs)

    def distinct_roots(self) -> List[int]:
        """The distinct roots of the polynomial in GF(2^m), unordered.

        Berlekamp's trace algorithm.  With ``f`` the monic form of degree
        ``d``, the Frobenius powers ``x^(2^i) mod f`` for ``i = 0..m``
        give ``h = gcd(f, x^(2^m) - x)``, the product of ``(x - r)`` over
        the distinct roots ``r`` of ``f`` in the field.  ``h`` is then
        split by ``gcd(h, Tr(beta·x) mod h)`` for ``beta`` running over
        the basis ``1, alpha, .., alpha^(m-1)``: the trace is 0 or 1 at
        every field element, and two distinct roots differ in the trace
        of some basis multiple.  Each ``Tr(beta·x) mod f`` is built once
        from the Frobenius powers and reduced modulo every factor that
        needs it.  Cost is O(m·d²) field operations.
        """
        field = self.field
        if self.is_zero():
            raise ValueError("the zero polynomial vanishes everywhere")
        if self.degree < 1:
            return []
        exp, log, size = field._exp, field._log, field.size
        f = _monic(self.coeffs, exp, log, size)
        x = _divmod([0, 1], f, exp, log)[1]
        frobenius = [x]
        for _ in range(field.m):
            frobenius.append(_square_mod(frobenius[-1], f, exp, log))
        split = _gcd(f, _add(frobenius.pop(), x), exp, log, size)
        return _split_roots(split, _Traces(frobenius, field), 0)

    def _check_field(self, other: "GFPoly") -> None:
        if other.field != self.field:
            raise ValueError("polynomials belong to different fields")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GFPoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __repr__(self) -> str:
        return f"GFPoly(m={self.field.m}, coeffs={self.coeffs})"


# -- coefficient-list kernels of GFPoly.distinct_roots -----------------------
#
# Polynomials are low-order-first lists of field elements with no trailing
# zeros (``[]`` is zero).  ``exp``/``log``/``size`` are a field's tables;
# ``exp`` is doubled, so ``exp[log a + log b]`` needs no modulo.

def _add(a: List[int], b: List[int]) -> List[int]:
    """Sum (== difference) of two polynomials."""
    if len(a) < len(b):
        a, b = b, a
    total = list(a)
    for i, coeff in enumerate(b):
        total[i] ^= coeff
    while total and total[-1] == 0:
        total.pop()
    return total


def _monic(a: List[int], exp: List[int], log: List[int],
           size: int) -> List[int]:
    """Scale a nonzero polynomial so its leading coefficient is 1."""
    lead = a[-1]
    if lead == 1:
        return list(a)
    inverse = size - log[lead]
    return [exp[log[c] + inverse] if c else 0 for c in a]


def _divmod(a: List[int], f: List[int], exp: List[int],
            log: List[int]) -> tuple[List[int], List[int]]:
    """Quotient and remainder of ``a`` by a monic ``f``."""
    degree = len(f) - 1
    tail = [(j, log[c]) for j, c in enumerate(f[:degree]) if c]
    remainder = list(a)
    quotient = [0] * max(len(a) - degree, 0)
    for i in range(len(a) - 1, degree - 1, -1):
        coeff = remainder[i]
        if coeff:
            quotient[i - degree] = coeff
            lead = log[coeff]
            base = i - degree
            for j, log_f in tail:
                remainder[base + j] ^= exp[lead + log_f]
    del remainder[degree:]
    while remainder and remainder[-1] == 0:
        remainder.pop()
    return quotient, remainder


def _square_mod(a: List[int], f: List[int], exp: List[int],
                log: List[int]) -> List[int]:
    """``a² mod f``: squaring in characteristic 2 squares each term."""
    if not a:
        return []
    square = [0] * (2 * len(a) - 1)
    for i, coeff in enumerate(a):
        if coeff:
            square[2 * i] = exp[2 * log[coeff]]
    return _divmod(square, f, exp, log)[1]


def _gcd(a: List[int], b: List[int], exp: List[int], log: List[int],
         size: int) -> List[int]:
    """Monic greatest common divisor; ``a`` must be nonzero."""
    while b:
        b = _monic(b, exp, log, size)
        a, b = b, _divmod(a, b, exp, log)[1]
    return _monic(a, exp, log, size)


class _Traces:
    """``Tr(alpha^k · x) mod f`` for basis index ``k``, built on first use.

    ``frobenius[i]`` is ``x^(2^i) mod f``; the trace is
    ``sum_i alpha^(k·2^i) x^(2^i)``.  Any factor of ``f`` reduces it
    further with one division.
    """

    def __init__(self, frobenius: List[List[int]], field: GF2m):
        self.frobenius = frobenius
        self.field = field
        self._built: dict[int, List[int]] = {}

    def modulo(self, power: int, h: List[int]) -> List[int]:
        field = self.field
        exp, log = field._exp, field._log
        trace = self._built.get(power)
        if trace is None:
            trace = [0] * max(len(frob) for frob in self.frobenius)
            for i, frob in enumerate(self.frobenius):
                scale = (power << i) % field.size
                for j, coeff in enumerate(frob):
                    if coeff:
                        trace[j] ^= exp[scale + log[coeff]]
            while trace and trace[-1] == 0:
                trace.pop()
            self._built[power] = trace
        return _divmod(trace, h, exp, log)[1]


def _split_roots(h: List[int], traces: _Traces, basis: int) -> List[int]:
    """Roots of a monic ``h`` that splits into distinct linear factors.

    Every root of ``h`` shares the trace of ``alpha^j · r`` for
    ``j < basis``, so the search for a separating basis element starts
    at ``basis``.
    """
    if len(h) <= 2:
        # x + r has the root r (characteristic 2); a constant has none.
        return h[:1] if len(h) == 2 else []
    field = traces.field
    exp, log, size = field._exp, field._log, field.size
    for power in range(basis, field.m):
        trace = traces.modulo(power, h)
        if not trace:
            continue
        factor = _gcd(h, trace, exp, log, size)
        if 1 < len(factor) < len(h):
            cofactor = _divmod(h, factor, exp, log)[0]
            return (_split_roots(factor, traces, power + 1)
                    + _split_roots(cofactor, traces, power + 1))
    raise AssertionError("polynomial has a repeated or non-field root")
