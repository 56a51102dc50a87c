"""Binary BCH encoder/decoder (table-driven kernels + Berlekamp–Massey).

The paper's programmable Flash memory controller (section 4.1) uses
t-error-correcting BCH codes over 2KB Flash pages with ``t`` programmable
from 1 to 12.  This module is a complete, functional implementation of that
codec:

* :class:`BCHCode` — a (possibly shortened) binary BCH code with parameters
  ``(n = 2^m - 1, k, t)``, systematic encoding, and full hard-decision
  decoding: syndrome computation, Berlekamp–Massey error-locator
  synthesis, and root finding.
* :func:`design_code_for_page` — pick the smallest field degree ``m`` that
  fits a Flash page payload, mirroring the paper's check-bit budget
  (``n - k >= m * t``; for 2KB pages ``m = 15`` and 12-bit correction costs
  at most 23 bytes of the 64-byte spare area).

The per-page kernels cost O(page bytes + m·t²):

* **Encoding** is a table-driven LFSR.  Each code builds, once, the
  remainders ``i·x^p mod g(x)`` for every ``w``-bit chunk ``i``
  (``w = min(8, p)``, ``p`` parity bits), then folds the message into a
  ``p``-bit register one chunk at a time.
* **Syndromes** evaluate the ``p``-bit remainder ``r mod g`` instead of the
  whole word: ``g(alpha^j) = 0`` for ``j <= 2t``, so
  ``S_j = (r mod g)(alpha^j)``.  Only odd ``j`` are evaluated; binary codes
  have ``S_2j = S_j²``.
* **Root finding** runs Berlekamp's trace algorithm on the error locator
  (:meth:`repro.ecc.galois.GFPoly.distinct_roots`), O(m·t²) field
  operations, independent of the block length n.

On a 2-vCPU VM one 2KB page, encoded and decoded with t injected errors,
takes about 0.8 ms at t = 1 and 2 ms at t = 12.  Bit-serial kernels,
the n-point Chien sweep included, are kept as a test-only reference in
``tests/bch_reference.py``.

Decoding failure is reported, never silently mis-corrected: if the locator
does not have as many distinct roots inside the block as its degree,
:class:`BCHDecodeFailure` is raised (the caller is expected to combine BCH
with the CRC from :mod:`repro.ecc.crc`, as the controller does, to catch
false positives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from .galois import GF2m, GF2Poly, GFPoly

__all__ = [
    "BCHParameters",
    "BCHDecodeResult",
    "BCHDecodeFailure",
    "BCHCode",
    "design_code_for_page",
    "parity_bits_required",
    "parity_bytes_required",
]


class BCHDecodeFailure(Exception):
    """Raised when the decoder detects more errors than it can correct."""


@dataclass(frozen=True)
class BCHParameters:
    """Static parameters of a (shortened) binary BCH code.

    Attributes
    ----------
    m: field degree; the parent code has block length ``2^m - 1``.
    t: designed error-correction capability in bits.
    n: block length in bits (after shortening, if any).
    k: message length in bits (after shortening).
    parity_bits: ``n - k``, the generator polynomial degree.
    shortening: number of message bits removed from the parent code.
    """

    m: int
    t: int
    n: int
    k: int
    parity_bits: int
    shortening: int

    @property
    def rate(self) -> float:
        """Code rate k/n."""
        return self.k / self.n

    @property
    def parity_bytes(self) -> int:
        """Parity overhead rounded up to whole bytes (spare-area budget)."""
        return (self.parity_bits + 7) // 8


def parity_bits_required(m: int, t: int) -> int:
    """Upper bound ``m * t`` on parity bits for a t-error-correcting code.

    The exact generator degree can be slightly smaller when conjugacy
    classes of consecutive roots coincide; the paper budgets with the bound.
    """
    return m * t


def parity_bytes_required(m: int, t: int) -> int:
    """Parity overhead in bytes for the ``m * t`` bound."""
    return (parity_bits_required(m, t) + 7) // 8


class BCHCode:
    """A t-error-correcting binary BCH code, optionally shortened.

    Parameters
    ----------
    m:
        Field degree.  The parent block length is ``n_parent = 2^m - 1``.
    t:
        Designed number of correctable bit errors (``t >= 1``).
    data_bits:
        Message length in bits.  If omitted, the full parent message length
        ``k_parent`` is used.  If smaller, the code is *shortened* by fixing
        the leading message bits to zero — exactly how a 2KB-page code is
        carved out of the m=15 parent code.
    """

    def __init__(self, m: int, t: int, data_bits: int | None = None):
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        self.field = GF2m(m)
        self.m = m
        self.t = t
        self._n_parent = self.field.size  # 2^m - 1

        self.generator = self._build_generator()
        parity = self.generator.degree
        k_parent = self._n_parent - parity
        if k_parent <= 0:
            raise ValueError(
                f"BCH(m={m}, t={t}) has no message bits "
                f"(parity {parity} >= block {self._n_parent})"
            )
        if data_bits is None:
            data_bits = k_parent
        if data_bits < 1:
            raise ValueError("data_bits must be positive")
        if data_bits > k_parent:
            raise ValueError(
                f"data_bits={data_bits} exceeds parent message length "
                f"{k_parent} for BCH(m={m}, t={t}); use a larger m"
            )
        shortening = k_parent - data_bits
        self.params = BCHParameters(
            m=m,
            t=t,
            n=self._n_parent - shortening,
            k=data_bits,
            parity_bits=parity,
            shortening=shortening,
        )
        self._parity_mask: int = (1 << parity) - 1
        self._chunk_bits: int = min(8, parity)
        self._chunk_table: List[int] = [
            GF2Poly(chunk << parity).mod(self.generator).bits
            for chunk in range(1 << self._chunk_bits)
        ]

    # -- construction --------------------------------------------------------

    def _build_generator(self) -> GF2Poly:
        """Generator polynomial: lcm of minimal polynomials of alpha^1..alpha^2t."""
        generator = GF2Poly(0b1)
        seen: set[GF2Poly] = set()
        for power in range(1, 2 * self.t + 1):
            minimal = self.field.minimal_polynomial(self.field.alpha_pow(power))
            if minimal in seen:
                continue
            seen.add(minimal)
            generator = generator.mul(minimal)
        return generator

    # -- encoding ------------------------------------------------------------

    def encode_bits(self, message: int) -> int:
        """Systematically encode a ``k``-bit message (int bit-vector).

        Bit ``i`` of ``message`` is message bit ``i``.  The returned codeword
        has the parity bits in the low ``parity_bits`` positions and the
        message shifted above them, so ``codeword >> parity_bits == message``.
        """
        if message < 0 or message.bit_length() > self.params.k:
            raise ValueError(
                f"message must fit in k={self.params.k} bits, "
                f"got {message.bit_length()} bits"
            )
        return (message << self.params.parity_bits) | self._remainder(message)

    def _remainder(self, message: int) -> int:
        """``message · x^p mod g(x)``, one table lookup per ``w``-bit chunk.

        The chunks run from the most significant end; padding the top chunk
        with zeros does not change the remainder.
        """
        width = self._chunk_bits
        chunk_count = -(-message.bit_length() // width)
        chunks: Iterable[int]
        if width == 8:
            chunks = message.to_bytes(chunk_count, "big")
        else:
            chunk_mask = (1 << width) - 1
            chunks = [(message >> shift) & chunk_mask
                      for shift in range(width * (chunk_count - 1), -1, -width)]
        table = self._chunk_table
        low_mask = self._parity_mask >> width
        top = self.params.parity_bits - width
        register = 0
        for chunk in chunks:
            register = ((register & low_mask) << width) ^ table[
                (register >> top) ^ chunk]
        return register

    def encode(self, data: bytes) -> tuple[bytes, bytes]:
        """Encode a byte payload; returns ``(data, parity_bytes)``.

        Convenience wrapper used by the Flash controller: the payload is
        stored unmodified in the page data area and the parity lands in the
        spare area.
        """
        message = int.from_bytes(data, "little")
        if len(data) * 8 > self.params.k:
            raise ValueError(
                f"payload of {len(data)} bytes exceeds k={self.params.k} bits"
            )
        parity = self._remainder(message)
        return data, parity.to_bytes(self.params.parity_bytes, "little")

    # -- decoding ------------------------------------------------------------

    def syndromes(self, received: int) -> List[int]:
        """Evaluate the received word at alpha^1 .. alpha^2t.

        A zero syndrome vector certifies (up to the code's guarantees) an
        error-free word.  Shortening does not change syndrome computation
        because the removed positions are zeros.

        Every ``alpha^j`` with ``j <= 2t`` is a root of ``g``, so the word
        and its remainder ``r mod g`` (at most ``p`` bits) take the same
        values there.  Odd ``j`` are evaluated on the remainder's set bits;
        even ones follow from ``S_2j = S_j²``.
        """
        parity_bits = self.params.parity_bits
        remainder = (self._remainder(received >> parity_bits)
                     ^ (received & self._parity_mask))
        exps = self.field._exp
        logs = self.field._log
        size = self.field.size
        terms = [i for i in range(remainder.bit_length())
                 if (remainder >> i) & 1]
        result = [0] * (2 * self.t + 1)
        for power in range(1, 2 * self.t + 1, 2):
            syndrome = 0
            for term in terms:
                syndrome ^= exps[(term * power) % size]
            result[power] = syndrome
        for power in range(2, 2 * self.t + 1, 2):
            half = result[power // 2]
            result[power] = exps[2 * logs[half]] if half else 0
        return result[1:]

    def _berlekamp_massey(self, syndromes: Sequence[int]) -> GFPoly:
        """Synthesise the error-locator polynomial sigma(x).

        Standard Berlekamp–Massey iteration over 2t syndromes; returns
        sigma with sigma(0) = 1 and degree equal to the number of errors
        (when that number is <= t).
        """
        field = self.field
        sigma = GFPoly(field, [1])
        prev_sigma = GFPoly(field, [1])
        prev_discrepancy = 1
        length = 0
        shift = 1
        for step, syndrome in enumerate(syndromes):
            # Discrepancy: next syndrome predicted vs observed.
            discrepancy = syndrome
            for j in range(1, length + 1):
                if j < len(sigma.coeffs) and step - j >= 0:
                    discrepancy ^= field.mul(sigma.coeffs[j], syndromes[step - j])
            if discrepancy == 0:
                shift += 1
                continue
            correction = prev_sigma.scale(
                field.div(discrepancy, prev_discrepancy)
            ).shift(shift)
            candidate = sigma.add(correction)
            if 2 * length <= step:
                prev_sigma, sigma = sigma, candidate
                prev_discrepancy = discrepancy
                length = step + 1 - length
                shift = 1
            else:
                sigma = candidate
                shift += 1
        return sigma

    def _error_positions(self, sigma: GFPoly) -> List[int]:
        """Ascending positions i < n with sigma(alpha^{-i}) = 0.

        Only the distinct field roots of sigma are found, so a repeated
        root, a root outside GF(2^m), or a root pointing into the shortened
        (always-zero) prefix all leave fewer positions than the locator
        degree — a decoding failure the caller detects.
        """
        size = self.field.size
        positions = [(size - self.field.log(root)) % size
                     for root in sigma.distinct_roots()]
        return sorted(p for p in positions if p < self.params.n)

    def decode_bits(self, received: int) -> "BCHDecodeResult":
        """Decode an ``n``-bit received word (int bit-vector).

        Returns the corrected codeword and error positions.  Raises
        :class:`BCHDecodeFailure` if the error pattern is detectably
        uncorrectable (locator degree > t, or root count mismatch).
        """
        if received < 0 or received.bit_length() > self.params.n:
            raise ValueError(
                f"received word must fit in n={self.params.n} bits"
            )
        syndrome_vector = self.syndromes(received)
        if not any(syndrome_vector):
            return BCHDecodeResult(
                codeword=received, error_positions=(), corrected=0
            )
        sigma = self._berlekamp_massey(syndrome_vector)
        num_errors = sigma.degree
        if num_errors > self.t:
            raise BCHDecodeFailure(
                f"error locator degree {num_errors} exceeds t={self.t}"
            )
        roots = self._error_positions(sigma)
        if len(roots) != num_errors:
            raise BCHDecodeFailure(
                f"locator has {len(roots)} roots in the block for degree "
                f"{num_errors}; more than t={self.t} errors present"
            )
        corrected = received
        for position in roots:
            corrected ^= 1 << position
        if any(self.syndromes(corrected)):
            raise BCHDecodeFailure("correction did not zero the syndromes")
        return BCHDecodeResult(
            codeword=corrected,
            error_positions=tuple(sorted(roots)),
            corrected=len(roots),
        )

    def decode(self, data: bytes, parity: bytes) -> tuple[bytes, int]:
        """Decode a byte payload with its spare-area parity.

        Returns ``(corrected_data, num_corrected_bits)``.  Raises
        :class:`BCHDecodeFailure` when uncorrectable.
        """
        message = int.from_bytes(data, "little")
        # The last spare byte's unused high bits are not part of the code.
        parity_value = int.from_bytes(parity, "little") & self._parity_mask
        received = (message << self.params.parity_bits) | parity_value
        result = self.decode_bits(received)
        corrected_message = result.codeword >> self.params.parity_bits
        return (
            corrected_message.to_bytes(len(data), "little"),
            result.corrected,
        )

    def extract_message(self, codeword: int) -> int:
        """Strip parity from a (corrected) codeword."""
        return codeword >> self.params.parity_bits

    def __repr__(self) -> str:
        p = self.params
        return f"BCHCode(m={p.m}, t={p.t}, n={p.n}, k={p.k})"


@dataclass(frozen=True)
class BCHDecodeResult:
    """Outcome of a successful BCH decode."""

    codeword: int
    error_positions: tuple[int, ...]
    corrected: int


def design_code_for_page(page_bytes: int, t: int) -> BCHCode:
    """Construct the smallest-field shortened BCH code covering a page.

    Chooses the minimal ``m`` such that the parent code's message length
    ``(2^m - 1) - m*t`` holds ``page_bytes * 8`` data bits, then shortens to
    exactly the page size.  For the paper's 2KB page and t <= 12 this yields
    ``m = 15`` and at most 23 parity bytes — matching section 4.1's budget
    of 60 spare bytes for BCH after CRC32 takes 4.
    """
    data_bits = page_bytes * 8
    for m in range(3, 17):
        parent_n = (1 << m) - 1
        if parent_n - parity_bits_required(m, t) >= data_bits:
            return BCHCode(m, t, data_bits=data_bits)
    raise ValueError(
        f"no supported field degree fits page_bytes={page_bytes}, t={t}"
    )
