"""Bit-serial BCH kernels, kept as a test-only reference for the codec.

:class:`ReferenceBCH` reproduces the straightforward textbook kernels that
:mod:`repro.ecc.bch` replaced with table-driven ones:

* encoding by bit-serial division of ``message * x^p`` by ``g(x)``
  (:meth:`repro.ecc.galois.GF2Poly.mod`);
* syndromes by evaluating every set bit of the received word at
  ``alpha^1 .. alpha^2t``;
* root finding by the n-point Chien sweep, ``sigma(alpha^-i)`` for every
  position ``i`` of the (shortened) block.

It borrows the field, generator polynomial and parameters of a
:class:`repro.ecc.bch.BCHCode`, whose construction did not change, so the
differential tests in ``tests/test_bch.py`` compare only the kernels.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ecc.bch import BCHCode, BCHDecodeFailure, BCHDecodeResult
from repro.ecc.galois import GF2Poly, GFPoly


class ReferenceBCH:
    """The bit-serial encode/decode path over ``code``'s parameters."""

    def __init__(self, code: BCHCode):
        self.code = code
        self.field = code.field
        self.params = code.params
        self.t = code.t

    def encode_bits(self, message: int) -> int:
        if message < 0 or message.bit_length() > self.params.k:
            raise ValueError(
                f"message must fit in k={self.params.k} bits, "
                f"got {message.bit_length()} bits"
            )
        shifted = GF2Poly(message << self.params.parity_bits)
        remainder = shifted.mod(self.code.generator)
        return shifted.bits ^ remainder.bits

    def syndromes(self, received: int) -> List[int]:
        positions = [i for i in range(received.bit_length())
                     if (received >> i) & 1]
        result = []
        for power in range(1, 2 * self.t + 1):
            syndrome = 0
            for position in positions:
                syndrome ^= self.field.alpha_pow(position * power)
            result.append(syndrome)
        return result

    def berlekamp_massey(self, syndromes: Sequence[int]) -> GFPoly:
        field = self.field
        sigma = GFPoly(field, [1])
        prev_sigma = GFPoly(field, [1])
        prev_discrepancy = 1
        length = 0
        shift = 1
        for step, syndrome in enumerate(syndromes):
            discrepancy = syndrome
            for j in range(1, length + 1):
                if j < len(sigma.coeffs) and step - j >= 0:
                    discrepancy ^= field.mul(sigma.coeffs[j],
                                             syndromes[step - j])
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

    def chien_search(self, sigma: GFPoly, word_bits: int) -> List[int]:
        roots = []
        for position in range(word_bits):
            if sigma.evaluate(self.field.alpha_pow(-position)) == 0:
                roots.append(position)
        return roots

    def decode_bits(self, received: int) -> BCHDecodeResult:
        if received < 0 or received.bit_length() > self.params.n:
            raise ValueError(
                f"received word must fit in n={self.params.n} bits"
            )
        syndrome_vector = self.syndromes(received)
        if not any(syndrome_vector):
            return BCHDecodeResult(
                codeword=received, error_positions=(), corrected=0
            )
        sigma = self.berlekamp_massey(syndrome_vector)
        num_errors = sigma.degree
        if num_errors > self.t:
            raise BCHDecodeFailure(
                f"error locator degree {num_errors} exceeds t={self.t}"
            )
        roots = self.chien_search(sigma, self.params.n)
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
