"""BCH codec tests: round trips, correction capability, detection, the
paper's 2KB-page budget (section 4.1)."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.bch import (
    BCHCode,
    BCHDecodeFailure,
    design_code_for_page,
    parity_bits_required,
    parity_bytes_required,
)

from .bch_reference import ReferenceBCH


class TestParameters:
    def test_parity_bound(self):
        assert parity_bits_required(15, 12) == 180
        assert parity_bytes_required(15, 12) == 23  # the paper's 23 bytes

    def test_parameters_satisfy_bound(self):
        for m, t in [(5, 1), (7, 2), (8, 3), (10, 4)]:
            code = BCHCode(m, t)
            assert code.params.parity_bits <= parity_bits_required(m, t)
            assert code.params.n == (1 << m) - 1
            assert code.params.k == code.params.n - code.params.parity_bits

    def test_rate_and_parity_bytes(self):
        code = BCHCode(7, 2)
        assert 0 < code.params.rate < 1
        assert code.params.parity_bytes == (code.params.parity_bits + 7) // 8

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            BCHCode(7, 0)

    def test_rejects_overfull_code(self):
        # BCH(15, k=1, t=7) is the degenerate single-message-bit code; one
        # more root consumes the last message bit and must be rejected.
        assert BCHCode(4, 7).params.k == 1
        with pytest.raises(ValueError):
            BCHCode(4, 8)

    def test_shortening(self):
        code = BCHCode(8, 2, data_bits=64)
        assert code.params.k == 64
        assert code.params.shortening == (255 - code.params.parity_bits) - 64
        assert code.params.n == 64 + code.params.parity_bits

    def test_shortening_beyond_parent_rejected(self):
        with pytest.raises(ValueError):
            BCHCode(5, 1, data_bits=1000)


class TestEncoding:
    def test_encode_is_systematic(self):
        code = BCHCode(7, 2)
        message = 0b101101
        codeword = code.encode_bits(message)
        assert codeword >> code.params.parity_bits == message

    def test_codeword_divisible_by_generator(self):
        from repro.ecc.galois import GF2Poly
        code = BCHCode(7, 2)
        codeword = code.encode_bits(12345)
        assert GF2Poly(codeword).mod(code.generator).is_zero()

    def test_encode_rejects_oversized_message(self):
        code = BCHCode(5, 1)
        with pytest.raises(ValueError):
            code.encode_bits(1 << code.params.k)

    def test_byte_interface_roundtrip(self):
        code = BCHCode(10, 3, data_bits=64 * 8)
        payload = bytes(range(64))
        stored, parity = code.encode(payload)
        assert stored == payload
        assert len(parity) == code.params.parity_bytes
        decoded, corrected = code.decode(payload, parity)
        assert decoded == payload
        assert corrected == 0


class TestDecoding:
    def test_zero_errors(self):
        code = BCHCode(7, 2)
        codeword = code.encode_bits(99)
        result = code.decode_bits(codeword)
        assert result.codeword == codeword
        assert result.error_positions == ()

    @pytest.mark.parametrize("m,t", [(5, 1), (7, 2), (8, 3), (9, 4), (10, 5)])
    def test_corrects_up_to_t_errors(self, m, t):
        code = BCHCode(m, t)
        rng = random.Random(m * 100 + t)
        for trial in range(10):
            message = rng.getrandbits(code.params.k)
            codeword = code.encode_bits(message)
            for num_errors in range(1, t + 1):
                corrupted = codeword
                positions = rng.sample(range(code.params.n), num_errors)
                for position in positions:
                    corrupted ^= 1 << position
                result = code.decode_bits(corrupted)
                assert result.codeword == codeword
                assert result.corrected == num_errors
                assert set(result.error_positions) == set(positions)

    def test_shortened_code_corrects(self):
        code = BCHCode(9, 3, data_bits=128)
        rng = random.Random(4)
        message = rng.getrandbits(128)
        codeword = code.encode_bits(message)
        corrupted = codeword ^ (1 << 5) ^ (1 << 100) ^ (1 << 130)
        result = code.decode_bits(corrupted)
        assert code.extract_message(result.codeword) == message

    def test_beyond_t_mostly_detected_and_never_silently_wrong_with_crc(self):
        """Patterns heavier than t either raise or produce a codeword that
        differs from the original — the CRC catches the latter case."""
        code = BCHCode(8, 2)
        rng = random.Random(11)
        outcomes = {"detected": 0, "miscorrected": 0}
        for trial in range(40):
            message = rng.getrandbits(code.params.k)
            codeword = code.encode_bits(message)
            corrupted = codeword
            for position in rng.sample(range(code.params.n), 2 * code.t + 1):
                corrupted ^= 1 << position
            try:
                result = code.decode_bits(corrupted)
            except BCHDecodeFailure:
                outcomes["detected"] += 1
            else:
                if result.codeword != codeword:
                    outcomes["miscorrected"] += 1
        assert outcomes["detected"] > 0
        # Every non-detected case is a false positive the CRC layer exists
        # to catch; none may silently return the original codeword, because
        # 5 errors can never look like <= 2 errors of the same word.
        assert outcomes["detected"] + outcomes["miscorrected"] == 40

    @pytest.mark.parametrize("m,t", [(7, 2), (8, 3), (9, 4)])
    def test_exactly_t_errors_is_the_correction_boundary(self, m, t):
        """The edge the adaptive controller's ECC ladder lives on: a
        pattern of exactly t errors always corrects, and the same
        pattern plus one more error never quietly returns the original
        codeword — it either raises or lands on a different word."""
        code = BCHCode(m, t)
        rng = random.Random(m * 1000 + t)
        for trial in range(10):
            message = rng.getrandbits(code.params.k)
            codeword = code.encode_bits(message)
            positions = rng.sample(range(code.params.n), t + 1)
            at_t = codeword
            for position in positions[:t]:
                at_t ^= 1 << position
            result = code.decode_bits(at_t)
            assert result.codeword == codeword
            assert result.corrected == t
            beyond_t = at_t ^ (1 << positions[t])
            try:
                beyond = code.decode_bits(beyond_t)
            except BCHDecodeFailure:
                continue
            assert beyond.codeword != codeword

    def test_decode_rejects_oversized_word(self):
        code = BCHCode(5, 1)
        with pytest.raises(ValueError):
            code.decode_bits(1 << code.params.n)

    def test_byte_interface_corrects(self):
        code = BCHCode(10, 4, data_bits=32 * 8)
        payload = bytes(range(32))
        _, parity = code.encode(payload)
        corrupted = bytearray(payload)
        corrupted[3] ^= 0x10
        corrupted[30] ^= 0x01
        decoded, corrected = code.decode(bytes(corrupted), parity)
        assert decoded == payload
        assert corrected == 2

    def test_parity_padding_bits_are_ignored(self):
        """15 parity bits fill two spare bytes; bit 15 is padding and must
        never reach the message."""
        code = BCHCode(15, 1, data_bits=64)
        assert code.params.parity_bits == 15
        assert code.params.parity_bytes == 2
        for fill in (0x00, 0xFF):
            payload = bytes([fill]) * 8
            _, parity = code.encode(payload)
            padded = (int.from_bytes(parity, "little") | 1 << 15).to_bytes(
                2, "little")
            assert code.decode(payload, padded) == (payload, 0)
            # One real error on message bit 0 stays one correctable error.
            corrupted = bytes([fill ^ 0x01]) + payload[1:]
            assert code.decode(corrupted, padded) == (payload, 1)


@settings(max_examples=25, deadline=None)
@given(message=st.integers(min_value=0, max_value=(1 << 113) - 1),
       errors=st.sets(st.integers(min_value=0, max_value=126),
                      min_size=0, max_size=2))
def test_property_roundtrip_bch_127_2(message, errors):
    """Property: BCH(127, t=2) corrects any <=2-bit error pattern."""
    code = BCHCode(7, 2)
    codeword = code.encode_bits(message)
    corrupted = codeword
    for position in errors:
        corrupted ^= 1 << position
    result = code.decode_bits(corrupted)
    assert code.extract_message(result.codeword) == message
    assert result.corrected == len(errors)


class TestPageCodec:
    """The section 4.1 design point: 2KB page, up to 12 correctable bits."""

    def test_picks_m15_for_2kb_pages(self):
        for t in (1, 4, 12):
            code = design_code_for_page(2048, t)
            assert code.params.m == 15
            assert code.params.k == 2048 * 8

    def test_parity_fits_spare_budget(self):
        """CRC32 takes 4 of the 64 spare bytes; BCH must fit in 60."""
        code = design_code_for_page(2048, 12)
        assert code.params.parity_bytes <= 60
        assert code.params.parity_bytes <= 23  # paper: "a maximum of 23"

    def test_page_roundtrip_with_errors(self):
        code = design_code_for_page(2048, 3)
        rng = random.Random(21)
        payload = bytes(rng.randrange(256) for _ in range(2048))
        _, parity = code.encode(payload)
        corrupted = bytearray(payload)
        corrupted[0] ^= 0x80
        corrupted[1024] ^= 0x01
        corrupted[2047] ^= 0x40
        decoded, corrected = code.decode(bytes(corrupted), parity)
        assert decoded == payload
        assert corrected == 3

    def test_small_page_uses_smaller_field(self):
        code = design_code_for_page(16, 2)
        assert code.params.m < 15
        assert code.params.k == 16 * 8

    def test_impossible_page_rejected(self):
        with pytest.raises(ValueError):
            design_code_for_page(1 << 16, 12)


# -- differential tests against the bit-serial reference kernels -------------

@lru_cache(maxsize=128)
def _code(m, t, data_bits=None):
    return BCHCode(m, t, data_bits=data_bits)


def _decode_outcome(decoder, word):
    try:
        return decoder(word)
    except BCHDecodeFailure as failure:
        return ("BCHDecodeFailure", str(failure))


def _assert_matches_reference(code, message, errors):
    """Identical parity, syndromes and decode outcome on both paths."""
    reference = ReferenceBCH(code)
    codeword = code.encode_bits(message)
    assert codeword == reference.encode_bits(message)
    word = codeword
    for position in errors:
        word ^= 1 << position
    assert code.syndromes(word) == reference.syndromes(word)
    outcome = _decode_outcome(code.decode_bits, word)
    assert outcome == _decode_outcome(reference.decode_bits, word)
    return outcome


@st.composite
def _codes(draw):
    """m = 3..10 with every valid t, half the draws in the paper's 1..12;
    t = 2^(m-1) - 1 is the last t with a message bit (k = 1)."""
    m = draw(st.sampled_from(range(3, 11)))
    t_max = (1 << (m - 1)) - 1
    t = draw(st.one_of(st.sampled_from(range(1, min(12, t_max) + 1)),
                       st.sampled_from(range(1, t_max + 1))))
    k = _code(m, t).params.k
    data_bits = draw(st.one_of(st.none(),
                               st.integers(min_value=1, max_value=k)))
    return _code(m, t, data_bits)


@settings(max_examples=300, deadline=None)
@given(code=_codes(), data=st.data())
def test_kernels_match_bit_serial_reference(code, data):
    """Table-driven encoder, remainder syndromes and trace-algorithm roots
    agree with bit-serial division, per-bit syndromes and the Chien sweep,
    for 0..t+3 errors (half the draws beyond t): the same codeword, or
    the same failure."""
    n, k, t = code.params.n, code.params.k, code.t
    message = data.draw(st.integers(min_value=0, max_value=(1 << k) - 1))
    count = data.draw(st.one_of(
        st.sampled_from(range(0, t + 1)),
        st.sampled_from(range(t + 1, max(t + 1, min(t + 3, n)) + 1))))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    errors = random.Random(seed).sample(range(n), count)
    _assert_matches_reference(code, message, errors)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_sub_byte_parity_codes_match_reference(m):
    """t = 1 codes with m < 8 have fewer than 8 parity bits: the encoder
    runs on m-bit chunks."""
    code = _code(m, 1)
    assert code.params.parity_bits == m < 8
    rng = random.Random(m)
    messages = (range(1 << code.params.k) if code.params.k <= 11
                else [rng.getrandbits(code.params.k) for _ in range(200)])
    reference = ReferenceBCH(code)
    for message in messages:
        assert code.encode_bits(message) == reference.encode_bits(message)
    for _ in range(20):
        _assert_matches_reference(
            code, rng.getrandbits(code.params.k),
            rng.sample(range(code.params.n), rng.randrange(4)))


@pytest.mark.parametrize("t", [1, 6, 12])
def test_2kb_page_matches_reference(t):
    """The section 4.1 code (m = 15, 2KB page) at the ends and middle of
    the controller's range: t errors correct, t + 1 behave identically."""
    code = design_code_for_page(2048, t)
    reference = ReferenceBCH(code)
    rng = random.Random(1000 + t)
    payload = rng.randbytes(2048)
    _, parity = code.encode(payload)
    message = int.from_bytes(payload, "little")
    reference_parity = reference.encode_bits(message) & (
        (1 << code.params.parity_bits) - 1)
    assert parity == reference_parity.to_bytes(code.params.parity_bytes,
                                               "little")
    positions = rng.sample(range(code.params.n), t + 1)
    at_t = _assert_matches_reference(code, message, positions[:t])
    assert at_t.corrected == t
    assert set(at_t.error_positions) == set(positions[:t])
    _assert_matches_reference(code, message, positions)
