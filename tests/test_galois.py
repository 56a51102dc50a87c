"""Unit and property tests for GF(2^m) arithmetic and polynomials."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.galois import GF2m, GF2Poly, GFPoly, PRIMITIVE_POLYNOMIALS

FIELD = GF2m(8)
SMALL_FIELD = GF2m(4)

nonzero_elements = st.integers(min_value=1, max_value=FIELD.size)
elements = st.integers(min_value=0, max_value=FIELD.size)


class TestFieldConstruction:
    def test_all_supported_degrees_build(self):
        for m in PRIMITIVE_POLYNOMIALS:
            field = GF2m(m)
            assert field.order == 1 << m

    def test_rejects_unknown_degree(self):
        with pytest.raises(ValueError):
            GF2m(25)

    def test_rejects_wrong_degree_polynomial(self):
        with pytest.raises(ValueError):
            GF2m(4, primitive_poly=0b1011)  # degree 3 poly for m=4

    def test_rejects_non_primitive_polynomial(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but not primitive.
        with pytest.raises(ValueError):
            GF2m(4, primitive_poly=0b11111)

    def test_exp_log_are_inverse_bijections(self):
        seen = set()
        for power in range(SMALL_FIELD.size):
            value = SMALL_FIELD.alpha_pow(power)
            assert SMALL_FIELD.log(value) == power
            seen.add(value)
        assert len(seen) == SMALL_FIELD.size

    def test_equality_and_hash(self):
        assert GF2m(8) == GF2m(8)
        assert GF2m(8) != GF2m(7)
        assert hash(GF2m(8)) == hash(GF2m(8))


class TestFieldAxioms:
    @given(a=elements, b=elements)
    def test_addition_is_xor_and_self_inverse(self, a, b):
        assert FIELD.add(a, b) == a ^ b
        assert FIELD.add(FIELD.add(a, b), b) == a

    @given(a=elements, b=elements, c=elements)
    def test_multiplication_associative(self, a, b, c):
        assert FIELD.mul(FIELD.mul(a, b), c) == FIELD.mul(a, FIELD.mul(b, c))

    @given(a=elements, b=elements)
    def test_multiplication_commutative(self, a, b):
        assert FIELD.mul(a, b) == FIELD.mul(b, a)

    @given(a=elements, b=elements, c=elements)
    def test_distributive(self, a, b, c):
        left = FIELD.mul(a, b ^ c)
        right = FIELD.mul(a, b) ^ FIELD.mul(a, c)
        assert left == right

    @given(a=nonzero_elements)
    def test_inverse(self, a):
        assert FIELD.mul(a, FIELD.inv(a)) == 1

    @given(a=nonzero_elements, b=nonzero_elements)
    def test_div_is_mul_by_inverse(self, a, b):
        assert FIELD.div(a, b) == FIELD.mul(a, FIELD.inv(b))

    @given(a=nonzero_elements,
           e=st.integers(min_value=-300, max_value=300))
    def test_pow_matches_repeated_multiplication(self, a, e):
        expected = 1
        base = a if e >= 0 else FIELD.inv(a)
        for _ in range(abs(e)):
            expected = FIELD.mul(expected, base)
        assert FIELD.pow(a, e) == expected

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            FIELD.div(5, 0)
        with pytest.raises(ZeroDivisionError):
            FIELD.inv(0)

    def test_elements_iterates_whole_field(self):
        assert len(set(FIELD.elements())) == FIELD.order


class TestMinimalPolynomials:
    def test_minimal_polynomial_annihilates_element(self):
        for power in (1, 2, 3, 5):
            element = SMALL_FIELD.alpha_pow(power)
            minimal = SMALL_FIELD.minimal_polynomial(element)
            assert minimal.evaluate(SMALL_FIELD, element) == 0

    def test_minimal_polynomial_of_alpha_is_primitive_poly(self):
        minimal = SMALL_FIELD.minimal_polynomial(2)
        assert minimal.bits == SMALL_FIELD.primitive_poly

    def test_conjugates_share_minimal_polynomial(self):
        a = SMALL_FIELD.alpha_pow(3)
        conj = SMALL_FIELD.mul(a, a)
        assert (SMALL_FIELD.minimal_polynomial(a)
                == SMALL_FIELD.minimal_polynomial(conj))


poly_bits = st.integers(min_value=0, max_value=(1 << 24) - 1)


class TestGF2Poly:
    def test_degree(self):
        assert GF2Poly(0).degree == -1
        assert GF2Poly(1).degree == 0
        assert GF2Poly(0b1011).degree == 3

    def test_from_coefficients_roundtrip(self):
        poly = GF2Poly.from_coefficients([1, 0, 1, 1])
        assert poly.bits == 0b1101

    def test_from_coefficients_rejects_non_binary(self):
        with pytest.raises(ValueError):
            GF2Poly.from_coefficients([1, 2])

    @given(a=poly_bits, b=poly_bits)
    def test_addition_is_xor(self, a, b):
        assert GF2Poly(a).add(GF2Poly(b)).bits == a ^ b

    @given(a=poly_bits, b=st.integers(min_value=1, max_value=(1 << 12) - 1))
    def test_divmod_reconstructs(self, a, b):
        dividend, divisor = GF2Poly(a), GF2Poly(b)
        quotient, remainder = dividend.divmod(divisor)
        assert quotient.mul(divisor).add(remainder) == dividend
        assert remainder.degree < divisor.degree

    @given(a=poly_bits, b=poly_bits)
    def test_multiplication_degree_adds(self, a, b):
        pa, pb = GF2Poly(a), GF2Poly(b)
        product = pa.mul(pb)
        if a == 0 or b == 0:
            assert product.is_zero()
        else:
            assert product.degree == pa.degree + pb.degree

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF2Poly(0b101).divmod(GF2Poly(0))

    @given(a=st.integers(min_value=1, max_value=(1 << 10) - 1),
           b=st.integers(min_value=1, max_value=(1 << 10) - 1))
    def test_gcd_divides_both(self, a, b):
        gcd = GF2Poly(a).gcd(GF2Poly(b))
        assert GF2Poly(a).mod(gcd).is_zero()
        assert GF2Poly(b).mod(gcd).is_zero()

    @given(a=st.integers(min_value=1, max_value=(1 << 8) - 1),
           b=st.integers(min_value=1, max_value=(1 << 8) - 1))
    def test_lcm_is_multiple_of_both(self, a, b):
        lcm = GF2Poly(a).lcm(GF2Poly(b))
        assert lcm.mod(GF2Poly(a)).is_zero()
        assert lcm.mod(GF2Poly(b)).is_zero()

    def test_repr_readable(self):
        assert repr(GF2Poly(0b1011)) == "GF2Poly(x^3 + x + 1)"


class TestGFPoly:
    def test_trims_leading_zeros(self):
        poly = GFPoly(SMALL_FIELD, [1, 2, 0, 0])
        assert poly.coeffs == [1, 2]
        assert poly.degree == 1

    def test_evaluate_horner(self):
        # p(x) = 3 + 2x + x^2 over GF(16), at x = 1: 3 ^ 2 ^ 1 = 0.
        poly = GFPoly(SMALL_FIELD, [3, 2, 1])
        assert poly.evaluate(1) == 0

    def test_mul_matches_known_product(self):
        # (x + 1)(x + 1) = x^2 + 1 in characteristic 2.
        one_plus_x = GFPoly(SMALL_FIELD, [1, 1])
        product = one_plus_x.mul(one_plus_x)
        assert product.coeffs == [1, 0, 1]

    def test_derivative_drops_even_terms(self):
        poly = GFPoly(SMALL_FIELD, [5, 4, 3, 2, 1])
        derivative = poly.derivative()
        assert derivative.coeffs == [4, 0, 2]

    def test_shift(self):
        poly = GFPoly(SMALL_FIELD, [1, 2])
        assert poly.shift(2).coeffs == [0, 0, 1, 2]
        with pytest.raises(ValueError):
            poly.shift(-1)

    def test_cross_field_operations_rejected(self):
        a = GFPoly(SMALL_FIELD, [1])
        b = GFPoly(FIELD, [1])
        with pytest.raises(ValueError):
            a.add(b)


def _product_of_linear_factors(field, roots):
    poly = GFPoly(field, [1])
    for root in roots:
        poly = poly.mul(GFPoly(field, [root, 1]))
    return poly


class TestDistinctRoots:
    """The trace-algorithm root finder against exhaustive evaluation."""

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.lists(elements, min_size=1, max_size=10))
    def test_matches_exhaustive_search(self, coeffs):
        poly = GFPoly(FIELD, coeffs)
        if poly.is_zero():
            return
        expected = {e for e in FIELD.elements() if poly.evaluate(e) == 0}
        roots = poly.distinct_roots()
        assert len(roots) == len(expected)
        assert set(roots) == expected

    @settings(max_examples=30, deadline=None)
    @given(roots=st.sets(elements, min_size=1, max_size=16),
           scale=nonzero_elements)
    def test_split_polynomial_yields_every_root(self, roots, scale):
        poly = _product_of_linear_factors(FIELD, sorted(roots)).scale(scale)
        assert sorted(poly.distinct_roots()) == sorted(roots)

    def test_repeated_root_counts_once(self):
        a, b = FIELD.alpha_pow(5), FIELD.alpha_pow(77)
        poly = _product_of_linear_factors(FIELD, [a, a, b])
        assert poly.degree == 3
        assert sorted(poly.distinct_roots()) == sorted([a, b])

    def test_irreducible_factor_has_no_roots(self):
        # x^2 + x + 1 is irreducible over GF(2^m) for odd m.
        field = GF2m(5)
        assert GFPoly(field, [1, 1, 1]).distinct_roots() == []
        poly = GFPoly(field, [1, 1, 1]).mul(GFPoly(field, [7, 1]))
        assert poly.distinct_roots() == [7]

    def test_constant_and_zero(self):
        assert GFPoly(FIELD, [9]).distinct_roots() == []
        with pytest.raises(ValueError):
            GFPoly(FIELD, []).distinct_roots()
