import random
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cipherobs.modring import (
    MAX_MODULUS_BITS,
    DimensionMismatch,
    ModMatrix,
    Modulus,
    ModulusMismatch,
    mat_mul_mod,
    PrimalityError,
    SingularMatrix,
    digit_budget,
    fixed_digits,
    half_limbs,
    inverse_mod,
    join_digit_sums,
)
from cipherobs.modring import _is_probable_prime, _reduce_rows
from cipherobs.pipeline import BENCH_Q
from .helpers import HUGE_PRIME, NotFullRowRank, ZeroRow, \
    centered_difference_check, complete_basis, egcd_inverse, floor_cmod, \
    random_mod_matrix, rank_mod, right_inverse_row

Q5 = Modulus(5)
Q7 = Modulus(7)
Q101 = Modulus(101)
ORACLE_MODULI = (Modulus(3), Q5, Q101, Modulus(BENCH_Q))


def reduction_cases(q: Modulus):
    """Integers that reach every branch of a centred reduction mod q: up to
    2^230 in absolute value, the range's edges +-(q-1)/2 and the values
    +-(q+1)/2 just past them, and multiples of q."""
    h = q.q >> 1
    return st.one_of(st.integers(-2 ** 230, 2 ** 230),
                     st.sampled_from([h, -h, h + 1, -h - 1]),
                     st.integers(-2 ** 120, 2 ** 120).map(lambda k: k * q.q))


class TestModulus:
    def test_rejects_composite(self):
        for bad in (1, 4, 9, 15, 2 ** 16):
            with pytest.raises(PrimalityError):
                Modulus(bad)

    def test_rejects_two(self):
        with pytest.raises(PrimalityError):
            Modulus(2)

    def test_accepts_large_prime(self):
        Modulus(2 ** 109 - 31)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Q5.q = 7

    def test_width_is_bounded_before_the_primality_test(self):
        # primes all, so only the width can refuse them
        _is_probable_prime.cache_clear()
        start = time.perf_counter()
        for q in (HUGE_PRIME, 2 ** 1279 - 1, 2 ** MAX_MODULUS_BITS + 1):
            with pytest.raises(PrimalityError, match="bits, more than"):
                Modulus(q)
        assert time.perf_counter() - start < 1
        assert _is_probable_prime.cache_info().misses == 0

    def test_widest_accepted_modulus(self):
        assert Modulus(2 ** 1024 - 105).q.bit_length() == MAX_MODULUS_BITS

    def test_primality_verdict_computed_once_per_modulus(self):
        _is_probable_prime.cache_clear()
        for _ in range(3):
            Modulus(2 ** 107 - 1)
            with pytest.raises(PrimalityError):
                Modulus(2 ** 107 + 1)
        info = _is_probable_prime.cache_info()
        assert (info.misses, info.hits) == (2, 4)


class TestCmod:
    def test_examples(self):
        assert Q5.cmod(7) == 2
        assert Q5.cmod(3) == -2

    def test_fixed_points_of_centered_range(self):
        # the whole centered range maps to itself, including its lower edge
        lo = -(Q5.q - 1) // 2
        for v in range(lo, -lo + 1):
            assert Q5.cmod(v) == v

    def test_matrix_input(self):
        M = ModMatrix([[7, 3], [-8, 12]], Q5)
        assert M.rows == ((2, -2), (2, 2))

    @given(st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12))
    def test_ring_homomorphism(self, a, b):
        assert Q101.cmod(a + b) == Q101.cmod(Q101.cmod(a) + Q101.cmod(b))
        assert Q101.cmod(a * b) == Q101.cmod(Q101.cmod(a) * Q101.cmod(b))

    @given(st.integers(-10 ** 9, 10 ** 9))
    def test_range(self, a):
        v = Q101.cmod(a)
        assert -50 <= v <= 50
        assert (v - a) % 101 == 0


class TestCenteredDifference:
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_property_on_random_pairs(self, a, b):
        # returns False when the hypothesis fails, raises if the
        # conclusion is ever violated under the hypothesis
        held = centered_difference_check(a, b, Q101)
        if abs(a) + abs(Q101.cmod(a - b)) < 50.5:
            assert held

    def test_hypothesis_filter(self):
        assert centered_difference_check(1, 3, Q101) is True
        # |a| + |cmod(a-b)| = 50 + 3 >= 101/2
        assert centered_difference_check(50, 47, Q101) in (True, False)


class TestMatMul:
    def test_identity(self, q101):
        rng = random.Random(1)
        B = random_mod_matrix(rng, 3, 4, q101)
        assert ModMatrix.identity(3, q101) @ B == B

    def test_zero(self, q101):
        rng = random.Random(2)
        A = random_mod_matrix(rng, 3, 3, q101)
        Z = ModMatrix.zeros(3, 2, q101)
        assert (A @ Z).is_zero()

    def test_hand_example(self):
        A = ModMatrix([[2, 3]], Q7)
        B = ModMatrix([[4], [5]], Q7)
        assert (A @ B).rows == ((2,),)  # 23 mod 7

    def test_dimension_mismatch(self, q101):
        with pytest.raises(DimensionMismatch):
            ModMatrix.zeros(2, 3, q101) @ ModMatrix.zeros(2, 3, q101)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            ModMatrix.zeros(2, 2, Q5) @ ModMatrix.zeros(2, 2, Q7)

    def test_empty_inner_dimension(self, q101):
        A = ModMatrix.zeros(3, 0, q101)
        B = ModMatrix.zeros(0, 2, q101)
        assert (A @ B) == ModMatrix.zeros(3, 2, q101)

    def test_against_dense_oracle(self, q101):
        from .helpers import dense_int_matmul
        rng = random.Random(3)
        A = random_mod_matrix(rng, 4, 5, q101)
        B = random_mod_matrix(rng, 5, 3, q101)
        assert (A @ B).rows == dense_int_matmul(A.rows, B.rows, 101)


class TestInverse:
    def test_identity(self, q101):
        eye = ModMatrix.identity(4, q101)
        assert inverse_mod(eye) == eye

    def test_unipotent(self):
        A = ModMatrix([[1, 1], [0, 1]], Q5)
        assert inverse_mod(A).rows == ((1, -1), (0, 1))

    def test_scalar_extended_euclid_oracle(self):
        A = ModMatrix([[2]], Q7)
        inv = inverse_mod(A).rows[0][0]
        assert inv == -3
        assert inv % 7 == egcd_inverse(2, 7)

    def test_singular(self, q101):
        A = ModMatrix([[1, 2], [2, 4]], q101)
        with pytest.raises(SingularMatrix):
            inverse_mod(A)

    def test_random_roundtrip(self, q101):
        rng = random.Random(4)
        eye = ModMatrix.identity(5, q101)
        found = 0
        while found < 20:
            A = random_mod_matrix(rng, 5, 5, q101)
            if rank_mod(A) < 5:
                continue
            found += 1
            assert A @ inverse_mod(A) == eye
            assert inverse_mod(A) @ A == eye


class TestRank:
    def test_zero(self, q101):
        assert rank_mod(ModMatrix.zeros(3, 4, q101)) == 0

    def test_identity(self, q101):
        assert rank_mod(ModMatrix.identity(6, q101)) == 6

    def test_dependent_rows(self):
        assert rank_mod(ModMatrix([[1, 2], [2, 4]], Q5)) == 1

    def test_rank_only_counts_field_independence(self):
        # rows dependent over Z_5 but not over the rationals
        assert rank_mod(ModMatrix([[1, 2], [6, 12]], Q5)) == 1


class TestCompleteBasis:
    def test_single_unit_row(self):
        T2 = ModMatrix([[0, 0, 1]], Q7)
        T1 = complete_basis(T2)
        assert T1.rows == ((1, 0, 0), (0, 1, 0))

    def test_identity_needs_nothing(self, q101):
        T2 = ModMatrix.identity(4, q101)
        T1 = complete_basis(T2)
        assert T1.nrows == 0 and T1.ncols == 4

    def test_pivot_in_first_column(self):
        T2 = ModMatrix([[1, 1, 0]], Q5)
        T1 = complete_basis(T2)
        assert T1.rows == ((0, 1, 0), (0, 0, 1))
        assert rank_mod(T1.vstack(T2)) == 3

    def test_rank_deficient_rejected(self, q101):
        with pytest.raises(NotFullRowRank):
            complete_basis(ModMatrix([[1, 2], [2, 4]], q101))

    def test_random_completions_stack_invertible(self, q101):
        rng = random.Random(5)
        for _ in range(25):
            rows = rng.randrange(1, 4)
            T2 = random_mod_matrix(rng, rows, 5, q101)
            if rank_mod(T2) < rows:
                continue
            T1 = complete_basis(T2)
            assert rank_mod(T1.vstack(T2)) == 5


class TestRightInverse:
    def test_unit_vector(self, q101):
        sigma = ModMatrix([[1, 0, 0]], q101)
        assert right_inverse_row(sigma).column_entries() == (1, 0, 0)

    def test_two_entry_oracle(self):
        sigma = ModMatrix([[2, 0]], Q5)
        dag = right_inverse_row(sigma)
        assert dag.column_entries()[0] % 5 == egcd_inverse(2, 5)
        assert (sigma @ dag).rows == ((1,),)

    def test_interior_entry_oracle(self):
        sigma = ModMatrix([[0, 3, 0]], Q7)
        dag = right_inverse_row(sigma)
        assert dag.column_entries()[1] % 7 == egcd_inverse(3, 7)  # 5 mod 7
        assert (sigma @ dag).rows == ((1,),)

    def test_zero_row_rejected(self, q101):
        with pytest.raises(ZeroRow):
            right_inverse_row(ModMatrix.zeros(1, 4, q101))

    def test_projector_idempotent(self, q101):
        rng = random.Random(6)
        eye = ModMatrix.identity(4, q101)
        for _ in range(20):
            sigma = random_mod_matrix(rng, 1, 4, q101)
            if sigma.is_zero():
                continue
            dag = right_inverse_row(sigma)
            assert (sigma @ dag).rows == ((1,),)
            proj = eye - dag @ sigma
            assert proj @ proj == proj


class TestMatrixBasics:
    def test_entries_always_centered(self, q101):
        M = ModMatrix([[1000, -1000], [51, -51]], q101)
        assert all(-50 <= v <= 50 for v in M.flat())

    def test_immutability(self, q101):
        M = ModMatrix.identity(2, q101)
        with pytest.raises(AttributeError):
            M.rows = ()

    def test_norms(self, q101):
        M = ModMatrix([[3, -4], [1, 0]], q101)
        assert M.max_abs() == 4
        assert M.inf_norm() == 7

    def test_scale_and_neg(self, q101):
        M = ModMatrix([[3, -4]], q101)
        assert M.scale(-1) == -M
        assert (M.scale(2)).rows == ((6, -8),)

    @given(q=st.sampled_from(ORACLE_MODULI), data=st.data())
    def test_reductions_equal_the_floor_formula(self, q, data):
        # `cmod`, `column` (of Python ints and of int64 entries) and the
        # sums of `mat_mul_mod` reduce with one `%` each, as the floor
        # formula a - floor((a + q/2)/q) q does
        values = data.draw(st.lists(reduction_cases(q), min_size=1,
                                    max_size=12))
        oracle = tuple(floor_cmod(a, q.q) for a in values)
        assert tuple(map(q.cmod, values)) == oracle
        assert ModMatrix.column(values, q).column_entries() == oracle
        narrow = [a for a in values if -2 ** 63 <= a < 2 ** 63]
        assert ModMatrix.column(np.array(narrow, dtype=np.int64),
                                q).column_entries() == tuple(
            floor_cmod(a, q.q) for a in narrow)
        # products of reduced entries, and a row of ones that sums them to
        # +-(q+1)/2 and past
        A = ModMatrix([values, [1] * len(values)], q)
        B = ModMatrix([[a, 1] for a in reversed(values)], q)
        assert mat_mul_mod(A, B).rows == tuple(
            tuple(floor_cmod(sum(x * y for x, y in zip(row, col)), q.q)
                  for col in zip(*B.rows)) for row in A.rows)

    @pytest.mark.parametrize("q", [Q101, Modulus(BENCH_Q)])
    def test_one_pass_column_equals_the_generic_reduction(self, q):
        # `column` and a column's `scale` reduce in one pass; the generic
        # constructor reduces row by row (`_reduce_rows`)
        h = (q.q - 1) // 2
        entries = [0, h, -h, h + 1, -h - 1, q.q, -q.q, 2 ** 200, -2 ** 200,
                   np.int64(2 ** 62), np.int64(-7)]
        col = ModMatrix.column(entries, q)
        assert col.rows == _reduce_rows([(a,) for a in entries], q.q)
        assert col.shape == (len(entries), 1)
        assert all(type(a) is int for a in col.flat())
        for c in (1, -1, 3, h + 1, 2 ** 100):
            generic = ModMatrix(((c * a,) for (a,) in col.rows), q)
            assert col.scale(c).rows == generic.rows
        empty = ModMatrix.column([], q)
        assert empty.shape == empty.scale(3).shape == (0, 1)


class TestDigitWidths:
    @pytest.mark.parametrize("n", [1, 2, 24, 64, 1024, 4096, 4097, 2 ** 20])
    def test_budget_is_the_largest_exact_one(self, n):
        for exact in (63, 53):
            B = digit_budget(n, exact)
            assert n * 2 ** B <= 2 ** exact < n * 2 ** (B + 1)

    @pytest.mark.parametrize("n, fixed, widths", [
        (4096, 108, (53, 9, 13)), (4097, 108, (53, 8, 14)),
        (1024, 108, (53, 11, 10)), (64, 108, (53, 15, 8)),
        (24, 19, (63, 26, 1))])
    def test_uneven_splits(self, n, fixed, widths):
        # (accumulator bits, digit width, digit count) of the fixed side
        # against 32-bit half limbs: a 2^109 - 31 key in float64 and a
        # 19-bit Hbar in int64
        exact, e, count = widths
        assert digit_budget(n, exact) - 32 == e
        assert len(fixed_digits([0], fixed, e)) == count

    @given(values=st.lists(st.one_of(
        st.integers(-2 ** 63, 2 ** 63 - 1),
        st.sampled_from([-2 ** 63, 2 ** 63 - 1, 2 ** 32 - 1, -2 ** 32, 0])),
        min_size=1, max_size=8))
    def test_half_limbs_round_trip(self, values):
        limbs = np.array(values, dtype=np.int64)
        halves = half_limbs(limbs, np.int64)
        assert ((0 <= halves[0]) & (halves[0] < 2 ** 32)).all()
        assert ((-2 ** 31 <= halves[1]) & (halves[1] < 2 ** 31)).all()
        assert [int(lo) + (int(hi) << 32) for lo, hi in halves.T] == values

    @given(bits=st.integers(1, 120), e=st.integers(2, 62), data=st.data())
    def test_fixed_digits_round_trip_below_the_width(self, bits, e, data):
        top = 2 ** bits - 1
        values = data.draw(st.lists(st.one_of(
            st.integers(-top, top), st.sampled_from([top, -top, 0])),
            min_size=1, max_size=8))
        digits = fixed_digits(values, bits, e)
        assert (np.abs(digits) < 2 ** e).all()
        assert [sum(int(v) << (e * p) for p, v in enumerate(col))
                for col in digits.T] == values

    @pytest.mark.parametrize("n", [24, 4096, 4097])
    def test_worst_case_sums_stay_exact(self, n):
        # every low half at 2^32 - 1 (one at 2^32 - 2, so the sums are odd),
        # every high half at -2^31 and every fixed digit at its extreme:
        # the largest sums each accumulator's budget allows
        limbs = np.full(n, 2 ** 32 - 1 - 2 ** 63, dtype=np.int64)
        limbs[0] -= 1
        for exact, dtype in ((63, np.int64), (53, np.float64)):
            e = digit_budget(n, exact) - 32
            halves = half_limbs(limbs, dtype)
            fixed = fixed_digits([2 ** 108 - 1] * n, 108, e)
            sums = halves @ fixed.T.astype(dtype)
            assert sums.astype(np.int64).tolist() == [
                [sum(int(a) * int(b) for a, b in zip(half, fx))
                 for fx in fixed] for half in halves]

    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_join_digit_sums_shifts_by_half_limb_and_digit(self, rows):
        # any int64 sums, the extremes included; no rows give no integers
        sums = np.random.default_rng(rows).integers(
            -2 ** 63, 2 ** 63 - 1, size=(rows, 2, 3, 2), endpoint=True)
        sums[:, 0, 0, 0] = -2 ** 63
        sums[:, 1, 2, 1] = 2 ** 63 - 1
        assert join_digit_sums(sums, 42, 26) == [
            sum(int(sums[r, h, k, p]) << (32 * h + 42 * k + 26 * p)
                for h in range(2) for k in range(3) for p in range(2))
            for r in range(rows)]
