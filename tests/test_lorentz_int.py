"""The integral Lorentz group: generators, enumeration, factorization."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from latticewave import (
    DomainError,
    GeneratorWord,
    IDENTITY,
    IntLorentzMatrix,
    InternalInvariantError,
    ball_stack,
    enumerate_ball,
    eval_word,
    factorize,
    generator,
    matrix_from_json,
    matrix_to_json,
    metric_gram_defect,
    parity_products,
    preserves_metric,
    printed_s4,
    word_to_json,
)
from latticewave import lorentz_int
from latticewave.lorentz_int import _REDUCTION_STEPS, _S4, _det4, _mat_mul, _reduce, _require_entry_bound

ETA = (1, -1, -1, -1)


def oracle_matmul(a, b):
    """Independent 4x4 integer product for cross-checking."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4))


def oracle_gram(m, i, j):
    return sum(ETA[r] * m[r][i] * m[r][j] for r in range(4))


def oracle_act(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(4)) for i in range(4))


class TestGenerators:
    def test_s3_is_z_reflection_and_involution(self):
        s3 = generator("S3")
        assert s3.entries == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
        assert (s3 @ s3).entries == IDENTITY.entries

    def test_s1_swaps_first_two_spatial_axes(self):
        assert oracle_act(generator("S1").entries, (9, 1, 2, 3)) == (9, 2, 1, 3)

    def test_s2_swaps_last_two_spatial_axes(self):
        assert oracle_act(generator("S2").entries, (9, 1, 2, 3)) == (9, 1, 3, 2)

    def test_all_generators_preserve_metric_exactly(self):
        for name in ("S1", "S2", "S3", "S4"):
            assert preserves_metric(generator(name))

    def test_generators_are_involutions(self):
        for name in ("S1", "S2", "S3", "S4"):
            g = generator(name)
            assert (g @ g).entries == IDENTITY.entries

    def test_printed_s4_fails_with_gram_defect_two(self):
        """The table entry as published: columns 0 and 3 have Minkowski product 2."""
        m = printed_s4()
        assert not preserves_metric(m)
        assert oracle_gram(m, 0, 3) == 2
        assert metric_gram_defect(m, 0, 3) == 2

    def test_corrected_s4_differs_from_printed_in_one_entry(self):
        corrected = generator("S4").entries
        printed = printed_s4()
        diffs = [(i, j) for i in range(4) for j in range(4) if corrected[i][j] != printed[i][j]]
        assert diffs == [(2, 3)]
        assert printed[2][3] == 1 and corrected[2][3] == -1

    def test_unknown_generator(self):
        with pytest.raises(DomainError):
            generator("S5")


class TestParityProducts:
    def test_against_oracle_products(self):
        s1, s2, s3 = (generator(n).entries for n in ("S1", "S2", "S3"))
        p1, p2, p3 = parity_products()
        assert p2.entries == oracle_matmul(oracle_matmul(s2, s3), s2)
        expected_p1 = oracle_matmul(
            oracle_matmul(s1, oracle_matmul(s2, s3)), oracle_matmul(s2, s1)
        )
        assert p1.entries == expected_p1
        assert p3.entries == s3

    def test_each_flips_exactly_one_spatial_axis(self):
        p1, p2, p3 = parity_products()
        assert p1.entries == ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert p2.entries == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1))
        assert p3.entries == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))


class TestEvalWord:
    def test_empty_word_is_identity(self):
        assert eval_word(GeneratorWord()).entries == IDENTITY.entries

    def test_involution_word_cancels(self):
        assert eval_word(["S1", "S1"]).entries == IDENTITY.entries

    def test_parity_letter_matches_its_definition(self):
        assert eval_word(["S2", "S3", "S2"]).entries == parity_products()[1].entries
        assert eval_word(["P2"]).entries == parity_products()[1].entries

    def test_unknown_letter_rejected(self):
        with pytest.raises(DomainError):
            GeneratorWord(("S9",))


class TestPreservesMetric:
    def test_identity(self):
        assert preserves_metric(IDENTITY)

    def test_scaling_fails(self):
        assert not preserves_metric(((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    def test_printed_s4_fails(self):
        assert not preserves_metric(printed_s4())

    def test_the_constructor_refuses_the_printed_s4(self):
        with pytest.raises(DomainError, match="^matrix does not preserve the Minkowski form$"):
            IntLorentzMatrix(printed_s4())


class TestEnumerateBall:
    def test_word_length_zero(self):
        ball = enumerate_ball(0)
        assert [m.entries for m in ball] == [IDENTITY.entries]

    def test_word_length_one_has_five_elements(self):
        assert len(enumerate_ball(1)) == 5

    def test_sizes_monotone(self):
        sizes = [len(enumerate_ball(k)) for k in range(6)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 1 and sizes[1] == 5

    def test_every_element_is_metric_clean(self):
        for m in enumerate_ball(4):
            assert preserves_metric(m)

    def test_closed_under_inverse(self):
        """Generators are involutions, so the reversed word inverts: each
        ball contains the inverse of each of its elements."""
        ball = {m.entries for m in enumerate_ball(4)}
        for entries in ball:
            inv = IntLorentzMatrix(entries).inverse()
            assert inv.entries in ball
            product = oracle_matmul(entries, inv.entries)
            assert product == IDENTITY.entries

    def test_inverse_is_eta_transpose_eta_on_ball8(self):
        for row in lorentz_int.ball_stack(8).tolist():
            m = IntLorentzMatrix((row[0:4], row[4:8], row[8:12], row[12:16]))
            e = m.entries
            want = tuple(tuple(ETA[i] * e[j][i] * ETA[j] for j in range(4)) for i in range(4))
            assert m.inverse().entries == want
            assert all(type(x) is int for r in m.inverse().entries for x in r)

    def test_inverse_keeps_the_constructors_metric_check(self):
        # an uncertified matrix, wrapped past the constructor: its inverse is refused as the constructor refuses it
        flat = [x for row in printed_s4() for x in row]
        with pytest.raises(DomainError, match="does not preserve the Minkowski form"):
            lorentz_int._from_flat(flat).inverse()

    def test_products_of_ball3_land_in_ball6(self):
        ball3 = enumerate_ball(3)
        ball6 = {m.entries for m in enumerate_ball(6)}
        for a in ball3[:20]:
            for b in ball3[:20]:
                prod = (a @ b).entries
                assert preserves_metric(prod)
                assert prod in ball6

    def test_determinants_are_unimodular(self):
        for m in enumerate_ball(4):
            det = m.determinant()
            assert det in (-1, 1)
            assert det == round(np.linalg.det(np.array(m.entries, dtype=float)))

    def test_orthochronous_throughout(self):
        assert all(m.entries[0][0] >= 1 for m in enumerate_ball(5))

    def test_deterministic_ordering(self):
        a = [m.entries for m in enumerate_ball(3)]
        b = [m.entries for m in enumerate_ball(3)]
        assert a == b
        assert a == sorted(a, key=lambda e: tuple(x for row in e for x in row))

    def test_safety_bound(self):
        with pytest.raises(DomainError):
            enumerate_ball(60)

    @pytest.mark.parametrize("flag", [True, False])
    def test_a_bool_is_no_word_length(self, flag):
        with pytest.raises(DomainError, match="max_word_len must be a non-negative integer"):
            enumerate_ball(flag)


class TestFactorize:
    def test_identity_gives_empty_word(self):
        assert factorize(IDENTITY).letters == ()

    def test_generators_round_trip_to_single_letters(self):
        for name in ("S1", "S2", "S3", "S4"):
            word = factorize(generator(name))
            assert eval_word(word).entries == generator(name).entries
            assert word.letters == (name,)

    def test_ball4_round_trip(self):
        for m in enumerate_ball(4):
            word = factorize(m)
            assert eval_word(word).entries == m.entries

    def test_words_are_in_normal_form(self):
        """Parity blocks alternate with S4; the tail is a word in S1, S2, S3."""
        import re

        pattern = re.compile(r"^((P1 )?(P2 )?(P3 )?S4 )*((S1|S2|S3) )*$")
        for m in enumerate_ball(5):
            text = " ".join(factorize(m).letters) + " " if factorize(m).letters else ""
            assert pattern.match(text), text

    def test_s4_reduction_strictly_decreases_time_entry(self):
        """The suffix after each S4 letter of the normal form is the reduced
        matrix of that step, so its time-time entry strictly decreases down
        to the signed-permutation tail."""
        for m in enumerate_ball(5):
            letters = list(factorize(m).letters)
            tt = m.entries[0][0]
            steps = 0
            start = 0
            while "S4" in letters[start:]:
                cut = letters.index("S4", start) + 1
                suffix_tt = eval_word(letters[cut:]).entries[0][0]
                assert suffix_tt < tt
                tt = suffix_tt
                start = cut
                steps += 1
            assert tt == 1 if steps else tt == m.entries[0][0]
            assert steps <= m.entries[0][0]  # strict decrease bounds the step count

    def test_s4_has_order_two(self):
        s4 = generator("S4")
        assert (s4 @ s4).entries == IDENTITY.entries

    def test_time_reversing_matrix_rejected(self):
        time_reversal = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
        assert preserves_metric(time_reversal)
        with pytest.raises(DomainError):
            factorize(IntLorentzMatrix(time_reversal))


class TestSerialization:
    def test_matrix_round_trip(self):
        m = eval_word(["S4", "S1", "S4"])
        packed = matrix_to_json(m)
        assert len(packed) == 16 and all(isinstance(x, int) for x in packed)
        assert matrix_from_json(packed).entries == m.entries

    def test_word_to_json_lists_the_letters(self):
        assert word_to_json(GeneratorWord(("P1", "S4", "S2"))) == ["P1", "S4", "S2"]

    def test_non_group_matrix_rejected(self):
        with pytest.raises(DomainError):
            matrix_from_json([2] + [0] * 15)

    @pytest.mark.parametrize("dtype, matrix", [(np.int8, "S4"), (np.int32, "S4"), (np.int64, "S4"),
                                               (object, "S4"), (np.uint8, "identity")])
    def test_integer_entries_of_any_integer_type_are_accepted(self, dtype, matrix):
        flat = matrix_to_json(generator("S4") if matrix == "S4" else IDENTITY)
        for m in (matrix_from_json(np.array(flat, dtype=dtype)),
                  IntLorentzMatrix(np.array(flat, dtype=dtype).reshape(4, 4))):
            assert m.flat() == tuple(flat)
            assert all(type(x) is int for x in m.flat())

    def test_one_pass_matrix_equals_the_checked_constructor(self):
        m = matrix_from_json(matrix_to_json(generator("S4")))
        assert m == generator("S4") and hash(m) == hash(generator("S4"))
        assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)

    @pytest.mark.parametrize("flat", [
        [bool(x) for x in matrix_to_json(IDENTITY)],
        [True] + matrix_to_json(IDENTITY)[1:],
        [*matrix_to_json(IDENTITY)[:15], True],
        np.eye(4, dtype=bool).ravel(),
    ], ids=["16 bools", "first entry True", "last entry True", "numpy bool array"])
    def test_a_bool_entry_is_a_domain_error_naming_the_input(self, flat):
        # the 16 bools spelling the identity once loaded as the identity
        with pytest.raises(DomainError, match=r"expected 16 integers, got .*True"):
            matrix_from_json(flat)
        rows = [list(flat[4 * i: 4 * i + 4]) for i in range(4)]
        with pytest.raises(DomainError, match=r"expected a 4x4 matrix of integers, got .*True"):
            IntLorentzMatrix(rows)


def rows_of(flat):
    return [flat[i:i + 4] for i in range(0, 16, 4)]


@pytest.mark.parametrize("read", [
    lambda flat: matrix_from_json(iter(flat)),
    lambda flat: matrix_from_json(x for x in flat),
    lambda flat: IntLorentzMatrix([iter(row) for row in rows_of(flat)]),
], ids=["iterator", "generator", "iterator-rows"])
def test_a_one_shot_iterable_gives_up_its_entries(read):
    # the bool scan once exhausted the iterable, leaving no entry to index
    assert read(matrix_to_json(generator("S4"))) == generator("S4")


def test_the_gram_checks_read_iterator_rows():
    flat = [x for row in printed_s4() for x in row]
    assert preserves_metric([iter(row) for row in rows_of(matrix_to_json(generator("S4")))])
    assert not preserves_metric([iter(row) for row in rows_of(flat)])
    assert metric_gram_defect([iter(row) for row in rows_of(flat)], 0, 3) == 2


def action_of(matrix):
    """How right-multiplication by ``matrix`` acts on one row (a, b, c, d): its products with the columns."""
    return lambda *row: tuple(sum(x * matrix[i][j] for i, x in enumerate(row)) for j in range(4))


def test_eval_word_refuses_a_product_off_the_group(monkeypatch):
    monkeypatch.setitem(lorentz_int._LETTER_ACTIONS, "S4", action_of(printed_s4()))
    with pytest.raises(DomainError, match="^matrix does not preserve the Minkowski form$"):
        eval_word(("S4",))


NOT_INTEGERS = [1.9, 1.0, 1.5, "1", "x", None, 1 + 0j, True, False, np.True_]


@pytest.mark.parametrize("entry", NOT_INTEGERS, ids=repr)
def test_a_non_integer_entry_is_a_domain_error_not_truncated(entry):
    # int() once turned 1.9 into 1, so the truncated identity was certified
    rows = [[entry, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for build in (preserves_metric, IntLorentzMatrix, lambda m: metric_gram_defect(m, 0, 0),
                  lambda m: matrix_from_json([x for row in m for x in row])):
        with pytest.raises(DomainError, match="integers"):
            build(rows)


# --- differential tests: the unrolled arithmetic against direct oracles ----------


INTEGERS = st.integers(min_value=-3, max_value=3) | st.integers(min_value=-(2**80), max_value=2**80)
MATRICES = st.lists(INTEGERS, min_size=16, max_size=16).map(
    lambda v: tuple(tuple(v[4 * i : 4 * i + 4]) for i in range(4))
)
ABOVE_2_64 = tuple(tuple(2**64 + 4 * i + j for j in range(4)) for i in range(4))


@given(MATRICES, MATRICES)
@example(ABOVE_2_64, ABOVE_2_64)
@example(ABOVE_2_64, tuple(tuple(-x for x in row) for row in ABOVE_2_64))
def test_mat_mul_matches_the_naive_triple_sum(a, b):
    product = _mat_mul(a, b)
    assert product == oracle_matmul(a, b)
    assert all(type(x) is int for row in product for x in row)


LETTER_MATRICES = {
    **{name: generator(name).entries for name in ("S1", "S2", "S3", "S4")},
    **{name: p.entries for name, p in zip(("P1", "P2", "P3"), parity_products())},
}


def test_every_letter_has_one_action():
    assert list(lorentz_int._LETTER_ACTIONS) == list(LETTER_MATRICES) == list(lorentz_int.ALPHABET)


@pytest.mark.parametrize("letter", LETTER_MATRICES)
@given(m=MATRICES)
@example(m=ABOVE_2_64)
def test_a_letter_acts_on_each_row_as_multiplication_by_its_matrix(letter, m):
    act = lorentz_int._LETTER_ACTIONS[letter]
    product = tuple(act(*row) for row in m)
    assert product == _mat_mul(m, LETTER_MATRICES[letter])
    assert all(type(x) is int for row in product for x in row)


def oracle_det(m):
    """The cofactor expansion along the first row, recursive down to 1x1."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * oracle_det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def test_det4_matches_the_cofactor_expansion():
    rng = np.random.default_rng(0)
    small = rng.integers(-3, 4, (10_000, 4, 4)).tolist()
    large = [[[x * 2**40 + 1 for x in row] for row in m] for m in rng.integers(-99, 100, (10_000, 4, 4)).tolist()]
    for m in small + large + [m.entries for m in enumerate_ball(8)]:
        det = _det4(tuple(map(tuple, m)))
        assert det == oracle_det(m) and type(det) is int, m


def oracle_ball(max_word_len):
    """The tuple breadth-first search: one Python-int product per frontier element and generator."""
    generators = [generator(name).entries for name in ("S1", "S2", "S3", "S4")]
    seen = {IDENTITY.entries}
    frontier = [IDENTITY.entries]
    for _depth in range(max_word_len):
        new = []
        for m in frontier:
            for g in generators:
                q = _mat_mul(m, g)
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return sorted(seen)


@pytest.mark.parametrize("max_word_len", range(lorentz_int.MAX_BALL_WORD_LEN + 1))
def test_enumerate_ball_matches_the_tuple_search(max_word_len):
    ball = enumerate_ball(max_word_len)
    assert [m.entries for m in ball] == oracle_ball(max_word_len)
    assert all(type(x) is int for m in ball for x in m.flat())
    assert all(type(m.entries) is tuple and all(type(row) is tuple for row in m.entries) for m in ball)


def test_the_largest_entry_of_the_full_ball_is_the_stated_bound():
    peak = max(abs(x) for m in enumerate_ball(lorentz_int.MAX_BALL_WORD_LEN) for x in m.flat())
    assert peak == lorentz_int._BALL_ENTRY_BOUND == 19


def test_ball_elements_equal_and_hash_like_checked_matrices():
    for m in enumerate_ball(3):
        checked = IntLorentzMatrix(m.entries)
        assert m == checked and hash(m) == hash(checked)


@pytest.mark.parametrize("peak", [20, -20, 127, 2**40])
def test_the_entry_bound_guard_raises_past_the_bound(peak):
    frontier = np.zeros((3, 16), dtype=np.int64)
    frontier[1, 5] = peak
    with pytest.raises(InternalInvariantError, match=f"magnitude {abs(peak)} at depth 7 exceeds the bound 19"):
        _require_entry_bound(frontier, 7)


def test_the_entry_bound_guard_passes_at_the_bound():
    frontier = np.full((2, 16), -19, dtype=np.int64)
    frontier[0] = 19
    _require_entry_bound(frontier, 12)
    _require_entry_bound(np.zeros((0, 16), dtype=np.int64), 12)


@pytest.mark.parametrize("bound, depth, peak", [(18, 12, 19), (14, 11, 15), (4, 5, 5)])
def test_enumerate_ball_checks_every_depth_against_the_bound(monkeypatch, bound, depth, peak):
    # the largest entry first exceeds `bound` at word length `depth`, where it is `peak`
    monkeypatch.setattr(lorentz_int, "_BALL_ENTRY_BOUND", bound)
    enumerate_ball(depth - 1)
    with pytest.raises(InternalInvariantError, match=f"magnitude {peak} at depth {depth} exceeds the bound {bound}"):
        enumerate_ball(lorentz_int.MAX_BALL_WORD_LEN)


def test_the_stacked_gram_check_rejects_a_non_group_generator(monkeypatch):
    stack = np.array([*(generator(n).entries for n in ("S1", "S2", "S3")), printed_s4()], dtype=np.int64)
    monkeypatch.setattr(lorentz_int, "_GENERATOR_STACK", stack)
    with pytest.raises(InternalInvariantError, match="does not preserve the Minkowski form"):
        enumerate_ball(1)


def oracle_factorize(entries):
    """The full-product candidate search: every parity prefix and S4 multiplied out."""
    p1, p2, p3 = (p.entries for p in parity_products())
    letters = {"P1": p1, "P2": p2, "P3": p3}
    s4 = generator("S4").entries
    parity_words = sorted(
        tuple(name for bit, name in zip((1, 2, 4), ("P1", "P2", "P3")) if mask & bit) for mask in range(8)
    )
    table = {IDENTITY.entries: ()}
    queue = [(IDENTITY.entries, ())]
    for m, word in queue:  # breadth first: the first word found is shortlex
        for name in ("S1", "S2", "S3"):
            q = oracle_matmul(m, generator(name).entries)
            if q not in table:
                table[q] = word + (name,)
                queue.append((q, word + (name,)))
    current, word = entries, ()
    while current[0][0] > 1:
        for parity_word in parity_words:
            reduced = current
            for name in parity_word:
                reduced = oracle_matmul(letters[name], reduced)
            candidate = oracle_matmul(s4, reduced)
            if candidate[0][0] < current[0][0]:
                break
        else:
            raise AssertionError("no parity prefix decreases the time-time entry")
        word += parity_word + ("S4",)
        current = candidate
    return word + table[current]


def test_factorize_matches_the_full_product_search_over_ball8():
    ball = enumerate_ball(8)
    assert [factorize(m).letters for m in ball] == [oracle_factorize(m.entries) for m in ball]


def perturbations(entries):
    rows = [list(row) for row in entries]
    for i in range(4):
        for j in range(4):
            for delta in (-1, 1):
                bumped = [row[:] for row in rows]
                bumped[i][j] += delta
                yield bumped
    for j in range(4):  # negating a column keeps every Gram equation
        yield [[-x if k == j else x for k, x in enumerate(row)] for row in rows]
    yield [[2 * x for x in row] for row in rows]


def single_equation_failures():
    """Integer matrices that break exactly one Gram equation.

    Doubling a column breaks only its diagonal equation; repeating spatial
    column i in place of column j breaks only the (i, j) equation. A matrix
    breaking only a (0, j) equation has no integer entries: its determinant
    would be sqrt(1 + d^2) for the defect d.
    """
    identity = [list(row) for row in IDENTITY.entries]
    for j in range(4):
        yield [[2 * x if k == j else x for k, x in enumerate(row)] for row in identity]
    for i in range(1, 4):
        for j in range(i + 1, 4):
            yield [[row[i] if k == j else x for k, x in enumerate(row)] for row in identity]


def test_preserves_metric_agrees_with_the_gram_defects():
    cases = [printed_s4(), *perturbations(printed_s4()), *single_equation_failures()]
    for m in enumerate_ball(4):
        cases.extend([m.entries, *perturbations(m.entries)])
    verdicts = []
    for m in cases:
        expected = all(metric_gram_defect(m, i, j) == 0 for i in range(4) for j in range(i, 4))
        assert preserves_metric(m) is expected
        verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("max_word_len", [0, 1, 5, lorentz_int.MAX_BALL_WORD_LEN])
def test_ball_stack_is_the_flat_entries_of_enumerate_ball(max_word_len):
    stack = ball_stack(max_word_len)
    assert stack.dtype == np.int64 and stack.shape == (len(oracle_ball(max_word_len)), 16)
    assert stack.tolist() == [list(m.flat()) for m in enumerate_ball(max_word_len)]


def parent_factorize(m):
    """factorize as it was before the closed-form step: each step one _mat_mul by S4 P."""
    current = m.entries
    word = []
    while current[0][0] > 1:
        (c00, _, _, _), (c10, _, _, _), (c20, _, _, _), (c30, _, _, _) = current
        for parity_word in lorentz_int._PARITY_WORDS:
            step = _mat_mul(_S4, eval_word(parity_word).entries)
            r0, r1, r2, r3 = step[0]
            if r0 * c00 + r1 * c10 + r2 * c20 + r3 * c30 < c00:
                break
        else:
            raise AssertionError("no parity prefix decreases the time-time entry")
        current = _mat_mul(step, current)
        word.extend(parity_word)
        word.append("S4")
    return GeneratorWord(tuple(word) + lorentz_int._signed_permutation_words()[current])


def test_factorize_matches_the_per_product_steps_over_the_full_ball():
    for m in enumerate_ball(lorentz_int.MAX_BALL_WORD_LEN):
        word = factorize(m)
        assert type(word) is GeneratorWord and type(word.letters) is tuple
        assert word == parent_factorize(m)


@pytest.mark.parametrize("word, signs", _REDUCTION_STEPS,
                         ids=["".join(word) or "empty" for word, _ in _REDUCTION_STEPS])
def test_the_closed_form_step_is_the_product_by_s4_p(word, signs):
    step = _mat_mul(_S4, eval_word(word).entries)
    s1, s2, s3 = signs
    assert step[0] == (2, s1, s2, s3)
    for m in enumerate_ball(4):
        assert _reduce(m.entries, s1, s2, s3) == _mat_mul(step, m.entries)


@pytest.mark.parametrize("i, j", [(True, 3), (0, False), (-4, 3), (-1, 0), (4, 3), (0, 4), (1.0, 2), (0, "1"), (None, 0)],
                         ids=repr)
def test_metric_gram_defect_takes_only_column_indices_in_0_to_3(i, j):
    with pytest.raises(DomainError, match="column indices must be integers in 0..3"):
        metric_gram_defect(printed_s4(), i, j)


@pytest.mark.parametrize("call, message", [
    (lambda: IntLorentzMatrix([[1, 0], [0, 1]]), "expected a 4x4 integer matrix"),
    (lambda: eval_word(["S5"]), "unknown letter 'S5'"),
    (lambda: factorize(IDENTITY.entries), "certified IntLorentzMatrix"),
    (lambda: matrix_from_json([1, 0, 0, 1]), "expected 16 integers, got 4"),
], ids=["matrix-shape", "word-letter", "factorize-type", "json-length"])
def test_every_lorentz_guard_refuses_its_input(call, message):
    with pytest.raises(DomainError, match=message):
        call()
