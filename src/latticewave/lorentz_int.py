"""The integral Lorentz group: integer 4x4 matrices with L^T eta L = eta.

Generated by four involutions: S1 and S2 permute spatial axes, S3 flips
the z axis, and S4 is the Lorentzian reflection that mixes time into all
three spatial directions. Words in these generators reach every
orthochronous element; parity products P1 = S1 S2 S3 S2 S1,
P2 = S2 S3 S2, P3 = S3 flip the x, y, z axis respectively.

The published table for S4 contains a sign slip: as printed, the Minkowski
inner product of its first and last columns is 2, so the matrix is not in
the group. Flipping the row-2, column-3 entry (0-based) from +1 to -1 is
the minimal single-entry edit restoring L^T eta L = eta, and that
corrected matrix is what ``generator("S4")`` returns. The verbatim table
entry stays available via ``printed_s4()`` for the documented failing
check.

Everything here is exact integer arithmetic. One matrix holds Python
integers, which cannot overflow; an entry must have ``__index__`` (numpy
integers do), and a bool is no integer entry. The ball is enumerated as a
stack of int64 rows under a checked bound: no entry of
ball(MAX_BALL_WORD_LEN) = ball(12) exceeds 19 in magnitude, and every
depth's frontier is checked against that bound before it is multiplied
(InternalInvariantError past it). A generator column has absolute sum at
most 5, so a product entry is at most 5 * 19 = 95: no int64 sum of four
products comes near 2^63, and the entries offset by +128 fit one byte
each, the rows' deduplication and sort keys.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InternalInvariantError
from .grid import is_integer

Entries = tuple[tuple[int, int, int, int], ...]

ETA = (1, -1, -1, -1)

GENERATOR_LETTERS = ("S1", "S2", "S3", "S4")
PARITY_LETTERS = ("P1", "P2", "P3")
ALPHABET = GENERATOR_LETTERS + PARITY_LETTERS

#: Safety bound for ball enumeration word length.
MAX_BALL_WORD_LEN = 12

# The largest entry magnitude in ball(MAX_BALL_WORD_LEN); ball_stack checks every depth against it.
_BALL_ENTRY_BOUND = 19

_IDENTITY: Entries = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

_S1: Entries = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
_S2: Entries = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
_S3: Entries = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
_S4: Entries = ((2, 1, 1, 1), (-1, 0, -1, -1), (-1, -1, 0, -1), (-1, -1, -1, 0))
_S4_PRINTED: Entries = ((2, 1, 1, 1), (-1, 0, -1, -1), (-1, -1, 0, 1), (-1, -1, -1, 0))


def _index_all(values) -> tuple[int, ...]:
    """values, read once (an iterator too), as Python ints, each through ``__index__``; a bool is a TypeError too."""
    values = tuple(values)
    if bool in map(type, values):
        raise TypeError("a bool is no integer entry")
    return tuple(map(operator.index, values))


def _as_entries(m) -> Entries:
    """m's rows as int tuples. Entries must be integers (have ``__index__``); a float, a str or
    a bool is a DomainError, never truncated or parsed."""
    try:
        rows = tuple([_index_all(row) for row in m])
    except TypeError:
        raise DomainError(f"expected a 4x4 matrix of integers, got {m!r}") from None
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise DomainError("expected a 4x4 integer matrix")
    return rows


def _mat_mul(a: Entries, b: Entries) -> Entries:
    return tuple(tuple(sum(x * y for x, y in zip(row, column)) for column in zip(*b)) for row in a)


def preserves_metric(m) -> bool:
    """True iff m^T eta m = eta holds exactly in integer arithmetic."""
    entries = m.entries if isinstance(m, IntLorentzMatrix) else _as_entries(m)
    # the ten Gram equations, column i against column j, one per pair i <= j
    (t0, t1, t2, t3), (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3) = entries
    return (
        t0 * t0 - x0 * x0 - y0 * y0 - z0 * z0 == 1
        and t1 * t1 - x1 * x1 - y1 * y1 - z1 * z1 == -1
        and t2 * t2 - x2 * x2 - y2 * y2 - z2 * z2 == -1
        and t3 * t3 - x3 * x3 - y3 * y3 - z3 * z3 == -1
        and t0 * t1 - x0 * x1 - y0 * y1 - z0 * z1 == 0
        and t0 * t2 - x0 * x2 - y0 * y2 - z0 * z2 == 0
        and t0 * t3 - x0 * x3 - y0 * y3 - z0 * z3 == 0
        and t1 * t2 - x1 * x2 - y1 * y2 - z1 * z2 == 0
        and t1 * t3 - x1 * x3 - y1 * y3 - z1 * z3 == 0
        and t2 * t3 - x2 * x3 - y2 * y3 - z2 * z3 == 0
    )


def metric_gram_defect(m, i: int, j: int) -> int:
    """The Minkowski inner product of columns i and j minus its required value; i and j are
    integers in 0..3."""
    if not (is_integer(i) and is_integer(j) and 0 <= i <= 3 and 0 <= j <= 3):
        raise DomainError(f"column indices must be integers in 0..3, got {i!r} and {j!r}")
    entries = m.entries if isinstance(m, IntLorentzMatrix) else _as_entries(m)
    gram = sum(ETA[r] * entries[r][i] * entries[r][j] for r in range(4))
    return gram - (ETA[i] if i == j else 0)


@dataclass(frozen=True)
class IntLorentzMatrix:
    """A certified element of the integral Lorentz group."""

    entries: Entries

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_entries(self.entries))
        _certified(self)

    def __matmul__(self, other: "IntLorentzMatrix") -> "IntLorentzMatrix":
        return IntLorentzMatrix(_mat_mul(self.entries, other.entries))

    @property
    def is_orthochronous(self) -> bool:
        return self.entries[0][0] >= 1

    def inverse(self) -> "IntLorentzMatrix":
        """eta L^T eta, written out: the entries are Python ints already, so only the Gram check stays."""
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = self.entries
        return _certified(_from_flat((a0, -b0, -c0, -d0, -a1, b1, c1, d1, -a2, b2, c2, d2, -a3, b3, c3, d3)))

    def determinant(self) -> int:
        return _det4(self.entries)

    def flat(self) -> tuple[int, ...]:
        r0, r1, r2, r3 = self.entries
        return (*r0, *r1, *r2, *r3)


def _from_flat(a: Sequence[int]) -> IntLorentzMatrix:
    """The matrix of 16 row-major Python ints, wrapped without a second pass over them; the
    caller has indexed them, and certifies the Gram equations before it hands the matrix out."""
    m = object.__new__(IntLorentzMatrix)
    object.__setattr__(m, "entries", ((a[0], a[1], a[2], a[3]), (a[4], a[5], a[6], a[7]),
                                      (a[8], a[9], a[10], a[11]), (a[12], a[13], a[14], a[15])))
    return m


def _certified(m: IntLorentzMatrix) -> IntLorentzMatrix:
    """m, once its entries satisfy the Gram equations; a DomainError otherwise."""
    if not preserves_metric(m):
        raise DomainError("matrix does not preserve the Minkowski form")
    return m


def _det4(m: Entries) -> int:
    """Laplace expansion along rows 0 and 1: each 2x2 minor of theirs against the complementary
    minor of rows 2 and 3."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2) - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1) + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0) + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


IDENTITY = IntLorentzMatrix(_IDENTITY)

_GENERATORS = {"S1": _S1, "S2": _S2, "S3": _S3, "S4": _S4}


def generator(name: str) -> IntLorentzMatrix:
    """One of the four group generators (S4 with the sign correction)."""
    if name not in _GENERATORS:
        raise DomainError(f"unknown generator {name!r}; expected one of {GENERATOR_LETTERS}")
    return IntLorentzMatrix(_GENERATORS[name])


def printed_s4() -> Entries:
    """S4 exactly as published; fails preserves_metric with Gram defect 2."""
    return _S4_PRINTED


def parity_products() -> tuple[IntLorentzMatrix, IntLorentzMatrix, IntLorentzMatrix]:
    """P1 = S1 S2 S3 S2 S1, P2 = S2 S3 S2, P3 = S3: single-axis spatial flips."""
    s1, s2, s3 = _S1, _S2, _S3
    p1 = _mat_mul(_mat_mul(s1, _mat_mul(s2, s3)), _mat_mul(s2, s1))
    p2 = _mat_mul(_mat_mul(s2, s3), s2)
    return IntLorentzMatrix(p1), IntLorentzMatrix(p2), IntLorentzMatrix(s3)


def _s4_row(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The row (a, b, c, d) times S4: with s = a - b - c - d, the row (a + s, s + b, s + c, s + d)."""
    s = a - b - c - d
    return (a + s, s + b, s + c, s + d)


# How each letter acts on one row of a product that it multiplies from the right: S1, S2, S3 and
# the parity flips P1, P2, P3 swap or negate entries, and S4 is _s4_row.
_LETTER_ACTIONS = {
    "S1": lambda a, b, c, d: (a, c, b, d),
    "S2": lambda a, b, c, d: (a, b, d, c),
    "S3": lambda a, b, c, d: (a, b, c, -d),
    "S4": _s4_row,
    "P1": lambda a, b, c, d: (a, -b, c, d),
    "P2": lambda a, b, c, d: (a, b, -c, d),
    "P3": lambda a, b, c, d: (a, b, c, -d),
}


@dataclass(frozen=True)
class GeneratorWord:
    """An ordered word over {S1..S4, P1..P3}; the empty word is the identity."""

    letters: tuple[str, ...] = ()

    def __post_init__(self):
        letters = tuple(self.letters)
        for letter in letters:
            if letter not in ALPHABET:
                raise DomainError(f"unknown letter {letter!r}; alphabet is {ALPHABET}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)


def _word_from_letters(letters: tuple[str, ...]) -> GeneratorWord:
    """The word of a tuple of letters taken from ALPHABET, wrapped without re-checking each one."""
    word = object.__new__(GeneratorWord)
    object.__setattr__(word, "letters", letters)
    return word


def eval_word(word: GeneratorWord | Iterable[str]) -> IntLorentzMatrix:
    """Left-to-right product of the word's letter matrices, each letter acting on the running product's rows."""
    if not isinstance(word, GeneratorWord):
        word = GeneratorWord(word)
    r0, r1, r2, r3 = _IDENTITY
    for letter in word.letters:
        act = _LETTER_ACTIONS[letter]
        r0, r1, r2, r3 = act(*r0), act(*r1), act(*r2), act(*r3)
    return _certified(_from_flat((*r0, *r1, *r2, *r3)))  # Python ints: wrapped and certified without re-reading them


_GENERATOR_STACK = np.array([_S1, _S2, _S3, _S4], dtype=np.int64)
_ETA_MATRIX = np.diag(np.array(ETA, dtype=np.int64))


def _row_keys(stack: np.ndarray) -> np.ndarray:
    """One 16-byte key per row of 16 entries within +-127: the entries offset by +128.

    The bytes' memcmp order is the rows' signed lexicographic order.
    """
    return (stack + 128).astype(np.uint8).view("V16").ravel()


def _require_entry_bound(frontier: np.ndarray, depth: int) -> None:
    """Raise unless every entry of the depth's frontier is within _BALL_ENTRY_BOUND, the bound
    that keeps the frontier's products exact in int64 and within the byte keys."""
    peak = int(np.abs(frontier).max(initial=0))
    if peak > _BALL_ENTRY_BOUND:
        raise InternalInvariantError(
            f"ball entry of magnitude {peak} at depth {depth} exceeds the bound {_BALL_ENTRY_BOUND} "
            "under which the int64 enumeration is exact"
        )


def ball_stack(max_word_len: int) -> np.ndarray:
    """All products of at most max_word_len generators as a (k, 16) int64 stack of row-major entries.

    Breadth-first: each depth multiplies the stacked frontier by the four
    generators at once and keeps the products whose entries the seen set
    lacks. The rows are in lexicographic entry order, so the stack is
    identical across runs and platforms, and certified once, by one
    stacked check of the Gram equations.
    """
    if not (is_integer(max_word_len) and max_word_len >= 0):
        raise DomainError("max_word_len must be a non-negative integer")
    if max_word_len > MAX_BALL_WORD_LEN:
        raise DomainError(f"max_word_len {max_word_len} exceeds safety bound {MAX_BALL_WORD_LEN}")
    frontier = np.array([_IDENTITY], dtype=np.int64).reshape(1, 16)
    seen = set(_row_keys(frontier).tolist())
    depths = [frontier]
    for depth in range(1, max_word_len + 1):
        # row 4 i + g is frontier[i] times generator g
        products = (frontier.reshape(-1, 1, 4, 4) @ _GENERATOR_STACK).reshape(-1, 16)
        fresh = []
        for i, key in enumerate(_row_keys(products).tolist()):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        frontier = products[fresh]
        _require_entry_bound(frontier, depth)
        depths.append(frontier)
    stack = np.concatenate(depths)
    stack = stack[np.argsort(_row_keys(stack))]
    m = stack.reshape(-1, 4, 4)
    if not (m.transpose(0, 2, 1) @ _ETA_MATRIX @ m == _ETA_MATRIX).all():
        raise InternalInvariantError("a ball element does not preserve the Minkowski form")
    return stack


def enumerate_ball(max_word_len: int) -> list[IntLorentzMatrix]:
    """The matrices of ``ball_stack(max_word_len)``, in its order."""
    return [_from_flat(a) for a in ball_stack(max_word_len).tolist()]


# --- factorization into the generator normal form -----------------------------

# All 8 parity words, lexicographically ordered as letter tuples; the empty
# word comes first so the chosen prefix is always the smallest enabling one.
_PARITY_WORDS: tuple[tuple[str, ...], ...] = tuple(
    sorted(
        tuple(name for bit, name in zip((1, 2, 4), PARITY_LETTERS) if mask & bit)
        for mask in range(8)
    )
)


# (parity word, (s1, s2, s3)) in _PARITY_WORDS order, for the word's product P = diag(1, s1, s2, s3):
# s_i = -1 exactly when P_i is in the word, and row 0 of S4 P is (2, s1, s2, s3)
_REDUCTION_STEPS = tuple((w, tuple(-1 if p in w else 1 for p in PARITY_LETTERS)) for w in _PARITY_WORDS)


@functools.cache
def _signed_permutation_words() -> dict[Entries, tuple[str, ...]]:
    """Shortlex word over {S1, S2, S3} for each of the 48 signed permutations."""
    table: dict[Entries, tuple[str, ...]] = {_IDENTITY: ()}
    queue = deque([(_IDENTITY, ())])
    while queue:
        m, word = queue.popleft()
        for letter in ("S1", "S2", "S3"):
            q = _mat_mul(m, _GENERATORS[letter])
            if q not in table:
                table[q] = word + (letter,)
                queue.append((q, word + (letter,)))
    return table


def _reduce(rows: Entries, s1: int, s2: int, s3: int) -> Entries:
    """S4 P L for the rows of L and P = diag(1, s1, s2, s3): with a = row 0, b, c, d = rows 1-3
    times s1, s2, s3 and t = a + b + c + d, the rows a + t, b - t, c - t, d - t."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    b0, b1, b2, b3 = s1 * b0, s1 * b1, s1 * b2, s1 * b3
    c0, c1, c2, c3 = s2 * c0, s2 * c1, s2 * c2, s2 * c3
    d0, d1, d2, d3 = s3 * d0, s3 * d1, s3 * d2, s3 * d3
    t0, t1, t2, t3 = a0 + b0 + c0 + d0, a1 + b1 + c1 + d1, a2 + b2 + c2 + d2, a3 + b3 + c3 + d3
    return ((a0 + t0, a1 + t1, a2 + t2, a3 + t3), (b0 - t0, b1 - t1, b2 - t2, b3 - t3),
            (c0 - t0, c1 - t1, c2 - t2, c3 - t3), (d0 - t0, d1 - t1, d2 - t2, d3 - t3))


def factorize(m: IntLorentzMatrix) -> GeneratorWord:
    """A word in the normal form (parity block, S4)* (signed permutation).

    While the time-time entry exceeds 1, the lexicographically smallest
    parity prefix that lets S4 strictly decrease it is applied; the
    remainder with unit time-time entry is a signed spatial permutation
    resolved by table lookup. The returned word evaluates back to ``m``
    exactly; neither minimality nor uniqueness is claimed.

    A step is S4 P L in closed form (``_reduce``). The parity letters are
    diagonal sign flips P = diag(1, s1, s2, s3), and row 0 of S4 P is
    (2, s1, s2, s3). The prefix is chosen from column 0 alone: the first
    parity word in lexicographic order with t0 = a0 + s1 b0 + s2 c0 + s3 d0
    negative (column 0 of L is a0, b0, c0, d0), so that the new time-time
    entry a0 + t0 is below a0, is taken, and only then is the step formed.
    """
    if not isinstance(m, IntLorentzMatrix):
        raise DomainError("factorize expects a certified IntLorentzMatrix")
    if not m.is_orthochronous:
        raise DomainError(
            "matrix reverses time orientation; not a word in S1..S4 (all of which are orthochronous)"
        )
    current = m.entries
    word: list[str] = []
    steps = 0
    initial_tt = current[0][0]
    while current[0][0] > 1:
        (a0, _, _, _), (b0, _, _, _), (c0, _, _, _), (d0, _, _, _) = current
        for parity_word, (s1, s2, s3) in _REDUCTION_STEPS:
            if a0 + s1 * b0 + s2 * c0 + s3 * d0 < 0:  # t0 < 0: the new time-time entry a0 + t0 is below a0
                break
        else:
            # unreached: the reduction argument rules out a matrix that no parity prefix lowers
            raise InternalInvariantError(
                f"no parity prefix decreases the time-time entry {a0}; "
                "this contradicts the reduction argument"
            )
        current = _reduce(current, s1, s2, s3)
        word.extend(parity_word)
        word.append("S4")
        steps += 1
        if steps > initial_tt:
            # unreached: each S4 step strictly decreases the time-time entry, so the bound holds
            raise InternalInvariantError(
                "S4 reduction ran longer than the strict-decrease bound allows"
            )
    tail = _signed_permutation_words().get(current)
    if tail is None:
        # unreached: a matrix of the group with time-time entry 1 is a signed spatial permutation
        raise InternalInvariantError("reduced matrix is not a signed spatial permutation")
    word.extend(tail)
    return _word_from_letters(tuple(word))


# --- serialization -----------------------------------------------------------


def matrix_to_json(m: IntLorentzMatrix) -> list[int]:
    """Row-major list of 16 integers."""
    return list(m.flat())


def matrix_from_json(values: Sequence[int]) -> IntLorentzMatrix:
    """The matrix of 16 row-major integers, each read once; any other entry, a bool included,
    is a DomainError."""
    try:
        flat = _index_all(values)
    except TypeError:
        raise DomainError(f"expected 16 integers, got {values!r}") from None
    if len(flat) != 16:
        raise DomainError(f"expected 16 integers, got {len(flat)}")
    return _certified(_from_flat(flat))


def word_to_json(word: GeneratorWord) -> list[str]:
    return list(word.letters)
