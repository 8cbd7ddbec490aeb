import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ginlab.pfaffian import (
    Matching,
    _matching_table,
    canonical_matching,
    canonical_symplectic,
    enumerate_matchings,
    identity_matching,
    inversions,
    matching_sign,
    pfaffian,
    pfaffian_matchings,
    require_skew,
)


def random_skew(rng, n, complex_entries=True):
    a = rng.normal(size=(n, n))
    if complex_entries:
        a = a + 1j * rng.normal(size=(n, n))
    return a - a.T


def test_pfaffian_2x2():
    assert pfaffian(np.array([[0.0, 3.0], [-3.0, 0.0]])) == 3.0


def test_pfaffian_canonical_symplectic():
    assert pfaffian(canonical_symplectic(4)) == 1.0
    assert pfaffian_matchings(canonical_symplectic(6)) == 1.0
    j = canonical_symplectic(6)
    assert np.array_equal(j @ j, -np.eye(6))
    assert np.array_equal(j.T, -j)


def test_pfaffian_4x4_closed_form():
    rng = np.random.default_rng(0)
    a = random_skew(rng, 4)
    expected = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    assert abs(pfaffian_matchings(a) - expected) < 1e-14 * abs(expected)
    assert abs(pfaffian(a) - expected) < 1e-12 * abs(expected)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_pfaffian_square_is_determinant(n, complex_entries):
    rng = np.random.default_rng(n)
    for _ in range(10):
        a = random_skew(rng, n, complex_entries)
        pf = pfaffian(a)
        det = np.linalg.det(a)
        assert abs(pf * pf - det) <= 1e-10 * abs(det)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_pfaffian_matches_matchings_sum(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        a = random_skew(rng, n)
        pf = pfaffian(a)
        assert abs(pf - pfaffian_matchings(a)) <= 1e-11 * abs(pf)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pfaffian_congruence_transformation(n):
    # Pf(B A B^T) = det(B) Pf(A)
    rng = np.random.default_rng(200 + n)
    for _ in range(6):
        a = random_skew(rng, n)
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = pfaffian(b @ a @ b.T)
        rhs = np.linalg.det(b) * pfaffian(a)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_pfaffian_zero_on_rank_deficient():
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 1.0, -1.0
    assert pfaffian(a) == 0.0


def test_pfaffian_rejects_odd_and_nonskew():
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pfaffian(np.ones((4, 4)))


def test_require_skew_cleans_roundoff():
    rng = np.random.default_rng(5)
    a = random_skew(rng, 6)
    noisy = a + 1e-15 * np.max(np.abs(a)) * rng.normal(size=(6, 6))
    cleaned = require_skew(noisy)
    assert np.max(np.abs(cleaned + cleaned.T)) == 0.0
    assert np.all(np.diag(cleaned) == 0.0)


def test_enumerate_matchings_counts():
    assert [m.pairs for m in enumerate_matchings(2)] == [((1, 2),)]
    four = enumerate_matchings(4)
    assert {m.pairs for m in four} == {
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    }
    assert len(enumerate_matchings(8)) == 105
    with pytest.raises(ValueError):
        enumerate_matchings(5)
    with pytest.raises(ValueError):
        enumerate_matchings(18)


def test_enumerate_matchings_deterministic_order():
    first = enumerate_matchings(6)
    second = enumerate_matchings(6)
    assert [m.pairs for m in first] == [m.pairs for m in second]
    assert first[0] == identity_matching(6)


def test_matching_canonical_form():
    m = canonical_matching([(4, 1), (3, 2)])
    assert m.pairs == ((1, 4), (2, 3))
    with pytest.raises(ValueError):
        Matching(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Matching(((3, 4), (1, 2)))


def test_inversions_examples():
    assert inversions(canonical_matching([(1, 2), (3, 4)])) == 0
    assert inversions(canonical_matching([(1, 3), (2, 4)])) == 1
    assert inversions(canonical_matching([(1, 4), (2, 3)])) == 2


@pytest.mark.parametrize("two_k", [2, 4, 6, 8])
def test_matching_sign_is_pfaffian_coefficient(two_k):
    # the sign of each matching's term in the expanded Pfaffian is (-1)**inversions
    for m in enumerate_matchings(two_k):
        a = np.zeros((two_k, two_k))
        for i, j in m.pairs:
            a[i - 1, j - 1] = 1.0
            a[j - 1, i - 1] = -1.0
        assert pfaffian(a) == matching_sign(m)


def test_matchings_sum_dimension_cap():
    with pytest.raises(ValueError):
        pfaffian_matchings(np.zeros((14, 14)))


def test_pfaffian_dtype_follows_input():
    rng = np.random.default_rng(9)
    assert isinstance(pfaffian(random_skew(rng, 4, complex_entries=False)), float)
    assert isinstance(pfaffian(random_skew(rng, 4, complex_entries=True)), complex)


# ---------------------------------------------------------------- reference
# The recursive enumeration and per-matching scalar loop that the table
# replaced, kept here as the bit-for-bit reference.


def reference_words(two_k):
    def rec(items):
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for idx in range(len(rest)):
            for tail in rec(rest[:idx] + rest[idx + 1:]):
                yield (first, rest[idx]) + tail

    return list(rec(tuple(range(two_k))))


def reference_inversions(word):
    return sum(1 for p in range(len(word)) for q in range(p + 1, len(word)) if word[p] > word[q])


def reference_pfaffian_matchings(a):
    b = require_skew(a)
    total = 0.0 + 0j if np.iscomplexobj(b) else 0.0
    for word in reference_words(b.shape[0]):
        term = -1 if reference_inversions(word) % 2 else 1
        for i, j in zip(word[0::2], word[1::2]):
            term = term * b[i, j]
        total += term
    return total


def _hex(z):
    z = complex(z)
    return (z.real.hex(), z.imag.hex())


@pytest.mark.parametrize("two_k", [0, 2, 4, 6, 8, 10, 12])
def test_matching_table_is_the_recursive_enumeration(two_k):
    words, inv = _matching_table(two_k)
    expected = reference_words(two_k)
    assert [tuple(w) for w in words.tolist()] == expected
    assert inv.tolist() == [reference_inversions(w) for w in expected]
    assert [m.word() for m in enumerate_matchings(two_k)] == [tuple(i + 1 for i in w) for w in expected]


def test_matching_table_stays_small():
    words, inv = _matching_table(16)
    assert words.shape == (2_027_025, 16)
    assert words.dtype == np.int8 and inv.dtype == np.int8
    assert int(inv.max()) == 8 * 7


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_matchings_sum_is_the_scalar_loop_bit_for_bit(n, complex_entries):
    for seed in range(3):
        a = random_skew(np.random.default_rng(1000 * n + seed), n, complex_entries)
        got, expected = pfaffian_matchings(a), reference_pfaffian_matchings(a)
        assert type(got) is type(expected)
        assert _hex(got) == _hex(expected), (n, seed)


# ---------------------------------------------------------------- properties

_entries = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))


@given(
    n=st.sampled_from([2, 4, 6, 8, 10, 12]),
    complex_entries=st.booleans(),
    data=st.data(),
)
def test_pfaffian_square_is_determinant_property(n, complex_entries, data):
    parts = 2 if complex_entries else 1
    flat = data.draw(st.lists(_entries, min_size=parts * n * n, max_size=parts * n * n))
    a = np.array(flat[: n * n]).reshape(n, n)
    if complex_entries:
        a = a + 1j * np.array(flat[n * n:]).reshape(n, n)
    a = a - a.T
    pf = pfaffian(a)
    # determinant errors scale with the Hadamard bound prod_i |row_i|
    scale = np.prod(np.linalg.norm(a, axis=1))
    assert abs(pf * pf - np.linalg.det(a)) <= 1e-10 * scale
