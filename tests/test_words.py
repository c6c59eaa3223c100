"""Word-level operators: examples, inverse pairing, string lengths."""

import re

import pytest

from queercrystals import (all_words, e_even, ebar, ebar1, eps, f_even, fbar,
                           fbar1, is_highest_weight, phi, tensor_power_graph,
                           vector_crystal, weight_of, weyl_S, weyl_s, word)
from queercrystals.qrep.checks import residue_check, verify_comult_odd
from queercrystals.weyl import permutation_of
from queercrystals.words import check_rank, check_word, letters


def W(*letters):
    return word(letters)


def test_weight_of_examples():
    assert letters(W(1, 3)) == (1, 3)
    assert weight_of(W(), 3) == (0, 0, 0)
    assert weight_of(W(1, 3), 3) == (1, 0, 1)
    assert weight_of(W(1, 1), 3) == (2, 0, 0)


def test_weight_entries_sum_to_length():
    for w in all_words(3, 4):
        assert sum(weight_of(w, 3)) == len(w)


def test_eps_phi_examples():
    assert eps(2, W(3), 3) == 1
    assert phi(2, W(3), 3) == 0
    assert phi(1, W(1, 1), 3) == 2
    assert eps(1, W(2, 1), 3) == 1
    assert phi(1, W(2, 1), 3) == 1


def test_even_operator_examples():
    assert f_even(1, W(1, 1), 3) == W(2, 1)
    assert f_even(2, W(1, 2), 3) == W(1, 3)
    assert f_even(1, W(2, 2), 3) is None
    assert e_even(1, W(2, 1), 3) == W(1, 1)


def test_eps_phi_count_operator_iterations():
    for n in (2, 3):
        for length in range(0, 5):
            for w in all_words(n, length):
                for i in range(1, n):
                    x, k = w, 0
                    while (x := e_even(i, x, n)) is not None:
                        k += 1
                    assert eps(i, w, n) == k
                    x, k = w, 0
                    while (x := f_even(i, x, n)) is not None:
                        k += 1
                    assert phi(i, w, n) == k


def test_even_partial_inverse_pairing():
    n = 3
    for length in range(0, 5):
        for w in all_words(n, length):
            for i in range(1, n):
                up = e_even(i, w, n)
                if up is not None:
                    assert f_even(i, up, n) == w
                down = f_even(i, w, n)
                if down is not None:
                    assert e_even(i, down, n) == w


def test_fbar1_fast_examples():
    assert fbar1(W(1, 1), 3) == W(1, 2)
    assert fbar1(W(1, 3), 3) == W(2, 3)
    assert fbar1(W(2, 2), 3) is None
    assert fbar1(W(3, 3), 3) is None
    assert fbar1(W(1, 2, 3), 3) is None  # rightmost {1,2}-letter is a 2
    assert ebar1(W(1, 2), 3) == W(1, 1)


def test_odd_partial_inverse_pairing():
    n = 3
    for length in range(0, 5):
        for w in all_words(n, length):
            down = fbar1(w, n)
            if down is not None:
                assert ebar1(down, n) == w
            up = ebar1(w, n)
            if up is not None:
                assert fbar1(up, n) == w


def test_odd_operators_vanish_at_rank_one():
    assert fbar1(W(1, 1, 1), 1) is None
    assert ebar1(W(1), 1) is None


def test_conjugated_odd_example():
    # S_w carries the letter 2 into the {1,2} zone and back
    assert fbar(2, W(2), 3) == W(3)
    assert ebar(2, W(3), 3) == W(2)


def test_conjugated_odd_inverse_pairing_and_weight_shift():
    n = 4
    for length in range(1, 4):
        for w in all_words(n, length):
            for i in range(2, n):
                down = fbar(i, w, n)
                if down is not None:
                    assert ebar(i, down, n) == w
                    delta = [a - b for a, b in
                             zip(weight_of(w, n), weight_of(down, n))]
                    expect = [0] * n
                    expect[i - 1] = 1
                    expect[i] = -1
                    assert delta == expect


def test_highest_weight_examples():
    assert is_highest_weight(W(1, 1), 3)
    assert not is_highest_weight(W(2, 1), 3)
    for length in range(1, 6):
        assert is_highest_weight(W(*([1] * length)), 3)


def test_validation_errors():
    with pytest.raises(ValueError):
        check_word(W(4), 3)
    with pytest.raises(ValueError):
        e_even(3, W(1), 3)
    with pytest.raises(ValueError):
        e_even(0, W(1), 3)
    with pytest.raises(ValueError, match="tensor power must be >= 0"):
        tensor_power_graph(2, -1)
    # letters outside 1..n, below it and above it
    for bad in (W(0, 1), W(7)):
        with pytest.raises(ValueError, match="out of range"):
            weight_of(bad, 3)
    with pytest.raises(ValueError, match="out of range"):
        is_highest_weight(W(5), 3)


@pytest.mark.parametrize("index", [1.0, True, "1", None])
@pytest.mark.parametrize("call", [
    *(lambda i, entry=entry: entry(i, W(1, 2), 2)
      for entry in (eps, phi, e_even, f_even, ebar, fbar, weyl_s)),
    lambda i: weyl_S((i,), W(1), 2),
    lambda i: permutation_of((i,), 2),
], ids=["eps", "phi", "e_even", "f_even", "ebar", "fbar", "weyl_s",
        "weyl_S", "permutation_of"])
def test_an_even_index_that_is_not_an_int_is_refused(call, index):
    """f_even(1.0, ...) and weyl_S((1.0,), ...) used to end in a bare
    TypeError, and e_even(True, ...) to act as e_1."""
    with pytest.raises(ValueError, match=re.escape(f"even index {index!r}")):
        call(index)


@pytest.mark.parametrize("n, N, bad", [
    (2.0, 2, "rank must be an integer, got 2.0"),
    ("2", 2, "rank must be an integer, got '2'"),
    (2, 2.0, "tensor power must be an integer, got 2.0"),
    # a bool used to pass as 1
    (True, 2, "rank must be an integer, got True"),
    (2, True, "tensor power must be an integer, got True"),
])
def test_a_rank_or_power_that_is_not_an_integer_is_refused(n, N, bad):
    # a float rank used to end in a bare TypeError from range
    with pytest.raises(ValueError, match=bad):
        tensor_power_graph(n, N)
    with pytest.raises(ValueError, match=bad):
        residue_check(n, N)
    if type(n) is not int:
        # verify_comult_odd(2.0) used to end in a bare TypeError
        for entry in (check_rank, vector_crystal, verify_comult_odd):
            with pytest.raises(ValueError, match=bad):
                entry(n)
