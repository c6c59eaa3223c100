"""The compiled kernel and the pure-Python kernel agree everywhere."""

import pytest

from queercrystals import _kernel_py
from queercrystals.words import all_words

fast = pytest.importorskip("queercrystals._fastops",
                           reason="compiled kernel not built")


def test_implementation_tags():
    assert _kernel_py.IMPLEMENTATION == "pure"
    assert fast.IMPLEMENTATION == "cython"


def test_twins_agree_exhaustively():
    for n in (1, 2, 3, 4):
        for length in range(0, 6):
            for w in all_words(n, length):
                assert fast.weight_of(w, n) == _kernel_py.weight_of(w, n)
                assert fast.apply_fbar1(w) == _kernel_py.apply_fbar1(w)
                assert fast.apply_ebar1(w) == _kernel_py.apply_ebar1(w)
                assert fast.is_gl_highest(w, n) == \
                    _kernel_py.is_gl_highest(w, n)
                assert fast.is_q_highest(w, n) == \
                    _kernel_py.is_q_highest(w, n)
                for i in range(1, n):
                    assert fast.eps_phi(w, i) == _kernel_py.eps_phi(w, i)
                    assert fast.apply_e(w, i) == _kernel_py.apply_e(w, i)
                    assert fast.apply_f(w, i) == _kernel_py.apply_f(w, i)
                    assert fast.weyl_s(w, i) == _kernel_py.weyl_s(w, i)
                for i in range(2, n):
                    assert fast.apply_ebar(w, i) == \
                        _kernel_py.apply_ebar(w, i)
                    assert fast.apply_fbar(w, i) == \
                        _kernel_py.apply_fbar(w, i)

