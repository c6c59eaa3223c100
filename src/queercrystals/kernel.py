"""The word-operator kernel, re-exported from ``queercrystals._kernel_py``.

Callers import the kernel from here; the functions live in their own
module so that a tracer can wrap these names without wrapping the
kernel's calls among themselves.  ``edits`` gives the position every
operator edits on a word from one scan, for callers that need them all
(``graphs.closure`` and reading independence), in ``graphs.all_labels``
order; ``edit_letters`` gives the letter each one writes, and
``_put(w, pos, letter)``, the one letter edit, turns a position into the
result word.  The per-label ``apply_*`` functions serve callers that need
one operator, and are ``edits``'s oracle in the tests.
``_conjugated_odd`` is the one conjugation of ebar1/fbar1 to index i;
``graphs`` runs it on any crystal by passing that crystal's reflection.
"""

from ._kernel_py import (IMPLEMENTATION, _conjugated_odd, _put, apply_e,
                         apply_ebar, apply_ebar1, apply_f, apply_fbar,
                         apply_fbar1, edit_letters, edits, eps_phi,
                         is_gl_highest, is_q_highest, weight_of, weyl_s)
