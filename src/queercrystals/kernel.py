"""Word-operator kernel: the closed forms of the tensor-product rule.

Words are ``bytes`` whose byte values are letters 1..n; the leftmost byte
is the first tensor factor.  ``queercrystals.tensor_rules`` evaluates the
same operators by the literal recursive rule as its oracle.

Even operators use the signature rule: each letter contributes "+" when it
equals i and "-" when it equals i+1, adjacent "+-" pairs cancel
iteratively, and the raising operator edits the letter owning the
rightmost surviving "-" while the lowering operator edits the leftmost
surviving "+".  Each Kashiwara operator changes exactly one letter, to a
letter fixed by the operator (``edit_letters``), so the position it edits
fixes its result; ``_put`` is that one edit.  ``edits`` gives every
label's position from one pass, in ``graphs.all_labels`` order: a letter
a is "+" for the label a and "-" for the label a-1.  The per-label
``apply_*`` functions are its oracle in the tests.  The simple reflection
S_i writes -^a +^b over the surviving -^b +^a of one signature.  The odd
pair ebar1/fbar1 flips the rightmost letter in {1, 2}; ``_conjugated_odd``
conjugates it to ebar_i/fbar_i by S_w with w = ``_conjugating_word(i)``,
on words or, given that crystal's reflection, on any crystal.
"""

IMPLEMENTATION = "pure"

_LETTER = tuple(bytes([a]) for a in range(256))


def _put(w: bytes, pos: int, letter: int) -> bytes:
    """The word w with its letter at ``pos`` changed to ``letter``."""
    return w[:pos] + _LETTER[letter] + w[pos + 1:]


def weight_of(w: bytes, n: int) -> tuple:
    """Letter-count vector of length n."""
    wt = [0] * n
    for a in w:
        wt[a - 1] += 1
    return tuple(wt)


def _signature(w: bytes, i: int):
    """Surviving plus positions (stack order) and minus positions."""
    plus = []
    minus = []
    j = i + 1
    for pos, a in enumerate(w):
        if a == i:
            plus.append(pos)
        elif a == j:
            if plus:
                plus.pop()
            else:
                minus.append(pos)
    return plus, minus


def eps_phi(w: bytes, i: int) -> tuple:
    """String lengths (eps_i, phi_i) of a word."""
    plus, minus = _signature(w, i)
    return len(minus), len(plus)


def apply_e(w: bytes, i: int):
    """Raising operator for the even index i, or None."""
    plus, minus = _signature(w, i)
    if not minus:
        return None
    return _put(w, minus[-1], i)


def apply_f(w: bytes, i: int):
    """Lowering operator for the even index i, or None."""
    plus, minus = _signature(w, i)
    if not plus:
        return None
    return _put(w, plus[0], i + 1)


def _flip_odd(w: bytes, letter: int):
    """Flip the rightmost letter in {1, 2} when it is ``letter``, else None."""
    for pos in range(len(w) - 1, -1, -1):
        if w[pos] <= 2:
            if w[pos] != letter:
                return None
            return _put(w, pos, 3 - letter)
    return None


def apply_fbar1(w: bytes):
    """Odd lowering operator: turn the rightmost letter in {1,2} from 1 to 2."""
    return _flip_odd(w, 1)


def apply_ebar1(w: bytes):
    """Odd raising operator: turn the rightmost letter in {1,2} from 2 to 1."""
    return _flip_odd(w, 2)


def edits(w: bytes, n: int) -> tuple:
    """The position every lowering and raising operator edits, from one scan.

    Returns the positions for ``(f_1..f_{n-1}, fbar1)`` and for
    ``(e_1..e_{n-1}, ebar1)``, -1 where the operator vanishes (the odd
    entries only when n >= 2).  An operator writes the letter that
    ``edit_letters`` gives it, so ``_put(w, pos, letter)`` is its result,
    equal to the per-label ``apply_f``/``apply_fbar1`` and
    ``apply_e``/``apply_ebar1``.  Per label only the stack's size and its
    bottom are kept: the leftmost surviving "+" is the first one pushed
    since the stack was last empty (-1 while it is empty), and the
    rightmost surviving "-" is the last one that met an empty stack.
    """
    count = [0] * (n + 1)
    bottom = [-1] * (n + 1)
    minus = [-1] * (n + 1)
    for pos, a in enumerate(w):
        if a > 1:
            if count[a - 1]:
                count[a - 1] -= 1
                if not count[a - 1]:
                    bottom[a - 1] = -1
            else:
                minus[a - 1] = pos
        if count[a]:
            count[a] += 1
        else:
            count[a] = 1
            bottom[a] = pos
    down = bottom[1:n]
    up = minus[1:n]
    if n >= 2:
        pos = max(w.rfind(1), w.rfind(2))
        lowers = pos >= 0 and w[pos] == 1
        down.append(pos if lowers else -1)
        up.append(-1 if lowers else pos)
    return down, up


def edit_letters(n: int) -> tuple:
    """The letter each operator of ``edits`` writes, in its order: i+1 for
    f_i and 2 for fbar1, i for e_i and 1 for ebar1."""
    odd = n >= 2
    return (tuple(range(2, n + 1)) + (2,) * odd,
            tuple(range(1, n)) + (1,) * odd)


def weyl_s(w: bytes, i: int) -> bytes:
    """Simple reflection S_i: the surviving signature -^b +^a becomes
    -^a +^b on the same positions (f_i^(a-b) or e_i^(b-a) in one scan)."""
    plus, minus = _signature(w, i)
    out = bytearray(w)
    for k, pos in enumerate(minus + plus):
        out[pos] = i + 1 if k < len(plus) else i
    return bytes(out)


def _conjugating_word(i: int) -> tuple:
    """Canonical reduced word for the shortest w with w(alpha_i) = alpha_1.

    ``weyl`` binds it as ``conjugating_word``."""
    return tuple(range(2, i + 1)) + tuple(range(1, i))


def _conjugated_odd(w, i: int, odd1, reflect=weyl_s):
    """odd1 (ebar1 or fbar1) moved from index 1 to index i, as
    S_w odd1 S_w^-1 with ``reflect(w, s)`` applying S_s; words by default,
    and any crystal whose reflection is passed in."""
    rw = _conjugating_word(i)
    for s in reversed(rw):
        w = reflect(w, s)
    w = odd1(w)
    if w is None:
        return None
    for s in rw:
        w = reflect(w, s)
    return w


def apply_fbar(w: bytes, i: int):
    """Odd lowering operator for any index i via Weyl conjugation."""
    return _conjugated_odd(w, i, apply_fbar1)


def apply_ebar(w: bytes, i: int):
    """Odd raising operator for any index i via Weyl conjugation."""
    return _conjugated_odd(w, i, apply_ebar1)


def is_gl_highest(w: bytes, n: int) -> bool:
    """True iff every even raising operator vanishes: no i-signature
    keeps a "-"."""
    return not any(_signature(w, i)[1] for i in range(1, n))


def is_q_highest(w: bytes, n: int) -> bool:
    """True iff all 2n-2 raising operators (even and odd) vanish."""
    return is_gl_highest(w, n) and all(
        apply_ebar(w, i) is None for i in range(1, n))
