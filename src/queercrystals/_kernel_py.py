"""Word-operator kernel: the closed forms of the tensor-product rule.

Words are ``bytes`` whose byte values are letters 1..n; the leftmost byte
is the first tensor factor.  This is the package's only kernel; callers
reach it through ``queercrystals.kernel``, and ``queercrystals.tensor_rules``
evaluates the same operators by the literal recursive rule as its oracle.

Even operators use the signature rule: each letter contributes "+" when it
equals i and "-" when it equals i+1, adjacent "+-" pairs cancel
iteratively, and the raising operator edits the letter owning the
rightmost surviving "-" while the lowering operator edits the leftmost
surviving "+".  ``moves`` gives every label's result from one pass: a
letter a is "+" for the label a and "-" for the label a-1, so one scan
keeps the signature of every label at once.  The odd pair ebar1/fbar1
edits the rightmost letter in {1, 2}.
"""

IMPLEMENTATION = "pure"


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
    out = bytearray(w)
    out[minus[-1]] = i
    return bytes(out)


def apply_f(w: bytes, i: int):
    """Lowering operator for the even index i, or None."""
    plus, minus = _signature(w, i)
    if not plus:
        return None
    out = bytearray(w)
    out[plus[0]] = i + 1
    return bytes(out)


def apply_fbar1(w: bytes):
    """Odd lowering operator: turn the rightmost letter in {1,2} from 1 to 2."""
    for pos in range(len(w) - 1, -1, -1):
        if w[pos] <= 2:
            if w[pos] == 1:
                out = bytearray(w)
                out[pos] = 2
                return bytes(out)
            return None
    return None


def apply_ebar1(w: bytes):
    """Odd raising operator: turn the rightmost letter in {1,2} from 2 to 1."""
    for pos in range(len(w) - 1, -1, -1):
        if w[pos] <= 2:
            if w[pos] == 2:
                out = bytearray(w)
                out[pos] = 1
                return bytes(out)
            return None
    return None


def moves(w: bytes, n: int) -> tuple:
    """All lowering and raising results of a word, from one scan.

    Returns ``(f_1..f_{n-1}, fbar1)`` and ``(e_1..e_{n-1}, ebar1)``, each
    entry a word or None (the odd entries only when n >= 2), equal to the
    per-label ``apply_f``/``apply_fbar1`` and ``apply_e``/``apply_ebar1``.
    Per label only the stack's size and its bottom are kept: the leftmost
    surviving "+" is the first one pushed since the stack was last empty,
    and the rightmost surviving "-" is the last one that met an empty stack.
    """
    count = [0] * (n + 1)
    bottom = [0] * (n + 1)
    minus = [-1] * (n + 1)
    for pos, a in enumerate(w):
        if a > 1:
            if count[a - 1]:
                count[a - 1] -= 1
            else:
                minus[a - 1] = pos
        if count[a]:
            count[a] += 1
        else:
            count[a] = 1
            bottom[a] = pos
    down = []
    up = []
    for i in range(1, n):
        if count[i]:
            out = bytearray(w)
            out[bottom[i]] = i + 1
            down.append(bytes(out))
        else:
            down.append(None)
        if minus[i] >= 0:
            out = bytearray(w)
            out[minus[i]] = i
            up.append(bytes(out))
        else:
            up.append(None)
    if n >= 2:
        pos = max(w.rfind(1), w.rfind(2))
        fbar1 = ebar1 = None
        if pos >= 0:
            out = bytearray(w)
            out[pos] = 3 - w[pos]
            if w[pos] == 1:
                fbar1 = bytes(out)
            else:
                ebar1 = bytes(out)
        down.append(fbar1)
        up.append(ebar1)
    return tuple(down), tuple(up)


def weyl_s(w: bytes, i: int) -> bytes:
    """Simple-reflection action: f_i^m if m = #i - #(i+1) >= 0, else e_i^(-m)."""
    m = 0
    for a in w:
        if a == i:
            m += 1
        elif a == i + 1:
            m -= 1
    if m >= 0:
        for _ in range(m):
            w = apply_f(w, i)
    else:
        for _ in range(-m):
            w = apply_e(w, i)
    return w


def _conjugating_word(i: int) -> tuple:
    """Canonical reduced word for the shortest w with w(alpha_i) = alpha_1.

    ``weyl`` binds it as ``conjugating_word``."""
    return tuple(range(2, i + 1)) + tuple(range(1, i))


def _conjugated_odd(w: bytes, i: int, odd1):
    """odd1 (apply_ebar1 or apply_fbar1) moved from index 1 to index i >= 2."""
    rw = _conjugating_word(i)
    for s in reversed(rw):
        w = weyl_s(w, s)
    w = odd1(w)
    if w is None:
        return None
    for s in rw:
        w = weyl_s(w, s)
    return w


def apply_fbar(w: bytes, i: int):
    """Odd lowering operator for index i >= 2 via Weyl conjugation."""
    return _conjugated_odd(w, i, apply_fbar1)


def apply_ebar(w: bytes, i: int):
    """Odd raising operator for index i >= 2 via Weyl conjugation."""
    return _conjugated_odd(w, i, apply_ebar1)


def is_gl_highest(w: bytes, n: int) -> bool:
    """True iff every even raising operator vanishes."""
    for i in range(1, n):
        plus = 0
        j = i + 1
        for a in w:
            if a == i:
                plus += 1
            elif a == j:
                if plus:
                    plus -= 1
                else:
                    return False
    return True


def is_q_highest(w: bytes, n: int) -> bool:
    """True iff all 2n-2 raising operators (even and odd) vanish."""
    if not is_gl_highest(w, n):
        return False
    if n >= 2 and apply_ebar1(w) is not None:
        return False
    for i in range(2, n):
        if apply_ebar(w, i) is not None:
            return False
    return True
