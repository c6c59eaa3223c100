"""Mutation check for the word kernel and its one-pass scan, the integer
input checks, the Weyl action, the staircase tableaux, their enumerator,
their equality, the one-box semistandard check and the memo of their
crystals, the graph layer (search, components, tensor, its even rule
and its packed weight keys, validation and the error it raises, the
stepwise Weyl reflection, isomorphism, the adapters' highest-weight test),
serialization, the CLI, the exact side (rational functions and their
values at q = 0, basis tensors and vectors, the algebra action, the
checks of its primitive symbols, its generator table and the checks of
its entry point, operators over Z[q, q^-1], their products, their
scalars and their RatFunc view, string decompositions by block class,
solved over Z[q, q^-1] from orthogonal string tops and checked by C .
(D C^-1) = D I, their lift, its one division by D and its factorization
check, their residues at q = 0 read off the numerators once per class
and lifted, the odd Kashiwara operators, the entry checks of the
Kashiwara operators, of the graph functions, of the word adapter and
closure's seed, of the tableau layer and of the relation and
comultiplication catalogues) and the verifiers
(check records, reading independence and its one scan per distinct word,
the exact checks, the commuting relations, the release of each checked
relation, a relation rescaled on both sides, the theorem reports).

Each mutant replaces one snippet of one source file by a wrong variant
and names the test files that must kill it, or ``tools/digests.py``, which
kills it when ``--check`` exits nonzero.  It is applied to a fresh
temporary copy of ``src/``, ``tests/`` and ``tools/``, those tests run on
that copy, and a mutant that leaves them passing is a survivor.  The
checkout itself is never edited.

    python tools/mutants.py

Exit status: 0 when every mutant is killed, 1 when any survives, 2 when a
mutant's snippet does not occur exactly once in its file (the list no
longer matches the code) or the unmutated copy already fails its tests.
It uses only the standard library and pytest, which tier-1 needs anyway.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PKG = "src/queercrystals/"
WORDS = ("tests/test_kernel_oracles.py", "tests/test_weyl.py",
         "tests/test_words.py", "tests/test_tableaux.py")
CHECKS = ("tests/test_qrep_checks.py",)
THEOREMS = ("tests/test_theorems.py",)
GRAPHS = ("tests/test_graphs.py",)
# the local crystal axioms, an oracle that shares no code with tensor
AXIOMS = ("tests/test_crystal_axioms.py",)
CLI = ("tests/test_cli.py",)
LAURENT = ("tests/test_laurent.py",)
EXACT = ("tests/test_qrep_action.py", "tests/test_qrep_kashiwara.py",
         "tests/test_qrep_operator_oracle.py") + CHECKS
# the tests of the crystal_of_shape memo and its input check
MEMO = ("tests/test_tableaux.py",)
# the staircase model, also against the Schur P character oracle
STAIRCASE = WORDS + ("tests/test_schur_p.py",)
# the entry contract's wrong-kind objects, graphs and vectors
CONTRACT = ("tests/test_entry_contract.py",)
# the committed output manifest, run as tools/digests.py --check
DIGESTS = ("tools/digests.py",)

# (file, snippet, replacement, what the mutant breaks, tests that kill it)
MUTANTS = (
    (PKG + "kernel.py", "k < len(plus)", "k <= len(plus)",
     "S_i writes one minus too many", WORDS),
    (PKG + "kernel.py", "minus + plus", "plus + minus",
     "S_i rewrites the unmatched positions out of order", WORDS),
    (PKG + "kernel.py", "_put(w, pos, 3 - letter)",
     "_put(w, pos, letter)",
     "the odd flip leaves its letter as it was", WORDS),
    (PKG + "kernel.py", "w[pos + 1:]", "w[pos:]",
     "the one letter edit inserts its letter instead of replacing one",
     WORDS),
    (PKG + "kernel.py", "if w[pos] <= 2:", "if w[pos] < 2:",
     "the odd flip looks past a rightmost letter 2", WORDS),
    (PKG + "kernel.py", "apply_ebar(w, i) is None for i in range(1, n)",
     "apply_ebar(w, i) is None for i in range(2, n)",
     "is_q_highest skips ebar1", WORDS),
    (PKG + "kernel.py", "for s in reversed(rw):", "for s in rw:",
     "the conjugation by S_w, on words and on stored graphs, applies "
     "S_w where S_w^-1 belongs", WORDS + GRAPHS),
    (PKG + "kernel.py", "_signature(w, i)[1]", "_signature(w, i)[0]",
     "is_gl_highest reads the surviving pluses for the minuses", WORDS),
    (PKG + "kernel.py",
     "            else:\n                minus[a - 1] = pos",
     "            if True:\n                minus[a - 1] = pos",
     "the scan records a letter i+1 that a plus cancels as e_i's position",
     WORDS),
    (PKG + "kernel.py", "                if not count[a - 1]:\n"
     "                    bottom[a - 1] = -1\n", "",
     "the scan keeps f_i's position after every plus before it is "
     "cancelled", WORDS),
    (PKG + "kernel.py", "lowers = pos >= 0 and w[pos] == 1",
     "lowers = pos >= 0 and w[pos] == 2",
     "the scan gives fbar1 the position of ebar1 and the reverse", WORDS),
    (PKG + "kernel.py", "            count[a] += 1\n",
     "            count[a] += 1\n            bottom[a] = pos\n",
     "the scan gives f_i the latest surviving plus, not the leftmost",
     WORDS + AXIOMS),
    (PKG + "words.py", "    return kernel.apply_fbar(w, i)",
     "    return kernel.apply_ebar(w, i)",
     "words.fbar raises instead of lowering", WORDS),
    (PKG + "words.py", "product(range(1, n + 1), repeat=length)",
     "product(range(1, n), repeat=length)",
     "all_words drops the letter n", WORDS),
    (PKG + "words.py",
     "    check_word(w, n)\n    return kernel.weight_of(w, n)",
     "    return kernel.weight_of(w, n)",
     "weight_of counts a letter outside 1..n as another one", WORDS),
    (PKG + "tableaux.py", "r + c - parts[0]", "r + c - parts[-1]",
     "b_lambda measures anti-diagonals from the last part", WORDS),
    (PKG + "tableaux.py", "tuple(list(parts) + [0] * (n - len(parts)))",
     "tuple([0] * (n - len(parts)) + list(parts))",
     "partition_weight puts the zero parts first, for b_lambda and the "
     "theorems alike", STAIRCASE),
    (PKG + "tableaux.py", "for i in range(d, d + p):",
     "for i in range(d - (d > 1), d + p - (d > 1)):",
     "shape_from_partition starts later anti-diagonals a row higher",
     STAIRCASE),
    (PKG + "tableaux.py", "key=lambda k: (boxes[k][0], -boxes[k][1])",
     "key=lambda k: (-boxes[k][0], -boxes[k][1])",
     "the row reading takes the rows bottom to top", STAIRCASE),
    (PKG + "tableaux.py", "key=lambda k: (-boxes[k][1], boxes[k][0])",
     "key=lambda k: (boxes[k][1], boxes[k][0])",
     "the column reading takes the columns left to right", STAIRCASE),
    (PKG + "tableaux.py",
     "    if label not in all_labels(n):\n"
     "        raise ValueError(", "    if False:\n        raise ValueError(",
     "tableau_operator takes any label", WORDS),
    (PKG + "tableaux.py",
     "return self.entries == other.entries and (\n"
     "            self.shape is other.shape or self.shape == other.shape)",
     "return self.entries == other.entries",
     "a tableau equals one with the same entries on another shape", WORDS),
    (PKG + "tableaux.py", "entries[up] >= a", "entries[up] > a",
     "the one-box check lets a box equal the box above it",
     WORDS + THEOREMS),
    (PKG + "tableaux.py", "        if right >= 0 and a > entries[right]:\n"
     "            return False\n", "",
     "the one-box check ignores the right neighbor", WORDS + THEOREMS),
    (PKG + "tableaux.py", "        if down >= 0 and a >= entries[down]:\n"
     "            return False\n", "",
     "the one-box check ignores the neighbor below", WORDS + THEOREMS),
    (PKG + "theorems.py", "col_box = col_order + (-1,)",
     "col_box = row_order + (-1,)",
     "reading independence maps column positions to boxes by the row "
     "reading", THEOREMS),
    (PKG + "theorems.py", "                col_edits = edits(col_word, n)",
     "                col_edits = row_edits",
     "reading independence reuses the row word's scan for a column word "
     "that differs", THEOREMS),
    (PKG + "theorems.py", "    one_order = row_order == col_order",
     "    one_order = True",
     "reading independence takes every shape's two orders for one order",
     THEOREMS),
    (PKG + "theorems.py",
     "            if x >= 0 and not fits(entries, x, letter):",
     "            if False:",
     "reading independence skips the semistandard check of the row "
     "reading's result", THEOREMS),
    (PKG + "theorems.py", "            if y != x:", "            if False:",
     "reading independence never compares the column reading's box",
     THEOREMS),
    (PKG + "tableaux.py", "        for v in range(lo, n + 1):",
     "        for v in range(lo, n + (k < m - 1)):",
     "the filling enumerator never puts the letter n in the last box",
     WORDS + THEOREMS),
    (PKG + "tableaux.py",
     "return _crystal_of_shape(parts, operator.index(n))",
     "return globals().setdefault(\n        (\"memo\", parts), "
     "_crystal_of_shape(parts, operator.index(n)))",
     "the crystal_of_shape memo leaves the rank out of its key", MEMO),
    (PKG + "tableaux.py",
     "    parts = check_strict_partition(parts, n)\n"
     "    return _crystal_of_shape(",
     "    check_strict_partition(parts, n)\n    return _crystal_of_shape(",
     "the crystal_of_shape memo keys on the parts as given, not normalized",
     MEMO),
    (PKG + "tableaux.py", "@lru_cache(maxsize=16)",
     "@lru_cache(maxsize=None)",
     "the crystal_of_shape memo grows without bound", MEMO),
    (PKG + "words.py", "x = operator.index(x)", "x = int(x)",
     "a part of 2.9 or '3' is truncated or parsed, and shares the memo "
     "entry of an integer shape; a rank of 2.0 passes", WORDS),
    (PKG + "words.py", "        if isinstance(x, bool):\n"
     "            raise TypeError\n", "",
     "a rank, power, part or size of True passes as 1", WORDS),
    (PKG + "words.py", "x < least", "x <= least",
     "a count equal to its least value is refused: tensor power 0 or "
     "max_depth 0", GRAPHS + THEOREMS),
    (PKG + "tableaux.py", 'if direction not in ("e", "f"):',
     'if direction not in ("e", "f", "up"):',
     'tableau_operator takes "up" for "f"', WORDS),
    (PKG + "reports.py", "None if ok else witness)", "witness)",
     "a passed record keeps its witness", CHECKS),
    (PKG + "qrep/checks.py", "diagonal(i) if i == j else zero",
     "diagonal(i) if i <= j else zero",
     "a commutator above the diagonal takes the diagonal term", CHECKS),
    (PKG + "qrep/checks.py",
     "rels.append((name, compose(a, b), compose(b, a)))",
     "rels.append((name, compose(a, b), compose(a, b)))",
     "a commuting relation compares a b with itself", CHECKS),
    (PKG + "qrep/checks.py",
     "    catalogue.reverse()\n    while catalogue:\n"
     "        name, lhs, rhs = catalogue.pop()",
     "    for name, lhs, rhs in catalogue:",
     "verify_relations keeps every checked relation alive in its catalogue",
     CHECKS),
    (PKG + "qrep/checks.py", "lambda i: kbar_shift(i, -1)",
     "lambda i: kbar_shift(i, 1)",
     "[e_i, fbar_i] takes the shift of [ebar_i, f_i]", CHECKS),
    (PKG + "qrep/checks.py",
     "(graph.predecessors(lab), graph.successors(lab))",
     "(graph.successors(lab), graph.predecessors(lab))",
     "the residue check reads each raising operator's arrows for the "
     "lowering one's and the reverse", CHECKS),
    (PKG + "qrep/checks.py", "ok = set(src) == spans[b]",
     "ok = len(src) == len(spans[b])",
     "lattice-dimension compares sizes only, so a wrong tensor passes",
     CHECKS),
    (PKG + "qrep/checks.py", "ok = support == {expected}",
     "ok = support <= {expected}",
     "a vanished residue passes as the expected target", CHECKS),
    (PKG + "qrep/checks.py", "rank == 2 ** N,", "rank >= 2 ** (N - 1),",
     "a residue map of half rank passes as invertible", CHECKS),
    (PKG + "qrep/checks.py", "        if witness is None:\n"
     "            witness = next(",
     "        if False:\n            witness = next(",
     "a nonzero residue of a squared odd operator passes", CHECKS),
    (PKG + "graphs.py", "if met1 != met2:", "if met1[0] != met2[0]:",
     "isomorphic compares the weights its searches meet, not the arrows",
     GRAPHS),
    (PKG + "graphs.py", "    seen[start] = True", "    seen[start] = False",
     "_search leaves its start unmarked, so an arrow back meets it again",
     GRAPHS),
    (PKG + "graphs.py", "local[k] = j", "local[k] = k",
     "graph_components keeps the parent's indices in a component's arrows",
     GRAPHS),
    (PKG + "graphs.py",
     "ops.e(i, b) is None and ebar_ops(ops, i, b) is None",
     "ops.e(i, b) is None",
     "the adapters' highest-weight test ignores the odd raising operators",
     ("tests/test_graphs.py", "tests/test_tableaux.py")),
    (PKG + "graphs.py", "for lab in all_labels(ops.n)]",
     "for lab in all_labels(ops.n) if lab != ODD]",
     "build_graph's lowering list loses the odd label", GRAPHS),
    (PKG + "graphs.py", "(ops.fbar1(b), ops.ebar1(b))",
     "(ops.fbar1(b), ops.fbar1(b))",
     "closure_set reads fbar1 for both odd moves, so it never raises "
     "along the odd label", WORDS),
    (PKG + "graphs.py", "[p > e for e in eps]", "[p >= e for e in eps]",
     "tensor lowers the left factor when phi_i = eps_i", GRAPHS),
    (PKG + "graphs.py", "base = 1 + sum(", "base = sum(",
     "tensor packs weights in a base one too small for the digits of a "
     "sum", GRAPHS),
    (PKG + "graphs.py", "[wb[0] == 0 and wb[1] == 0 for",
     "[wb[0] == 0 for", "tensor's odd rule reads only wt_1 of the right "
     "factor", GRAPHS),
    (PKG + "graphs.py", "eps = _string_lengths(right.predecessors(lab))",
     "eps = _string_lengths(right.successors(lab))",
     "tensor weighs phi_i of the left factor against phi_i, not eps_i, of "
     "the right", AXIOMS),
    (PKG + "graphs.py", "phi = _string_lengths(succ_left)",
     "phi = _string_lengths(left.predecessors(lab))",
     "tensor weighs eps_i, not phi_i, of the left factor against eps_i of "
     "the right", AXIOMS),
    (PKG + "graphs.py", "if len(targets) != len(set(targets)) or any(",
     "if any(", "validate skips its partial-matching check", GRAPHS),
    (PKG + "graphs.py",
     "raise StructureError(\n                    f\"edge {(s, lab, d)}",
     "raise ValueError(\n                    f\"edge {(s, lab, d)}",
     "validate reports a broken crystal as bad input, and verify exits 2",
     GRAPHS + CLI),
    (PKG + "graphs.py",
     "        if b is None:\n            raise StructureError(",
     "        if False:\n            raise StructureError(",
     "weyl_s_ops walks on past a step that vanishes", GRAPHS),
    (PKG + "serialize.py", "style=dashed];", "style=dotted];",
     "DOT draws an odd arrow dotted, not dashed", CLI),
    (PKG + "cli.py", "N = 2 if args.power is None",
     "N = 1 if args.power is None",
     "verify --qrep takes N = 1 when -N is not given", CLI),
    (PKG + "qrep/action.py", "sum(s for _, s in t) & 1",
     "sum(s for _, s in t[1:]) & 1",
     "parity skips the first factor's bar", EXACT),
    (PKG + "qrep/action.py", "    if s:\n        out[t] = s",
     "    if True:\n        out[t] = s",
     "vec_add keeps a coefficient that sums to zero", EXACT),
    (PKG + "qrep/action.py", 'kind in ("e", "f") and i >= 1',
     'kind in ("e", "f") and i >= 0',
     "op takes the index 0, and e_1 writes a letter 0", EXACT),
    (PKG + "words.py", "if type(i) is not int or not 1 <= i <= n - 1:",
     "if not 1 <= i <= n - 1:",
     "an even index of True acts as 1", WORDS),
    (PKG + "qrep/laurent.py", "RatFunc(self.num[:1], self.den[:1])",
     "RatFunc(self.num[:1], (1,))",
     "the value at q = 0 drops the denominator's constant term", LAURENT),
    (PKG + "qrep/laurent.py",
     "g = pcontent(a) if a[-1] > 0 else -pcontent(a)", "g = pcontent(a)",
     "pgcd keeps a negative leading coefficient", LAURENT),
    (PKG + "qrep/laurent.py", "if self.den == (1,) and len(self.num) <= 1:",
     "if False:", "a constant hashes apart from the integer it equals",
     LAURENT),
    (PKG + "qrep/laurent.py", "if other.num[-1] < 0:",
     "if other.num[-1] > 0:",
     "the reciprocal shortcut leaves a negative denominator", LAURENT),
    (PKG + "qrep/action.py", "if flip and sum(b for _, b in t[:p]) & 1",
     "if flip and sum(b for _, b in t[p + 1:]) & 1",
     "kbar_1 takes its super sign from the factors to its right", EXACT),
    (PKG + "qrep/action.py", "{}, {i: -1, i + 1: 1}", "{}, {i: 1, i + 1: -1}",
     "e_i picks up the inverse power of q from its right", EXACT),
    (PKG + "qrep/action.py", "bracket(f, ebar)), qh_expr(n, (i, -1)))",
     "bracket(f, ebar)), qh_expr(n, (i, 1)))",
     "the table builds kbar_{i+1} with q^{k_i} where q^{-k_i} belongs",
     EXACT),
    (PKG + "qrep/action.py", "type(index) is int and g in",
     "isinstance(index, int) and g in",
     "the generator table takes an index of True as 1", EXACT),
    (PKG + "qrep/action.py", "type(index) is tuple and len(index) == n",
     "type(index) is tuple",
     "q^h takes an exponent tuple of the wrong length", EXACT),
    (PKG + "qrep/action.py", "and 1 <= s[0] <= n and", "and 1 <= s[0] and",
     "act_on_tensor takes a letter above n", EXACT),
    (PKG + "tableaux.py", "    if not is_semistandard(t.shape, t.entries):\n"
     "        raise ValueError(", "    if False:\n        raise ValueError(",
     "tableau_operator takes a filling that is not semistandard", WORDS),
    (PKG + "qrep/kashiwara.py", "if 2 * (a + k) - m < k:",
     "if 2 * (a + k) - m <= k:",
     "string decomposition drops the strings that end at the class", EXACT),
    (PKG + "qrep/kashiwara.py", "s[p] = (j + i - 1, t[p][1])",
     "s[p] = (j + i - 1, 0)",
     "the lift writes bar 0 in place of the factor's own bar", EXACT),
    (PKG + "qrep/kashiwara.py", 'for kind in ("e", "f"):',
     'for kind in ("e",):',
     "the factorization check compares only the e_i column", EXACT),
    (PKG + "qrep/kashiwara.py",
     "    check_rank(n)\n    _check_even_index(i, n)\n",
     "    _check_even_index(i, n)\n",
     "the even operators take a rank outside 1..255", EXACT),
    (PKG + "words.py", "if type(i) is not int or not 1 <= i <= n - 1:",
     "if not 1 <= i <= n - 1:",
     "the Kashiwara operators take an index of True as 1", EXACT),
    (PKG + "words.py", "if type(i) is not int or not 1 <= i <= n - 1:",
     "if type(i) is not int or not 1 <= i <= n:",
     "the Kashiwara operators take the index n", EXACT),
    (PKG + "qrep/kashiwara.py",
     "    check_vector(vec, n)\n    if len({tensor_weight",
     "    if len({tensor_weight",
     "the even operators take a key that is not a basis tensor", EXACT),
    (PKG + "qrep/kashiwara.py",
     '        raise ValueError("not a weight vector")',
     "        pass",
     "the even operators take keys of two weights", EXACT),
    (PKG + "qrep/kashiwara.py",
     "    check_vector(vec, n)\n    return act_expr(tilde_fbar1_expr(n), vec)",
     "    return act_expr(tilde_fbar1_expr(n), vec)",
     "tilde_fbar1 takes a key that is not a basis tensor", EXACT),
    (PKG + "qrep/action.py",
     "    for t in vec:\n        if not (type(t) is tuple",
     "    seen = check_vector.__dict__.setdefault(\"seen\", set())\n"
     "    for t in vec.keys() - seen:\n        seen.add(t)\n"
     "        if not (type(t) is tuple",
     "the vector check passes a key the first time an equal key was "
     "seen, as a cache would", EXACT),
    (PKG + "qrep/action.py", "    if not isinstance(vec, dict):\n",
     "    if False:\n",
     "the vector check takes an object that is not a dict", CONTRACT),
    (PKG + "qrep/action.py", "        if len(t) != len(first):\n",
     "        if False:\n",
     "the vector check takes keys of two lengths", EXACT),
    (PKG + "graphs.py", "        if not isinstance(g, CrystalGraph):\n",
     "        if False:\n",
     "the graph functions take an object that is not a graph", CONTRACT),
    (PKG + "graphs.py", "    if not isinstance(ops, _Adapter):\n",
     "    if False:\n",
     "closure, components and build_graph take an object that is not an "
     "ops adapter", CONTRACT),
    (PKG + "tableaux.py", "    if not isinstance(x, kind):\n",
     "    if False:\n",
     "the tableau functions take a shape or a tableau of the wrong kind",
     CONTRACT),
    (PKG + "tableaux.py",
     "        _check_kind(shape, SkewShape)\n        check_rank(n)\n",
     "        _check_kind(shape, SkewShape)\n",
     "TableauOps takes a rank that is not an int in 1..255", CONTRACT),
    (PKG + "tableaux.py",
     "    check_rank(n)\n    return [Tableau(", "    return [Tableau(",
     "enumerate_ssyt takes rank 0 and finds no filling", CONTRACT),
    (PKG + "theorems.py", "    check_graph(graph)\n    top =", "    top =",
     "highest_weight_formula_side takes an object that is not a graph",
     CONTRACT),
    (PKG + "qrep/kashiwara.py",
     "    check_rank(n)\n    check_vector(vec, n)\n"
     "    return act_expr(ktilde1_expr(n),",
     "    check_vector(vec, n)\n    return act_expr(ktilde1_expr(n),",
     "ktilde_1 takes a rank that is not an int in 1..255", EXACT),
    (PKG + "qrep/kashiwara.py",
     "    _check_even_index(1, n)\n    check_vector(vec, n)\n"
     "    return act_expr(tilde_ebar1_expr(n),",
     "    check_vector(vec, n)\n    return act_expr(tilde_ebar1_expr(n),",
     "tilde_ebar1 takes rank 1", EXACT),
    (PKG + "qrep/kashiwara.py",
     "    check_rank(n)\n    _check_even_index(1, n)\n"
     "    check_vector(vec, n)\n    return act_expr(tilde_fbar1_expr(n),",
     "    check_vector(vec, n)\n    return act_expr(tilde_fbar1_expr(n),",
     "tilde_fbar1 takes rank 1 or a rank that is not an int", EXACT),
    (PKG + "qrep/action.py", "c1 * c2)", "c1)",
     "a product keeps the coefficient of its right factor and drops the "
     "sign of the operator it applies", EXACT),
    (PKG + "qrep/kashiwara.py", 'op(("f", 1)), Q),', 'op(("f", 1)), Q * Q),',
     "the q-shift of tilde_fbar1's term q f_1 kbar_1 is off by one", EXACT),
    (PKG + "qrep/kashiwara.py",
     'op(("kbar", 1)), Q),\n                         qh_expr(n, (1, 1))',
     'op(("kbar", 1)), Q),\n                         qh_expr(n, (2, 1))',
     "tilde_ebar1 takes q^{k_2} where q^{k_1} belongs", EXACT),
    (PKG + "qrep/action.py", "(t2, k1 + k2)", "(t2, k2)",
     "a product adds only one of the two exponents", EXACT),
    (PKG + "qrep/action.py",
     "    if c.den[-1] != 1 or any(c.den[:-1]):\n        raise",
     "    if False:\n        raise",
     "scale takes a scalar that is not a Laurent polynomial", EXACT),
    (PKG + "qrep/checks.py",
     "ef = {i: scale(Q - qinv, x) for i, x in e.items()}", "ef = e",
     "the e-f commutator loses its factor q - q^-1", CHECKS),
    (PKG + "qrep/action.py", "RatFunc.laurent(min(cs), ",
     "RatFunc.laurent(min(cs) + 1, ",
     "the RatFunc view shifts the lowest exponent", EXACT),
    (PKG + "qrep/action.py", "if not 1 <= j <= n:", "if not 1 <= j:",
     "q^h takes a k_j above the rank", EXACT),
    (PKG + "qrep/laurent.py", "        lo += v\n", "        lo = v\n",
     "the Laurent constructor ignores its lowest exponent", LAURENT),
    (PKG + "qrep/kashiwara.py", "        for j in range(1, k + 1):\n",
     "        for j in range(1, k):\n",
     "a class level takes [k-1]! where the divided power f^(k) = f^k / "
     "[k]! asks for [k]!", EXACT),
    (PKG + "qrep/kashiwara.py", "if k != r and c:", "if k > r and c:",
     "_rref clears below its pivots only", EXACT),
    (PKG + "qrep/kashiwara.py", "        if value:\n            residue[t]",
     "        if True:\n            residue[t]",
     "a residue keeps the entries that vanish at q = 0", EXACT),
    (PKG + "qrep/kashiwara.py",
     "        if not c.is_regular_at_zero():\n            return None, (t, c)\n",
     "", "a residue is taken without testing for a pole at q = 0", EXACT),
    (PKG + "qrep/kashiwara.py",
     "return {lift[x]: value for x, value in residue.items()}, None",
     "return dict(residue), None",
     "the lifted residue keeps the class tensors as its keys", EXACT),
    (PKG + "qrep/kashiwara.py", "(lift[pole[0]], pole[1])", "pole",
     "the lifted residue names a pole by its class tensor", EXACT),
    (PKG + "qrep/kashiwara.py",
     "    w, lift, basis = _block(i, t, n)\n    residue, pole",
     "    lift = _lift(i, t)\n"
     "    w = next(w for w, s in lift.items() if s == t)\n"
     "    basis = _string_basis(len(w), w.count((1, 0)))\n    residue, pole",
     "the residue path lifts without the factorization check", EXACT),
    (PKG + "qrep/kashiwara.py", "        w, lift, basis = _block(i, t, n)\n",
     "        lift = _lift(i, t)\n"
     "        w = next(w for w, s in lift.items() if s == t)\n"
     "        basis = _string_basis(len(w), w.count((1, 0)))\n",
     "the one reader lifts a key without its module's factorization "
     "check", EXACT),
    (PKG + "qrep/kashiwara.py", "    return [(k, u) for k, u in pairs if u]",
     "    return pairs",
     "string_decomposition keeps a level whose part is zero", EXACT),
    (PKG + "qrep/kashiwara.py",
     "for k in _weight_vector(i, vec, n)]",
     "for k in list(_weight_vector(i, vec, n))[1:]]",
     "string_decomposition drops its lowest level", EXACT),
    (PKG + "qrep/kashiwara.py", "for k, u in pairs if u]",
     "for k, u in pairs if u is not None]",
     "string_decomposition keeps an empty level, testing for None where "
     "it means zero", EXACT),
    (PKG + "qrep/kashiwara.py",
     "    return vec_scale(ONE / RatFunc.laurent(0, d), out)",
     "    return out",
     "the one reader returns the class numerators undivided by D", EXACT),
    (PKG + "qrep/kashiwara.py", "vec_scale(ONE / RatFunc.laurent(0, d), out)",
     "vec_scale(ONE / RatFunc.laurent(1, d), out)",
     "the one reader divides by q D where D belongs", EXACT),
    (PKG + "qrep/kashiwara.py",
     "[w if top_k == k else {}", "[w if top_k <= k else {}",
     "a class level takes in the string tops of the levels below it", EXACT),
    (PKG + "qrep/kashiwara.py",
     '        raise ArithmeticError("string decomposition failed to '
     'reconstruct")',
     "        pass",
     "the class solve drops its check C . (D C^-1) = D I", EXACT),
    (PKG + "qrep/kashiwara.py", "        if k == v:", "        if k == 0:",
     "a class residue is read at q^0 instead of q^v", EXACT),
    (PKG + "qrep/kashiwara.py", "RatFunc((x,), (d[v],))",
     "RatFunc((x,), (abs(d[v]),))",
     "a class residue drops the sign of D_0(0)", EXACT),
    (PKG + "qrep/kashiwara.py",
     "lowered.append(_over_gauss_int(chain[k + 1], k + 1))",
     "lowered.append(chain[k + 1])",
     "a lowered class column misses its division by [k+1]", EXACT),
    (PKG + "qrep/kashiwara.py",
     "    if any(_apply(e, w, {}) for tops in out.values() for w in tops):",
     "    if False:",
     "the string tops are not checked to lie in ker e_1", EXACT),
    (PKG + "graphs.py", "        check_rank(n)\n        self.n = n\n",
     "        self.n = n\n", "WordOps takes a rank outside 1..255", CONTRACT),
    (PKG + "graphs.py", "    if not isinstance(ops, WordOps):\n",
     "    if False:\n",
     "closure takes an adapter that is not a word adapter", CONTRACT),
    (PKG + "graphs.py", "    check_word(seed, n)\n", "",
     "closure takes a seed with a letter outside 1..n", CONTRACT),
    (PKG + "tableaux.py", "    _check_kind(t.shape, SkewShape)\n", "",
     "the tableau functions take a Tableau on a shape of the wrong kind",
     CONTRACT),
    (PKG + "qrep/checks.py", "at rank n.\"\"\"\n    check_rank(n)\n",
     "at rank n.\"\"\"\n",
     "relations_catalogue takes a rank that is not an int", CONTRACT),
    (PKG + "qrep/checks.py", "    check_rank(n)\n    if n < 2:\n",
     "    if n < 2:\n",
     "comult_formulas takes a rank that is not an int", CONTRACT),
    (PKG + "qrep/checks.py", "    if n < 2:\n        raise ValueError(",
     "    if False:\n        raise ValueError(",
     "comult_formulas takes rank 1", CONTRACT),
    (PKG + "qrep/checks.py",
     "bracket(kbar[i], e[i], Q),\n"
     "                     compose(ebar[i], qh_expr(n, (i, -1)))))",
     "scale(-ONE, bracket(kbar[i], e[i], Q)),\n"
     "                     scale(-ONE, compose(ebar[i], qh_expr(n, (i, -1))))))",
     "the kbar-e-twist relation is checked with both sides times -1, a "
     "true identity that verify_relations passes",
     ("tests/test_pinned_output.py",) + DIGESTS),
    (PKG + "theorems.py", "max_depth = sum(parts) + 1",
     "max_depth = sum(parts)",
     "explore_conjecture's default search stops one odd step short",
     DIGESTS),
    (PKG + "serialize.py", '"." * (start - min_col)',
     '" " * (start - min_col)',
     "a staircase row's DOT label is indented by spaces, not dots", DIGESTS),
)


def run_tests(tree: pathlib.Path, tests) -> bool:
    """True when the given test files pass on the copy at ``tree``, and
    ``tools/digests.py --check`` too where it is named."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    files = [t for t in tests if t not in DIGESTS]
    commands = [[sys.executable, tool, "--check"]
                for tool in DIGESTS if tool in tests]
    if files:
        commands.append([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                         "no:cacheprovider", "--hypothesis-seed=0", *files])
    return all(subprocess.run(command, cwd=tree, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode == 0
               for command in commands)


def copy_tree(dest: pathlib.Path) -> None:
    for part in ("src", "tests", "tools"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main() -> int:
    for number, (path, snippet, *_) in enumerate(MUTANTS, 1):
        found = (ROOT / path).read_text(encoding="utf-8").count(snippet)
        if found != 1:
            print(f"mutant {number}: {snippet!r} occurs {found} times in "
                  f"{path}, not once", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = pathlib.Path(tmp)
        copy_tree(tree)
        if not run_tests(tree, sorted({t for m in MUTANTS for t in m[4]})):
            print("the unmutated copy fails its tests", file=sys.stderr)
            return 2
        survivors = []
        for number, (path, snippet, replacement, what,
                     tests) in enumerate(MUTANTS, 1):
            target = tree / path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(snippet, replacement),
                              encoding="utf-8")
            killed = not run_tests(tree, tests)
            target.write_text(original, encoding="utf-8")
            print(f"{number:2d} {'killed' if killed else 'SURVIVED'}  "
                  f"{path}: {what}")
            if not killed:
                survivors.append(number)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed; "
          f"survivors: {survivors or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
