"""Crystal combinatorics for the quantum queer superalgebra.

Combinatorial side: words of the letter crystal with even and odd
Kashiwara operators, the Weyl-group action, staircase tableaux and their
connected crystals, tensor products, and enumeration-based verifiers for
the decomposition and highest-weight theorems.

Exact side (``queercrystals.qrep``): the algebra acting on tensor powers
of its vector representation with rational-function coefficients, the
defining relations and odd comultiplication formulas as exact operator
identities, and the q -> 0 residue check tying both sides together.
"""

from .kernel import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from .words import (Word, all_words, e_even, ebar, ebar1, eps, f_even, fbar,
                    fbar1, is_highest_weight, letters, phi, weight_of, word)
from .weyl import weyl_S, weyl_s
from .graphs import (ODD, CrystalGraph, WordOps, closure, graph_components,
                     highest_weight_nodes, isomorphic, tensor)
from .tableaux import (SkewShape, Tableau, TableauOps, b_lambda,
                       crystal_of_shape, enumerate_ssyt, full_ssyt_graph,
                       reading_word, shape_from_partition, strict_partitions,
                       tableau_operator)
from .theorems import (decompose_product, explore_conjecture,
                       strict_successors, tensor_power_graph, vector_crystal,
                       verify_decomposition, verify_highest_weight_formula,
                       verify_reading_independence,
                       verify_unique_highest_weight)
from .errors import StructureError, VerificationError

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
