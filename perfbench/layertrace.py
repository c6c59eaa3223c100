"""Per-layer tracing from outside the library.

``install()`` wraps the public functions of each layer and rebinds every
module attribute that holds one of them, in every loaded module of the
package, so calls made through ``from x import f`` bindings are timed
too.  Class methods are replaced on their class.  The library itself is
not edited.

Calls are aggregated per (function, parent function): count, total time
and self time (total minus the time of traced calls made inside it).
Trace memory is therefore bounded by the number of distinct call edges,
not by the number of calls.  A layer's self time is the sum of its
functions' self times; time in unwrapped code is charged to the nearest
traced caller.  Helpers called once per operator application inside a
layer (for example ``is_semistandard`` inside ``TableauOps.decode``, or
the polynomial helpers inside ``RatFunc``) are left unwrapped, so their
time stays in the same layer while the tracing overhead stays small.
A generator function (``words.all_words``) is timed on every resume, so
the work of iterating it is charged to it and not to its consumer.
"""

import inspect
import sys
import time
import weakref

# (layer, module, functions, {class: methods})
SITES = (
    ("kernel", "queercrystals.kernel",
     ("weight_of", "eps_phi", "apply_e", "apply_f", "apply_ebar1",
      "apply_fbar1", "weyl_s", "apply_ebar", "apply_fbar", "is_gl_highest",
      "is_q_highest"), {}),
    ("words", "queercrystals.words",
     ("word", "letters", "check_word", "weight_of", "eps", "phi", "e_even",
      "f_even", "ebar1", "fbar1", "ebar", "fbar", "is_highest_weight",
      "all_words"), {}),
    ("words", "queercrystals.weyl",
     ("permutation_of", "length", "is_reduced", "weyl_s", "weyl_S",
      "conjugating_word"), {}),
    ("graphs", "queercrystals.graphs",
     ("weyl_s_ops", "ebar_ops", "fbar_ops", "is_highest_weight_ops",
      "closure_set", "build_graph", "closure", "components", "tensor",
      "graph_components", "highest_weight_nodes", "validate", "isomorphic"),
     {"CrystalGraph": ("successors", "predecessors")}),
    ("tableaux", "queercrystals.tableaux",
     ("check_strict_partition", "strict_partitions", "shape_from_partition",
      "enumerate_ssyt", "reading_order", "reading_word", "tableau_operator",
      "b_lambda", "crystal_of_shape", "full_ssyt_graph", "tableau_json"),
     {"TableauOps": ("e", "f", "ebar1", "fbar1", "weight", "sort_key",
                     "is_highest_weight")}),
    ("theorems", "queercrystals.theorems",
     ("vector_crystal", "tensor_power_graph", "partition_weight",
      "strict_successors", "decompose_product", "highest_weight_formula_side",
      "verify_unique_highest_weight", "verify_decomposition",
      "verify_highest_weight_formula", "verify_reading_independence",
      "explore_conjecture"), {}),
    ("laurent", "queercrystals.qrep.laurent",
     ("pdiv_exact", "pgcd", "gauss_int", "gauss_factorial"),
     {"RatFunc": ("__init__", "__add__", "__neg__", "__sub__", "__rsub__",
                  "__mul__", "__truediv__", "__rtruediv__", "__pow__",
                  "is_regular_at_zero", "at_zero", "from_int", "q_power")}),
    ("action", "queercrystals.qrep.action",
     ("act_prim", "op", "identity_expr", "compose", "expr_sum", "scale",
      "act_expr", "kbar_expr", "ebar_expr", "fbar_expr", "generator_expr",
      "act_on_tensor"), {}),
    # the private _rref is wrapped only to count solves and their sizes
    ("kashiwara", "queercrystals.qrep.kashiwara",
     ("_rref", "solve_in_span", "kernel_on_weight_space", "apply_f_power",
      "string_decomposition", "tilde_e", "tilde_f", "ktilde1_expr",
      "tilde_ebar1_expr", "tilde_fbar1_expr", "tilde_k1", "tilde_ebar1",
      "tilde_fbar1"), {}),
    ("checks", "queercrystals.qrep.checks",
     ("relations_catalogue", "verify_relations", "comult_formulas",
      "verify_comult_odd", "residue_check"), {}),
    ("serialize", "queercrystals.serialize",
     ("graph_to_json", "graph_to_dot", "report_to_json"), {}),
    ("cli", "queercrystals.cli",
     ("build_parser", "cmd_graph", "cmd_verify", "cmd_conjecture", "main"), {}),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in SITES))

# implementation modules whose internal bindings are not part of a layer's
# interface: the kernel layer is what queercrystals.kernel binds
SKIP_MODULES = ("queercrystals._kernel_py", "queercrystals._fastops")

ROOT = "<item>"


class Tracer:
    """Aggregated call tree of the traced functions."""

    def __init__(self):
        self.root = [0.0, ROOT, ROOT]  # [child time, name, layer]
        self.frames = [self.root]
        self.stats = {}  # (name, parent name) -> [calls, total_s, self_s]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = {}
        self._seen_graphs = {}
        self._seen_shapes = set()
        self._seen_solves = set()

    def attributed_s(self) -> float:
        """Time spent inside traced calls made by the benchmark itself."""
        return self.root[0]

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, layer: str, hook=None):
        frames = self.frames
        stats = self.stats
        errors = self.errors
        clock = time.perf_counter

        # The clock starts before and stops after the wrapper's own
        # bookkeeping, so that its cost is charged to the traced call and
        # not to whoever called it: for the benchmark's own calls that
        # would be time outside every layer.

        def leave(parent, frame, t0, calls):
            frames.pop()
            key = (name, parent[1])
            row = stats.get(key)
            if row is None:
                row = stats[key] = [0, 0.0, 0.0]
            dt = clock() - t0
            parent[0] += dt
            row[0] += calls
            row[1] += dt
            row[2] += dt - frame[0]

        def traced(*args, **kwargs):
            t0 = clock()
            parent = frames[-1]
            frame = [0.0, name, layer]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent[2] != layer:
                    errors[layer] += 1
                raise
            finally:
                leave(parent, frame, t0, 1)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        def traced_generator(*args, **kwargs):
            # each resume is timed as part of the call; the call is counted once
            gen = fn(*args, **kwargs)
            calls = 1
            while True:
                t0 = clock()
                parent = frames[-1]
                frame = [0.0, name, layer]
                frames.append(frame)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    if parent[2] != layer:
                        errors[layer] += 1
                    raise
                finally:
                    leave(parent, frame, t0, calls)
                    calls = 0
                yield value

        return traced_generator if inspect.isgeneratorfunction(fn) else traced

    def summary(self) -> dict:
        return {
            "stats": [[name, parent, *row]
                      for (name, parent), row in sorted(self.stats.items())],
            "errors": self.errors,
            "counters": self.counters,
            "attributed_s": self.root[0],
        }


# ---------------------------------------------------------------------------
# counters recorded at the call sites


def _graph_built(tracer, args, kwargs, graph):
    tracer.count("graphs.nodes_built", len(graph.nodes))
    tracer.count("graphs.edges_built", len(graph.edges))


def _successor_table(tracer, args, kwargs, result):
    graph = args[0]
    tracer.count("graphs.successor_rebuilds")
    ref = tracer._seen_graphs.get(id(graph))
    if ref is None or ref() is not graph:
        tracer._seen_graphs[id(graph)] = weakref.ref(graph)
        tracer.count("graphs.distinct_graphs")


def _shape_crystal(tracer, args, kwargs, result):
    parts = tuple(args[0])
    n = args[1] if len(args) > 1 else kwargs["n"]
    reading = args[2] if len(args) > 2 else kwargs.get("reading", "row")
    key = (parts, n, reading)
    if key in tracer._seen_shapes:
        tracer.count("tableaux.crystal_of_shape.repeats")
    tracer._seen_shapes.add(key)


def _fillings(tracer, args, kwargs, result):
    tracer.count("tableaux.enumerate_ssyt.fillings", len(result))


def _constructed(tracer, args, kwargs, result):
    den = args[0].den
    if den.count(0) == len(den) - 1:
        tracer.count("laurent.ratfunc.monomial_den")


def _expr_terms(tracer, args, kwargs, result):
    tracer.count("action.act_expr.terms", len(args[0]))


def _solve(tracer, args, kwargs, result):
    rows = args[0]
    tracer.count("kashiwara.solves")
    tracer.count("kashiwara.solve_cells", len(rows) * (len(rows[0]) if rows else 0))


def _decomposition(tracer, args, kwargs, result):
    vec, i, n = args[:3]
    if not vec:
        return
    t = next(iter(vec))
    key = (i, n, tuple(sorted(a for a, _ in t)))
    if key in tracer._seen_solves:
        tracer.count("kashiwara.solve.repeats")
    tracer._seen_solves.add(key)


def _emitted(tracer, args, kwargs, result):
    if isinstance(result, str):
        tracer.count("serialize.bytes_out", len(result.encode("utf-8")))


HOOKS = {
    "graphs.build_graph": _graph_built,
    "graphs.CrystalGraph.successors": _successor_table,
    "graphs.CrystalGraph.predecessors": _successor_table,
    "tableaux.crystal_of_shape": _shape_crystal,
    "tableaux.enumerate_ssyt": _fillings,
    "laurent.RatFunc.__init__": _constructed,
    "action.act_expr": _expr_terms,
    "kashiwara._rref": _solve,
    "kashiwara.string_decomposition": _decomposition,
    "serialize.graph_to_dot": _emitted,
    "serialize.report_to_json": _emitted,
}


def install() -> Tracer:
    """Wrap every traced function at every site that binds it."""
    tracer = Tracer()
    replace = {}  # id(original) -> wrapper
    for layer, module_name, functions, classes in SITES:
        module = sys.modules[module_name]
        for fname in functions:
            original = getattr(module, fname)
            name = f"{layer}.{fname}"
            replace[id(original)] = tracer.wrap(original, name, layer,
                                                HOOKS.get(name))
        for cname, methods in classes.items():
            cls = getattr(module, cname)
            wrapped = {}
            for mname in methods:
                raw = cls.__dict__[mname]
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                if id(fn) not in wrapped:
                    name = f"{layer}.{cname}.{mname}"
                    wrapper = tracer.wrap(fn, name, layer, HOOKS.get(name))
                    wrapped[id(fn)] = staticmethod(wrapper) if static else wrapper
            # aliases such as __radd__ = __add__ share the wrapper
            for attr, raw in list(cls.__dict__.items()):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if id(fn) in wrapped:
                    setattr(cls, attr, wrapped[id(fn)])
    for module_name, module in list(sys.modules.items()):
        if (module is None or module_name in SKIP_MODULES
                or not module_name.startswith("queercrystals")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return tracer
