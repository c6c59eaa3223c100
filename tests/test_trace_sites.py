"""The benchmark's layer tracer finds every call site it names.

``perfbench/layertrace.py`` wraps library functions and methods by name
from outside the library.  This reads its ``SITES`` table without
installing the tracer and checks that each name still exists where the
tracer looks for it: functions as module attributes, methods in their
own class's ``__dict__`` (an inherited method would be missed).
"""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def test_every_traced_name_exists_where_the_tracer_looks():
    for _, module_name, functions, classes in load_sites():
        module = importlib.import_module(module_name)
        for fname in functions:
            assert callable(getattr(module, fname, None)), \
                f"{module_name}.{fname}"
        for cname, methods in classes.items():
            cls = getattr(module, cname)
            for mname in methods:
                assert mname in cls.__dict__, f"{module_name}.{cname}.{mname}"
