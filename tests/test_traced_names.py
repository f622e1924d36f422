"""Every name the benchmark's span tracer wraps still exists.

``perfbench/spans.py`` wraps functions and methods of the package by
name; a name deleted or renamed here would break a traced benchmark
pass.  The tracer module is only loaded and read, never installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_names_a_defined_attribute():
    spans = _load_spans()
    for layer, (mod_name, paths, _) in spans.LAYERS.items():
        module = importlib.import_module(f"nilhom.{mod_name}")
        for path in paths:
            owner, attr = spans._resolve(module, path)
            assert attr in vars(owner), (layer, path)


def test_jsonio_has_traced_encoders_and_parsers():
    jsonio = importlib.import_module("nilhom.jsonio")
    names = [a for a, v in vars(jsonio).items()
             if inspect.isfunction(v) and v.__module__ == jsonio.__name__]
    assert any(a.endswith("_json") for a in names)
    assert any(a.startswith("parse_") for a in names)
