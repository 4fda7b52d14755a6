"""The benchmark's span tracer resolves every function it names.

``bench/spans.py`` wraps the functions listed in ``TRACED`` and its renewal
hook calls two private helpers of ``counting``; a rename in the package
would otherwise surface only as a crash of a traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    missing = []
    for short, names in _spans().TRACED.items():
        module = importlib.import_module(f"treegibbs.{short}")
        missing += [f"{short}.{name}" for name in names if not callable(getattr(module, name, None))]
    assert not missing, missing


def test_the_renewal_hook_helpers_exist():
    counting = importlib.import_module("treegibbs.counting")
    assert callable(counting._is_bipartite)
    assert callable(counting._potential_is_zero)
