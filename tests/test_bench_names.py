"""The traced benchmark run wraps public functions by name; every name it
lists must exist, or a rename would silently drop a layer from the trace."""

import importlib
import importlib.util
import sys
from pathlib import Path

from medial import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    traced = load_tracing().TRACED
    for layer, names in traced.items():
        module = importlib.import_module(f"medial.{layer}")
        for qual in names:
            owner = module
            for attr in qual.split("."):
                assert hasattr(owner, attr), f"medial.{layer}.{qual} is gone"
                owner = getattr(owner, attr)
            assert callable(owner), f"medial.{layer}.{qual} is not callable"
    # The benchmark swaps this name to keep each graph the CLI builds.
    assert callable(cli.medial_layer_graph)


def test_build_validates_through_traced_names(tmp_path):
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        assert cli.main(["build", "universal:3,6:1,1:1,1",
                         "--output", str(tmp_path / "build.txt")]) == 0
    called = {span.name for span in tracer.spans}
    assert {"polytope.validate_string_cgroup",
            "polytope.self_duality_test"} <= called
