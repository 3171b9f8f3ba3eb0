"""bench/tracer.py finds the layers it times by their names in crdiff.

The tracer swaps wrappers into module attributes; a renamed layer would
leave its spans empty and zero a benchmark counter without an error.  A
small dirichlet, density and line-integral command under the tracer must
record the spans of the refinement, its normals, the velocity, the KDE,
the stepping blocks and the line-integral observer, and of the model
builders, which the CLI must call by their names in crdiff.cli.
"""

import importlib.util
import os
import sys

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
# dataclasses look their module up in sys.modules
sys.modules.setdefault(_spec.name, tracer)
_spec.loader.exec_module(tracer)


def _spans(argv) -> set:
    t = tracer.Tracer()
    with tracer.instrumented(t) as main:
        t.begin_task()
        assert main(argv) == 0
    return {span[2] for span in t.spans}


def test_dirichlet_layers_traced(tmp_path):
    names = _spans([
        "dirichlet", "--domain", "koranyi:1.0", "--data", "u1", "--start=0.9,0,0",
        "--paths", "64", "--steps", "200", "--t-horizon", "4", "--seed", "5",
        "--output", str(tmp_path / "est.csv"), "--records", str(tmp_path / "rec.csv")])
    assert {"dirichlet.refine", "dirichlet.zdraws", "frame_bundle.velocity"} <= names


def test_density_layers_traced(tmp_path):
    names = _spans([
        "density", "--model", "heisenberg_phase", "--n", "1", "--kappa", "0.9",
        "--paths", "200", "--steps", "10", "--grid-points", "5", "--seed", "6",
        "--output", str(tmp_path / "density.csv")])
    assert {"observables.kde", "frame_bundle.velocity", "models.build"} <= names


def test_lineint_layers_traced(tmp_path):
    names = _spans([
        "line-integral", "--model", "heisenberg", "--n", "2", "--form", "du1",
        "--workers", "2", "--paths", "4100", "--steps", "3", "--seed", "7",
        "--output", str(tmp_path / "li.csv")])
    assert {"sde.block", "frame_bundle.velocity", "observables.observer",
            "models.build"} <= names
