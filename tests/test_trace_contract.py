"""The traced benchmark run patches library functions by name; keep them there.

`perfbench/tracing.py` swaps each (module, attribute) in its TARGETS for a
timing wrapper with a bare getattr, so a rename or removal in the library
would break the traced run rather than fail a test.  This reads TARGETS
without changing anything under perfbench/.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from s3pinch import FlatTorus, GeodesicSphere, PerturbedSphere, cli
from s3pinch.tube import MC_TILE

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_exists(tracing):
    assert tracing.TARGETS
    for mod, attr, _ in tracing.TARGETS:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} is gone"


def _check(tracer=None, samples=1000):
    argv = ["--resolution", "16", "--samples", str(samples), "check", "torus:a=0.6"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            assert cli.main(argv) == 0
        else:
            with tracer.installed(), tracer.span("cli.main"):
                assert cli.main(argv) == 0
    return buf.getvalue()


def test_traced_check_prints_the_same_bytes(tracing):
    tracer = tracing.Tracer()
    assert _check(tracer) == _check()
    names = {span[0] for span in tracer.spans}
    assert {"quadrature.node_data", "quadrature.genus_report",
            "tube.verify_sum_inequality"} <= names


@pytest.mark.parametrize("samples", [1000, 2 * MC_TILE + 1])
def test_traced_check_counts_every_sample_once(tracing, samples):
    # The per-layer counts read the (n, 4) shape of each tile sample_s3 returns:
    # a layout slip would miscount them rather than fail the run.
    tracer = tracing.Tracer()
    _check(tracer, samples)
    names = [span[0] for span in tracer.spans]
    assert names.count("catalog.sample_s3") == -(-samples // MC_TILE)
    assert names.count("catalog.side_classifier") == -(-samples // MC_TILE)
    assert tracing.per_cert(tracer)[None]["catalog.classify_samples"] == samples


@pytest.mark.parametrize("surface", [FlatTorus(0.6), GeodesicSphere(1.0),
                                     PerturbedSphere(1.2, 0.1, 3, 2)],
                         ids=["torus", "sphere", "psphere"])
def test_traced_kernels_run_on_the_library_layout(tracing, surface):
    # kernels() calls point on full meshgrids, cross4(p.position, p.du, p.dv)
    # and GridSurface(..., point(...).position, ...): a change of the 4-vector
    # layout must keep all three working.
    assert all(value > 0 for value in tracing.kernels(surface, 16, 1000, 1).values())
