"""The benchmark's tracer still finds every name it wraps.

perfbench/tracing.py wraps library functions and constructors by attribute
name, so a rename in the library breaks a traced benchmark run. This test
installs the tracer once and checks a projector count and a constructor span.
"""

from __future__ import annotations

from pathlib import Path

import ghostswap.analytic
import ghostswap.cli  # noqa: F401  (the tracer wraps names in every ghostswap module)
import ghostswap.hilbert
from ghostswap.hilbert import ObjectMask, Projection

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_hilbert_and_analytic_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = 0
        ghostswap.hilbert.enumerate_projectors(3)
        ghostswap.analytic.conditional_density(ObjectMask([1, 0, 0]), Projection.ANTI_SYMMETRIC)
        tracer.request = None
    finally:
        tracer.uninstall()
    assert tracer.counts["hilbert.projectors_built"] == 9
    assert [span[0] for span in tracer.spans].count("hilbert.DensityMatrix") == 1
