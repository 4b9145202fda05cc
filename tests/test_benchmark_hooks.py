"""The traced benchmark run (``benchmarks/traced.py``) wraps qsslab module
attributes by name.  Installing and removing its wrappers here makes a
renamed or deleted attribute fail the suite on every Python it runs on."""
from pathlib import Path

from qsslab import adversary, analysis, protocol

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_traced_run_wrap_points_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import traced

    tracer = traced.Tracer("t")
    try:
        traced.install_module_tracing(tracer)
        assert hasattr(protocol.run_round, "__wrapped__")
    finally:
        tracer.unpatch_all()
    for fn in (protocol.run_round, adversary.partial_trace_E, analysis.r_of_s):
        assert not hasattr(fn, "__wrapped__")
