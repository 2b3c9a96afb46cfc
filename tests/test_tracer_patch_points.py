"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
module attribute.  Installing it must find every name it patches, and
uninstalling it must put every original back."""

import importlib.util
from pathlib import Path

import neargroup.abelian as abelian
import neargroup.cuntz as cuntz
import neargroup.fusion as fusion
import neargroup.io as nio
import neargroup.solutions as solutions
import neargroup.solvers as solvers
import neargroup.tuples as tuples

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_the_package():
    tracer = _tracer_module()
    owners = (abelian, cuntz, fusion, nio, solutions, solvers, tuples, cuntz.CuntzElement)
    before = [(owner, dict(vars(owner))) for owner in owners]
    t = tracer.Tracer()
    try:
        tracer.install(t, solvers.SolveConfig().newton_tol)
        patched = list(t._restore)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        t.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    for owner, names in before:
        for name, value in names.items():
            assert vars(owner)[name] is value, (owner, name)
