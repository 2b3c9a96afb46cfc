"""scripts/compare_dumps.py: two dump_outputs.py outputs agree when only
floats move, each within the tolerance; any other change is a difference."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_dumps.py"


def _compare():
    spec = importlib.util.spec_from_file_location("compare_dumps", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


BEFORE = ['# classify Z3 3\n',
          '{"b": [0.5527213956332466, -1e-16], "fingerprint_hash": 1911186030, '
          '"group": [3], "name": "z3_m3", "max_residual": 3.4e-16}\n']


def test_float_moves_within_rtol_pass_and_are_listed():
    compare = _compare()
    after = [BEFORE[0], BEFORE[1].replace("0.5527213956332466", "0.5527213956332465")
             .replace("3.4e-16", "7.1e-15")]
    report, ok = compare(BEFORE, after, 1e-9)
    assert ok
    assert report[0].startswith("line 2 (# classify Z3 3): 2 float(s) moved")
    assert compare(BEFORE, BEFORE, 1e-9) == ([], True)


def test_other_changes_fail():
    compare = _compare()
    for old, new in [("0.5527213956332466", "0.5527"),  # a float beyond rtol
                     ("1911186030", "1911186031"),  # an integer
                     ("z3_m3", "z3_m4"),  # digits inside a word
                     ('"group"', '"groups"')]:
        after = [BEFORE[0], BEFORE[1].replace(old, new)]
        report, ok = compare(BEFORE, after, 1e-9)
        assert not ok and report[0].startswith("line 2 (# classify Z3 3): "), (old, report)
    report, ok = compare(BEFORE, BEFORE[:1], 1e-9)
    assert not ok and "line counts differ" in report[0]
