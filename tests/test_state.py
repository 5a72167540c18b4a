"""The package keeps no state between calls: building complexes and
running the check suites leaves every module-level container and memoized
function of every ribboncoh module as it found it."""
import importlib
import pkgutil

import ribboncoh
from ribboncoh.checks import CheckBounds, run_check
from ribboncoh.complexes import ComplexSpec, build, cohomology


def _module_state():
    sizes = {}
    for info in pkgutil.iter_modules(ribboncoh.__path__, "ribboncoh."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                sizes[info.name, name] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[info.name, name] = value.cache_info().currsize
    return sizes


def test_no_state_survives_a_call():
    before = _module_state()
    cohomology(build(ComplexSpec("mw", 0, sector="ge3", e_min=1, e_max=5)))
    cohomology(build(ComplexSpec("kp", 1, sector="ge3", e_min=2, e_max=4, boundaries=1)))
    bounds = CheckBounds(g_max=1, e_max_full=2, e_max_ge3=3, e_max_le2=3, e_max_oracle=2)
    assert run_check(bounds)["passed"]
    assert _module_state() == before
