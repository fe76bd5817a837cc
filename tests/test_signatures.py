"""Functions that take a model read its Gramians and reachability space
from it, so no public callable takes either as an argument."""

import inspect

import minenergy
import minenergy.energy

PLUMBING = {"gramian", "hspace"}


def test_no_gramian_or_space_parameter():
    seen, offenders = set(), []
    for module in (minenergy, minenergy.energy):
        for name in dir(module):
            fn = getattr(module, name)
            if (name.startswith("_") or not callable(fn)
                    or not getattr(fn, "__module__", "").startswith("minenergy")
                    or (isinstance(fn, type) and issubclass(fn, BaseException))):
                continue
            seen.add(name)
            if PLUMBING & set(inspect.signature(fn).parameters):
                offenders.append(f"{fn.__module__}.{name}")
    assert {"value_finite", "value_auxiliary", "auxiliary_flow",
            "steering_control_finite", "comparison_check"} <= seen
    # perfbench's certify task passes the model's own space and Gramian to
    # comparison_check, which checks them by identity
    assert offenders == ["minenergy.riccati.comparison_check"]
