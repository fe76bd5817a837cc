"""Functions that take a model read its Gramians and reachability space
from it, so no public callable takes either as an argument; and none takes
the membership cutoff, which is fixed."""

import inspect

import minenergy
import minenergy.energy

PLUMBING = {"gramian", "hspace"}


def public_callables():
    """(qualified name, parameter names) of each public function and class
    of ``minenergy`` and ``minenergy.energy``; exceptions are left out."""
    for module in (minenergy, minenergy.energy):
        for name in dir(module):
            fn = getattr(module, name)
            if (name.startswith("_") or not callable(fn)
                    or not getattr(fn, "__module__", "").startswith("minenergy")
                    or (isinstance(fn, type) and issubclass(fn, BaseException))):
                continue
            yield f"{fn.__module__}.{name}", set(inspect.signature(fn).parameters)


def test_no_gramian_or_space_parameter():
    seen, offenders = set(), []
    for name, params in public_callables():
        seen.add(name.rsplit(".", 1)[1])
        if PLUMBING & params:
            offenders.append(name)
    assert {"value_finite", "value_auxiliary", "auxiliary_flow",
            "steering_control_finite", "comparison_check"} <= seen
    # perfbench's certify task passes the model's own space and Gramian to
    # comparison_check, which checks them by identity
    assert offenders == ["minenergy.riccati.comparison_check"]


def test_no_membership_tolerance_parameter():
    # PseudoInverse.in_range decides membership at MEMBERSHIP_TOL alone
    members = list(public_callables())
    members.append(("PseudoInverse.in_range",
                    set(inspect.signature(minenergy.PseudoInverse.in_range).parameters)))
    assert {"minenergy.energy.value_finite", "minenergy.gramian.h_inner"} <= {
        name for name, _ in members}
    assert [name for name, params in members if "tol" in params] == []
