"""Functions that take a model read its Gramians and reachability space
from it, so no public callable takes either as an argument; none takes
the membership cutoff, which is fixed; one gate decides membership, one
rule rescales, one formula gives a symmetric model's Gramians, and one
module writes every output file."""

import ast
import inspect
from pathlib import Path

import numpy as np

import minenergy
import minenergy.energy
import minenergy.serialize
from minenergy.operators import Propagator

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


def references(name):
    """The functions of the package source that read the name ``name``,
    called or not, each as "file:Qualified.name"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}{child.name}.")
                continue
            if isinstance(child, ast.Name) and child.id == name:
                found.append(scope.rstrip("."))
            visit(child, scope)

    for path in sorted(Path(minenergy.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.name}:")
    return sorted(set(found))


def sites(name):
    """The definitions of functions called ``name`` in the package source
    and the functions that call it, each as "file:Qualified.name"."""
    defined, calls = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if child.name == name:
                    defined.append(scope + child.name)
                visit(child, f"{scope}{child.name}.")
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == name
                    or isinstance(func, ast.Name) and func.id == name):
                calls.append(scope.rstrip("."))
            visit(child, scope)

    for path in sorted(Path(minenergy.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.name}:")
    return defined, calls


def test_one_membership_gate():
    # every entry point decides membership through Gramian.member, whose
    # Gramian picks the exception: NotInH for Q_inf, NotReachable for Q_t
    defined, calls = sites("in_range")
    assert defined == ["operators.py:PseudoInverse.in_range"]
    assert calls == ["gramian.py:Gramian.member"]


def test_one_rescaling_rule():
    # every scale-sensitive test scales its operands exactly by the power
    # of two that binary_exponent reads, the one frexp of the package
    assert sites("frexp") == ([], ["operators.py:binary_exponent"])
    assert sites("binary_exponent") == (
        ["operators.py:binary_exponent"],
        ["gramian.py:lyapunov_residual", "operators.py:is_symmetric",
         "operators.py:_structure_flags"])
    assert sites("huge_exponent") == ([], [])
    assert not hasattr(minenergy.operators, "huge_exponent")


def test_one_writer():
    # serialize alone spells numbers, and one walk decides which numbers
    # may be written: the command line refuses a stage with it before
    # --out exists, and write_report refuses a report with it
    assert sites("dumps") == ([], ["serialize.py:write_report", "serialize.py:model_hash",
                                   "serialize.py:_write_rows", "serialize.py:profile_csv"])
    defined, calls = sites("non_finite")
    assert defined == ["serialize.py:non_finite"]
    assert set(calls) == {"cli.py:_checked", "serialize.py:non_finite",
                          "serialize.py:write_report"}
    assert sites("_non_finite") == sites("fmt") == ([], [])
    assert not hasattr(minenergy.serialize, "fmt")


def test_one_symmetric_gramian_formula():
    # the Hadamard formula of an exactly symmetric A lives in one helper
    # that both horizons read; scipy's Lyapunov solve serves only the
    # infinite horizon of any other A
    assert sites("_eigenbasis_gramian")[0] == ["gramian.py:_eigenbasis_gramian"]
    assert references("_eigenbasis_gramian") == ["gramian.py:_solve_gramian_infinite",
                                                 "gramian.py:gramian_finite"]
    assert sites("expm1") == ([], ["gramian.py:_eigenbasis_gramian"])
    assert sites("solve_continuous_lyapunov") == ([], ["gramian.py:_solve_gramian_infinite"])


def test_diagonal_propagator_factors_nothing(monkeypatch):
    # an exactly diagonal A is its own eigenbasis, V = I, in its own order
    calls = []
    eigh = np.linalg.eigh

    def counted(m, *args, **kwargs):
        calls.append(m.shape)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    prop = Propagator(np.diag([-2.0, -1.0, -2.0]))
    assert calls == []
    assert prop.w.tolist() == [-2.0, -1.0, -2.0]
    assert np.array_equal(prop.eigenbasis[1], np.eye(3))
    Propagator(np.array([[-2.0, 1.0], [1.0, -2.0]]))
    assert calls == [(2, 2)]
