"""Command line surface: model ingestion, experiments, certificates.

Subcommands: gramian | verify | synthesize | auxiliary | landau | all.
Exit codes: 0 success, 2 parse, 3 bad parameter, 4 precondition,
5 unreachable, 6 domain.  Reports embed the library version, a model
hash, and the seed, and are byte-identical across runs of one config.
"""

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .energy import (
    AuxiliaryCost,
    _optimal_pair,
    bcle_residual,
    default_grid,
    energy_of,
    feedback_residual,
    optimal_trajectory_infinite,
    simulate_endpoint,
    steering_control_finite,
    time_reversal_check,
    value_auxiliary,
    value_finite,
    value_infinite,
)
from .errors import (
    BadParameterError,
    HorizonNotPositive,
    NotCoercive,
    NotSpectral,
    ParseError,
    PreconditionError,
    ToolkitError,
    UnreachableError,
)
from .gramian import gramian_finite, gramian_infinite, h_space, lyapunov_residual, t_max
from .landau import (
    build_lg_model,
    inverse_gramian_identity,
    lg_value_check,
    synthesize_profile,
)
from .operators import load_model
from .riccati import (
    DEFAULT_SEED,
    SOLUTION_RESIDUAL_TOL,
    are_residual_H,
    comparison_check,
    enumerate_commuting_solutions,
    maximality_check,
    verify_canonical_solutions,
)
from .serialize import (
    control_csv,
    matrix_csv,
    model_hash,
    non_finite,
    profile_csv,
    trajectory_csv,
    write_report,
)

PROFILE_TIMES = (-2.0, -1.0, -0.5, -0.25, -0.1, 0.0)


def _parse_target(text, n):
    try:
        vec = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"target must be a comma-separated float list: {exc}")
    if not np.isfinite(vec).all():
        raise ParseError(f"target entries must be finite, got {text!r}")
    if vec.size != n:
        raise BadParameterError(f"target has {vec.size} entries, model needs {n}")
    return vec


def _parse_seed(text):
    try:
        seed = int(text, 0)
    except ValueError as exc:
        raise ParseError(f"seed must be an integer (hex accepted): {exc}")
    if seed < 0:
        raise ParseError(f"seed must be non-negative, got {seed}")
    if seed >= 2 ** 64:  # reports write it as an unsigned 64-bit integer
        raise ParseError(f"seed must be at most 2**64 - 1, got {seed}")
    return seed


def _provenance(problem, seed):
    return {"version": __version__, "model_hash": model_hash(problem), "seed": seed}


def _checked(files, target=None):
    """A stage's ``(writer, name, data...)`` entries, once no number they
    would write is inf or NaN: such a number is the target's fault in a
    stage that reads ``target`` (exit 3), and a refusal (4) otherwise."""
    for _, name, *data in files:
        field = next((f for datum in data for f in non_finite(datum)), None)
        if field is not None:
            where = f"{name}: {field or 'a cell'} is not finite"
            if target is None:
                raise PreconditionError(where)
            raise BadParameterError(f"target {target!r} is too large: its norm "
                                    f"or energy overflows; {where}")
    return files


def _write(args, files):
    """Create ``--out``, after every refusal, and write the files in order."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for writer, name, *data in files:
        writer(out / name, *data)


def _gramian(args, problem):
    """The Gramians and their report, as files to write."""
    q_inf = gramian_infinite(problem)
    g = q_inf if args.t is None else gramian_finite(problem, args.t)
    report = {
        "horizon": "+inf" if args.t is None else args.t,
        "rank": g.rank,
        "lyapunov_residual": lyapunov_residual(problem, q_inf),
    }
    report.update(_provenance(problem, args.seed))
    finite = [] if args.t is None else [(matrix_csv, "gramian_t.csv", g.matrix)]
    return [(matrix_csv, "gramian_inf.csv", q_inf.matrix), *finite,
            (write_report, "gramian_report.json", report)]


def cmd_gramian(args, problem):
    _write(args, _checked(_gramian(args, problem)))
    return 0


def _certificate(args, problem):
    """The whole ``verify`` certificate, as a file to write, and whether it
    passes.  It refuses in this order: a comparison on a model that is not
    coercive and diagonal, too many candidates, a reachability space that
    is not full rank, and any numerical refusal of a candidate's comparison."""
    if args.comparison:
        if not problem.coercive:
            raise NotCoercive("comparison certificates need a coercive BB*")
        if not problem.diagonal:
            raise NotSpectral("comparison certificates need a spectral-diagonal model")
    candidates = (enumerate_commuting_solutions(problem, args.max_solutions)
                  if problem.diagonal and problem.coercive else [])
    x_rep, h_rep = verify_canonical_solutions(problem)
    ok = x_rep.is_solution and h_rep.is_solution
    certificate = {
        "canonical": {
            "x_form": {"residual": x_rep.residual_norm,
                       "is_solution": x_rep.is_solution},
            "h_form": {"residual": h_rep.residual_norm,
                       "is_solution": h_rep.is_solution},
        },
        "solutions": [],
        "assumptions": [
            "solution class restricted to bounded operators on the "
            "full-rank reachability space; admissibility asserted, not tested"
        ],
    }
    h = h_space(problem)
    t = 2.0 if args.t is None else args.t
    samples = 50 if args.samples is None else args.samples
    for cand in candidates:
        residual, gap = are_residual_H(problem, h, cand), maximality_check(h, cand)
        margin = defect = None
        if args.comparison:
            rep = comparison_check(problem, cand, t, samples=samples,
                                   seed=args.seed)
            margin, defect = rep.comparison_margin, rep.identity_defect
            ok = ok and margin >= -1e-8
        certificate["solutions"].append({
            "matrix": cand.matrix,
            "residual": residual,
            "maximality_gap": gap,
            "comparison_margin": margin,
            "identity_defect": defect,
        })
        ok = ok and residual <= SOLUTION_RESIDUAL_TOL and gap >= -1e-10
    certificate.update(_provenance(problem, args.seed))
    return [(write_report, "certificate.json", certificate)], ok


def cmd_verify(args, problem):
    files, ok = _certificate(args, problem)
    _write(args, _checked(files))
    return 0 if ok else 1


def _synthesis(args, problem):
    """Values, optimal control and arrival path for one target, as files to
    write, and the UnreachableError that stopped the stage or None; a
    stopped stage writes its report alone, with the values found before."""
    x = _parse_target(args.target, problem.n)
    x_norm = np.linalg.norm(x)
    if not math.isfinite(x_norm):  # t_max needs a finite |x|
        raise BadParameterError(
            f"target {args.target!r} is too large: its norm or energy overflows")
    span = t_max(problem, x_norm)
    horizon = args.t if args.t is not None else span
    report = {"t": horizon, "V": "+inf", "V_inf": "+inf", "gap": "+inf"}
    report.update(_provenance(problem, args.seed))
    try:
        v_inf = value_infinite(problem, x)
        report["V_inf"] = v_inf
        v_fin = value_finite(problem, horizon, x)
        report.update({"V": v_fin, "gap": v_fin - v_inf})

        grid = default_grid(problem, -span)
        u, traj = _optimal_pair(problem, x, grid)
        reached = simulate_endpoint(problem, np.zeros(problem.n), u, -span, 0.0)
        scale = max(x_norm, 1.0)
        report["endpoint_error"] = float(np.linalg.norm(reached - x) / scale)
        report["energy"] = energy_of(u)
        report["feedback_residual"] = feedback_residual(problem, traj, u)
        if h_space(problem).full_rank:
            fd_step = 1e-3 / problem.spectral_radius     # in the model's time unit
            fd_window = min(2000.0 * fd_step, span)
            fd_grid = np.linspace(-fd_window, 0.0, int(fd_window / fd_step) + 1)
            fd_traj = optimal_trajectory_infinite(problem, x, fd_grid)
            report["bcle_residual"] = bcle_residual(problem, fd_traj)
        else:
            report["bcle_residual"] = None
    except UnreachableError as exc:
        return [(write_report, "synthesis_report.json", report)], exc
    return [(control_csv, "control.csv", u), (trajectory_csv, "trajectory.csv", traj),
            (write_report, "synthesis_report.json", report)], None


def cmd_synthesize(args, problem):
    files, unreachable = _synthesis(args, problem)
    _write(args, _checked(files, args.target))
    if unreachable is not None:
        raise unreachable
    return 0


def _auxiliary(args, problem):
    """The penalized-initial-state problem for one target, as a file to
    write, and whether both of its checks pass."""
    x = _parse_target(args.target, problem.n)
    cost = AuxiliaryCost(args.n_scale * np.eye(problem.n))
    aux = value_auxiliary(problem, cost, args.t, x)
    v_fin = value_finite(problem, args.t, x)
    remainder = x - problem.propagator.at(args.t)[0] @ aux.argmin_z
    grid = default_grid(problem, -args.t, target_points=1024)
    u = steering_control_finite(problem, args.t, remainder, grid)
    reversal = time_reversal_check(problem, cost, aux.argmin_z, u)
    achieved = 0.5 * cost.quad(h_space(problem), aux.argmin_z) + energy_of(u)
    sandwich_ok = bool(aux.value <= v_fin + 1e-9 * (1.0 + abs(v_fin)))
    reversal_ok = bool(reversal <= 1e-6)
    report = {
        "t": args.t,
        "value": aux.value,
        "V": v_fin,
        "argmin_z": aux.argmin_z,
        "achieved_cost": achieved,
        "sandwich_ok": sandwich_ok,
        "time_reversal_discrepancy": reversal,
        "reversal_ok": reversal_ok,
    }
    report.update(_provenance(problem, args.seed))
    return ([(write_report, "auxiliary_report.json", report)],
            sandwich_ok and reversal_ok)


def cmd_auxiliary(args, problem):
    files, ok = _auxiliary(args, problem)
    _write(args, _checked(files, args.target))
    return 0 if ok else 1


def cmd_landau(args, _problem):
    # takes no model document: the heat model is built from the options
    model = build_lg_model(args.modes, args.rho_minus, args.rho_plus)
    if args.target is None:
        y0 = np.zeros(model.n_modes)
        y0[0] = 1.0
    else:
        y0 = _parse_target(args.target, model.n_modes)
    check = lg_value_check(model, y0)
    xi, profiles = synthesize_profile(model, y0, PROFILE_TIMES)
    report = {
        "modes": model.n_modes,
        "rho_minus": model.rho_minus,
        "rho_plus": model.rho_plus,
        "v_inf": check["v_inf"],
        "half_l2": check["half_l2"],
        "rel_err": check["rel_err"],
        "inverse_gramian": inverse_gramian_identity(model),
    }
    report.update(_provenance(model.problem, args.seed))
    _write(args, _checked([(profile_csv, "profile.csv", xi, profiles, PROFILE_TIMES),
                           (write_report, "landau_report.json", report)], args.target))
    return 0 if check["rel_err"] <= 1e-10 else 1


def cmd_all(args, problem):
    """Every model stage on one loaded model; the target defaults to the
    first unit vector.  Every stage is computed and checked before any file
    is written.  An unreachable target ends the battery after the
    synthesize stage, whose report is written with the earlier files."""
    if args.target is None:
        args.target = ",".join(["1"] + ["0"] * (problem.n - 1))
    _parse_target(args.target, problem.n)
    certificate, ok = _certificate(args, problem)
    files = _checked(_gramian(args, problem)) + _checked(certificate)
    synthesis, unreachable = _synthesis(args, problem)
    files += _checked(synthesis, args.target)
    if unreachable is None:
        auxiliary, aux_ok = _auxiliary(args, problem)
        files += _checked(auxiliary, args.target)
        ok = ok and aux_ok
    _write(args, files)
    if unreachable is not None:
        raise unreachable
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing does not
    change it, and each ``parse_args`` call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="minenergy",
        description="Minimum-energy steering experiments and certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, model=True, target=False):
        if model:
            sp.add_argument("--model", required=True, help="model JSON document")
        if target:
            sp.add_argument("--target", required=(target == "required"),
                            default=None, help="comma-separated target vector")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)

    sp = sub.add_parser("gramian", help="controllability Gramians and report")
    common(sp)
    sp.add_argument("--t", type=float, default=None, help="finite horizon")
    sp.set_defaults(fn=cmd_gramian)

    sp = sub.add_parser("verify", help="Riccati solution certificates")
    common(sp)
    sp.add_argument("--t", type=float, default=None,
                    help="comparison horizon (default 2)")
    sp.add_argument("--samples", type=int, default=None,
                    help="comparison samples (default 50)")
    sp.add_argument("--comparison", action="store_true",
                    help="run the sampled comparison certificate")
    sp.add_argument("--max-solutions", type=int, default=4096)
    sp.set_defaults(fn=cmd_verify, comparison_only=("t", "samples"))

    sp = sub.add_parser("synthesize", help="optimal control and trajectory")
    common(sp, target="required")
    sp.add_argument("--t", type=float, default=None, help="finite horizon")
    sp.set_defaults(fn=cmd_synthesize)

    sp = sub.add_parser("auxiliary", help="penalized-initial-state problem")
    common(sp, target="required")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--n-scale", type=float, default=1.0,
                    help="scale of the identity initial-state penalty")
    sp.set_defaults(fn=cmd_auxiliary)

    sp = sub.add_parser("landau", help="truncated heat-equation demo")
    common(sp, model=False, target=True)
    sp.add_argument("--modes", type=int, default=8)
    sp.add_argument("--rho-minus", type=float, default=0.2)
    sp.add_argument("--rho-plus", type=float, default=0.8)
    sp.set_defaults(fn=cmd_landau)

    sp = sub.add_parser("all", help="full experiment battery on one model")
    common(sp, target=True)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--samples", type=int, default=None,
                    help="comparison samples (default 50)")
    sp.add_argument("--comparison", action="store_true")
    sp.add_argument("--max-solutions", type=int, default=4096)
    sp.add_argument("--n-scale", type=float, default=1.0)
    sp.set_defaults(fn=cmd_all, comparison_only=("samples",))
    return parser


def _attach_negative_targets(argv):
    """Spell ``--target -0.3,1.2`` as ``--target=-0.3,1.2``: argparse reads
    a separate value that starts with a minus sign as an option."""
    out = []
    for arg in argv:
        if (out and out[-1] == "--target" and len(arg) > 1 and arg[0] == "-"
                and (arg[1].isdigit() or arg[1] == ".")):
            out[-1] = f"--target={arg}"
        else:
            out.append(arg)
    return out


def _check_options(args):
    """Refuse option values out of range before any command reads the model
    or writes a file; each rule applies to the subcommands that register
    the option, whether or not the run reaches the stage that reads it.
    An option that only the comparison certificate reads is refused
    without ``--comparison``."""
    if not getattr(args, "comparison", True):
        for name in args.comparison_only:
            if getattr(args, name) is not None:
                raise BadParameterError(f"--{name} is read only with --comparison")
    t = getattr(args, "t", None)
    if t is not None:
        if not t > 0.0:
            raise HorizonNotPositive(f"horizon must be positive, got {t}")
        if not np.isfinite(t):
            raise BadParameterError(f"horizon must be finite, got {t}")
    samples = getattr(args, "samples", None)
    if samples is not None and samples < 1:
        raise BadParameterError(
            f"samples must be at least 1, got {args.samples}")
    max_solutions = getattr(args, "max_solutions", 1)
    if max_solutions < 1:
        raise BadParameterError(
            f"--max-solutions must be at least 1, got {max_solutions}")
    n_scale = getattr(args, "n_scale", 0.0)
    if not (n_scale >= 0.0 and np.isfinite(n_scale)):
        raise BadParameterError(
            f"penalty scale must be finite and nonnegative, got {n_scale}")


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # inside the try: an option's type, such as --seed, may raise ParseError
        args = parser.parse_args(_attach_negative_targets(argv))
        _check_options(args)
        problem = load_model(args.model) if hasattr(args, "model") else None
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN meet _checked
            return args.fn(args, problem)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # a model too large to allocate is a bad parameter, not a crash
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return BadParameterError.exit_code


if __name__ == "__main__":
    sys.exit(main())
