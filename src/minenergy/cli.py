"""Command line surface: model ingestion, experiments, certificates.

Subcommands: gramian | verify | synthesize | auxiliary | landau | all.
Exit codes: 0 success, 2 parse, 3 bad parameter, 4 precondition,
5 unreachable, 6 domain.  Reports embed the library version, a model
hash, and the seed, and are byte-identical across runs of one config.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .energy import (
    AuxiliaryCost,
    bcle_residual,
    default_grid,
    energy_of,
    feedback_residual,
    optimal_control_infinite,
    optimal_trajectory_infinite,
    simulate_mild,
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
    if vec.size != n:
        raise BadParameterError(f"target has {vec.size} entries, model needs {n}")
    return vec


def _parse_seed(text):
    try:
        return int(text, 0)
    except ValueError as exc:
        raise ParseError(f"seed must be an integer (hex accepted): {exc}")


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _provenance(problem, seed):
    return {"version": __version__, "model_hash": model_hash(problem), "seed": seed}


def cmd_gramian(args):
    problem = load_model(args.model)
    out = _outdir(args)
    q_inf = gramian_infinite(problem)
    matrix_csv(out / "gramian_inf.csv", q_inf.matrix)
    if args.t is not None:
        g = gramian_finite(problem, args.t)
        matrix_csv(out / "gramian_t.csv", g.matrix)
        horizon, rank = args.t, g.rank
    else:
        horizon, rank = "+inf", q_inf.rank
    report = {
        "horizon": horizon,
        "rank": rank,
        "lyapunov_residual": lyapunov_residual(problem, q_inf),
    }
    report.update(_provenance(problem, args.seed))
    write_report(out / "gramian_report.json", report)
    return 0


def cmd_verify(args):
    problem = load_model(args.model)
    out = _outdir(args)
    if args.comparison:
        if not problem.coercive:
            raise NotCoercive("comparison certificates need a coercive BB*")
        if problem.spectral is None:
            raise NotSpectral("comparison certificates need a spectral-diagonal model")
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
    if problem.spectral is not None and problem.coercive:
        h = h_space(problem)
        gram = gramian_finite(problem, args.t) if args.comparison else None
        for cand in enumerate_commuting_solutions(problem, args.max_solutions):
            if args.comparison:
                rep = comparison_check(problem, cand, args.t,
                                       samples=args.samples, seed=args.seed,
                                       hspace=h, gramian=gram)
                residual, gap = rep.residual_norm, rep.maximality_gap
                margin = rep.comparison_margin
                ok = ok and margin >= -1e-8
            else:
                residual = are_residual_H(problem, h, cand)
                gap, margin = maximality_check(h, cand), None
            certificate["solutions"].append({
                "matrix": cand.matrix.tolist(),
                "residual": residual,
                "maximality_gap": gap,
                "comparison_margin": margin,
            })
            ok = ok and residual <= SOLUTION_RESIDUAL_TOL and gap >= -1e-10
    certificate.update(_provenance(problem, args.seed))
    write_report(out / "certificate.json", certificate)
    return 0 if ok else 1


def cmd_synthesize(args):
    problem = load_model(args.model)
    out = _outdir(args)
    x = _parse_target(args.target, problem.n)
    horizon = args.t if args.t is not None else t_max(problem, np.linalg.norm(x))
    report = {"t": horizon, "V": "+inf", "V_inf": "+inf", "gap": "+inf"}
    report.update(_provenance(problem, args.seed))
    try:
        v_inf = value_infinite(problem, x, tol=args.tol)
        report["V_inf"] = v_inf
        v_fin = value_finite(problem, horizon, x, tol=args.tol)
        report.update({"V": v_fin, "gap": v_fin - v_inf})

        span = t_max(problem, np.linalg.norm(x))
        grid = default_grid(problem, -span)
        u = optimal_control_infinite(problem, x, grid)
        traj = optimal_trajectory_infinite(problem, x, grid)
        sim = simulate_mild(problem, np.zeros(problem.n), u, -span, 0.0)
        scale = max(np.linalg.norm(x), 1.0)
        report["endpoint_error"] = float(np.linalg.norm(sim.states[-1] - x) / scale)
        report["energy"] = energy_of(u)
        report["feedback_residual"] = feedback_residual(problem, traj, u)
        if h_space(problem).full_rank:
            fd_window = min(2.0, span)
            fd_grid = np.linspace(-fd_window, 0.0, int(fd_window / 1e-3) + 1)
            fd_traj = optimal_trajectory_infinite(problem, x, fd_grid)
            report["bcle_residual"] = bcle_residual(problem, fd_traj)
        else:
            report["bcle_residual"] = None
        control_csv(out / "control.csv", u)
        trajectory_csv(out / "trajectory.csv", traj)
    except UnreachableError:
        write_report(out / "synthesis_report.json", report)
        raise
    write_report(out / "synthesis_report.json", report)
    return 0


def cmd_auxiliary(args):
    problem = load_model(args.model)
    out = _outdir(args)
    x = _parse_target(args.target, problem.n)
    cost = AuxiliaryCost(args.n_scale * np.eye(problem.n))
    g = gramian_finite(problem, args.t)
    aux = value_auxiliary(problem, cost, args.t, x, gramian=g)
    v_fin = value_finite(problem, args.t, x, gramian=g)
    remainder = x - problem.propagator.at(args.t)[0] @ aux.argmin_z
    grid = default_grid(problem, -args.t, target_points=1024)
    u = steering_control_finite(problem, args.t, remainder, grid, gramian=g)
    reversal = time_reversal_check(problem, cost, aux.argmin_z, u)
    achieved = 0.5 * cost.quad(h_space(problem), aux.argmin_z) + energy_of(u)
    sandwich_ok = bool(aux.value <= v_fin + 1e-9 * (1.0 + abs(v_fin)))
    reversal_ok = bool(reversal <= 1e-6)
    report = {
        "t": args.t,
        "value": aux.value,
        "V": v_fin,
        "argmin_z": aux.argmin_z.tolist(),
        "achieved_cost": achieved,
        "sandwich_ok": sandwich_ok,
        "time_reversal_discrepancy": reversal,
        "reversal_ok": reversal_ok,
    }
    report.update(_provenance(problem, args.seed))
    write_report(out / "auxiliary_report.json", report)
    return 0 if (sandwich_ok and reversal_ok) else 1


def cmd_landau(args):
    model = build_lg_model(args.modes, args.rho_minus, args.rho_plus)
    out = _outdir(args)
    if args.target is None:
        y0 = np.zeros(model.n_modes)
        y0[0] = 1.0
    else:
        y0 = _parse_target(args.target, model.n_modes)
    check = lg_value_check(model, y0)
    xi, profiles = synthesize_profile(model, y0, PROFILE_TIMES)
    profile_csv(out / "profile.csv", xi, profiles, PROFILE_TIMES)
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
    write_report(out / "landau_report.json", report)
    return 0 if check["rel_err"] <= 1e-10 else 1


def cmd_all(args):
    status = cmd_gramian(args)
    status = max(status, cmd_verify(args))
    status = max(status, cmd_synthesize(args))
    status = max(status, cmd_auxiliary(args))
    return status


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
    sp.add_argument("--t", type=float, default=2.0, help="comparison horizon")
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--comparison", action="store_true",
                    help="run the sampled comparison certificate")
    sp.add_argument("--max-solutions", type=int, default=4096)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("synthesize", help="optimal control and trajectory")
    common(sp, target="required")
    sp.add_argument("--t", type=float, default=None, help="finite horizon")
    sp.add_argument("--tol", type=float, default=1e-8)
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
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--comparison", action="store_true")
    sp.add_argument("--max-solutions", type=int, default=4096)
    sp.add_argument("--n-scale", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(fn=cmd_all)
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
    the option, whether or not the run reaches the stage that reads it."""
    t = getattr(args, "t", None)
    if t is not None:
        if not t > 0.0:
            raise HorizonNotPositive(f"horizon must be positive, got {t}")
        if not np.isfinite(t):
            raise BadParameterError(f"horizon must be finite, got {t}")
    if getattr(args, "samples", 1) < 1:
        raise BadParameterError(
            f"samples must be at least 1, got {args.samples}")
    tol = getattr(args, "tol", 1.0)
    if not (tol > 0.0 and np.isfinite(tol)):
        raise BadParameterError(f"tolerance must be positive and finite, got {tol}")
    n_scale = getattr(args, "n_scale", 0.0)
    if not (n_scale >= 0.0 and np.isfinite(n_scale)):
        raise BadParameterError(
            f"penalty scale must be finite and nonnegative, got {n_scale}")


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_negative_targets(argv))
    try:
        _check_options(args)
        if args.command == "all" and args.target is None:
            problem = load_model(args.model)
            args.target = ",".join(["1"] + ["0"] * (problem.n - 1))
        return args.fn(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
