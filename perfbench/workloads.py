"""The three benchmark workloads: seeded inputs, tasks and output checks.

A workload generates its inputs from the seed (benchmark side, untimed),
``build()``s the program's models from them (timed as set-up), and then
streams tasks round by round.  Every round holds the same mix of task
kinds, so the share of each kind in a run does not depend on the seed or
on where the run stops.  A task's kind names what sets its cost (command,
state dimension, symmetric or non-normal, horizon); the timing metrics
are computed per kind.  Steer's kinds leave out the shape, which moves a
CLI call's cost by less than the host's noise, so that each kind has
twice the samples.  Each task is checked at the tolerance the
acceptance battery uses: a check returns the worst error over its
tolerance (<= 1 passes) and the bytes that enter the determinism digest.

There are ``POOL_ROUNDS`` rounds of distinct inputs.  A run that needs
more rounds starts over on them with freshly built model objects, so a
cache keyed on the model object never hits across rounds; a cache keyed
on the matrix values would, and the pool should grow before a change makes
that likely.
"""

import itertools
import json
import math
import statistics
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import inputs

POOL_ROUNDS = 32


class Task(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _ratio(value, tol):
    """Error over tolerance; NaN counts as a failed check."""
    value = float(value)
    return math.inf if math.isnan(value) else abs(value) / tol


def charge_by_kind(values, kinds):
    """Each task's value replaced by the median value of its kind in the
    run, and the number of kinds.  The charged values keep the run's mix
    of kinds, and a kind's cost is not moved by the few calls that the
    host slowed most."""
    by_kind = {}
    for value, kind in zip(values, kinds):
        by_kind.setdefault(kind, []).append(value)
    median = {kind: statistics.median(v) for kind, v in by_kind.items()}
    return [median[k] for k in kinds], len(median)


def _shape(symmetric):
    return "symmetric" if symmetric else "non-normal"


class Workload:
    """Round structure shared by the workloads.  Subclasses provide
    ``round_inputs(rng, r)``, ``build_round(inputs)`` and
    ``round_tasks(built)``; round ``POOL_ROUNDS`` is for warm-up only.
    Symmetric and non-normal models alternate between rounds where both
    occur, so their cycle is two rounds."""

    #: rounds after which every task kind has occurred equally often
    rounds_per_cycle = 1

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        rng = np.random.default_rng(seed)
        self.inputs = [self.round_inputs(rng, r) for r in range(POOL_ROUNDS + 1)]

    def build(self):
        return [self.build_round(x) for x in self.inputs]

    def round(self, pool, i):
        """Tasks of the i-th round of a run."""
        r = i % POOL_ROUNDS
        built = pool[r] if i < POOL_ROUNDS else self.build_round(self.inputs[r])
        return self.round_tasks(built)

    def warm_stream(self, pool):
        return itertools.islice(self.round_tasks(pool[POOL_ROUNDS]), self.warm_tasks)


class Certify(Workload):
    """Commuting-solution candidates checked as ``verify --comparison``
    does: residual, maximality gap and sampled comparison margin at t=2.

    The heat model ``build_lg_model(8, 0.2, 0.8)`` is left out: at t=2,
    ``value_auxiliary`` raises LinAlgError (singular Cholesky) for 192 of
    its 256 candidates, because e^{tA} underflows on the stiff modes.  It
    returns here once the program handles it (see NOTES.md).
    """

    name = "certify"
    horizon = 2.0
    samples = 50
    warm_tasks = 40
    trace_rounds = 1
    models_per_round = 2

    def round_inputs(self, rng, r):
        return [("distinct", inputs.spectral_distinct(rng)),
                ("repeated-pair", inputs.spectral_repeated_pair(rng))]

    def build_round(self, docs):
        from minenergy.operators import model_from_dict

        return [(label, model_from_dict(doc)) for label, doc in docs]

    def round_tasks(self, models):
        for label, p in models:
            yield from self._model_tasks(label, p)

    def _model_tasks(self, label, p):
        from minenergy.gramian import gramian_finite, h_space
        from minenergy.riccati import (
            DEFAULT_SEED,
            are_residual_H,
            comparison_check,
            enumerate_commuting_solutions,
            maximality_check,
            verify_canonical_solutions,
        )

        state = {}

        def prepare():
            state["h"] = h_space(p)
            state["gram"] = gramian_finite(p, self.horizon)
            state["canonical"] = verify_canonical_solutions(p)
            state["cands"] = enumerate_commuting_solutions(p, 4096)
            return state["canonical"]

        def check_prepare(reports):
            return max(_ratio(r.residual_norm, 1e-9) for r in reports), b""

        yield Task(f"prepare {label}", prepare, check_prepare)
        for cand in state.get("cands", ()):
            def candidate(cand=cand):
                h, gram = state["h"], state["gram"]
                residual = are_residual_H(p, h, cand)
                gap = maximality_check(h, cand)
                rep = comparison_check(p, cand, self.horizon, samples=self.samples,
                                       seed=DEFAULT_SEED, hspace=h, gramian=gram)
                return residual, gap, rep.comparison_margin

            yield Task(f"candidate {label}", candidate, _check_candidate)


def _check_candidate(result):
    residual, gap, margin = result
    ratio = max(_ratio(residual, 1e-9),
                _ratio(max(0.0, -gap), 1e-10),
                _ratio(max(0.0, -margin), 1e-8))
    return ratio, repr(float(margin)).encode()


class GramianRoutes(Workload):
    """Criterion-1 cross-check of one (model, horizon): Lyapunov residual
    of the infinite-horizon Gramian and agreement of the two finite routes."""

    name = "gramian_routes"
    sizes = (2, 8, 16, 32)
    horizons = (0.1, 1.0, 5.0)
    warm_tasks = 12
    trace_rounds = 4
    rounds_per_cycle = 2
    models_per_round = len(sizes)

    def round_inputs(self, rng, r):
        # symmetric and non-normal alternate, so each round is half and half
        return [(n, (r + i) % 2 == 0, inputs.dense_matrices(rng, n, (r + i) % 2 == 0))
                for i, n in enumerate(self.sizes)]

    def build_round(self, row):
        from minenergy.operators import make_dense_model

        return [(f"n={n} {_shape(sym)}", make_dense_model(a, b)) for n, sym, (a, b) in row]

    def round_tasks(self, models):
        for label, p in models:
            for t in self.horizons:
                yield self._task(f"{label} t={t}", p, t)

    @staticmethod
    def _task(kind, p, t):
        from minenergy.gramian import gramian_finite, gramian_infinite, lyapunov_residual

        def cross_check():
            res = lyapunov_residual(p, gramian_infinite(p))
            gq = gramian_finite(p, t, "quadrature").matrix
            go = gramian_finite(p, t, "matrix_ode").matrix
            return res, float(np.linalg.norm(gq - go) / np.linalg.norm(gq))

        return Task(kind, cross_check, _check_routes)


def _check_routes(result):
    res, rel = result
    return (max(_ratio(res, 1e-10), _ratio(rel, 1e-8)),
            f"{res!r},{rel!r}".encode())


class Steer(Workload):
    """In-process CLI calls: ``synthesize`` at its default horizon,
    ``auxiliary --t 1`` and ``landau``, writing reports and CSVs."""

    name = "steer"
    sizes = (2, 4, 8, 16, 32)
    landau_modes = (8, 12, 16)
    warm_tasks = 13
    trace_rounds = 2
    rounds_per_cycle = 2
    models_per_round = 2 * len(sizes) + len(landau_modes)

    def round_inputs(self, rng, r):
        model_dir = self.workdir / "models"
        model_dir.mkdir(parents=True, exist_ok=True)
        row = []
        for i, n in enumerate(self.sizes):
            sym = (r + i) % 2 == 0
            path = model_dir / f"r{r}_n{n}.json"
            path.write_text(json.dumps(inputs.dense_doc(rng, n, sym)))
            row.append((f"n={n}", str(path),
                        rng.standard_normal(n), rng.standard_normal(n)))
        landau = [(m, rng.standard_normal(m)) for m in self.landau_modes]
        return row, landau

    def build_round(self, round_inputs):
        from minenergy.operators import load_model

        # the CLI loads each model itself; loading them here validates the
        # documents and is the set-up a user of the files pays
        for _, path, _, _ in round_inputs[0]:
            load_model(path)
        return round_inputs

    def round_tasks(self, round_inputs):
        row, landau = round_inputs
        for label, path, x_syn, x_aux in row:
            yield self._cli(f"synthesize {label}", "synthesize",
                            ["--model", path, inputs.target_arg(x_syn)])
            yield self._cli(f"auxiliary {label}", "auxiliary",
                            ["--model", path, inputs.target_arg(x_aux), "--t", "1"])
        for modes, y0 in landau:
            yield self._cli(f"landau modes={modes}", "landau",
                            ["--modes", str(modes), inputs.target_arg(y0)])

    def _cli(self, kind, command, args):
        from minenergy.cli import main

        out = self.workdir / "out" / command
        argv = [command] + args + ["--out", str(out)]

        def check(code):
            files = sorted(out.glob("*"))
            blob = b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files)
            report = json.loads((out / _REPORTS[command]).read_text())
            for f in files:
                f.unlink()
            if code != 0:
                return math.inf, blob
            return _STEER_CHECKS[command](report), blob

        return Task(kind, lambda: main(argv), check)


_REPORTS = {"synthesize": "synthesis_report.json",
            "auxiliary": "auxiliary_report.json",
            "landau": "landau_report.json"}


def _check_synthesis(rep):
    return _ratio(rep["endpoint_error"], 1e-6)


def _check_auxiliary(rep):
    if not (rep["sandwich_ok"] and rep["reversal_ok"]):
        return math.inf
    v = rep["V"]
    sandwich = max(0.0, rep["value"] - v) / (1e-9 * (1.0 + abs(v)))
    return max(sandwich, _ratio(rep["time_reversal_discrepancy"], 1e-6))


def _check_landau(rep):
    return _ratio(rep["rel_err"], 1e-10)


_STEER_CHECKS = {"synthesize": _check_synthesis, "auxiliary": _check_auxiliary,
                 "landau": _check_landau}

WORKLOADS = {w.name: w for w in (Certify, GramianRoutes, Steer)}
