"""The three benchmark workloads.

Each workload is a closed loop with a single caller: the next call into choc
starts only after the previous one returned. A workload turns the seed into a
configuration text, derives its inputs from the built problem, and runs one
job. A job reports how many units of work it completed, how many operations
it attempted and how many of them failed, and the values the benchmark checks
for correctness.

Every call into choc goes through a module attribute (``control.optimize``,
``verify.check_duality``, ...), so the trace can wrap those names from
outside.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from choc import BlowUpError, additive_noise, control, mix_seed, verify
from choc.control import l2q_inner


@dataclass
class Outcome:
    """What one job did: ``ops`` units of throughput, ``attempted`` and
    ``failed`` operations, checked ``values``, failure ``notes``, and
    ``findings`` the benchmark reports without counting them as failures."""

    ops: int
    attempted: int
    failed: int
    values: list
    notes: list = field(default_factory=list)
    findings: list = field(default_factory=list)


def _no_span(name):
    return nullcontext()


class Opt1d:
    """Projected gradient descent on the default 1D problem."""

    name = "opt1d"
    op = "accepted optimizer iteration"
    budget = 10

    def config_text(self, seed: int) -> str:
        # tol = 1e-300 cannot be met, so every job runs the full budget.
        return (f"[ensemble]\nbase_seed = {seed}\n"
                f"[optimizer]\nmax_iter = {self.budget}\ntol = 1e-300\n")

    def prepare(self, build, seed: int):
        return None

    def run(self, build, inputs, span=_no_span) -> Outcome:
        try:
            result = control.optimize(build.u0, build.ensemble, build.problem,
                                      build.optimizer)
        except BlowUpError as exc:
            return Outcome(0, 1, 1, [None], [f"optimize: {exc}"])
        history = list(result.cost_history)
        notes = []
        if result.n_iterations != self.budget:
            notes.append(f"optimize stopped ({result.termination}) after "
                         f"{result.n_iterations} of {self.budget} iterations")
        if any(b > a for a, b in zip(history, history[1:])):
            notes.append(f"cost history increased: {history}")
        return Outcome(result.n_iterations, 1, int(bool(notes)), history, notes)


class Grad2d:
    """Ensemble cost and gradient on a 2D 64x64 grid, no line search.

    The control comes from the seed, so the runs of a set of seeds walk a
    fixed sequence of controls. One pair per job keeps jobs short, so a run
    holds several of them.
    """

    name = "grad2d"
    op = "reduced_cost + gradient pair"
    direction_seed = 0xD1EC7

    def config_text(self, seed: int) -> str:
        return (f"[grid]\nndims = 2\nnpoints = 64\n"
                f"[ensemble]\nbase_seed = {seed}\n")

    def prepare(self, build, seed: int):
        problem = build.problem
        u = verify.random_smooth_control(problem, mix_seed(seed, 0xC0),
                                         amplitude=0.5 * problem.c0)
        direction = verify.random_smooth_control(problem, self.direction_seed)
        return u, direction

    def run(self, build, inputs, span=_no_span) -> Outcome:
        u, direction = inputs
        problem, es = build.problem, build.ensemble
        tg, grid = problem.params.timegrid, problem.params.grid
        cost = inner = None
        notes = []
        try:
            cost, _ = control.reduced_cost(u, es, problem)
        except BlowUpError as exc:
            notes.append(f"reduced_cost: {exc}")
        try:
            grad = control.gradient(u, es, problem)
            inner = l2q_inner(grad, direction.values, tg, grid)
        except BlowUpError as exc:
            notes.append(f"gradient: {exc}")
        return Outcome(int(not notes), 2, len(notes), [cost, inner], notes)


class Verify1d:
    """The seven structural checks, with the arguments ``choc verify`` passes
    them on the default configuration (see ``_run_verify_suite`` in
    ``choc.cli``).

    Six checks must pass. ``backend_consistency`` fits the order at which the
    gap between the two adjoint backends shrinks, from an 8-path Monte Carlo
    average over four step sizes, and passes at an order of 0.8; the fitted
    order varies with the seed from about 0.75 to 0.96, so its verdict fails
    on some seeds with nothing computed wrongly. Its gate is what the fit
    estimates: the gap is finite and positive and shrinks at every halving of
    the step. Its verdict and order are printed as a finding on every run.
    """

    name = "verify1d"
    op = "structural check"
    statistical = ("backend_consistency",)

    def config_text(self, seed: int) -> str:
        return f"[ensemble]\nbase_seed = {seed}\n"

    def prepare(self, build, seed: int):
        problem = build.problem
        h = verify.random_smooth_control(problem, build.ensemble.base_seed ^ 0x5EED,
                                         amplitude=1.0)
        nm = problem.params.noise
        twin = problem
        if nm.is_multiplicative:
            noise = additive_noise(problem.params.grid, nm.sigmas, nm.mode_indices)
            twin = replace(problem, params=replace(problem.params, noise=noise))
        return h, twin

    @staticmethod
    def gaps_shrink(report) -> bool:
        gaps = [row["ptilde_gap_l2q"] for row in report.table]
        return (all(math.isfinite(g) and g > 0 for g in gaps)
                and all(b < a for a, b in zip(gaps, gaps[1:])))

    def run(self, build, inputs, span=_no_span) -> Outcome:
        h, twin = inputs
        problem, es, u0 = build.problem, build.ensemble, build.u0
        seed = es.base_seed
        checks = {
            "mass_conservation": lambda: verify.check_mass_conservation(problem, es),
            "gateaux": lambda: verify.check_gateaux(
                problem, u0, h, path_seed=seed, npaths=min(2, es.npaths)),
            "duality": lambda: verify.check_duality(problem, es, npairs=20, seed=seed),
            "lipschitz": lambda: verify.check_lipschitz(problem, es, npairs=5,
                                                        seed=seed),
            "truncation": lambda: verify.check_truncation(
                problem, u0, h, (2.0, 8.0, 32.0, 128.0), es),
            "moment_bounds": lambda: verify.check_moment_bounds(problem, es),
            "backend_consistency": lambda: verify.check_backend_consistency(
                twin, es, nsteps_list=(100, 200, 400, 800), seed=seed),
        }
        values, notes, findings = [], [], []
        returned = 0
        for name, call in checks.items():
            with span(f"verify.{name}"):
                try:
                    report = call()
                    returned += 1
                except BlowUpError as exc:
                    report = None
                    notes.append(f"{name}: {exc}")
            if report is None:
                values.append(None)
            elif name in self.statistical:
                order = report.measured["empirical_order"]
                values.append(order)
                findings.append(f"{name}: order {order:.4f}, tolerance "
                                f"{report.tolerance['empirical_order']}, "
                                f"passed {report.passed}")
                if not self.gaps_shrink(report):
                    notes.append(f"{name}: the backend gap does not shrink with "
                                 f"the step: {list(report.table)}")
            else:
                values.append(bool(report.passed))
                if not report.passed:
                    notes.append(f"{name}: check did not pass")
        return Outcome(returned, len(checks), len(notes), values, notes, findings)


WORKLOADS = {w.name: w for w in (Opt1d(), Grad2d(), Verify1d())}
