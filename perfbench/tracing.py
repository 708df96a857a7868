"""Outside-in layer trace of choc.

While installed, the trace wraps public names from outside the package: ``scipy.fft.dctn`` and
``idctn``, the solvers, the noise operators and the control entry points, in
every choc module that binds them. A module that did
``from .state import solve_state`` holds its own reference, so each binding is
replaced separately. The potential's ``psi_prime`` and ``psi_second`` are
timed through a wrapped :class:`choc.Potential`.

Solver, control, configuration and verify calls become spans (name, start,
end, parent). The calls made once per time step (transforms, noise,
potential) are too many for spans; they are counted and timed in place.
Everything stays in memory until the run ends. Span times are inclusive: the
time of a solve contains the transforms it made.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace

import scipy.fft

import choc
from choc import BlowUpError

# name -> (module that defines it, span name, counter prefix)
_SOLVERS = {
    "solve_state": (choc.state, "state.solve_state", "state"),
    "solve_adjoint": (choc.sensitivity, "sensitivity.solve_adjoint", "sensitivity.adjoint"),
    "solve_linearized": (choc.sensitivity, "sensitivity.solve_linearized",
                         "sensitivity.linearized"),
}
_NOISE = ("b_increment_values", "db_increment_values", "db_adjoint_scaled_values")
_CONTROL = ("reduced_cost", "gradient", "optimize", "optimality_residual")


class Tracer:
    """In-memory spans, counters and busy times of one traced phase."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)

    def reset(self) -> None:
        """Empty the record in place; installed wrappers keep writing to it."""
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.busy.clear()

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def leaf(self, key: str, fn, transform: bool = False):
        """Count and time a per-step call without opening a span."""
        counts, busy = self.counts, self.busy

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            busy[key] += time.perf_counter() - t0
            counts[key] += 1
            if transform:
                counts["grid.transform_bytes_computed"] += args[0].nbytes + out.nbytes
            return out
        return wrapper

    def solver(self, span_name: str, prefix: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                try:
                    out = fn(*args, **kwargs)
                except BlowUpError as exc:
                    counts[f"{prefix}.blowups"] += 1
                    counts[f"{prefix}.path_steps"] += exc.step + 1
                    raise
            counts[f"{prefix}.solves"] += 1
            counts[f"{prefix}.path_steps"] += out.params.timegrid.nsteps
            return out
        return wrapper

    def spanned(self, span_name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                out = fn(*args, **kwargs)
            if span_name == "control.optimize":
                counts["control.iterations"] += out.n_iterations
            return out
        return wrapper


def install(tracer: Tracer):
    """Wrap every traced name; returns a function that restores them all."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "choc" or n.startswith("choc.")]
    saved = []

    def rebind(name: str, original, wrapper, targets=modules) -> None:
        for module in targets:
            if module.__dict__.get(name) is original:
                saved.append((module, name, original))
                setattr(module, name, wrapper)

    for name in ("dctn", "idctn"):
        original = getattr(scipy.fft, name)
        rebind(name, original, tracer.leaf("grid.transforms", original, transform=True),
               [scipy.fft])
    for name, (home, span_name, prefix) in _SOLVERS.items():
        original = getattr(home, name)
        rebind(name, original, tracer.solver(span_name, prefix, original))
    for name in _NOISE:
        original = getattr(choc.physics, name)
        rebind(name, original, tracer.leaf("physics.noise_calls", original))
    for name in _CONTROL:
        original = getattr(choc.control, name)
        rebind(name, original, tracer.spanned(f"control.{name}", original))

    def uninstall() -> None:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
    return uninstall


def wrap_potential(build, tracer: Tracer):
    """The same build with ``psi_prime`` and ``psi_second`` timed."""
    problem = build.problem
    pot = problem.params.potential
    pot = replace(pot,
                  psi_prime=tracer.leaf("physics.potential_calls", pot.psi_prime),
                  psi_second=tracer.leaf("physics.potential_calls", pot.psi_second))
    params = replace(problem.params, potential=pot)
    return replace(build, problem=replace(problem, params=params))


def layer_metrics(tracer: Tracer, names) -> dict:
    """Per-layer metrics of one traced job, for every name in ``names``."""
    spans, c, busy = tracer.spans, tracer.counts, tracer.busy
    total = defaultdict(float)
    calls = Counter()
    for name, start, end, _ in spans:
        total[name] += end - start
        calls[name] += 1

    def parent_name(i: int) -> str:
        parent = spans[i][3]
        return spans[parent][0] if parent >= 0 else ""

    def under(i: int, name: str) -> bool:
        while i >= 0:
            if spans[i][0] == name:
                return True
            i = spans[i][3]
        return False

    optimize_ids = [i for i, s in enumerate(spans) if s[0] == "control.optimize"]
    # The first reduced_cost of each optimize call is the starting cost; the
    # rest are line-search trials.
    trials = sum(1 for i, s in enumerate(spans)
                 if s[0] == "control.reduced_cost"
                 and parent_name(i) == "control.optimize") - len(optimize_ids)
    iterations = c["control.iterations"]
    opt_state_solves = sum(1 for i, s in enumerate(spans)
                           if s[0] == "state.solve_state"
                           and under(i, "control.optimize"))
    self_s = 0.0
    for i in optimize_ids:
        start, end = spans[i][1], spans[i][2]
        children = sum(s[2] - s[1] for s in spans if s[3] == i)
        self_s += (end - start) - children
    path_steps = (c["state.path_steps"] + c["sensitivity.adjoint.path_steps"]
                  + c["sensitivity.linearized.path_steps"])

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "grid.transforms": c["grid.transforms"],
        "grid.transform_s": busy["grid.transforms"],
        "grid.transforms_per_path_step": ratio(c["grid.transforms"], path_steps),
        "grid.transform_bytes_computed": c["grid.transform_bytes_computed"],
        "physics.noise_calls": c["physics.noise_calls"],
        "physics.noise_s": busy["physics.noise_calls"],
        "physics.potential_calls": c["physics.potential_calls"],
        "physics.potential_s": busy["physics.potential_calls"],
        "state.solves": c["state.solves"],
        "state.path_steps": c["state.path_steps"],
        "state.solve_s": total["state.solve_state"],
        "state.step_us": 1e6 * ratio(total["state.solve_state"], c["state.path_steps"]),
        "state.blowups": c["state.blowups"],
        "sensitivity.adjoint_solves": c["sensitivity.adjoint.solves"],
        "sensitivity.adjoint_s": total["sensitivity.solve_adjoint"],
        "sensitivity.adjoint_step_us": 1e6 * ratio(total["sensitivity.solve_adjoint"],
                                                   c["sensitivity.adjoint.path_steps"]),
        "sensitivity.linearized_solves": c["sensitivity.linearized.solves"],
        "sensitivity.linearized_s": total["sensitivity.solve_linearized"],
        "control.cost_evals": calls["control.reduced_cost"],
        "control.cost_eval_s": total["control.reduced_cost"],
        "control.gradients": calls["control.gradient"],
        "control.gradient_s": total["control.gradient"],
        "control.iterations": iterations,
        "control.trials": trials,
        "control.backtracks": trials - iterations,
        "control.trial_accept_ratio": ratio(iterations, trials),
        "control.state_solves_per_iter": ratio(opt_state_solves, iterations),
        "control.self_s": self_s,
    }
    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
        elif name.startswith("verify.") and name.endswith("_s"):
            out[name] = total[name[:-2]]
        elif name.startswith("config."):
            continue        # measured around the traced setup, not the job
        elif name.startswith("trace."):
            continue        # compares the traced and untraced jobs
        else:
            raise KeyError(f"no definition for per-layer metric {name!r}")
    return out
