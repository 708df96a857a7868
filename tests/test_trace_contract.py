"""The benchmark's layer trace still sees every layer.

``perfbench/tracing.py`` wraps the solvers, the noise operators, the control
entry points and the cosine transforms by name from outside the package. A
refactor that moves one of those calls out of reach of its wrapper (a renamed
function, a private alias, a transform that bypasses ``scipy.fft``) would
silently zero a benchmark layer; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

import pytest

import choc
from choc import build_problem, parse_config
from choc.verify import random_smooth_control

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_sees_every_layer(tracing):
    build = build_problem(parse_config(
        "[grid]\nnpoints = 16\n[time]\nnsteps = 10\n[ensemble]\nnpaths = 2\n"))
    h = random_smooth_control(build.problem, 5)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    sweeps = []     # (solver, path count) of each sweep the control layer runs
    traced = {name: getattr(choc.control, name)
              for name in ("solve_state", "solve_adjoint")}

    def sized(name):
        def wrapper(*args, **kwargs):
            out = traced[name](*args, **kwargs)
            sweeps.append((name, out.npaths))
            return out
        return wrapper

    for name in traced:
        setattr(choc.control, name, sized(name))
    try:
        build = tracing.wrap_potential(build, tracer)
        problem, es = build.problem, build.ensemble
        wp = es.sample_paths(problem.params)[0]
        counts = {}
        calls = {
            "solve_state": lambda: choc.state.solve_state(
                problem.y0, build.u0.values, [wp], problem.params),
            "solve_linearized": lambda: choc.sensitivity.solve_linearized(
                traj, h.values, problem.trunc),
            "solve_adjoint": lambda: choc.sensitivity.solve_adjoint(
                traj, problem.target_q(0), problem.target_t(0), problem.alphas),
            "reduced_cost": lambda: choc.control.reduced_cost(build.u0, es, problem),
            "gradient": lambda: choc.control.gradient(build.u0, es, problem),
        }
        for name, call in calls.items():
            tracer.reset()
            out = call()
            if name == "solve_state":
                traj = out
            counts[name] = dict(tracer.counts)
            counts[name]["spans"] = {s[0] for s in tracer.spans}
    finally:
        for name, fn in traced.items():
            setattr(choc.control, name, fn)
        uninstall()

    for name, c in counts.items():
        assert c.get("grid.transforms", 0) > 0, name
        assert c.get("physics.noise_calls", 0) > 0, name
        assert c.get("physics.potential_calls", 0) > 0, name
    assert counts["solve_state"]["state.solves"] == 1
    assert counts["solve_linearized"]["sensitivity.linearized.solves"] == 1
    assert counts["solve_adjoint"]["sensitivity.adjoint.solves"] == 1
    # the control layer solves the ensemble in one sweep per equation
    for name in ("reduced_cost", "gradient"):
        assert f"control.{name}" in counts[name]["spans"]
        assert counts[name]["state.solves"] == 1
    assert counts["gradient"]["sensitivity.adjoint.solves"] == 1
    assert sweeps == [("solve_state", es.npaths), ("solve_state", es.npaths),
                      ("solve_adjoint", es.npaths)]
