"""The layer boundaries the traced run instruments, and the per-layer
metrics computed from its spans and counts.

Each entry wraps an attribute through which one module of
``diamondfwm`` calls into another; the span name is the layer.  Counts
are exact: they come from the arguments and results at the boundary.
``response.chi.bytes_computed`` is computed from the sizes of the
returned arrays, not measured.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("propagation.observables.self_s", "s", "lower"),
    ("propagation.coupling_profile.calls", "count", "lower"),
    ("propagation.coupling_profile.self_s", "s", "lower"),
    ("propagation.transfer.calls", "count", "lower"),
    ("propagation.transfer.points", "count", "lower"),
    ("propagation.transfer.self_s", "s", "lower"),
    ("propagation.rk4_steps", "count", "lower"),
    ("propagation.step_propagators.self_s", "s", "lower"),
    ("propagation.ordered_product.self_s", "s", "lower"),
    ("propagation.lorentzian.points", "count", "lower"),
    ("propagation.lorentzian.self_s", "s", "lower"),
    ("response.two_level.self_s", "s", "lower"),
    ("response.chi.calls", "count", "lower"),
    ("response.chi.elements", "count", "lower"),
    ("response.chi.bytes_computed", "bytes", "lower"),
    ("response.chi.self_s", "s", "lower"),
    ("pulse.synthesis.self_s", "s", "lower"),
    ("optimize.evals", "count", "lower"),
    ("optimize.nm.self_s", "s", "lower"),
    ("optimize.objective.overhead_s", "s", "lower"),
    ("optimize.starts_budget_exhausted", "count", "lower"),
    ("optimize.evals_to_best", "count", "lower"),
    ("optimize.useful_frac", "fraction", "higher"),
    ("manifest.write.calls", "count", "lower"),
    ("manifest.write.bytes", "bytes", "lower"),
    ("manifest.write.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# self times of the transfer-matrix kernel: chi and the propagators
KERNEL = ("response.chi", "propagation.step_propagators", "propagation.ordered_product")


def _count_transfer(tracer, args, kwargs, result):
    profile, delta_p, omega = args[1], args[2], args[3]
    points = np.broadcast(np.atleast_1d(delta_p), np.atleast_1d(omega)).size
    i0, i1 = kwargs.get("step_range") or (0, profile.n_steps)
    tracer.count("propagation.transfer.points", points)
    tracer.count("propagation.rk4_steps", points * (i1 - i0))


def _count_chi(tracer, args, kwargs, result):
    tracer.count("response.chi.elements", sum(a.size for a in result))
    tracer.count("response.chi.bytes_computed", sum(a.nbytes for a in result))


def _count_lorentzian(tracer, args, kwargs, result):
    tracer.count("propagation.lorentzian.points", len(args[0]))


def _count_write(tracer, args, kwargs, result):
    tracer.count("manifest.write.bytes", Path(result).stat().st_size)


def install(tracer) -> None:
    """Wrap every layer boundary of the imported package in spans."""
    from diamondfwm import cli, optimize, propagation, pulse

    for name in ("cmd_spectrum", "cmd_pulse", "cmd_optimize"):
        tracer.wrap(cli, name, "cli.command")
    for module in (cli, optimize):
        tracer.wrap(module, "observables_at", "propagation.observables")
    for module in (propagation, pulse):
        tracer.wrap(module, "coupling_profile", "propagation.coupling_profile")
        tracer.wrap(module, "_transfer_components", "propagation.transfer",
                    _count_transfer)
    tracer.wrap(propagation, "_two_level_arrays", "response.two_level")
    tracer.wrap(propagation, "_chi_arrays", "response.chi", _count_chi)
    tracer.wrap(propagation, "_step_propagators", "propagation.step_propagators")
    tracer.wrap(propagation, "_ordered_product", "propagation.ordered_product")
    tracer.wrap(propagation, "lorentzian_convolve", "propagation.lorentzian",
                _count_lorentzian)
    tracer.wrap(cli, "propagate_pulse", "pulse.synthesis")
    tracer.wrap(cli, "optimize_eta", "optimize.nm")
    tracer.patch(optimize, "make_objective", lambda make: lambda *a, **k: tracer.traced(
        "optimize.objective", make(*a, **k)))
    for name in ("write_csv", "write_json"):
        tracer.wrap(cli, name, "manifest.write", _count_write)


def metrics(tracer, passes: int) -> dict:
    """Per-layer values per traced pass, keyed as in PER_LAYER."""
    self_s = tracer.self_times()
    counts = tracer.counts
    values = {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.command.self_s": self_s.get("cli.command", 0.0),
        "propagation.observables.self_s": self_s.get("propagation.observables", 0.0),
        "propagation.coupling_profile.calls": counts["propagation.coupling_profile.calls"],
        "propagation.coupling_profile.self_s": self_s.get("propagation.coupling_profile", 0.0),
        "propagation.transfer.calls": counts["propagation.transfer.calls"],
        "propagation.transfer.points": counts["propagation.transfer.points"],
        "propagation.transfer.self_s": self_s.get("propagation.transfer", 0.0),
        "propagation.rk4_steps": counts["propagation.rk4_steps"],
        "propagation.step_propagators.self_s": self_s.get("propagation.step_propagators", 0.0),
        "propagation.ordered_product.self_s": self_s.get("propagation.ordered_product", 0.0),
        "propagation.lorentzian.points": counts["propagation.lorentzian.points"],
        "propagation.lorentzian.self_s": self_s.get("propagation.lorentzian", 0.0),
        "response.two_level.self_s": self_s.get("response.two_level", 0.0),
        "response.chi.calls": counts["response.chi.calls"],
        "response.chi.elements": counts["response.chi.elements"],
        "response.chi.bytes_computed": counts["response.chi.bytes_computed"],
        "response.chi.self_s": self_s.get("response.chi", 0.0),
        "pulse.synthesis.self_s": self_s.get("pulse.synthesis", 0.0),
        "optimize.evals": counts["optimize.objective.calls"],
        "optimize.nm.self_s": self_s.get("optimize.nm", 0.0),
        "optimize.objective.overhead_s": self_s.get("optimize.objective", 0.0),
        "manifest.write.calls": counts["manifest.write.calls"],
        "manifest.write.bytes": counts["manifest.write.bytes"],
        "manifest.write.self_s": self_s.get("manifest.write", 0.0),
    }
    # counts repeat exactly from pass to pass, so they divide exactly
    return {k: v // passes if isinstance(v, int) else v / passes for k, v in values.items()}


def shares(tracer) -> dict:
    """Share of all busy time (sum of self times) spent in the kernel and
    in the coupling profile."""
    self_s = tracer.self_times()
    busy = sum(self_s.values()) or 1.0
    return {"kernel": sum(self_s.get(n, 0.0) for n in KERNEL) / busy,
            "coupling_profile": self_s.get("propagation.coupling_profile", 0.0) / busy}
