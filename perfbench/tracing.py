"""Spans around supmin's public functions, installed from outside the package.

``install`` replaces each traced name where its caller looks it up (a module
attribute, or a method on a class) with a wrapper that records a span, and
returns a function that puts the originals back.  Spans stay in memory as
tuples ``(id, parent, command, name, start_ns, end_ns, rows, self_ns)``:
``parent`` is the enclosing span's id, ``command`` the id of the CLI command
span they ran under, ``rows`` the batch size of an ``eval_many`` call, and
``self_ns`` the span's duration minus the time its direct children cover.
Calls nest strictly because the CLI runs one thread.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.nonconverged = 0  # minimize_power results with converged=False
        self._stack = []  # open frames: [id, start_ns, child_ns, name]
        self._command = 0
        self._next_id = 1

    # -- recording ------------------------------------------------------------

    def span(self, name, fn, rows=None, on_result=None):
        """``fn`` wrapped so that each call records one span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, rows(args) if rows else 0)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def command(self, name, fn, *args):
        """Run one CLI command as the root span of everything under it."""
        frame = self._enter(f"command.{name}")
        self._command = frame[0]
        try:
            return fn(*args)
        finally:
            self._exit(frame, 0)
            self._command = 0

    def _enter(self, name):
        frame = [self._next_id, 0, 0, name]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame, rows):
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, start, _, name = frame
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += end - start
        self.spans.append((span_id, parent[0] if parent else 0, self._command or span_id,
                           name, start, end, rows, end - start - frame[2]))

    # -- reading --------------------------------------------------------------

    def summary(self):
        """name -> {calls, total_s, self_s, rows, durations}."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0,
                                   "durations": []})
        for _, _, _, name, start, end, rows, self_ns in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += (end - start) * 1e-9
            agg["self_s"] += self_ns * 1e-9
            agg["rows"] += rows
            agg["durations"].append((end - start) * 1e-9)
        return out

    def child_counts(self, parent_name, child_name):
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        parents = {s[0] for s in self.spans if s[3] == parent_name}
        return sum(1 for s in self.spans if s[3] == child_name and s[1] in parents)

    def write(self, path):
        """All spans as gzip'd CSV, in the order they ended."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("id,parent,command,name,start_ns,end_ns,rows,self_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def install(tracer: Tracer):
    """Wrap the traced names of the imported supmin package; returns ``uninstall``.

    A name the package no longer defines is skipped, and its metrics read 0.
    """
    from supmin import audit, cli, lagrangian, path, solver

    saved = []

    def patch(owner, attr, name, **kw):
        raw = owner.__dict__.get(attr)
        if raw is None:
            return
        saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.span(name, raw.__func__, **kw)))
        else:
            setattr(owner, attr, tracer.span(name, raw, **kw))

    def count_nonconverged(result):
        if not result[1].converged:
            tracer.nonconverged += 1

    for attr in ("m_sweep", "residual_profile", "audit_absolute_minimality",
                 "check_level_convexity", "check_growth_bounds", "dumps_canonical"):
        patch(cli, attr, f"cli.{attr}")
    for attr in ("m_sweep", "sup_energy"):
        patch(audit, attr, f"audit.{attr}")
    patch(solver, "minimize_power", "solver.minimize_power", on_result=count_nonconverged)
    for attr in ("power_energy", "power_energy_gradient", "sup_energy"):
        patch(solver, attr, f"solver.{attr}")
    patch(lagrangian, "finite_difference_jet", "lagrangian.finite_difference_jet")
    patch(lagrangian.LagrangianModel, "jet", "LagrangianModel.jet")
    patch(lagrangian.LagrangianModel, "eval", "LagrangianModel.eval")
    for cls in (lagrangian.LagrangianModel, lagrangian.PowerNormModel,
                lagrangian.DataAssimilationModel, lagrangian.RadialModel,
                lagrangian.MinOfNormsModel, lagrangian.ScaledModel):
        patch(cls, "eval_many", f"{cls.__name__}.eval_many", rows=lambda args: len(args[1]))
    patch(path.Path, "to_csv", "Path.to_csv")
    patch(path.Path, "from_csv", "Path.from_csv")

    def uninstall():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return uninstall


# -- per-layer metrics ---------------------------------------------------------

COUNTERS = (
    "solver.calls", "solver.iterations", "solver.f_evals", "solver.g_evals",
    "solver.nonconverged", "energy.sup_energy.calls", "lagrangian.eval_many.calls",
    "lagrangian.eval_many.rows", "lagrangian.jet.calls", "lagrangian.fd_jet.calls",
    "lagrangian.eval.calls", "aronsson.jet_calls", "audit.subintervals",
)


def layer_metrics(tracer: Tracer, command_s: dict) -> dict:
    """Per-layer metrics of one traced pass; ``command_s`` maps command -> wall s."""
    agg = tracer.summary()

    def get(name, key):
        return agg[name][key] if name in agg else 0

    def total(names, key):
        return sum(get(n, key) for n in names)

    def per_call_us(self_s, calls):
        return self_s / calls * 1e6 if calls else 0.0

    eval_many = [n for n in agg if n.endswith(".eval_many")]
    calls = get("solver.minimize_power", "calls")
    f_evals = get("solver.power_energy", "calls")
    g_evals = get("solver.power_energy_gradient", "calls")
    iterations = g_evals - calls
    subs = sorted(agg["audit.m_sweep"]["durations"]) if "audit.m_sweep" in agg else []
    audit_s = command_s.get("audit", 0.0)
    m = {
        "io.write_s": total(("Path.to_csv", "cli.dumps_canonical"), "total_s"),
        "solver.calls": calls,
        "solver.iterations": iterations,
        "solver.f_evals": f_evals,
        "solver.g_evals": g_evals,
        "solver.backtracks_per_iter": (f_evals - g_evals) / iterations if iterations else 0.0,
        "solver.nonconverged": tracer.nonconverged,
        "solver.self_s": get("solver.minimize_power", "self_s"),
        "solver.iter_us": (get("solver.minimize_power", "total_s") / iterations * 1e6
                           if iterations else 0.0),
    }
    for fn in ("power_energy", "power_energy_gradient"):
        n, s = get(f"solver.{fn}", "calls"), get(f"solver.{fn}", "self_s")
        m.update({f"energy.{fn}.calls": n, f"energy.{fn}.self_s": s,
                  f"energy.{fn}.us": per_call_us(s, n)})
    sup = ("solver.sup_energy", "audit.sup_energy")
    m["energy.sup_energy.calls"] = total(sup, "calls")
    m["energy.sup_energy.self_s"] = total(sup, "self_s")
    m["lagrangian.eval_many.calls"] = total(eval_many, "calls")
    m["lagrangian.eval_many.rows"] = total(eval_many, "rows")
    m["lagrangian.eval_many.self_s"] = total(eval_many, "self_s")
    for key, name in (("jet", "LagrangianModel.jet"),
                      ("fd_jet", "lagrangian.finite_difference_jet")):
        n, s = get(name, "calls"), get(name, "self_s")
        m.update({f"lagrangian.{key}.calls": n, f"lagrangian.{key}.self_s": s,
                  f"lagrangian.{key}.us": per_call_us(s, n)})
    m["lagrangian.eval.calls"] = get("LagrangianModel.eval", "calls")
    m["lagrangian.eval.self_s"] = get("LagrangianModel.eval", "self_s")
    m["lagrangian.check.self_s"] = total(("cli.check_level_convexity",
                                          "cli.check_growth_bounds"), "self_s")
    m["aronsson.residual_profile_s"] = get("cli.residual_profile", "total_s")
    m["aronsson.jet_calls"] = tracer.child_counts("cli.residual_profile", "LagrangianModel.jet")
    m["audit.subintervals"] = len(subs)
    m["audit.sub_sweep_s.median"] = statistics.median(subs) if subs else 0.0
    m["audit.sub_sweep_s.max"] = subs[-1] if subs else 0.0
    m["audit.straggler_share"] = subs[-1] / audit_s if subs and audit_s else 0.0
    return m
