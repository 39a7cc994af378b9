"""Span tracer wrapped around knflow's public functions from outside.

Nothing in ``src`` changes.  ``Tracer.install`` replaces each public
function of a layer at every name it is bound to inside the ``knflow``
package (so ``knflow.cli.check_evi_kn`` and ``knflow.analysis.check_evi_kn``
both go through the wrapper), a few methods on their classes, and the
stage handlers of the CLI; ``uninstall`` puts the originals back.
Functionals get counting ``fvec``/``grad`` wrappers through
``dataclasses.replace``.

Each wrapped call records a span (name, start, end, parent, job).  Self
time is the span minus its child spans and is summed per layer and job;
counters are summed per pass over the job list.  Spans of the first
traced pass are kept in compact arrays and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import knflow
from knflow import cli

# "module.attr" or "module.Class.attr" -> (self-time group, counting hook).
# Targets that a later version of knflow no longer has are skipped.
_TARGETS = {
    "core.require_not_nan": ("core", "nan_check"),
    "core.as_ext": ("core", None),
    "core.ext_add": ("core", None),
    "core.ext_mul_conv": ("core", None),
    "core.ExtReal.__post_init__": ("core", None),
    "core.SampleSpec.rng": ("core", None),
    "coefficients.s_kn": ("coefficients", "coef_scalar"),
    "coefficients.c_kn": ("coefficients", "coef_scalar"),
    "coefficients.sigma": ("coefficients", "coef_scalar"),
    "coefficients.sigma_rate_limits": ("coefficients", "coef_scalar"),
    "coefficients.is_singular": ("coefficients", "coef_scalar"),
    "coefficients.s_values": ("coefficients", "coef_array"),
    "coefficients.c_values": ("coefficients", "coef_array"),
    "coefficients.sigma_values": ("coefficients", "coef_array"),
    "spaces.dist": ("spaces", "space"),
    "spaces.dist_closure": ("spaces", "space"),
    "spaces.geodesic": ("spaces", "space"),
    "spaces.geodesic_eval": ("spaces", "space"),
    "spaces.space_from_json": ("spaces", "space"),
    "spaces.Interval.contains": ("spaces", "space"),
    "spaces.Interval.contains_closure": ("spaces", "space"),
    "spaces.Interval.clamp": ("spaces", "space"),
    "spaces.EuclideanRn.contains": ("spaces", "space"),
    "spaces.EuclideanRn.contains_closure": ("spaces", "space"),
    "functionals.Functional.value": ("functionals", None),
    "functionals.Functional.values": ("functionals", None),
    "functionals.Functional.in_domain": ("functionals", None),
    "functionals.Functional.in_extended_domain": ("functionals", None),
    "functionals.library": ("functionals", None),
    "functionals.fN_functional": ("functionals", None),
    "functionals.expression_functional": ("functionals", None),
    "functionals.functional_from_json": ("functionals", "instrument"),
    "functionals.directional_derivative": ("functionals", None),
    "functionals.eval_fN": ("functionals", None),
    "functionals.fN_ratio": ("functionals", None),
    "convexity.check_kn_convex": ("convexity", "convexity"),
    "convexity.check_lambda_convex": ("convexity", "convexity"),
    "convexity.check_lifting": ("convexity", "convexity"),
    "convexity.check_gluing": ("convexity", None),
    "convexity.sampling_box": ("convexity", None),
    "convexity.lifted_modulus": ("convexity", None),
    "flows.prox": ("flows", "prox"),
    "flows.minimizing_movement": ("flows", None),
    "flows.ode_flow": ("flows", "ode"),
    "flows.oracle_flow": ("flows", None),
    "flows.time_grid": ("flows", None),
    "flows.Curve.__post_init__": ("flows", None),
    "flows.Curve.at": ("flows", None),
    "flows.Curve.segment": ("flows", None),
    "reparam.r1": ("reparam", "reparam"),
    "reparam.r2": ("reparam", "reparam"),
    "reparam.roundtrip_error": ("reparam", "roundtrip"),
    "reparam.class_membership": ("reparam", None),
    "analysis.check_evi_kn": ("analysis.evi", "evi"),
    "analysis.check_evi_lambda": ("analysis.evi", "evi"),
    "analysis.check_evi_integrated": ("analysis.evi", "evi"),
    "analysis.check_evi_local": ("analysis.evi", "evi"),
    "analysis.energy_audit": ("analysis.audit", "audit"),
    "analysis.slope": ("analysis.slope", "slope"),
    "analysis.contraction_rate": ("analysis.contract", None),
    "analysis.metric_derivative": ("analysis", None),
    "analysis.forward_upper_derivative": ("analysis", None),
    "analysis.bracket": ("analysis", None),
    "cli.main": ("cli", None),
    "cli.run": ("cli", None),
    "cli.pipeline": ("cli", None),
    "cli.validate_config": ("cli", None),
    "cli.read_curve_csv": ("cli", None),
    "cli.write_curve_csv": ("cli", None),
    "cli.write_json": ("cli", None),
    "cli.write_curve": ("cli", None),
    "cli._atomic_write": ("cli", "write"),
}

# Self-time groups.  ``coefficients`` and ``analysis`` (the remaining
# analysis functions) go to the details file only; the rest are per-layer
# metrics ``<group>.self_s``.
SELF_GROUPS = ("flows", "functionals", "core", "convexity", "analysis.evi",
               "analysis.audit", "analysis.slope", "analysis.contract",
               "reparam", "spaces", "cli", "coefficients", "analysis")


class Tracer:
    """Spans and counters for one benchmark process.

    ``job`` is set by the runner before each traced job; ``counts`` holds
    the counters of the current pass, fresh after each ``start_pass``.
    """

    def __init__(self):
        self.job = -1
        self.counts = Counter()
        self.self_time = defaultdict(float)   # (group, job) -> s
        self.entry_time = defaultdict(float)  # (kind, job) -> s, at layer entry
        self.stack = []
        self.in_prox = 0
        self.in_ode = 0
        self.recording = False
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._undo: list = []
        self._sigs: dict = {}

    def start_pass(self, recording: bool):
        """Fresh counters for a pass; keep its spans if ``recording``."""
        self.counts = Counter()
        self.recording = recording

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, group, fn, hook=None):
        tr = self
        layer = group.split(".")[0]
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        post = getattr(self, f"_on_{hook}") if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1] if stack else None
            entry = parent is None or parent[1] != layer
            idx = -1
            if tr.recording:
                idx = len(tr.span_start)
                tr.span_name.append(nid)
                tr.span_parent.append(parent[2] if parent else -1)
                tr.span_job.append(tr.job)
                tr.span_start.append(0.0)
                tr.span_end.append(0.0)
            frame = [0.0, layer, idx]
            stack.append(frame)
            if hook == "prox":
                tr.in_prox += 1
            elif hook == "ode":
                tr.in_ode += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tr.self_time[(group, tr.job)] += dur - frame[0]
                if idx >= 0:
                    tr.span_start[idx] = t0
                    tr.span_end[idx] = t1
                if hook == "prox":
                    tr.in_prox -= 1
                elif hook == "ode":
                    tr.in_ode -= 1
            if post is not None:
                replaced = post(fn, args, kwargs, result, dur, entry)
                if replaced is not None:
                    return replaced
            return result

        traced.__perfbench__ = True
        return traced

    def _arg(self, fn, args, kwargs, name):
        sig = self._sigs.get(fn)
        if sig is None:
            sig = self._sigs[fn] = inspect.signature(fn)
        return sig.bind(*args, **kwargs).arguments.get(name)

    # -- counters ------------------------------------------------------------

    def _on_nan_check(self, fn, args, kwargs, result, dur, entry):
        self.counts["core.nan_checks"] += 1

    def _on_coef_scalar(self, fn, args, kwargs, result, dur, entry):
        if entry:
            self.counts["coefficients.scalar_calls"] += 1
            self.entry_time[("coefficients.scalar", self.job)] += dur

    def _on_coef_array(self, fn, args, kwargs, result, dur, entry):
        if entry:
            self.counts["coefficients.array_calls"] += 1
            self.counts["coefficients.elements"] += int(np.size(result))
            self.entry_time[("coefficients.array", self.job)] += dur

    def _on_space(self, fn, args, kwargs, result, dur, entry):
        self.counts["spaces.calls"] += 1

    def _on_instrument(self, fn, args, kwargs, result, dur, entry):
        return self.instrument(result)

    def _on_convexity(self, fn, args, kwargs, result, dur, entry):
        if entry:
            drawn = int(getattr(self._arg(fn, args, kwargs, "spec"), "count", 0))
            self.counts["convexity.pairs_drawn"] += drawn
            self.counts["convexity.pairs_tested"] += int(getattr(result, "pairs_tested", 0))
            self.counts["convexity.cells"] += drawn * int(getattr(result, "t_grid_size", 0))
            self.entry_time[("convexity", self.job)] += dur

    def _on_prox(self, fn, args, kwargs, result, dur, entry):
        self.counts["flows.prox_steps"] += 1

    def _on_ode(self, fn, args, kwargs, result, dur, entry):
        self.counts["flows.ode_solves"] += 1

    def _on_reparam(self, fn, args, kwargs, result, dur, entry):
        self.counts["reparam.points"] += len(getattr(args[0], "times", ()))

    def _on_roundtrip(self, fn, args, kwargs, result, dur, entry):
        self.counts["reparam.roundtrips"] += 1

    def _on_evi(self, fn, args, kwargs, result, dur, entry):
        if entry:
            self.counts["analysis.evi.cells"] += (int(getattr(result, "t_samples", 0))
                                                  * int(getattr(result, "z_samples", 0)))
            self.entry_time[("analysis.evi", self.job)] += dur

    def _on_audit(self, fn, args, kwargs, result, dur, entry):
        self.counts["analysis.audit.samples"] += len(getattr(result, "times", ()))

    def _on_slope(self, fn, args, kwargs, result, dur, entry):
        self.counts["analysis.slope.calls"] += 1

    def _on_write(self, fn, args, kwargs, result, dur, entry):
        if len(args) < 2:
            return
        path, data = args[0], args[1]
        self.counts["cli.files_written"] += 1
        # the manifest holds wall-clock timestamps, so its size varies
        if not path.endswith("manifest.json"):
            self.counts["cli.bytes_written"] += len(data.encode())
            self.counts["cli.rows_written"] += data.count("\n")

    def _stage(self, command, handler):
        wrapped = self._wrap(f"cli.stage.{command}", "cli", handler)
        tr = self

        @functools.wraps(handler)
        def staged(cfg, out_dir):
            t0 = perf_counter()
            try:
                return wrapped(cfg, out_dir)
            finally:
                tr.counts[f"cli.stage_calls.{command}"] += 1
                tr.entry_time[(f"cli.stage.{command}", tr.job)] += perf_counter() - t0
        return staged

    # -- functionals ---------------------------------------------------------

    def instrument(self, fn):
        """The functional with counting, traced ``fvec`` and ``grad``."""
        if getattr(fn.fvec, "__perfbench__", False):
            return fn
        tr = self
        fvec_span = self._wrap("functionals.fvec", "functionals", fn.fvec)

        def fvec(xs):
            out = fvec_span(xs)
            tr.counts["functionals.fvec_calls"] += 1
            tr.counts["functionals.points"] += int(np.size(out))
            if tr.in_prox:
                tr.counts["flows.prox_fvec_calls"] += 1
            return out
        fvec.__perfbench__ = True

        grad = None
        if fn.grad is not None:
            grad_span = self._wrap("functionals.grad", "functionals", fn.grad)

            def grad(x):
                out = grad_span(x)
                tr.counts["functionals.grad_calls"] += 1
                if tr.in_prox:
                    tr.counts["flows.prox_grad_calls"] += 1
                if tr.in_ode:
                    tr.counts["flows.ode_rhs_evals"] += 1
                return out
        return dataclasses.replace(fn, fvec=fvec, grad=grad)

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "knflow" or name.startswith("knflow.")]
        for path, (group, hook) in _TARGETS.items():
            *owner_path, attr = path.split(".")
            owner = knflow
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue
            orig = vars(owner)[attr]
            wrapper = self._wrap(path, group, orig, hook)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper)
        handlers = getattr(cli, "_HANDLERS", {})
        for command, handler in list(handlers.items()):
            self._undo.append((handlers, command, handler))
            handlers[command] = self._stage(command, handler)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """CSV of the recorded spans; times in seconds from the first span."""
        t_ref = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as f:
            f.write("span,parent,job,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                f.write(f"{i},{self.span_parent[i]},{self.span_job[i]},"
                        f"{self.names[self.span_name[i]]},"
                        f"{self.span_start[i] - t_ref:.9f},"
                        f"{self.span_end[i] - t_ref:.9f}\n")
