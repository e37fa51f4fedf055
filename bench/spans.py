"""Span tracing of hirota_ist from outside the package.

The tracer wraps names exported by ``hirota_ist/__init__.py`` (plus
``hirota_ist.cli.main``) in every ``hirota_ist`` module that holds them, so a
call made through ``cli.reconstruct_Q`` and one made through
``solitons.reconstruct_Q`` are both seen.  Each wrapped call records a span
(name, start, end, parent span, op id) in memory; the per-point ``spectral``
functions only bump a counter.  Wrappers cost one attribute test when the
tracer is inactive, and ``restore`` puts the original functions back.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op: int | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        if self.active:
            self.counts[key] += n

    def span_wrapper(self, name, fn, before=None, after=None):
        """Wrap fn in a span; ``name`` may be a callable of (args, kwargs).

        ``before(args, kwargs)`` may return replaced arguments and
        ``after(result, args)`` may return a replaced result; both run only
        while the tracer is active.
        """

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(label, self.clock(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            return after(result, args) if after is not None else result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, key, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, pkg, original, make_wrapper, label: str) -> None:
        """Replace ``original`` in every module of ``pkg`` that holds it."""
        if original is None:
            self.absent.append(label)
            return
        wrapper = make_wrapper(original)
        prefix = pkg.__name__ + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == pkg.__name__ or modname.startswith(prefix)):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def install(self, pkg, cli) -> None:
        """Wrap the package's layer boundaries (names from ``__init__``)."""

        def exported(name):
            return getattr(pkg, name, None)

        def span(name, **hooks):
            return lambda fn: self.span_wrapper(name, fn, **hooks)

        def counted_field(key):
            def before(args, kwargs):
                if args:
                    args = (self.count_wrapper(key, args[0]),) + tuple(args[1:])
                elif "field" in kwargs:
                    kwargs = dict(kwargs, field=self.count_wrapper(key, kwargs["field"]))
                return args, kwargs

            return before

        def masked(result, args):
            self.count("solitons.eval_field.masked", int(getattr(result, "masked_count", 0)))
            return result

        def written(result, args):
            if len(args) > 1:
                self.count("grids.write_csv.bytes", os.path.getsize(args[1]))
            return result

        def zeros(result, args):
            self.count("scattering.zeros_found", len(result))
            return result

        def field_counter(result, args):
            return self.count_wrapper("scattering.field_evals", result)

        layers = {
            "reconstruct_Q": span("solitons.reconstruct_Q"),
            "eval_field": span("solitons.eval_field", after=masked),
            "sampled_field": span("solitons.sampled_field", after=field_counter),
            "write_csv": span("grids.write_csv", after=written),
            "read_csv": span("grids.read_csv"),
            "write_json": span("grids.write_json"),
            "read_json": span("grids.read_json"),
            "det_a": span("scattering.det_a"),
            "find_discrete_spectrum": span("scattering.find_discrete_spectrum", after=zeros),
            "integrate_jost": span("scattering.integrate_jost"),
            "scattering_matrix": span("scattering.scattering_matrix"),
            "audit_symmetries": span("scattering.audit_symmetries"),
            "pde_residual": span(
                "verification.pde_residual",
                before=counted_field("verification.pde_residual.field_evals"),
            ),
            "boundary_decay": span("verification.boundary_decay"),
            "symmetry_residual": span("verification.symmetry_residual"),
            "theta_condition_variants": span("traceform.theta_condition_variants"),
            "theta": lambda fn: self.count_wrapper("spectral.theta", fn),
            "uniformize": lambda fn: self.count_wrapper("spectral.uniformize", fn),
        }
        for name, make in layers.items():
            self.patch(pkg, exported(name), make, name)
        cli_name = lambda args, kwargs: "cli." + (str(args[0][0]) if args and args[0] else "main")
        self.patch(pkg, getattr(cli, "main", None), span(cli_name), "cli.main")


# Per-layer metrics: name -> (unit, better, exported function it needs).
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "solitons.reconstruct_Q.calls": ("count", "lower", "reconstruct_Q"),
    "solitons.reconstruct_Q.p50_us": ("us", "lower", "reconstruct_Q"),
    "solitons.reconstruct_Q.p99_us": ("us", "lower", "reconstruct_Q"),
    "solitons.reconstruct_Q.self_s": ("s", "lower", "reconstruct_Q"),
    "spectral.theta.calls_per_point": ("count", "lower", "theta"),
    "spectral.uniformize.calls_per_point": ("count", "lower", "uniformize"),
    "solitons.eval_field.self_s": ("s", "lower", "eval_field"),
    "solitons.eval_field.masked": ("count", "lower", "eval_field"),
    "grids.write_csv.s": ("s", "lower", "write_csv"),
    "grids.write_csv.mb_per_s": ("MB/s", "higher", "write_csv"),
    "grids.read_csv.s": ("s", "lower", "read_csv"),
    "grids.write_json.s": ("s", "lower", "write_json"),
    "grids.read_json.s": ("s", "lower", "read_json"),
    "solitons.sampled_field.build_s": ("s", "lower", "sampled_field"),
    "solitons.sampled_field.points": ("count", "lower", "sampled_field"),
    "solitons.max_err_vs_closed_form": ("abs", "lower", "one_soliton_closed_form"),
    "scattering.det_a.calls": ("count", "lower", "det_a"),
    "scattering.det_a.p50_ms": ("ms", "lower", "det_a"),
    "scattering.find_discrete_spectrum.s": ("s", "lower", "find_discrete_spectrum"),
    "scattering.det_a_per_zero": ("count", "lower", "find_discrete_spectrum"),
    "scattering.no_convergence_warnings": ("count", "lower", "find_discrete_spectrum"),
    "scattering.integrate_jost.calls": ("count", "lower", "integrate_jost"),
    "scattering.integrate_jost.p50_ms": ("ms", "lower", "integrate_jost"),
    "scattering.integrate_jost.self_s": ("s", "lower", "integrate_jost"),
    "scattering.scattering_matrix.calls": ("count", "lower", "scattering_matrix"),
    "scattering.scattering_matrix.p50_ms": ("ms", "lower", "scattering_matrix"),
    "scattering.scattering_matrix.self_s": ("s", "lower", "scattering_matrix"),
    "scattering.field_evals": ("count", "lower", "sampled_field"),
    "scattering.field_evals_per_jost": ("count", "lower", "integrate_jost"),
    "scattering.audit_symmetries.s": ("s", "lower", "audit_symmetries"),
    "verification.pde_residual.s": ("s", "lower", "pde_residual"),
    "verification.pde_residual.self_s": ("s", "lower", "pde_residual"),
    "verification.pde_residual.field_evals": ("count", "lower", "pde_residual"),
    "verification.boundary_decay.s": ("s", "lower", "boundary_decay"),
    "verification.symmetry_residual.s": ("s", "lower", "symmetry_residual"),
    "traceform.theta_condition_variants.s": ("s", "lower", "theta_condition_variants"),
    "cli.solve.self_s": ("s", "lower", "cli.main"),
    "cli.verify.self_s": ("s", "lower", "cli.main"),
    "cli.scatter.self_s": ("s", "lower", "cli.main"),
    "cli.roundtrip.self_s": ("s", "lower", "cli.main"),
    "trace.overhead_frac": ("frac", "lower", "cli.main"),
}


def layer_metrics(tracer: Tracer, closed_form_err: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer values from one traced pass; 0 where a layer did no work."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def durs(name):
        return [spans[i].end - spans[i].start for i in by_name.get(name, [])]

    def total(name):
        return sum(durs(name))

    def self_total(name):
        return sum(selfs[i] for i in by_name.get(name, []))

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    n_points = len(by_name.get("solitons.reconstruct_Q", []))
    sampled = set(by_name.get("solitons.sampled_field", []))
    knots = sum(1 for i in by_name.get("solitons.reconstruct_Q", []) if spans[i].parent in sampled)
    n_jost = len(by_name.get("scattering.integrate_jost", []))
    n_det_a = len(by_name.get("scattering.det_a", []))
    out = {
        "solitons.reconstruct_Q.calls": n_points,
        "solitons.reconstruct_Q.p50_us": 1e6 * percentile(durs("solitons.reconstruct_Q"), 50),
        "solitons.reconstruct_Q.p99_us": 1e6 * percentile(durs("solitons.reconstruct_Q"), 99),
        "solitons.reconstruct_Q.self_s": self_total("solitons.reconstruct_Q"),
        "spectral.theta.calls_per_point": ratio(c["spectral.theta"], n_points),
        "spectral.uniformize.calls_per_point": ratio(c["spectral.uniformize"], n_points),
        "solitons.eval_field.self_s": self_total("solitons.eval_field"),
        "solitons.eval_field.masked": c["solitons.eval_field.masked"],
        "grids.write_csv.s": total("grids.write_csv"),
        "grids.write_csv.mb_per_s": ratio(c["grids.write_csv.bytes"] / 1e6, total("grids.write_csv")),
        "grids.read_csv.s": total("grids.read_csv"),
        "grids.write_json.s": total("grids.write_json"),
        "grids.read_json.s": total("grids.read_json"),
        "solitons.sampled_field.build_s": total("solitons.sampled_field"),
        "solitons.sampled_field.points": knots,
        "solitons.max_err_vs_closed_form": closed_form_err,
        "scattering.det_a.calls": n_det_a,
        "scattering.det_a.p50_ms": 1e3 * percentile(durs("scattering.det_a"), 50),
        "scattering.find_discrete_spectrum.s": total("scattering.find_discrete_spectrum"),
        "scattering.det_a_per_zero": ratio(n_det_a, c["scattering.zeros_found"]),
        "scattering.no_convergence_warnings": c["scattering.no_convergence_warnings"],
        "scattering.integrate_jost.calls": n_jost,
        "scattering.integrate_jost.p50_ms": 1e3 * percentile(durs("scattering.integrate_jost"), 50),
        "scattering.integrate_jost.self_s": self_total("scattering.integrate_jost"),
        "scattering.scattering_matrix.calls": len(by_name.get("scattering.scattering_matrix", [])),
        "scattering.scattering_matrix.p50_ms": 1e3 * percentile(durs("scattering.scattering_matrix"), 50),
        "scattering.scattering_matrix.self_s": self_total("scattering.scattering_matrix"),
        "scattering.field_evals": c["scattering.field_evals"],
        "scattering.field_evals_per_jost": ratio(c["scattering.field_evals"], n_jost),
        "scattering.audit_symmetries.s": total("scattering.audit_symmetries"),
        "verification.pde_residual.s": total("verification.pde_residual"),
        "verification.pde_residual.self_s": self_total("verification.pde_residual"),
        "verification.pde_residual.field_evals": c["verification.pde_residual.field_evals"],
        "verification.boundary_decay.s": total("verification.boundary_decay"),
        "verification.symmetry_residual.s": total("verification.symmetry_residual"),
        "traceform.theta_condition_variants.s": total("traceform.theta_condition_variants"),
        "cli.solve.self_s": self_total("cli.solve"),
        "cli.verify.self_s": self_total("cli.verify"),
        "cli.scatter.self_s": self_total("cli.scatter"),
        "cli.roundtrip.self_s": self_total("cli.roundtrip"),
        "trace.overhead_frac": overhead_frac,
    }
    assert set(out) == set(LAYER_METRICS)
    return out

