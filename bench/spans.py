"""Spans and counters recorded around the public functions of jsrcert.

`Tracer.install` replaces the module attributes that callers look up at call
time (``jsrcert.cli.solve_gamma``, ``jsrcert.lmi.linprog``, ...) with
wrappers.  Each call records one span: name, start, end, parent span and
operation id, plus a few counts (rows of an LP, its status, the `lmi`
function that issued it).  Spans stay in memory until the run ends;
`op_metrics` reduces the spans of one operation to the per-layer metrics.
The tracer lives in the benchmark only: the package itself is not changed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import jsrcert.bounds
import jsrcert.certifier
import jsrcert.cli
import jsrcert.lmi
import jsrcert.sampling

# (module, attribute, span name).  The span name's first component is the
# layer the wrapped function belongs to, whichever module it is looked up in.
TARGETS = (
    (jsrcert.cli, "run_sweep", "cli.run_sweep"),
    (jsrcert.cli, "certify_run", "cli.certify_run"),
    (jsrcert.cli, "solve_lambda", "certifier.solve_lambda"),
    (jsrcert.cli, "solve_gamma", "certifier.solve_gamma"),
    (jsrcert.cli, "jsr_upper_bound", "bounds.jsr_upper_bound"),
    (jsrcert.cli, "simulate", "sampling.simulate"),
    (jsrcert.sampling, "load_observations", "sampling.load_observations"),
    (jsrcert.sampling.ObservationSet, "endpoints", "sampling.endpoints"),
    (jsrcert.certifier, "lift_batch", "lift.lift_batch"),
    (jsrcert.lmi, "max_margin_feasibility", "lmi.max_margin_feasibility"),
    (jsrcert.lmi, "min_lambda_max", "lmi.min_lambda_max"),
    (jsrcert.lmi, "quad_form_rows", "lmi.quad_form_rows"),
    (jsrcert.lmi, "linprog", "highs"),
    (jsrcert.bounds, "delta_cap", "caps.delta_cap"),
    (jsrcert.bounds, "cap_params", "caps.cap_params"),
    (jsrcert.bounds, "eps_cover", "caps.eps_cover"),
    (jsrcert.bounds, "eps_one", "caps.eps_one"),
)

# The lmi functions that issue LPs, found by walking up from the linprog call.
LP_ISSUERS = ("max_margin_feasibility", "_balanced_witness", "min_lambda_max")
LAYERS = ("cli", "certifier", "bounds", "caps", "sampling", "lift", "lmi", "highs")

# Counters that must repeat exactly across operations and runs on the same
# commit and seed; a later claim may rest on them (choosing-metrics §8).
EXACT_COUNTS = (
    ("highs.calls",)
    + tuple(f"highs.{fn}.{k}" for fn in LP_ISSUERS for k in ("calls", "rows"))
    + ("highs.rows_total", "highs.rows_max", "certifier.bisection_steps")
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _issuer() -> str:
    frame = sys._getframe(2)
    while frame is not None:
        code = frame.f_code
        if code.co_name in LP_ISSUERS and frame.f_globals.get("__name__") == "jsrcert.lmi":
            return code.co_name
        frame = frame.f_back
    return "other"


def _caller_name() -> str:
    return sys._getframe(2).f_code.co_name


class Tracer:
    """Record spans for every wrapped call made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op)
            if name == "highs":
                span.attrs["rows"] = int(kwargs["A_ub"].shape[0]) + (
                    0 if kwargs.get("A_eq") is None else len(kwargs["A_eq"])
                )
                span.attrs["issuer"] = _issuer()
            elif name == "lmi.max_margin_feasibility":
                span.attrs["caller"] = _caller_name()
            elif name == "lift.lift_batch":
                span.attrs["rows"] = int(len(args[0]))
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if name == "highs":
                span.attrs["status"] = int(result.status)
            elif name == "sampling.load_observations":
                span.attrs["rows"] = int(result.N)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction -------------------------------------------------------

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer metrics of one operation (seconds, counts, ratios)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        calls: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, s in spans:
            calls[s.name] += 1
            secs[s.name] += s.duration
            self_s[s.name.split(".")[0]] += s.duration - child_time[i]
        outer_cli = sum(
            s.duration for _, s in spans
            if s.name.startswith("cli.") and (s.parent < 0 or not self.spans[s.parent].name.startswith("cli."))
        )
        sampling_s = sum(
            s.duration for _, s in spans
            if s.name.startswith("sampling.")
            and (s.parent < 0 or not self.spans[s.parent].name.startswith("sampling."))
        )
        lps = [s for _, s in spans if s.name == "highs"]
        rows = [s.attrs["rows"] for s in lps]
        m: dict[str, float] = {
            "cli.s": outer_cli,
            "cli.certify_run.s": secs["cli.certify_run"],
            "cli.certify_run.calls": calls["cli.certify_run"],
            "cli.run_sweep.s": secs["cli.run_sweep"],
            "sampling.s": sampling_s,
            "sampling.load_observations.s": secs["sampling.load_observations"],
            "sampling.load_observations.rows": sum(
                s.attrs.get("rows", 0) for _, s in spans if s.name == "sampling.load_observations"
            ),
            "sampling.endpoints.s": secs["sampling.endpoints"],
            "sampling.endpoints.calls": calls["sampling.endpoints"],
            "sampling.simulate.s": secs["sampling.simulate"],
            "sampling.simulate.calls": calls["sampling.simulate"],
            "lift.lift_batch.s": secs["lift.lift_batch"],
            "lift.lift_batch.rows": sum(
                s.attrs["rows"] for _, s in spans if s.name == "lift.lift_batch"
            ),
            "lmi.max_margin_feasibility.calls": calls["lmi.max_margin_feasibility"],
            "lmi.max_margin_feasibility.s": secs["lmi.max_margin_feasibility"],
            "lmi.min_lambda_max.calls": calls["lmi.min_lambda_max"],
            "lmi.min_lambda_max.s": secs["lmi.min_lambda_max"],
            "lmi.quad_form_rows.s": secs["lmi.quad_form_rows"],
            "highs.calls": len(lps),
            "highs.s": secs["highs"],
            "highs.rows_mean": sum(rows) / len(rows) if rows else 0.0,
            "highs.rows_max": max(rows, default=0),
            "highs.rows_total": sum(rows),
            "highs.retries": sum(1 for s in lps if s.attrs.get("status", 0) != 0),
        }
        for fn in LP_ISSUERS:
            mine = [s for s in lps if s.attrs["issuer"] == fn]
            m[f"highs.{fn}.calls"] = len(mine)
            m[f"highs.{fn}.s"] = sum(s.duration for s in mine)
            m[f"highs.{fn}.rows"] = sum(s.attrs["rows"] for s in mine)
        oracle_calls = calls["lmi.max_margin_feasibility"]
        m["lmi.lps_per_oracle"] = (
            m["highs.max_margin_feasibility.calls"] / oracle_calls if oracle_calls else 0.0
        )
        m["certifier.solve_gamma.s"] = secs["certifier.solve_gamma"]
        m["certifier.solve_lambda.s"] = secs["certifier.solve_lambda"]
        m["certifier.bisection_steps"] = sum(
            1 for _, s in spans
            if s.name == "lmi.max_margin_feasibility" and s.attrs["caller"] == "_bisect_gamma"
        )
        m["certifier.tiebreak_stalls"] = sum(
            1 for _, s in spans if s.name == "lmi.min_lambda_max" and s.error == "SolverStallError"
        )
        m["bounds.jsr_upper_bound.s"] = secs["bounds.jsr_upper_bound"]
        m["bounds.jsr_upper_bound.calls"] = calls["bounds.jsr_upper_bound"]
        m["caps.delta_cap.calls"] = calls["caps.delta_cap"]
        m["caps.delta_cap.s"] = secs["caps.delta_cap"]
        for layer in LAYERS:
            if layer != "highs":
                m[f"{layer}.self_s"] = self_s[layer]
        return m

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "error": s.error,
                **s.attrs,
            }
            for s in self.spans
        ]
