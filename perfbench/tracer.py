"""Spans and counters recorded around calls into the neargroup layers.

The tracer wraps public functions at the module attribute their callers read
(for example ``neargroup.solvers.equivalent``, which is what
``solve_m2n``/``classify`` call), so nothing inside the package changes.
Functions called once per evaluation (``least_squares``, ``gauge_act``,
``CuntzElement.__mul__``) are recorded as counters with accumulated time, not
as one span each.

A span is ``[name, label, start, end, parent, covered]``: ``label`` is the
job label current when it opened (corpus entry names for the per-entry
figures) and ``covered`` is the time taken by its child spans and timed
counters, so that self time is ``end - start - covered``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Counters that must repeat exactly across passes with the same inputs.
DETERMINISTIC = (
    "solvers.lm.m2n.calls", "solvers.lm.m2n.nfev",
    "solvers.lm.mn.calls", "solvers.lm.mn.nfev",
    "solutions.gauge_act.under_equivalent.calls",
    "solutions.gauge_act.under_out_group.calls",
    "cuntz.products", "cuntz.product_pairs", "cases.refuted",
)


class Tracer:
    """Spans and counters of one pass.  ``clock`` is the time source; the
    worker passes one that leaves out its speed sampler's handler time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.label = ""
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.label, self.clock(), None, parent, 0.0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        self.active[name] += 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = self.clock()
        self.stack.pop()
        self.active[span[0]] -= 1
        if span[4] >= 0:
            self.spans[span[4]][5] += span[3] - span[2]

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[(name, self.label)] += value

    def peak(self, name: str, value: float) -> None:
        key = (name, self.label)
        self.counters[key] = max(self.counters[key], value)

    def timed(self, name: str, seconds: float) -> None:
        """Account a counter-recorded call: its count, its time, and the time
        it covers inside the enclosing span."""
        self.add(name + ".calls")
        self.add(name + ".s", seconds)
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds

    def under(self, *names: str) -> str | None:
        for name in names:
            if self.active[name]:
                return name
        return None

    # -- installing --------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def span_wrap(self, owner, attr: str, name: str, on_result=None,
                  on_error=None) -> None:
        def make(fn):
            def wrapped(*args, **kwargs):
                idx = self.open(name)
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                finally:
                    self.close(idx)
                if on_result is not None:
                    on_result(out)
                return out
            return wrapped
        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def totals(self, label: str | None = None) -> dict[str, float]:
        """Span and counter totals, over every label or over one label."""
        out: dict[str, float] = defaultdict(float)
        for name, lab, t0, t1, _parent, covered in self.spans:
            if label is not None and lab != label:
                continue
            out[name + ".s"] += t1 - t0
            out[name + ".self_s"] += t1 - t0 - covered
            out[name + ".calls"] += 1
        for (name, lab), value in self.counters.items():
            if label is not None and lab != label:
                continue
            if name.endswith("peak_terms"):
                out[name] = max(out[name], value)
            else:
                out[name] += value
        return dict(out)


def install(tracer: Tracer, newton_tol: float) -> None:
    """Wrap the neargroup layers and the scipy entry points they call.

    ``newton_tol`` is the convergence test the solvers apply to a finished
    ``least_squares`` run (``SolveConfig.newton_tol``).
    """
    import numpy as np
    import scipy.optimize

    import neargroup.abelian as abelian
    import neargroup.cuntz as cuntz
    import neargroup.fusion as fusion
    import neargroup.io as nio
    import neargroup.solutions as solutions
    import neargroup.solvers as solvers
    import neargroup.tuples as tuples

    t = tracer
    sw = t.span_wrap

    # solvers
    sw(solvers, "classify", "solvers.classify")
    sw(solvers, "pair_classes", "solvers.pair_classes")
    sw(solvers, "solve_mn", "solvers.solve_mn")
    sw(solvers, "solve_m2n", "solvers.solve_m2n")
    sw(solvers, "fixed_real_eigenbasis", "spectral.fixed_real_eigenbasis")

    def lm(fn):
        def wrapped(fun, x0, *args, **kwargs):
            kind = {"solvers.solve_m2n": "m2n", "solvers.solve_mn": "mn"}.get(
                t.under("solvers.solve_m2n", "solvers.solve_mn"), "other")
            name = "solvers.lm." + kind
            nfev = 0

            def counted(x, *a, **k):
                nonlocal nfev
                nfev += 1
                return fun(x, *a, **k)

            t0 = t.clock()
            try:
                sol = fn(counted, x0, *args, **kwargs)
            finally:
                t.timed(name, t.clock() - t0)
                t.add(name + ".nfev", nfev)
            t.add(name + ".converged", float(np.linalg.norm(sol.fun) <= newton_tol))
            return sol
        return wrapped
    t.patch(solvers, "least_squares", lm)

    # cases
    def feasibilities(out):
        t.add("cases.refuted", sum(not f.feasible for f in out))
        t.add("cases.feasible", sum(bool(f.feasible) for f in out))
    sw(solvers, "all_case_feasibilities", "cases.all_case_feasibilities",
       on_result=feasibilities)

    # solutions: equivalence and the gauge machinery
    def equivalence(out):
        t.add("solutions.equivalent.true", float(bool(out)))

    def inconclusive(exc):
        if isinstance(exc, ArithmeticError):
            t.add("solutions.equivalent.inconclusive")
    for owner in (solvers, solutions):
        sw(owner, "equivalent", "solutions.equivalent",
           on_result=equivalence, on_error=inconclusive)
    for owner in (solutions, fusion):
        sw(owner, "gauge_group_basis", "solutions.gauge_group_basis")

    def gauge_caller():
        return {"solutions.equivalent": "under_equivalent",
                "fusion.out_group": "under_out_group"}.get(
            t.under("solutions.equivalent", "fusion.out_group"), "elsewhere")

    def gauge_act(fn):
        def wrapped(*args, **kwargs):
            t0 = t.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t.timed("solutions.gauge_act." + gauge_caller(),
                        t.clock() - t0)
        return wrapped
    for owner in (solutions, fusion):
        t.patch(owner, "gauge_act", gauge_act)

    def minimize(fn):
        def wrapped(*args, **kwargs):
            t.add("gauge.nm_refines." + gauge_caller())
            return fn(*args, **kwargs)
        return wrapped
    t.patch(scipy.optimize, "minimize", minimize)

    for owner in (abelian, solvers, fusion):
        sw(owner, "automorphisms", "abelian.automorphisms")
    for owner in (solutions, solvers):
        sw(owner, "residual_mn", "solutions.residual_mn")
        sw(owner, "residual_general", "solutions.residual_general")

    # fusion, tuples, io
    sw(fusion, "out_group", "fusion.out_group")
    sw(tuples, "to_tuple", "tuples.to_tuple")
    sw(tuples, "verify_admissible", "tuples.verify_admissible")
    sw(nio, "load_bundled", "io.load_bundled")

    # cuntz
    sw(cuntz, "oracle_check", "cuntz.oracle_check")
    sw(cuntz, "fs_indicators", "cuntz.fs_indicators")
    sw(cuntz, "build_endomorphism", "cuntz.build_endomorphism")
    sw(cuntz, "normalize_residual", "cuntz.normalize_residual")
    element = cuntz.CuntzElement

    def product(fn):
        def wrapped(self, other):
            out = fn(self, other)
            if isinstance(other, element):
                t.add("cuntz.products")
                t.add("cuntz.product_pairs", len(self.terms) * len(other.terms))
                t.peak("cuntz.peak_terms", len(out.terms))
            return out
        return wrapped
    t.patch(element, "__mul__", product)


# ---------------------------------------------------------------------------
# the per-layer metrics of one traced pass

_PLAIN = (
    "solvers.solve_mn.s", "spectral.fixed_real_eigenbasis.s",
    "solvers.solve_m2n.self_s", "solvers.pair_classes.s", "solvers.classify.s",
    "cases.all_case_feasibilities.s", "cases.all_case_feasibilities.calls",
    "cases.refuted", "cases.feasible",
    "solutions.equivalent.s", "solutions.equivalent.self_s",
    "solutions.equivalent.calls", "solutions.equivalent.inconclusive",
    "solutions.gauge_act.under_equivalent.s",
    "solutions.gauge_act.under_equivalent.calls",
    "gauge.nm_refines.under_equivalent",
    "solutions.gauge_act.under_out_group.s",
    "solutions.gauge_act.under_out_group.calls",
    "gauge.nm_refines.under_out_group",
    "fusion.out_group.s", "fusion.out_group.calls",
    "abelian.automorphisms.s", "abelian.automorphisms.calls",
    "solutions.gauge_group_basis.s",
    "cuntz.fs_indicators.s", "tuples.verify_admissible.s",
    "solutions.residual_mn.s", "solutions.residual_mn.calls",
    "solutions.residual_general.s", "solutions.residual_general.calls",
    "tuples.to_tuple.s", "io.load_bundled.s",
)
# Oracle figures, reported in total and for each word-oracle row.
_CUNTZ = (
    "oracle_check.s", "build_endomorphism.s", "normalize_residual.s",
    "normalize_residual.calls", "products", "product_pairs", "peak_terms",
)


def layer_metrics(tracer: Tracer, entries) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, 0 for a layer the
    pass did not reach."""
    tot = tracer.totals()

    def get(name, source=tot):
        return float(source.get(name, 0.0))

    def ratio(num, den):
        return get(num) / get(den) if get(den) else 0.0

    out = {}
    for kind in ("m2n", "mn"):
        p = f"solvers.lm.{kind}"
        for suffix in (".s", ".calls", ".nfev"):
            out[p + suffix] = get(p + suffix)
        out[p + ".converged_ratio"] = ratio(p + ".converged", p + ".calls")
    for name in _PLAIN:
        out[name] = get(name)
    out["solutions.equivalent.true_ratio"] = ratio(
        "solutions.equivalent.true", "solutions.equivalent.calls")
    for name in _CUNTZ:
        out["cuntz." + name] = get("cuntz." + name)
    for entry in entries:
        sub = tracer.totals(entry)
        for name in _CUNTZ:
            out[f"cuntz.{entry}.{name}"] = get("cuntz." + name, sub)
    return out
