"""Outside-in tracing of slopespectra: wrappers installed from the benchmark.

No file of the package changes.  `Tracer.install` replaces the public
functions and methods named in SPANNED and COUNTED with wrappers, in every
loaded `slopespectra` module that binds them (a name imported with
`from .geometry import orientation` is a separate binding), and `uninstall`
puts the originals back.  A target that no longer exists is recorded in
`missing` and skipped, so the metrics fed only by it are left out.

Spanned functions record (name, start, end, parent, request); counted
functions, which are too hot for spans, record a call count keyed by the
innermost open span.  Spans stay in memory; `export` hands them to whoever
writes them out at exit.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "slopespectra"

SPANNED = (
    "cli.main",
    "pointfile.parse_point_text",
    "pointfile.serialize_points",
    "geometry.Configuration.__post_init__",
    "geometry.Configuration.reordered",
    "geometry.is_general_position",
    "geometry.convex_position_order",
    "slopes.slope_spectrum",
    "slopes.forbidden_slopes_at",
    "slopes.forbidden_slope_table",
    "slopes.classify_criticality",
    "conics.conic_through_5",
    "conics.ConicGroup.add",
    "conics.ConicGroup.neg",
    "conics.ConicGroup.scalar_mul",
    "regularity.korchmaros_chain",
    "verifier._cyclic_chain_failures",
    "verifier.reconstruct_missing_vertex",
    "verifier.verify_theorem",
    "verifier.classify_proof_case",
    "report.build_report",
    "report.to_json",
    "report.to_text",
    "report.spectrum_json",
    "report.verdict_json",
    "report.case_json",
    "render.render_svg",
    "generators.regular_polygon",
    "generators.delete_vertices",
    "generators.apply_affine",
    "generators.perturb",
    "generators.random_affine_map",
    "generators.random_general_position",
    "generators.random_noncollinear",
    "generators.random_convex_position",
    "generators.random_with_interior_point",
    "generators.GeneratorSpec.build",
)

COUNTED = (
    "geometry.orientation",
    "scalars.Backend.eq",
    "scalars.Backend.cmp",
    "conics.is_on_conic",
    "generators.SplitMix64.fraction",
)

STAGES = ("Size", "GeneralPosition", "ConvexPosition", "SlopeCount",
          "Coconic", "ChainGap", "Reconstruction")

# The first call of one of these inside verify_theorem opens that stage; a
# stage lasts until the next one opens, so the stages partition the span.
STAGE_ENTRY = {
    "geometry.is_general_position": "GeneralPosition",
    "geometry.convex_position_order": "ConvexPosition",
    "slopes.slope_spectrum": "SlopeCount",
    "geometry.Configuration.reordered": "Coconic",
    "conics.conic_through_5": "Coconic",
    "verifier._cyclic_chain_failures": "ChainGap",
    "regularity.korchmaros_chain": "ChainGap",
    "verifier.reconstruct_missing_vertex": "Reconstruction",
    "conics.ConicGroup.scalar_mul": "Reconstruction",
}

# metric -> spanned names whose self times it sums
SELF_MS = {
    "geometry.general_position_ms": ("geometry.is_general_position",),
    "geometry.convex_order_ms": ("geometry.convex_position_order",),
    "geometry.config_init_ms": ("geometry.Configuration.__post_init__",),
    "slopes.spectrum_ms": ("slopes.slope_spectrum",),
    "slopes.forbidden_ms": ("slopes.forbidden_slopes_at", "slopes.forbidden_slope_table"),
    "slopes.criticality_ms": ("slopes.classify_criticality",),
    "conics.fit_ms": ("conics.conic_through_5",),
    "conics.group_ms": ("conics.ConicGroup.add", "conics.ConicGroup.neg",
                        "conics.ConicGroup.scalar_mul"),
    "regularity.chain_ms": ("regularity.korchmaros_chain", "verifier._cyclic_chain_failures"),
    "pointfile.parse_ms": ("pointfile.parse_point_text",),
    "pointfile.serialize_ms": ("pointfile.serialize_points",),
    "report.build_ms": ("report.build_report", "report.to_json", "report.to_text",
                        "report.spectrum_json", "report.verdict_json", "report.case_json"),
    "render.svg_ms": ("render.render_svg",),
}

# metric -> counted names whose calls it sums
CALLS = {
    "geometry.orientation_calls": ("geometry.orientation",),
    "scalars.cmp_calls": ("scalars.Backend.eq", "scalars.Backend.cmp"),
    "conics.membership_calls": ("conics.is_on_conic",),
}

# metric -> spanned names whose per-request self time is fitted against n
EXPONENTS = {
    "geometry.general_position_exponent": SELF_MS["geometry.general_position_ms"],
    "slopes.spectrum_exponent": SELF_MS["slopes.spectrum_ms"],
    "slopes.forbidden_exponent": SELF_MS["slopes.forbidden_ms"],
    "conics.group_exponent": SELF_MS["conics.group_ms"],
}

GENERATORS = tuple(name for name in SPANNED if name.startswith("generators."))


def _resolve(target: str):
    """(owner, attribute, original) of a dotted target, or None if gone."""
    mod_name, _, rest = target.partition(".")
    module = sys.modules.get(f"{PACKAGE}.{mod_name}")
    if module is None:
        return None
    owner = module
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Spans and counts of one process; install() before, uninstall() after.

    The call counters cost more than the work they count in the hottest
    loops, so they are installed only when `count` is set, and the span
    times of a counting run are not representative.
    """

    def __init__(self, count: bool = False):
        self.count = count
        self.spans: list[list] = []   # [name, start, end, parent index, request]
        self.counts: Counter = Counter()  # (name, innermost span name) -> calls
        self.verdicts: Counter = Counter()  # "certified" or the refuting stage
        self.accepted = 0             # points returned by random_general_position
        self.missing: list[str] = []
        self.request = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if name == "verifier.verify_theorem":
                stage = getattr(result, "stage", None)
                self.verdicts["certified" if stage is None else stage.value] += 1
            elif name == "generators.random_general_position":
                self.accepted += len(result)
            return result

        return wrapper

    def _count(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name, spans[stack[-1]][0] if stack else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wanted = [(SPANNED, self._span)] + ([(COUNTED, self._count)] if self.count else [])
        for targets, make in wanted:
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr, original = found
                wrapper = make(target, original)
                if isinstance(owner, type):
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[name, parent, n] for (name, parent), n in self.counts.items()],
            "verdicts": dict(self.verdicts),
            "accepted": self.accepted,
            "missing": self.missing,
        }


class Trace:
    """Spans and counts merged from one or more processes.

    `factors` maps a request id to the scale from its wall time to time at
    the reference speed (see calib); durations are reported scaled.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.verdicts: Counter = Counter()
        self.accepted = 0
        self.missing: set[str] = set()
        self.phases: Counter = Counter()  # (cli phase, request) -> seconds
        self.factors: dict = {}

    def add(self, state: dict, request=None) -> None:
        """Merge an exported Tracer; `request` relabels its spans."""
        base = len(self.spans)
        for name, start, end, parent, rid in state["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               rid if request is None else request])
        for name, parent, n in state["counts"]:
            self.counts[name, parent] += n
        self.verdicts.update(state["verdicts"])
        self.accepted += state["accepted"]
        self.missing.update(state["missing"])

    def scaled(self, seconds: float, rid) -> float:
        return seconds * self.factors.get(rid, 1.0)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [self.scaled(end - start, rid) for _, start, end, _, rid in self.spans]
        for _, start, end, parent, rid in self.spans:
            if parent >= 0:
                own[parent] -= self.scaled(end - start, rid)
        return own

    def stage_ms(self) -> dict[str, float]:
        """verify_theorem time split into the stages it went through."""
        children = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(idx)
        totals = dict.fromkeys(STAGES, 0.0)
        for idx, (name, start, end, _, rid) in enumerate(self.spans):
            if name != "verifier.verify_theorem":
                continue
            stage, opened = "Size", start
            for child in children[idx]:
                entry = STAGE_ENTRY.get(self.spans[child][0])
                if entry is not None and STAGES.index(entry) > STAGES.index(stage):
                    totals[stage] += self.scaled(self.spans[child][1] - opened, rid)
                    stage, opened = entry, self.spans[child][1]
            totals[stage] += self.scaled(end - opened, rid)
        return {k: v * 1e3 for k, v in totals.items()}

    def phase_ms(self, phase: str) -> float:
        return 1e3 * sum(self.scaled(t, rid) for (name, rid), t in self.phases.items()
                         if name == phase)


def fit_exponent(points) -> float:
    """Least-squares slope of log(time) against log(n), over the median time
    at each n; 0.0 when fewer than two sizes have a positive time."""
    by_n = defaultdict(list)
    for n, t in points:
        if t > 0 and n > 1:
            by_n[n].append(t)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(ts)) for ts in by_n.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(trace: Trace, counted: Trace, sizes: dict, passes: int) -> dict[str, float]:
    """Per-layer metrics, per corpus pass: times from `trace` (spans only,
    `passes` passes), call counts from `counted` (one counting pass).

    sizes maps a request id to its point count n, for the exponent fits.
    A metric whose every source target is missing is left out.
    """
    own = trace.self_times()
    by_name = defaultdict(float)
    per_request = defaultdict(float)  # (name, request) -> self seconds
    span_calls = Counter()
    for (name, _, _, _, rid), t in zip(trace.spans, own):
        by_name[name] += t
        per_request[name, rid] += t
        span_calls[name] += 1
    calls = Counter()
    for (name, _), n in counted.counts.items():
        calls[name] += n

    def present(names, source=trace):
        return any(name not in source.missing for name in names)

    out: dict[str, float] = {}
    for metric, names in SELF_MS.items():
        if present(names):
            out[metric] = sum(by_name[n] for n in names) * 1e3 / passes
    for metric, names in CALLS.items():
        if present(names, counted):
            out[metric] = sum(calls[n] for n in names)
    if present(("conics.ConicGroup.add",)):
        out["conics.group_add_calls"] = span_calls["conics.ConicGroup.add"] / passes
    for metric, names in EXPONENTS.items():
        if present(names):
            points = [(sizes[rid], sum(per_request[n, rid] for n in names))
                      for rid in sizes]
            out[metric] = fit_exponent(points)
    if "verifier.verify_theorem" not in trace.missing:
        for stage, ms in trace.stage_ms().items():
            out[f"verifier.stage.{stage}_ms"] = ms / passes
        for stage in STAGES:
            out[f"verifier.refuted_at.{stage}"] = trace.verdicts[stage] / passes
        out["verifier.certified"] = trace.verdicts["certified"] / passes
    if present(("cli.main",)):
        command = sum(trace.scaled(e - s, rid)
                      for name, s, e, _, rid in trace.spans if name == "cli.main")
        out["cli.command_ms"] = command * 1e3 / passes
    out["cli.python_start_ms"] = trace.phase_ms("python_start") / passes
    out["cli.import_ms"] = trace.phase_ms("import") / passes
    return out


def generator_metrics(trace: Trace, counted: Trace) -> dict[str, float]:
    """Self time of the generators in one corpus build (`trace`), and the
    share of random_general_position's candidate points kept (`counted`)."""
    own = trace.self_times()
    out = {}
    if any(name not in trace.missing for name in GENERATORS):
        out["generators.build_ms"] = 1e3 * sum(
            t for (name, *_), t in zip(trace.spans, own) if name in GENERATORS)
    # two fraction draws make one candidate point
    drawn = counted.counts["generators.SplitMix64.fraction",
                           "generators.random_general_position"] / 2
    if "generators.random_general_position" not in counted.missing:
        out["generators.accept_ratio"] = counted.accepted / drawn if drawn else 0.0
    return out
