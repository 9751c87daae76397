"""slopespectra benchmark: closed-loop workloads with known answers.

    python3 perfbench/run.py --workload float-certify --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src, the way
the tier-1 tests import it.  One caller sends each request after the
previous one completes (a closed loop, one process, no threads).  A run
sets up seven times (import, corpus generation, warm-up) and reports the
median, then repeats whole passes over the corpus until --seconds have
passed.  Every output is checked against its known answer; a corpus
request counts as failed in the result when any of its runs failed, so
`attempted` and `failed` do not depend on the passes made.  Times are
stated at the reference speed of calib.py; the raw wall times are printed
too.

--trace 0 prints the end-to-end metrics; --trace 1 runs passes untraced,
then the same passes traced, and prints the per-layer metrics.
--profile FILE writes cProfile stats of the measured passes to FILE.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 2 means the benchmark could not run (no ./src, or the
generators no longer build the pinned corpus).
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import os
import pstats
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

LOCK = HERE / "corpus.lock.json"
SPANS_DIR = Path.cwd() / ".perfbench_spans"  # under the repository root
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120
IMPORT_PROBE = ("import time; t = time.perf_counter(); import slopespectra; "
                "print(time.perf_counter() - t)")
DIGEST_RE = re.compile(r'report_digest"?: "?([0-9a-f]{64})')

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "correct_share": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


class InProcess:
    """Requests as calls of slopespectra.cli.main in this process."""

    def __init__(self):
        from slopespectra import cli
        self.cli = cli

    def call(self, argv, rid=None, trace=None):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)  # looked up per call: the tracer may wrap it
        except Exception:
            code = None
            err.write(traceback.format_exc())
        return t0, time.perf_counter(), code, out.getvalue(), err.getvalue()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Subprocess:
    """Requests as `python -m slopespectra.cli` processes, one at a time."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir, self.env = workdir, env
        self.count = False  # traced children also count hot calls
        self.profile_dir: Path | None = None
        self.profiles: list[Path] = []

    def call(self, argv, rid=None, trace=None):
        env = self.env
        cmd = [sys.executable, "-m", "slopespectra.cli", *argv]
        state = None
        if trace is not None or self.profile_dir is not None:
            env = dict(env)
            cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
            if trace is not None:
                state = self.workdir / "child_state.json"
                env["PERFBENCH_STATE"] = str(state)
                env["PERFBENCH_COUNT"] = "1" if self.count else "0"
            if self.profile_dir is not None:
                path = self.profile_dir / f"{len(self.profiles)}.prof"
                env["PERFBENCH_PROFILE"] = str(path)
                self.profiles.append(path)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        t1 = time.perf_counter()
        if state is not None:
            child = json.loads(state.read_text())
            state.unlink()
            trace.add(child, request=rid)
            trace.phases["python_start", rid] += child["t_start"] - t0
            trace.phases["import", rid] += child["import_s"]
        return t0, t1, proc.returncode, proc.stdout, proc.stderr

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


SEVERITY = {wl.OK: 0, wl.FAILED: 1, wl.WRONG: 2}


class Tally:
    """Wall-time windows and check outcomes of the measured requests.

    `outcomes` counts every execution; `verdicts` keeps, per corpus request,
    its worst outcome over all its executions.  The result's `attempted`
    and `failed` count corpus requests, so they depend on the seed and the
    program only, not on how many passes a run completes."""

    def __init__(self, digests=None):
        self.windows: list[tuple[float, float]] = []
        self.outcomes: Counter = Counter()
        self.verdicts: dict[int, str] = {}
        self.reasons: Counter = Counter()
        # first output digest per request; shared to compare traced runs
        self.digests: dict[int, str] = {} if digests is None else digests

    def record(self, idx: int, req, t0: float, t1: float, code, out: str, err: str) -> None:
        try:
            outcome, why = req.check(code, out, err)
        except (LookupError, TypeError, ValueError) as exc:  # unreadable output
            outcome, why = wl.FAILED, f"unreadable output: {type(exc).__name__}: {exc}"
        digest = ",".join(DIGEST_RE.findall(out)) or hashlib.sha256(out.encode()).hexdigest()
        if self.digests.setdefault(idx, digest) != digest:
            outcome, why = wl.WRONG, "output differs from an earlier run of the same request"
        self.windows.append((t0, t1))
        self.outcomes[outcome] += 1
        self._worst(idx, outcome)
        if outcome != wl.OK:
            self.reasons[f"{outcome}: {req.label}: {why}"] += 1

    def merge(self, other: "Tally") -> None:
        self.windows += other.windows
        self.outcomes += other.outcomes
        self.reasons += other.reasons
        for idx, outcome in other.verdicts.items():
            self._worst(idx, outcome)

    def _worst(self, idx: int, outcome: str) -> None:
        if SEVERITY[outcome] >= SEVERITY[self.verdicts.get(idx, wl.OK)]:
            self.verdicts[idx] = outcome

    def count(self, outcome: str) -> int:
        """Corpus requests whose worst outcome is `outcome`."""
        return sum(1 for v in self.verdicts.values() if v == outcome)


def run_passes(corpus, runner, tally: Tally, speed: calib.Speedometer, seconds: float,
               passes=None, trace=None, tracer=None) -> int:
    """Whole passes over the corpus until `seconds` elapse (or `passes`).
    Request ids count from 0 in each call."""
    start, done = time.perf_counter(), 0
    while True:
        for idx, req in enumerate(corpus.requests):
            rid = done * len(corpus.requests) + idx
            speed.maybe_sample()
            if tracer is not None:
                tracer.request = rid
            tally.record(idx, req, *runner.call(req.argv, rid, trace))
        done += 1
        if (passes is not None and done >= passes) or \
                (passes is None and time.perf_counter() - start >= seconds):
            for _ in range(calib.SIDE):
                speed.sample()
            return done


def build_corpus(ss, workload: str, seed: int, workdir: Path):
    corpus = wl.BUILDERS[workload](ss, seed)
    for name, text in corpus.files.items():
        (workdir / name).write_text(text)
    return corpus


def setup(ss, workload: str, seed: int, workdir: Path, runner, env: dict, speed, procs):
    """Import (in a fresh interpreter), corpus generation and warm-up, done
    SETUP_REPEATS times; returns the median time (reference speed, raw) and
    the corpus.  Each part is scaled by the kernel samples of the whole
    set-up phase (the few taken around one set-up vary too much): the
    import by `procs`, the process kernel, and the rest by the workload's
    `speed`."""
    meters = [speed] if procs is speed else [speed, procs]
    imports, rest, digests = [], [], set()
    start = time.perf_counter()
    for _ in range(SETUP_REPEATS):
        for meter in meters:
            meter.sample()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S, check=True)
        t0 = time.perf_counter()
        corpus = build_corpus(ss, workload, seed, workdir)
        for idx in corpus.warmup:
            runner.call(corpus.requests[idx].argv)
        t1 = time.perf_counter()
        imports.append(float(probe.stdout))
        rest.append(t1 - t0)
        digests.add(corpus.digest())
    end = time.perf_counter()
    for _ in range(calib.SIDE):
        for meter in meters:
            meter.sample()
    f_import, f_rest = procs.factor(start, end), speed.factor(start, end)
    if len(digests) != 1:
        raise BenchError("the same seed built different corpora")
    corpus.settle()
    scaled = statistics.median(i * f_import + r * f_rest for i, r in zip(imports, rest))
    return scaled, statistics.median(i + r for i, r in zip(imports, rest)), corpus


def check_lock(ss, workload: str, seed: int, corpus) -> str:
    """Fail loudly when the generators no longer build the pinned corpus."""
    lock = json.loads(LOCK.read_text())
    ref_seed = lock["reference_seed"]
    ref = corpus if seed == ref_seed else wl.BUILDERS[workload](ss, ref_seed)
    digest = ref.digest()
    if digest != lock["digests"][workload]:
        raise BenchError(f"{workload} corpus for seed {ref_seed} has digest {digest}, "
                         f"but {LOCK.name} pins {lock['digests'][workload]}: a generator "
                         "changed its output; re-pin it in a benchmark-only change")
    return f"pinned seed-{ref_seed} corpus digest {digest} matches"


def traced_passes(corpus, runner, tally: Tally, speed, passes: int, count: bool) -> tr.Trace:
    """`passes` passes with the tracer installed; returns their trace."""
    trace = tr.Trace()
    if isinstance(runner, Subprocess):
        runner.count = count
        run_passes(corpus, runner, tally, speed, 0, passes=passes, trace=trace)
    else:
        tracer = tr.Tracer(count=count)
        tracer.install()
        try:
            run_passes(corpus, runner, tally, speed, 0, passes=passes, tracer=tracer)
        finally:
            tracer.uninstall()
            trace.add(tracer.export())
    trace.factors = {rid: speed.factor(*w) for rid, w in enumerate(tally.windows)}
    return trace


def traced_run(args, ss, corpus, runner, tally: Tally, speed, notes: list) -> tuple[int, dict]:
    """Untraced passes for half the time, the same passes traced (spans
    only), then one counting pass; every traced output must equal the
    untraced one.  The spans are written to SPANS_DIR at the end.  Returns
    the untraced pass count and per-layer metrics."""
    builds = []
    for count in (False, True):
        tracer = tr.Tracer(count=count)
        for _ in range(calib.SIDE):
            speed.sample()
        t0 = time.perf_counter()
        tracer.install()
        try:
            wl.BUILDERS[args.workload](ss, args.seed)
        finally:
            tracer.uninstall()
        for _ in range(calib.SIDE):
            speed.sample()
        builds.append(tr.Trace())
        builds[-1].add(tracer.export())
        builds[-1].factors = {None: speed.factor(t0, time.perf_counter())}

    passes = run_passes(corpus, runner, tally, speed, args.seconds / 2)
    timed, counting = Tally(tally.digests), Tally(tally.digests)
    trace = traced_passes(corpus, runner, timed, speed, passes, count=False)
    counted = traced_passes(corpus, runner, counting, speed, 1, count=True)

    sizes = {p * len(corpus.requests) + i: r.n
             for p in range(passes) for i, r in enumerate(corpus.requests)}
    metrics = tr.layer_metrics(trace, counted, sizes, passes)
    metrics.update(tr.generator_metrics(*builds))
    metrics["trace.overhead_ratio"] = (sum(speed.scaled(*w) for w in timed.windows)
                                       / sum(speed.scaled(*w) for w in tally.windows))
    missing = sorted(trace.missing | counted.missing
                     | {n for n in builds[1].missing if n in tr.GENERATORS})
    if missing:
        notes.append(f"wrapped names not found (metrics left out): {', '.join(missing)}")
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "request"],
        "spans": trace.spans,
        "scale": {str(rid): f for rid, f in trace.factors.items()},
        "counts": [[name, parent, n] for (name, parent), n in counted.counts.items()],
    }))
    notes.append(f"spans written to {path}")
    tally.merge(timed)
    tally.merge(counting)
    return passes, metrics


def end_to_end(workload: str, tally: Tally, speed, setup_s: float, runner) -> tuple[dict, list]:
    lat_ms = sorted(speed.scaled(*w) * 1e3 for w in tally.windows)
    raw_ms = sorted((t1 - t0) * 1e3 for t0, t1 in tally.windows)
    pct = wl.TAIL_PERCENTILE[workload]

    def tail(values):
        return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]

    attempted = len(lat_ms)
    values = {
        "setup_s": setup_s,
        "requests_per_s": attempted * 1e3 / sum(lat_ms),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail(lat_ms),
        "correct_share": tally.count(wl.OK) / len(tally.verdicts),
        "peak_rss_mb": runner.peak_rss_mb(),
    }
    beyond = sum(1 for t in lat_ms if t > values["latency_tail_ms"])
    notes = [f"latency_tail_ms is p{pct} of {attempted} requests, {beyond} beyond it",
             f"raw wall time: requests_per_s {attempted * 1e3 / sum(raw_ms):.4f}, "
             f"latency_p50_ms {statistics.median(raw_ms):.4f}, "
             f"latency_tail_ms {tail(raw_ms):.4f}",
             f"failed_share {1 - values['correct_share']:.4f} "
             f"({len(tally.verdicts) - tally.count(wl.OK)} of {len(tally.verdicts)} "
             "corpus requests)"]
    return values, notes


def measure(args, ss, workdir: Path, env: dict) -> dict:
    runner = InProcess() if args.workload in wl.IN_PROCESS else Subprocess(workdir, env)
    procs = calib.Speedometer.for_processes()
    speed = procs if isinstance(runner, Subprocess) else calib.Speedometer()
    setup_s, setup_raw, corpus = setup(ss, args.workload, args.seed, workdir, runner, env,
                                       speed, procs)
    notes = [f"corpus digest {corpus.digest()} ({len(corpus.requests)} requests per pass)",
             check_lock(ss, args.workload, args.seed, corpus),
             f"setup_s raw wall time {setup_raw:.4f}"]
    profiler = None
    if args.profile:
        if isinstance(runner, Subprocess):
            runner.profile_dir = workdir
        else:
            profiler = cProfile.Profile()
            profiler.enable()

    tally = Tally()
    if args.trace:
        passes, metrics = traced_run(args, ss, corpus, runner, tally, speed, notes)
        units = {}
    else:
        passes = run_passes(corpus, runner, tally, speed, args.seconds)
        metrics, more = end_to_end(args.workload, tally, speed, setup_s, runner)
        notes += more
        units = END_TO_END_UNITS

    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(args.profile)
    elif args.profile:
        pstats.Stats(*map(str, runner.profiles)).dump_stats(args.profile)
    if args.profile:
        notes.append(f"cProfile stats written to {args.profile}")

    attempted = len(tally.verdicts)
    failed = attempted - tally.count(wl.OK)
    notes.append(f"{passes} passes, {len(tally.windows)} requests timed; "
                 f"{attempted} corpus requests, {failed} failed, {tally.count(wl.WRONG)} wrong")
    notes += [f"  {n} x {reason}" for reason, n in sorted(tally.reasons.items())]
    return {
        "notes": notes,
        "units": units,
        "result": {
            "correct": tally.count(wl.WRONG) == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_exponent", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", metavar="FILE",
                        help="write cProfile stats of the measured passes to FILE")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "slopespectra" / "__init__.py").is_file():
        print(f"error: no src/slopespectra under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.pop("SLOPESPECTRA_EPS", None)
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))
    import slopespectra as ss

    if args.profile:
        args.profile = str(Path(args.profile).resolve())
    workdir = root / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    os.chdir(workdir)  # requests name their files relative to the work directory
    try:
        out = measure(args, ss, workdir, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    result = out["result"]
    for line in out["notes"]:
        print(line)
    for name, value in result["metrics"].items():
        unit = out["units"].get(name) or layer_unit(name)
        print(f"{name:42s} {value:14.6g} {unit}")
        result["metrics"][name] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
