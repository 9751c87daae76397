"""Self-tests of the benchmark: the tracer changes no output, survives
removed names, and the oracle and the fits compute what they claim.

    python3 -m pytest perfbench -q
"""

import itertools
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import slopespectra as ss  # noqa: E402
from slopespectra import conics, regularity, verifier  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _small_requests(corpus, limit):
    return [(i, r) for i, r in enumerate(corpus.requests) if r.n <= limit]


@pytest.fixture
def in_workdir(tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    yield tmp_path
    os.chdir(cwd)


@pytest.mark.parametrize("workload,limit", [("float-certify", 32), ("exact-mixed", 20)])
def test_traced_outputs_equal_untraced(in_workdir, workload, limit):
    corpus = run.build_corpus(ss, workload, 3, in_workdir)
    corpus.settle()
    runner = run.InProcess()
    plain = run.Tally()
    traced = run.Tally(plain.digests)
    requests = _small_requests(corpus, limit)
    for idx, req in requests:
        plain.record(idx, req, *runner.call(req.argv))
    tracer = tr.Tracer(count=True)
    tracer.install()
    try:
        for idx, req in requests:
            tracer.request = idx
            traced.record(idx, req, *runner.call(req.argv))
    finally:
        tracer.uninstall()
    assert traced.outcomes[wl.WRONG] == 0, traced.reasons
    assert traced.outcomes == plain.outcomes
    assert len(traced.windows) == len(requests)
    assert any(name == "verifier.verify_theorem" for name, *_ in tracer.spans)
    assert not tracer.missing


def test_uninstall_restores_every_binding():
    before = (verifier.is_general_position, ss.Backend.cmp, conics.ConicGroup.add)
    tracer = tr.Tracer(count=True)
    tracer.install()
    assert verifier.is_general_position is not before[0]
    tracer.uninstall()
    assert (verifier.is_general_position, ss.Backend.cmp, conics.ConicGroup.add) == before


def test_removed_names_leave_metrics_out(in_workdir, monkeypatch):
    # exact input never reaches the chain or the group law, so the run still
    # works with them gone, as after a refactor that renamed them
    monkeypatch.delattr(verifier, "_cyclic_chain_failures")
    monkeypatch.delattr(regularity, "korchmaros_chain")
    monkeypatch.delattr(conics.ConicGroup, "scalar_mul")
    corpus = run.build_corpus(ss, "exact-mixed", 4, in_workdir)
    corpus.settle()
    runner = run.InProcess()
    tally = run.Tally()
    trace = run.traced_passes(corpus, runner, tally, run.calib.Speedometer(), 1, count=False)
    assert tally.outcomes[wl.WRONG] == 0
    assert {"verifier._cyclic_chain_failures", "regularity.korchmaros_chain",
            "conics.ConicGroup.scalar_mul"} <= trace.missing
    sizes = {i: r.n for i, r in enumerate(corpus.requests)}
    metrics = tr.layer_metrics(trace, trace, sizes, 1)
    assert "regularity.chain_ms" not in metrics
    assert "conics.group_ms" in metrics  # add and neg are still there
    assert metrics["geometry.general_position_ms"] > 0


def test_stage_split_partitions_verify_span():
    trace = tr.Trace()
    trace.spans = [
        ["verifier.verify_theorem", 0.0, 10.0, -1, 0],
        ["geometry.is_general_position", 1.0, 4.0, 0, 0],
        ["geometry.convex_position_order", 4.0, 5.0, 0, 0],
        ["slopes.slope_spectrum", 5.0, 7.0, 0, 0],
        ["slopes.forbidden_slopes_at", 7.0, 8.0, 0, 0],
    ]
    stages = trace.stage_ms()
    assert stages["Size"] == 1e3 and stages["GeneralPosition"] == 3e3
    assert stages["ConvexPosition"] == 1e3 and stages["SlopeCount"] == 5e3
    assert sum(stages.values()) == 10e3
    assert trace.self_times()[0] == 10.0 - 3.0 - 1.0 - 2.0 - 1.0


def test_exponent_fit_recovers_power_law():
    points = [(n, 1e-6 * n ** 3 * f) for n in (10, 20, 40, 80) for f in (0.9, 1.0, 1.1)]
    assert tr.fit_exponent(points) == pytest.approx(3.0, abs=1e-9)
    assert tr.fit_exponent([(10, 1.0)]) == 0.0


def _brute_first_triple(pts):
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[j], pts[k]
        if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
            return (i, j, k)
    return None


def test_oracle_collinearity_matches_brute_force():
    grids = [[(x, y) for x in range(4) for y in range(3)],
             [(0, 0), (5, 1), (2, 7), (10, 2), (3, 3), (6, 6), (1, 9)],
             oracle.int_grid([(0.5, 0.25), (1.5, 0.75), (2.0, 3.0), (2.5, 1.25)])]
    for pts in grids:
        assert oracle.first_collinear_triple(pts) == _brute_first_triple(pts)


def test_oracle_polygon_stages():
    assert oracle.polygon_expected_stage(12, [3]) is None
    assert oracle.polygon_expected_stage(12, [2, 7]) == "SlopeCount"
    assert oracle.polygon_expected_stage(7, [1]) == "Size"
    assert oracle.polygon_chord_classes(12, range(12)) == 12


def test_corpus_is_pinned():
    import json
    lock = json.loads(run.LOCK.read_text())
    for workload, digest in lock["digests"].items():
        assert wl.BUILDERS[workload](ss, lock["reference_seed"]).digest() == digest


def test_result_counts_corpus_requests_not_runs():
    ok = lambda code, out, err: (wl.OK, "")  # noqa: E731
    bad = lambda code, out, err: (wl.FAILED, "refuted")  # noqa: E731
    reqs = [wl.Request("a", [], 1, None, ok), wl.Request("b", [], 1, None, bad)]
    one, two = run.Tally(), run.Tally()
    for tally, passes in ((one, 1), (two, 3)):
        for _ in range(passes):
            for idx, req in enumerate(reqs):
                tally.record(idx, req, 0.0, 1.0, 0, "same", "")
    assert len(two.windows) == 6 and two.outcomes[wl.FAILED] == 3
    for tally in (one, two):
        assert len(tally.verdicts) == 2 and tally.count(wl.FAILED) == 1
    one.record(0, reqs[0], 0.0, 1.0, 0, "changed", "")  # a later run differs
    assert one.count(wl.WRONG) == 1 and one.count(wl.OK) == 0
