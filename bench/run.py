"""Benchmark for raagaut: seeded CLI queries, answer-checked, closed loop.

Usage, from the repository root:

    python3 bench/run.py --workload orbit --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1     # the four in turn

One client runs the workload's queries in-process through
``raagaut.cli.main([..., "--json"])``, with no threads: the next query
starts when the previous answer is back, and each query loads its graph
from its file, as one CLI invocation does.  The seed fixes a round of
queries; rounds repeat until ``--seconds`` have passed and three ran (whole
rounds, so every run has the same query mix).  Times are reported in
reference seconds (see ``speed``).  Every answer is checked by the
benchmark's own code (``checks``, ``raag``) after the timed loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
round untraced and one traced (see ``tracing``), reports the per-layer
metrics, the tracing overhead and the scaling series, and writes the spans
under ``.bench_work/``.  ``--smoke`` runs a few queries of every workload
and checks the metric names and that a corrupted certificate is rejected.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import series  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 3
TAIL_BEYOND = 10     # queries that lie beyond the tail percentile

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "queries_per_s": "1/s",
    "answered_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

FAIL_KINDS = ("budget", "internal_check", "wrong_answer")


class SetupError(Exception):
    """The checkout does not hold the program."""


# -- set-up -------------------------------------------------------------------

def import_program():
    """Import every raagaut module from the checkout's ``src``, fresh."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "raagaut", "cli.py")):
        raise SetupError("no raagaut sources under %s" % src)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules
                 if m == "raagaut" or m.startswith("raagaut.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    for layer in tracing.LAYERS:
        importlib.import_module("raagaut." + layer)
    return sys.modules["raagaut.cli"]


def setup(workload, seed, workdir):
    """Import the program, then generate the seeded round and write its
    files; repeated, and the median time reported in reference seconds."""
    times = []
    clock = speed.Speed()
    for _ in range(SETUP_REPEATS):
        clock.sample()
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        cli = import_program()
        rng = random.Random("%s:%d" % (workload, seed))
        queries = workloads.ROUNDS[workload](rng, workloads.Inputs(workdir))
        times.append(time.perf_counter() - t0)
    clock.sample()
    return cli, queries, statistics.median(times) * clock.scale()


# -- the closed loop ----------------------------------------------------------

class Outcome:
    """One query's result; ``seconds`` is wall time, ``scaled`` the same in
    reference seconds (see ``speed``)."""

    __slots__ = ("query", "seconds", "scaled", "code", "out", "error")

    def __init__(self, query, seconds, code, out, error):
        self.query = query
        self.seconds = seconds
        self.scaled = None
        self.code = code
        self.out = out
        self.error = error


def run_query(cli, query):
    """Run one query; the exit code follows the CLI's convention also for
    in-process calls (1 input error, 2 budget exhausted)."""
    errors = sys.modules["raagaut.errors"]
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if query.call is None:
                code = cli.main(query.argv + ["--json"])
            else:
                print(json.dumps(query.call()))
                code = 0
    except errors.BudgetError:
        code = 2
    except errors.InputError:
        code = 1
    except Exception as exc:  # an uncaught failure inside the program
        error = exc
    seconds = time.perf_counter() - t0
    return Outcome(query, seconds, code, out.getvalue(), error)


def run_round(cli, queries, tracer=None):
    """One pass over the queries, with host-speed samples between them;
    returns the outcomes and the round's scale to reference seconds."""
    clock = speed.Speed()
    outcomes = []
    for q in queries:
        clock.maybe_sample()
        if tracer is not None:
            tracer.new_query()
        outcomes.append(run_query(cli, q))
    clock.sample()
    scale = clock.scale()
    for o in outcomes:
        o.scaled = o.seconds * scale
    return outcomes, scale


def closed_loop(cli, queries, seconds):
    """Whole rounds until ``seconds`` have passed and MIN_ROUNDS ran."""
    outcomes = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        outcomes.extend(run_round(cli, queries)[0])
        rounds += 1
        if time.perf_counter() - t0 >= seconds and rounds >= MIN_ROUNDS:
            return outcomes


# -- answer checks ------------------------------------------------------------

def classify(outcomes):
    """Check every answer.  Returns the failure kind (or None) per outcome
    and one example reason per kind.  Identical answers to the same query
    in later rounds reuse the first verdict."""
    groups = {}
    verdicts = {}
    kinds = []
    examples = {}
    for o in outcomes:
        if o.error is not None:
            kind = "internal_check"
            reason = "%s: %s" % (type(o.error).__name__, o.error)
        elif o.code == 2:
            kind, reason = "budget", "exit code 2"
        elif o.code != 0:
            kind, reason = "wrong_answer", "exit code %r" % (o.code,)
        else:
            key = (id(o.query), o.out)
            if key not in verdicts:
                try:
                    data = json.loads(o.out)
                except ValueError:
                    verdicts[key] = "output is not JSON"
                else:
                    verdicts[key] = o.query.check(data, groups)
            reason = verdicts[key]
            kind = "wrong_answer" if reason else None
        kinds.append(kind)
        if kind is not None:
            examples.setdefault(kind, "%s: %s" % (o.query.label, reason))
    return kinds, examples


def tail_tenths(per_round):
    """The highest percentile, in tenths of a percent, that has at least
    TAIL_BEYOND queries beyond it in a run of MIN_ROUNDS rounds.  It
    depends only on the round's size, so it sits at the same place in the
    round however many rounds a run holds."""
    n = MIN_ROUNDS * per_round
    tenths = 999
    while (1000 - tenths) * (n - 1) < TAIL_BEYOND * 1000:
        tenths -= 1
    return tenths


def end_to_end(outcomes, kinds, setup_s, per_round, raw=False):
    """The end-to-end metrics in reference seconds, or in wall seconds with
    ``raw``.  ``outcomes`` holds whole rounds of ``per_round`` queries.
    Every query counts in the latencies and the throughput, answered or
    failed: a failure takes time too."""
    secs = [o.seconds if raw else o.scaled for o in outcomes]
    return {
        "latency_p50_s": statistics.median(secs),
        # linearly interpolated between the two queries around it
        "latency_tail_s": statistics.quantiles(
            secs, n=1000, method="inclusive")[tail_tenths(per_round) - 1],
        "queries_per_s": len(secs) / sum(secs),
        "answered_frac": kinds.count(None) / len(outcomes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


# -- per-layer metrics --------------------------------------------------------

def per_layer(tr, kinds, scale, overhead):
    """Per-layer metrics of a traced round; times are scaled to reference
    seconds by the round's ``scale``."""
    m = {}

    def calls_self(prefix, names):
        calls, self_s = tr.totals(names)
        m[prefix + ".calls"] = (calls, "count")
        m[prefix + ".self_s"] = (self_s, "s")

    calls_self("core.canonical_class", ["core.canonical_class"])
    calls = m["core.canonical_class.calls"][0]
    m["core.canonical_class.letters"] = (
        tr.counts.get("canonical_letters", 0), "count")
    m["core.canonical_class.repeat_frac"] = (
        tr.counts.get("canonical_repeats", 0) / calls if calls else 0.0,
        "fraction")
    calls_self("core.reduce_word", ["core.reduce_word"])
    m["core.reduce_word.letters"] = (tr.counts.get("reduce_letters", 0),
                                     "count")
    calls_self("aut.compose", ["aut.Automorphism.compose"])
    calls_self("aut.apply", ["aut.Automorphism.apply_to_word",
                             "aut.Automorphism.apply_inverse_to_word"])
    calls_self("aut.theta_eta", ["aut.theta", "aut.eta"])
    calls_self("exactmat", [n for n in tr.names
                            if n.startswith("exactmat.")])
    calls_self("linalg.gq_normal_form", ["linalg.gq_normal_form"])
    m["linalg.schreier.vertices"] = (tr.counts.get("schreier_vertices", 0),
                                     "count")
    m["linalg.schreier.edges"] = (tr.counts.get("schreier_edges", 0),
                                  "count")
    m["linalg.schreier_build.self_s"] = (tr.totals(
        ["linalg.schreier_g1_in_gd", "linalg.subgraph_component"])[1], "s")
    m["linalg.bfs_tree.self_s"] = (tr.totals(
        ["linalg.LabeledGraph.bfs_tree",
         "linalg.LabeledGraph.component"])[1], "s")
    m["linalg.presentation.self_s"] = (tr.totals(
        ["linalg." + n for n in (
            "gd_stabilizer", "g1_stabilizer_presentation",
            "cover_presentation", "presentation_from_finite_index",
            "semidirect_presentation", "gl_presentation",
            "abelian_presentation", "gl_word", "gd_stab_word",
            "evaluate_word", "evaluate_matrix_word")])[1], "s")
    calls_self("whorbit.wh_orbit_decide", ["whorbit.wh_orbit_decide"])
    calls_self("whorbit.wh_stabilizer_presentation",
               ["whorbit.wh_stabilizer_presentation"])
    m["apps.delta.vertices"] = (tr.counts.get("delta_vertices", 0), "count")
    m["apps.delta.edges"] = (tr.counts.get("delta_edges", 0), "count")
    m["apps.build_delta.self_s"] = (tr.totals(["apps.build_delta"])[1], "s")
    m["apps.minimize.self_s"] = (tr.totals(["apps.minimize_tuple"])[1], "s")
    m["apps.build_Z.self_s"] = (tr.totals(["apps.build_Z"])[1], "s")
    m["peak.lower_peak.calls"] = (tr.totals(["peak.lower_peak"])[0],
                                  "count")
    m["peak.factors_out"] = (tr.counts.get("factors_out", 0), "count")
    for layer in tracing.LAYERS:
        m[layer + ".self_s"] = (tr.layer_self(layer), "s")
    for kind in FAIL_KINDS:
        m["fail." + kind] = (kinds.count(kind), "count")
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.spans"] = (len(tr.span_start), "count")
    return {name: (value * scale if unit == "s" else value, unit)
            for name, (value, unit) in m.items()}


# -- output -------------------------------------------------------------------

def report(workload, outcomes, kinds, examples, metrics, raw=None):
    """Human-readable lines before the final JSON line; ``raw`` holds the
    end-to-end values in wall seconds."""
    print("workload %s: %d queries, closed loop, one client" % (
        workload, len(outcomes)))
    by_label = {}
    for o, k in zip(outcomes, kinds):
        by_label.setdefault(o.query.label, []).append(
            o.scaled if k is None else None)
    for label, secs in by_label.items():
        ok = [s for s in secs if s is not None]
        print("  %-22s n=%-4d failed=%-3d median_s=%s" % (
            label, len(secs), len(secs) - len(ok),
            "%.4f" % statistics.median(ok) if ok else "-"))
    print("failures: " + ", ".join("%s=%d" % (k, kinds.count(k))
                                   for k in FAIL_KINDS))
    for kind, text in examples.items():
        print("  first %s: %s" % (kind, text))
    for name, (value, unit) in metrics.items():
        extra = ""
        if raw and unit in ("s", "1/s") and name != "setup_s":
            extra = "   (wall: %.6g)" % raw[name]
        print("  %-44s %14.6g %s%s" % (name, value, unit, extra))


def result_line(outcomes, kinds, metrics):
    return json.dumps({
        "correct": "wrong_answer" not in kinds,
        "attempted": len(outcomes),
        "failed": sum(k is not None for k in kinds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# -- modes --------------------------------------------------------------------

def workdir_for(workload, seed):
    return os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (
        workload, seed, os.getpid()))


def measure(workload, seed, seconds):
    workdir = workdir_for(workload, seed)
    try:
        cli, queries, setup_s = setup(workload, seed, workdir)
        outcomes = closed_loop(cli, queries, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kinds, examples = classify(outcomes)
    values = end_to_end(outcomes, kinds, setup_s, len(queries))
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    report(workload, outcomes, kinds, examples, metrics,
           raw=end_to_end(outcomes, kinds, setup_s, len(queries), raw=True))
    print("latency_tail_s is p%.1f of %d queries" % (
        tail_tenths(len(queries)) / 10, len(outcomes)))
    print(result_line(outcomes, kinds, metrics))


def measure_traced(workload, seed):
    workdir = workdir_for(workload, seed)
    tr = tracing.Tracer()
    try:
        cli, queries, _ = setup(workload, seed, workdir)
        outcomes, _ = run_round(cli, queries)
        tr.install()
        try:
            traced, scale = run_round(cli, queries, tr)
        finally:
            tr.uninstall()
        points = series.measure(cli, run_query,
                                os.path.join(workdir, "series"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kinds, examples = classify(outcomes)
    traced_kinds, _ = classify(traced)
    if traced_kinds != kinds:
        examples["wrong_answer"] = "traced and untraced answers differ"
        kinds = [k or "wrong_answer" for k in traced_kinds]
    overhead = sum(o.scaled for o in traced) / sum(o.scaled for o in outcomes)
    metrics = per_layer(tr, kinds, scale, overhead)
    metrics.update(points)
    out = os.path.join(ROOT, ".bench_work", "trace-%s.spans" % workload)
    tr.write(out)
    report(workload, outcomes, kinds, examples, metrics)
    print("spans written to %s" % os.path.relpath(out, ROOT))
    print(result_line(outcomes, kinds, metrics))


def run_all(args):
    """Each workload in a child process, so each reports its own peak
    memory; returns the first nonzero exit code."""
    code = 0
    for workload in workloads.WORKLOADS:
        child = subprocess.run([
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)])
        code = code or child.returncode
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all of them one after another, "
                         "each in a process of its own")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="quick self-check of every workload")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            import smoke
            return smoke.run_smoke(args.seed)
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        if args.trace:
            measure_traced(args.workload, args.seed)
        else:
            measure(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
