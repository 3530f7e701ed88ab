"""Scaling series: one per-layer metric per point, because one data point
cannot show a complexity class.  The instances are fixed, independent of
the workload seed, so the points of two runs compare the same inputs.

- ``core.canonical_class_s.len{12,16,20,24}``: ``core.canonical_class`` on
  ``(a b c d)^m`` in the running example, whose word-state closure has 4^m
  states; a fresh graph each time, so the memo starts empty.
- ``peak.peak_reduce_s.factors{2,4,6,8}``: peak reduction, on the running
  example, of the first 2, 4, 6 or 8 factors of a seeded product of
  Laurence generators against a seeded two-word tuple of total length 16;
  the mean over three such instances, which are drawn from fixed seeds and
  not chosen by their run time, so a heavy tail shows in the mean.
- ``linalg.matrix_orbit_s.res{256,1296,2401,4096}``: ``matrix-orbit`` on
  n = k = 2 block matrices whose Schreier graph has d^4 residues.
- ``apps.orbit_s.minlen{2,3,4,5}``: ``orbit`` on the running example for a
  class of that minimal length (as certified by ``raagaut minimize``) and a
  fixed image of it.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

import raag
import speed
import workloads

CANON_LENGTHS = (12, 16, 20, 24)
PEAK_FACTORS = (2, 4, 6, 8)
PEAK_LENGTH = 16
PEAK_INSTANCES = 3
MATRIX_RESIDUES = {256: 4, 1296: 6, 2401: 7, 4096: 8}
ORBIT_MINLEN = {2: "a d", 3: "b b d", 4: "a c b d", 5: "a a c b d"}
REPEAT_BELOW_S = 0.2   # cheaper points are repeated, and the median taken


def timed(fn, clock):
    clock.sample()
    first = fn()
    if first >= REPEAT_BELOW_S:
        return first
    return statistics.median([first] + [fn() for _ in range(4)])


def _clock(run_query, cli, query):
    def once():
        return run_query(cli, query).seconds
    return once


def measure(cli, run_query, workdir):
    """Return {metric name: (seconds, "s")} for every series point, in
    reference seconds (see ``speed``)."""
    rng = random.Random("series")
    inp = workloads.Inputs(workdir)
    clock = speed.Speed()
    out = {}

    core = sys.modules["raagaut.core"]
    split = raag.SPLIT.to_json()
    for length in CANON_LENGTHS:
        word = workloads.commuting_run(length // 4)

        def canon():
            g = core.DefiningGraph.from_json(split)
            t0 = time.perf_counter()
            core.canonical_class(g, word)
            return time.perf_counter() - t0
        out["core.canonical_class_s.len%d" % length] = (timed(canon, clock),
                                                        "s")

    ngens = len(raag.laurence_generators(raag.SPLIT))
    instances = []
    for i in range(PEAK_INSTANCES):
        prng = random.Random("series-peak-%d" % i)
        W = workloads.random_tuple(raag.SPLIT, prng, 2, PEAK_LENGTH)
        picks = [(prng.randrange(ngens), prng.choice((1, -1)))
                 for _ in range(max(PEAK_FACTORS))]
        instances.append((raag.format_tuple(W), picks))
    for n in PEAK_FACTORS:
        times = [timed(_clock(run_query, cli, workloads.peak_query(
                     "split", text, picks[:n], inp)), clock)
                 for text, picks in instances]
        out["peak.peak_reduce_s.factors%d" % n] = (statistics.mean(times),
                                                   "s")

    for res, d in MATRIX_RESIDUES.items():
        A = workloads.matrix_input(rng, 2, 2, d)
        B = raag.mat_mul(workloads.block_matrix(rng, 2, 2, d), A)
        q = workloads.Query("series", [
            "matrix-orbit",
            "--matrix", workloads.matrix_file(inp, A, 2, 2),
            "--matrix2", workloads.matrix_file(inp, B, 2, 2)], None)
        out["linalg.matrix_orbit_s.res%d" % res] = (
            timed(_clock(run_query, cli, q), clock), "s")

    gpath = inp.graph("split")
    for minlen, text in ORBIT_MINLEN.items():
        base = raag.parse_tuple(text)
        V = workloads.image_tuple(raag.SPLIT, rng, base, minlen + 2)
        q = workloads.Query("series", [
            "orbit", "--graph", gpath, "--tuple", text,
            "--tuple2", raag.format_tuple(V)], None)
        out["apps.orbit_s.minlen%d" % minlen] = (
            timed(_clock(run_query, cli, q), clock), "s")
    clock.sample()
    scale = clock.scale()
    return {name: (value * scale, unit) for name, (value, unit) in out.items()}
