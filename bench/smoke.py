"""Fast self-check of the benchmark (``run.py --smoke``).

For every workload it runs a handful of queries untraced and traced and
checks three things: the end-to-end and per-layer metrics computed from
them carry exactly the names and units that ``BENCHMARK.json`` lists, the
workload's ``why`` there states its round size and tail percentile, and
the answer checks reject a deliberately corrupted certificate.  The
scaling series are not run (they take most of a traced run); their names
come from ``series``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil

import run
import series
import tracing
import workloads

PER_QUERY = 2   # queries kept per label


def _series_names():
    names = ["core.canonical_class_s.len%d" % n for n in series.CANON_LENGTHS]
    names += ["peak.peak_reduce_s.factors%d" % n for n in series.PEAK_FACTORS]
    names += ["linalg.matrix_orbit_s.res%d" % n
              for n in series.MATRIX_RESIDUES]
    names += ["apps.orbit_s.minlen%d" % n for n in series.ORBIT_MINLEN]
    return names


def _handful(queries):
    seen = {}
    out = []
    for q in queries:
        if seen.get(q.label, 0) < PER_QUERY and "readme" not in q.label \
                and "profile" not in q.label:
            seen[q.label] = seen.get(q.label, 0) + 1
            out.append(q)
    return out


def _corrupt_image(aut):
    v = sorted(aut["images"])[0]
    aut["images"][v] = (aut["images"][v] + " " + v).strip()


def corrupt(data):
    """A copy of an accepted answer with its certificate broken, or None
    when the answer carries no certificate to break."""
    data = copy.deepcopy(data)
    if data.get("equivalent") is True and "automorphism" in data:
        _corrupt_image(data["automorphism"])
    elif data.get("equivalent") is True and "witness" in data:
        data["witness"]["A"][0][0] += 2
    elif "conjugate" in data:
        data["conjugate"] = not data["conjugate"]
    elif "minimal" in data:
        _corrupt_image(data["automorphism"])
    elif data.get("factors"):
        _corrupt_image(data["factors"][0])
    elif data.get("generator_images"):
        _corrupt_image(data["generator_images"][data["generators"][0]])
    elif data.get("generator_matrices"):
        M = data["generator_matrices"][data["generators"][0]]
        M["A"][0][0] += 2
    elif data.get("generators") and isinstance(data["generators"][0], dict):
        _corrupt_image(data["generators"][0])
    elif "Q" in data:
        data["Q"]["A"][0][0] += 2
    elif "n_relators" in data:
        data["n_relators"] += 1
    else:
        return None
    return data


def check_workload(workload, seed, expected):
    workdir = run.workdir_for(workload, seed) + "-smoke"
    problems = []
    try:
        cli, queries, setup_s = run.setup(workload, seed, workdir)
        why = {w["name"]: w["why"] for w in expected["workloads"]}[workload]
        stated = ("%d queries per round; closed loop, 1 client; "
                  "tail = p%.1f" % (len(queries),
                                    run.tail_tenths(len(queries)) / 10))
        if not why.endswith(stated):
            problems.append("%s: BENCHMARK.json does not state %r"
                            % (workload, stated))
        queries = _handful(queries)
        outcomes, _ = run.run_round(cli, queries)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced, _ = run.run_round(cli, queries, tr)
        finally:
            tr.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kinds, _ = run.classify(outcomes)
    values = run.end_to_end(outcomes, kinds, setup_s, len(queries))
    e2e = {name: (values[name], unit)
           for name, unit in run.END_TO_END.items()}
    layer = run.per_layer(tr, kinds, 1.0, 1.0)
    layer.update({name: (1.0, "s") for name in _series_names()})
    for section, metrics in (("end_to_end", e2e), ("per_layer", layer)):
        got = {name: unit for name, (_, unit) in metrics.items()}
        want = {m["name"]: m["unit"] for m in expected[section]}
        if got != want:
            problems.append("%s %s metrics differ from BENCHMARK.json: %s"
                            % (workload, section,
                               sorted(set(got.items()) ^ set(want.items()))))
    if run.classify(traced)[0] != kinds:
        problems.append("%s: traced answers differ" % workload)
    broken = 0
    for o, kind in zip(outcomes, kinds):
        if kind is not None:
            continue
        bad = corrupt(json.loads(o.out))
        if bad is None:
            continue
        broken += 1
        if o.query.check(bad, {}) is None:
            problems.append("%s: corrupted %s answer was accepted"
                            % (workload, o.query.label))
    if not broken:
        problems.append("%s: no certificate to corrupt" % workload)
    print("smoke %-13s %d queries, %d corrupted certificates, %s" % (
        workload, len(queries), broken,
        "ok" if not problems else "%d problems" % len(problems)))
    return problems


def run_smoke(seed):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        expected = json.load(fh)
    problems = []
    for workload in workloads.WORKLOADS:
        problems += check_workload(workload, seed, expected)
    for p in problems:
        print("  " + p)
    return 1 if problems else 0

