"""Command line interface.

Every positive answer ships a machine-checkable certificate, checked once
by the library function that builds it before it is printed; exit code 0
means the question was decided (either way), 1 is an input error, 2 a
budget exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .apps import (aut_orbit_decide, minimize_tuple, stabilizer_generators,
                   stabilizer_presentation)
from .aut import Automorphism
from .core import (DefiningGraph, canonical_class, format_word, parse_tuple,
                   parse_word, reduce_word)
from .errors import BudgetError, InputError
from .exactmat import mat_eq
from .linalg import (BlockMatrix, g1_orbit_decide, g1_stabilizer_presentation,
                     gq_normal_form, is_normal_form, target_lcd)
from .peak import omega_factorization, peak_reduce
from .whorbit import parse_support, wh_orbit_decide, wh_stabilizer_presentation

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2


def load_matrix(path):
    """Plain text: first line `n k m d`, then n+k rows of m integers; the
    entries denote value/d, and stay ints when d is 1."""
    with open(path) as fh:
        toks = fh.read().split()
    try:
        n, k, m, d = (int(x) for x in toks[:4])
        vals = [int(x) for x in toks[4:]]
    except ValueError as exc:
        raise InputError("bad matrix file: %s" % exc)
    if min(n, k, m) < 0:
        raise InputError("matrix file has a negative dimension")
    if d <= 0 or len(vals) != (n + k) * m:
        raise InputError("matrix file has the wrong number of entries")
    if d != 1:
        vals = [Fraction(v, d) for v in vals]
    rows = [vals[i * m:(i + 1) * m] for i in range(n + k)]
    return rows, n, k, m, d


def format_matrix(rows, n, k, m, d=None):
    if d is None:
        d = target_lcd(rows)
    lines = ["%d %d %d %d" % (n, k, m, d)]
    for row in rows:
        ints = []
        for x in row:
            v = Fraction(x) * d
            if v.denominator != 1:
                raise InputError("denominator does not divide all entries")
            ints.append(str(int(v)))
        lines.append(" ".join(ints))
    return "\n".join(lines)


def block_to_json(D: BlockMatrix):
    return {"n": D.n, "k": D.k, "A": [list(r) for r in D.A],
            "B": [[str(x) for x in r] for r in D.B]}


def presentation_report(pres):
    return {"generators": [name for name, _ in pres.generators],
            "n_generators": len(pres.generators),
            "n_relators": len(pres.relators),
            "relators": [["%s^%d" % (nm, s) for nm, s in rel]
                         for rel in pres.relators]}


def emit(args, data, text_lines):
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


class ArgumentParser(argparse.ArgumentParser):
    """A usage error is an input error (exit 1), not argparse's exit 2,
    which is the budget code."""

    def error(self, message):
        raise InputError(message)


def positive_int(text):
    """The type of the budget options: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return value


@functools.cache
def build_parser():
    """The one parser of the process: ``parse_args`` keeps no state between
    calls, so it is built on the first call and reused."""
    ap = ArgumentParser(
        prog="raagaut",
        description="Automorphism orbits, peak reduction and stabilizer "
                    "presentations for right-angled Artin groups.")
    ap.add_argument("command", choices=[
        "reduce", "conj", "orbit", "minimize", "stab-gens", "stab-pres",
        "wh-orbit", "wh-stab", "peak-reduce", "matrix-nf", "matrix-orbit",
        "matrix-stab"])
    ap.add_argument("--graph", help="graph JSON file")
    ap.add_argument("--tuple", dest="tuple1",
                    help="semicolon-separated words, e.g. 'a b; c'")
    ap.add_argument("--tuple2", help="second tuple of words")
    ap.add_argument("--word", help="single word (for reduce/conj)")
    ap.add_argument("--word2", help="second word (for conj)")
    ap.add_argument("--aut", help="automorphism JSON file")
    ap.add_argument("--matrix", help="matrix file (n k m d header)")
    ap.add_argument("--matrix2", help="second matrix file")
    ap.add_argument("--vertex", help="multiplier vertex")
    ap.add_argument("--support", default="",
                    help="comma-separated letters, e.g. 'c,c^-1'")
    ap.add_argument("--max-vertices", type=positive_int, default=None,
                    help="Schreier graph vertex budget; orbit graph "
                         "tuple budget")
    ap.add_argument("--max-depth", type=positive_int, default=None,
                    help="search budget for peak reduction")
    ap.add_argument("--json", action="store_true", help="JSON output")
    return ap


# The commands whose searches read each budget flag; elsewhere the flag is
# an input error rather than a silent no-op.
BUDGET_FLAGS = (
    ("max_vertices", "--max-vertices",
     ("orbit", "stab-gens", "stab-pres", "wh-orbit", "wh-stab",
      "matrix-orbit", "matrix-stab")),
    ("max_depth", "--max-depth", ("peak-reduce",)),
)


def check_budget_flags(args):
    for attr, flag, commands in BUDGET_FLAGS:
        if getattr(args, attr) is not None and args.command not in commands:
            raise InputError("%s does not apply to %s" % (flag, args.command))


def need_graph(args):
    if not args.graph:
        raise InputError("--graph is required")
    return DefiningGraph.load(args.graph)


def need(args, attr, flag):
    val = getattr(args, attr)
    if val is None:
        raise InputError("%s is required" % flag)
    return val


def need_word(args, g, attr, flag):
    w = parse_word(need(args, attr, flag))
    g.check_letters(w)
    return w


def cmd_reduce(args):
    g = need_graph(args)
    w = need_word(args, g, "word", "--word")
    red = reduce_word(g, w)
    emit(args, {"reduced": format_word(red), "length": len(red)},
         [format_word(red) or "1"])
    return EXIT_OK


def cmd_conj(args):
    g = need_graph(args)
    w1 = need_word(args, g, "word", "--word")
    w2 = need_word(args, g, "word2", "--word2")
    c1 = canonical_class(g, w1)
    c2 = canonical_class(g, w2)
    ans = c1 == c2
    emit(args, {"conjugate": ans, "canonical1": format_word(c1.word),
                "canonical2": format_word(c2.word)},
         ["conjugate" if ans else "not conjugate"])
    return EXIT_OK


def cmd_orbit(args):
    g = need_graph(args)
    U = parse_tuple(g, need(args, "tuple1", "--tuple"))
    V = parse_tuple(g, need(args, "tuple2", "--tuple2"))
    alpha = aut_orbit_decide(g, U, V, max_vertices=args.max_vertices)
    if alpha is None:
        emit(args, {"equivalent": False}, ["not in the same orbit"])
        return EXIT_OK
    emit(args, {"equivalent": True, "automorphism": alpha.to_json()},
         ["equivalent via:", json.dumps(alpha.to_json())])
    return EXIT_OK


def cmd_minimize(args):
    g = need_graph(args)
    U = parse_tuple(g, need(args, "tuple1", "--tuple"))
    m, mu = minimize_tuple(g, U)
    emit(args, {"minimal": [format_word(c.word) for c in m.entries],
                "length": m.length, "automorphism": mu.to_json()},
         ["minimal tuple: " + "; ".join(format_word(c.word) or "1"
                                        for c in m.entries),
          "length %d" % m.length,
          "via: " + json.dumps(mu.to_json())])
    return EXIT_OK


def cmd_stab_gens(args):
    g = need_graph(args)
    W = parse_tuple(g, need(args, "tuple1", "--tuple"))
    gens = stabilizer_generators(g, W, max_vertices=args.max_vertices)
    emit(args, {"generators": [x.to_json() for x in gens]},
         ["%d generators" % len(gens)] +
         [json.dumps(x.to_json()) for x in gens])
    return EXIT_OK


def cmd_stab_pres(args):
    g = need_graph(args)
    W = parse_tuple(g, need(args, "tuple1", "--tuple"))
    pres = stabilizer_presentation(g, W, max_vertices=args.max_vertices)
    data = presentation_report(pres)
    emit(args, data, ["%d generators, %d relators"
                      % (data["n_generators"], data["n_relators"])])
    return EXIT_OK


def cmd_wh_orbit(args):
    g = need_graph(args)
    a = need(args, "vertex", "--vertex")
    if a not in g.index:
        raise InputError("unknown vertex %r" % a)
    S = parse_support(g, args.support)
    U = parse_tuple(g, need(args, "tuple1", "--tuple"))
    V = parse_tuple(g, need(args, "tuple2", "--tuple2"))
    wh = wh_orbit_decide(g, a, S, U, V, max_vertices=args.max_vertices)
    if wh is None:
        emit(args, {"equivalent": False}, ["no such element"])
        return EXIT_OK
    emit(args, {"equivalent": True, "automorphism": wh.aut.to_json()},
         ["equivalent via:", json.dumps(wh.aut.to_json())])
    return EXIT_OK


def cmd_wh_stab(args):
    g = need_graph(args)
    a = need(args, "vertex", "--vertex")
    if a not in g.index:
        raise InputError("unknown vertex %r" % a)
    S = parse_support(g, args.support)
    U = parse_tuple(g, need(args, "tuple1", "--tuple"))
    pres, _ = wh_stabilizer_presentation(g, a, S, U,
                                         max_vertices=args.max_vertices)
    data = presentation_report(pres)
    data["generator_images"] = {nm: wh.aut.to_json()
                                for nm, wh in pres.generators}
    emit(args, data, ["%d generators, %d relators"
                      % (data["n_generators"], data["n_relators"])])
    return EXIT_OK


def cmd_peak_reduce(args):
    g = need_graph(args)
    W = parse_tuple(g, need(args, "tuple1", "--tuple"))
    aut = Automorphism.load(g, need(args, "aut", "--aut"))
    factors = omega_factorization(g, aut)
    fac = peak_reduce(g, factors, W, budget=args.max_depth)
    data = fac.to_json()
    emit(args, data, ["profile: %s" % (fac.profile,),
                      "%d factors" % len(fac.factors)])
    return EXIT_OK


def cmd_matrix_nf(args):
    rows, n, k, m, d = load_matrix(need(args, "matrix", "--matrix"))
    N, Q = gq_normal_form(rows, n, k)
    if not mat_eq(Q.act(rows), N) or not is_normal_form(N, n, k):
        raise AssertionError("certificate failed re-verification")
    emit(args, {"normal_form": format_matrix(N, n, k, m),
                "Q": block_to_json(Q)},
         ["normal form:", format_matrix(N, n, k, m), "Q:",
          json.dumps(block_to_json(Q))])
    return EXIT_OK


def cmd_matrix_orbit(args):
    rows_a, n, k, m, d = load_matrix(need(args, "matrix", "--matrix"))
    rows_b, n2, k2, m2, d2 = load_matrix(need(args, "matrix2", "--matrix2"))
    if (n, k, m) != (n2, k2, m2):
        raise InputError("matrix shapes differ")
    if d != 1 or d2 != 1:
        raise InputError("orbit decision expects integer matrices")
    S = parse_support_columns(args, k)
    cert = g1_orbit_decide(rows_a, rows_b, n, k, S,
                           max_vertices=args.max_vertices)
    if cert.witness is None:
        emit(args, {"equivalent": False, "reason": cert.reason},
             ["not equivalent (%s)" % cert.reason])
        return EXIT_OK
    D = cert.witness
    emit(args, {"equivalent": True, "witness": block_to_json(D)},
         ["equivalent via:", json.dumps(block_to_json(D))])
    return EXIT_OK


def parse_support_columns(args, k):
    if not args.support:
        return frozenset()
    try:
        cols = frozenset(int(x) for x in args.support.split(","))
    except ValueError:
        raise InputError("matrix support restriction must be column "
                         "indices")
    if any(c < 0 or c >= k for c in cols):
        raise InputError("support column out of range")
    return cols


def cmd_matrix_stab(args):
    rows, n, k, m, d = load_matrix(need(args, "matrix", "--matrix"))
    if d != 1:
        raise InputError("stabilizer presentation expects an integer "
                         "matrix")
    S = parse_support_columns(args, k)
    pres, _ = g1_stabilizer_presentation(rows, n, k, S,
                                         max_vertices=args.max_vertices)
    pres.check_relators(BlockMatrix.mul, BlockMatrix.inv,
                        BlockMatrix.identity(n, k))
    data = presentation_report(pres)
    data["generator_matrices"] = {nm: block_to_json(p)
                                  for nm, p in pres.generators}
    emit(args, data, ["%d generators, %d relators"
                      % (data["n_generators"], data["n_relators"])])
    return EXIT_OK


COMMANDS = {
    "reduce": cmd_reduce,
    "conj": cmd_conj,
    "orbit": cmd_orbit,
    "minimize": cmd_minimize,
    "stab-gens": cmd_stab_gens,
    "stab-pres": cmd_stab_pres,
    "wh-orbit": cmd_wh_orbit,
    "wh-stab": cmd_wh_stab,
    "peak-reduce": cmd_peak_reduce,
    "matrix-nf": cmd_matrix_nf,
    "matrix-orbit": cmd_matrix_orbit,
    "matrix-stab": cmd_matrix_stab,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        check_budget_flags(args)
        return COMMANDS[args.command](args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
