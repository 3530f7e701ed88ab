import json

import pytest

from raagaut import apps, cli, linalg, peak, whorbit
from raagaut.aut import GenWhitehead, inversion
from raagaut.cli import main
from raagaut.linalg import BlockMatrix, Presentation

GRAPH_SPLIT = '{"vertices": ["a","b","c","d"], "edges": [["a","b"],["c","d"]]}'
GRAPH_F2 = '{"vertices": ["a","b"], "edges": []}'
EXAMPLE_MAT = "2 1 1 1\n1\n0\n2\n"


@pytest.fixture
def files(tmp_path):
    split = tmp_path / "split.json"
    split.write_text(GRAPH_SPLIT)
    f2 = tmp_path / "f2.json"
    f2.write_text(GRAPH_F2)
    mat = tmp_path / "example.mat"
    mat.write_text(EXAMPLE_MAT)
    return {"split": str(split), "f2": str(f2), "example": str(mat),
            "dir": tmp_path}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce(files, capsys):
    code, out, _ = run(["reduce", "--graph", files["f2"],
                        "--word", "a b b^-1"], capsys)
    assert code == 0
    assert out.strip() == "a"


def test_reduce_bad_input(files, capsys):
    code, _, err = run(["reduce", "--graph", files["f2"], "--word", "a z"],
                       capsys)
    assert code == 1
    assert "input error" in err


def test_conj(files, capsys):
    code, out, _ = run(["conj", "--graph", files["f2"], "--word", "a b",
                        "--word2", "b a"], capsys)
    assert code == 0 and "not" not in out
    code, out, _ = run(["conj", "--graph", files["f2"], "--word", "a",
                        "--word2", "b"], capsys)
    assert code == 0 and "not conjugate" in out


def test_matrix_nf_example(files, capsys):
    code, out, _ = run(["matrix-nf", "--matrix", files["example"], "--json"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    assert data["normal_form"].split("\n")[1:] == ["0", "0", "2"]
    assert data["Q"]["B"] == [["-1/2"], ["0"]]


def test_matrix_nf_keeps_columns_of_empty_matrix(files, capsys):
    mat = files["dir"] / "empty.mat"
    mat.write_text("0 0 3 1\n")
    code, out, _ = run(["matrix-nf", "--matrix", str(mat), "--json"],
                       capsys)
    assert code == 0
    assert json.loads(out)["normal_form"] == "0 0 3 1"


def test_matrix_orbit_negative(files, capsys):
    nf = files["dir"] / "nf.mat"
    nf.write_text("2 1 1 1\n0\n0\n2\n")
    code, out, _ = run(["matrix-orbit", "--matrix", files["example"],
                        "--matrix2", str(nf)], capsys)
    assert code == 0
    assert "not equivalent" in out


def test_matrix_stab_counts(files, capsys):
    code, out, _ = run(["matrix-stab", "--matrix", files["example"],
                        "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n_generators"] == 7
    assert data["n_relators"] == 15


def _as_json(value):
    """The emitted data as JSON reads it back: tuples become lists."""
    if isinstance(value, dict):
        return {key: _as_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    return value


def _sorted_keys(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


@pytest.mark.parametrize("command", [
    ["matrix-nf", "--matrix", "{example}"],
    ["matrix-orbit", "--matrix", "{example}", "--matrix2", "{example}"],
    ["matrix-stab", "--matrix", "{example}"],
    ["orbit", "--graph", "{f2}", "--tuple", "a b", "--tuple2", "b a"],
    ["stab-pres", "--graph", "{f2}", "--tuple", "a"],
    ["wh-stab", "--graph", "{split}", "--vertex", "a", "--tuple", "c a c b"],
    ["minimize", "--graph", "{f2}", "--tuple", "a a b"],
])
def test_json_answer_is_one_sorted_line(files, capsys, monkeypatch, command):
    emitted = []
    emit = cli.emit
    monkeypatch.setattr(cli, "emit",
                        lambda args, data, lines: emitted.append(data)
                        or emit(args, data, lines))
    argv = [part.format(**files) for part in command] + ["--json"]
    code, out, _ = run(argv, capsys)
    assert code == 0 and len(emitted) == 1
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out, object_pairs_hook=_sorted_keys) == \
        _as_json(emitted[0])


def test_orbit_identity_certificate(files, capsys):
    code, out, _ = run(["orbit", "--graph", files["f2"], "--tuple", "a",
                        "--tuple2", "a", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True


def test_wh_orbit_running_example(files, capsys):
    code, out, _ = run(["wh-orbit", "--graph", files["split"],
                        "--vertex", "a", "--tuple", "c a c b c b",
                        "--tuple2", "c b c a b c b", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def test_wh_stab(files, capsys):
    code, out, _ = run(["wh-stab", "--graph", files["split"],
                        "--vertex", "a", "--tuple", "c a c b", "--json"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n_generators"] >= 1


def test_peak_reduce_cli(files, capsys, tmp_path):
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps({
        "images": {"a": "a b", "b": "b"},
        "inverse_images": {"a": "a b^-1", "b": "b"}}))
    code, out, _ = run(["peak-reduce", "--graph", files["f2"],
                        "--tuple", "a", "--aut", str(aut), "--json"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    profile = data["profile"]
    assert profile[0] == 1


def test_minimize_cli(files, capsys):
    code, out, _ = run(["minimize", "--graph", files["f2"],
                        "--tuple", "a a b", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["length"] == 1


def test_missing_graph(capsys):
    code, _, err = run(["reduce", "--word", "a"], capsys)
    assert code == 1


def test_missing_file(capsys):
    code, _, err = run(["reduce", "--graph", "/nonexistent.json",
                        "--word", "a"], capsys)
    assert code == 1


def test_budget_exit(files, capsys):
    # the worked example's Schreier component has three vertices; cap below
    nf = files["dir"] / "nf.mat"
    nf.write_text("2 1 1 1\n0\n0\n2\n")
    code, _, err = run(["matrix-orbit", "--matrix", files["example"],
                        "--matrix2", str(nf), "--max-vertices", "1"],
                       capsys)
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("command", ["matrix-orbit", "matrix-stab"])
def test_schreier_budget_counts_component_vertices(files, capsys, command):
    # the worked example's component holds 3 of the 4 residues mod 2
    argv = [command, "--matrix", files["example"], "--matrix2",
            files["example"], "--json", "--max-vertices"]
    code, _, err = run(argv + ["3"], capsys)
    assert code == 0 and err == ""
    code, out, err = run(argv + ["2"], capsys)
    assert code == 2 and out == ""
    assert err == ("budget exhausted: schreier_g1_in_gd vertices 3 > "
                   "budget 2\n")


@pytest.mark.parametrize("command", [["orbit", "--tuple2", "b"],
                                     ["stab-gens"], ["stab-pres"]])
def test_orbit_graph_budget_counts_tuples(files, capsys, command):
    # the orbit graph of F2 [a] is one representative and its four images;
    # the presentation complex is built on it, under the same budget
    argv = command + ["--graph", files["f2"], "--tuple", "a", "--json",
                      "--max-vertices"]
    code, _, err = run(argv + ["4"], capsys)
    assert code == 0 and err == ""
    code, out, err = run(argv + ["3"], capsys)
    assert code == 2 and out == ""
    assert err == "budget exhausted: build_delta tuples 4 > budget 3\n"


def test_stab_gens_cli(files, capsys):
    code, out, _ = run(["stab-gens", "--graph", files["f2"],
                        "--tuple", "a", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) >= 3


def test_stab_pres_cli(files, capsys):
    code, out, _ = run(["stab-pres", "--graph", files["f2"],
                        "--tuple", "a", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n_generators"] >= 1 and data["n_relators"] >= 1


F2_AUT = {"images": {"a": "a b", "b": "b"},
          "inverse_images": {"a": "a b^-1", "b": "b"}}


@pytest.mark.parametrize("bad", ["a z", "b^2 a"])
@pytest.mark.parametrize("command", [
    ["reduce", "--word", "{bad}"],
    ["conj", "--word", "a", "--word2", "{bad}"],
    ["conj", "--word", "{bad}", "--word2", "a"],
    ["orbit", "--tuple", "a", "--tuple2", "b; {bad}"],
    ["wh-stab", "--vertex", "a", "--tuple", "{bad}"],
    ["wh-stab", "--vertex", "a", "--tuple", "b", "--support",
     "{bad_support}"],
    ["peak-reduce", "--tuple", "{bad}", "--aut", "{aut}"],
    ["peak-reduce", "--tuple", "a", "--aut", "{bad_aut}"],
])
def test_bad_letters_are_input_errors(files, capsys, tmp_path, command, bad):
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps(F2_AUT))
    bad_aut = tmp_path / "bad_aut.json"
    bad_aut.write_text(json.dumps(
        {"images": {"a": "a b", "b": bad},
         "inverse_images": F2_AUT["inverse_images"]}))
    argv = [a.format(bad=bad, bad_support=bad.replace(" ", ","), aut=aut,
                     bad_aut=bad_aut) for a in command]
    code, out, err = run(argv + ["--graph", files["f2"], "--json"], capsys)
    assert code == 1
    assert err.startswith("input error: ") and out == ""


@pytest.mark.parametrize("text", ["2 -1 1 1\n5\n", "-1 2 1 1\n5\n",
                                  "1 1 -1 1\n"])
@pytest.mark.parametrize("command", ["matrix-nf", "matrix-orbit",
                                     "matrix-stab"])
def test_negative_matrix_dimensions_are_input_errors(files, capsys, command,
                                                     text):
    mat = files["dir"] / "negative.mat"
    mat.write_text(text)
    code, out, err = run([command, "--matrix", str(mat), "--matrix2",
                          str(mat), "--json"], capsys)
    assert code == 1
    assert err == "input error: matrix file has a negative dimension\n"
    assert out == ""


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
@pytest.mark.parametrize("command", [
    ["orbit", "--graph", "{f2}", "--tuple", "a", "--tuple2", "b",
     "--max-vertices"],
    ["stab-gens", "--graph", "{f2}", "--tuple", "a", "--max-vertices"],
    ["matrix-orbit", "--matrix", "{example}", "--matrix2", "{example}",
     "--max-vertices"],
    ["matrix-stab", "--matrix", "{example}", "--max-vertices"],
])
def test_non_positive_budgets_are_input_errors(files, capsys, command,
                                               value):
    argv = [a.format(**files) for a in command] + [value, "--json"]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("input error: ") and out == ""


def test_usage_errors_are_input_errors(files, capsys, tmp_path):
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps(F2_AUT))
    for argv in (["peak-reduce", "--graph", files["f2"], "--tuple", "a",
                  "--aut", str(aut), "--max-depth", "0"],
                 ["no-such-command", "--graph", files["f2"]],
                 []):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("input error: ") and out == ""
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0


def test_calls_in_one_process_are_independent(files, capsys):
    code, out, _ = run(["reduce", "--graph", files["split"], "--word",
                        "a b a a^-1", "--json"], capsys)
    assert code == 0 and json.loads(out)["reduced"] == "b a"
    # no option of the first call carries over
    code, out, _ = run(["reduce", "--graph", files["f2"], "--word", "b"],
                       capsys)
    assert (code, out) == (0, "b\n")
    code, out, err = run(["reduce", "--graph", files["f2"], "--bogus"],
                         capsys)
    assert code == 1 and out == "" and err.startswith("input error: ")
    code, out, err = run(["conj", "--graph", files["f2"], "--word", "a"],
                         capsys)
    assert (code, out, err) == (1, "", "input error: --word2 is required\n")


@pytest.mark.parametrize("flag,command", [
    ("--max-vertices", ["reduce", "--graph", "{f2}", "--word", "a"]),
    ("--max-vertices", ["conj", "--graph", "{f2}", "--word", "a",
                        "--word2", "b"]),
    ("--max-vertices", ["minimize", "--graph", "{f2}", "--tuple", "a b a"]),
    ("--max-vertices", ["peak-reduce", "--graph", "{f2}", "--tuple", "a",
                        "--aut", "{aut}"]),
    ("--max-vertices", ["matrix-nf", "--matrix", "{example}"]),
    ("--max-depth", ["orbit", "--graph", "{f2}", "--tuple", "a",
                     "--tuple2", "b"]),
    ("--max-depth", ["stab-pres", "--graph", "{f2}", "--tuple", "a"]),
    ("--max-depth", ["matrix-stab", "--matrix", "{example}"]),
])
def test_budget_flags_outside_their_searches_are_input_errors(
        files, capsys, tmp_path, flag, command):
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps(F2_AUT))
    argv = [a.format(aut=aut, **files) for a in command]
    code, out, err = run(argv + [flag, "1", "--json"], capsys)
    assert code == 1 and out == ""
    assert err == "input error: %s does not apply to %s\n" % (flag,
                                                               argv[0])
    # without the flag the same query answers
    code, out, err = run(argv + ["--json"], capsys)
    assert code == 0 and err == ""


def flipped(x):
    """x followed by the inversion of every generator (for a block matrix,
    minus the identity), so a certificate built from it is wrong."""
    if isinstance(x, BlockMatrix):
        minus = [[-int(i == j) for j in range(x.n)] for i in range(x.n)]
        return BlockMatrix(x.n, x.k, minus,
                           [[0] * x.k for _ in range(x.n)]).mul(x)
    if isinstance(x, GenWhitehead):
        return GenWhitehead(flipped(x.aut), x.vertex)
    for v in x.graph.vertices:
        x = inversion(x.graph, v).compose(x)
    return x


def flip_result(fn):
    return lambda *args, **kwargs: flipped(fn(*args, **kwargs))


def flip_loops(fn):
    def wrong(self, base, letter, mul, inv, identity):
        parent, loops = fn(self, base, letter, mul, inv, identity)
        return parent, [(idx, flipped(elem)) for idx, elem in loops]
    return wrong


def flip_first_generator(fn):
    def wrong(*args, **kwargs):
        pres = fn(*args, **kwargs)
        (name, x), *rest = pres.generators
        return Presentation([(name, flipped(x))] + rest, pres.relators)
    return wrong


def add_false_relator(pres_cls):
    def wrong(gens, relators):
        name = next(nm for nm, x in gens if not x.is_identity())
        return pres_cls(gens, list(relators) + [((name, 1),)])
    return wrong


def append_inversion(fn):
    def wrong(g, factors, base, lower, budget=None):
        fac = fn(g, factors, base, lower, budget)
        fac.factors.append(GenWhitehead(inversion(g, g.vertices[0]),
                                        g.vertices[0]))
        return fac
    return wrong


@pytest.mark.parametrize("command,module,name,wrong,message", [
    (["orbit", "--graph", "{f2}", "--tuple", "a b b", "--tuple2", "b a"],
     apps.OrbitGraph, "path_element", flip_result,
     "orbit witness does not map U to V"),
    (["minimize", "--graph", "{f2}", "--tuple", "a a b"],
     apps, "identity_automorphism", flip_result,
     "minimizer does not map to the minimum"),
    (["stab-gens", "--graph", "{f2}", "--tuple", "a"],
     apps.OrbitGraph, "schreier_generators", flip_loops,
     "stabilizer generator moves W"),
    (["stab-pres", "--graph", "{f2}", "--tuple", "a"],
     apps, "Presentation", add_false_relator,
     "relator is not the identity"),
    (["wh-orbit", "--graph", "{split}", "--vertex", "a", "--tuple",
      "c a c b c b", "--tuple2", "c b c a b c b"],
     whorbit, "theta", flip_result, "orbit witness does not map U to V"),
    (["wh-stab", "--graph", "{split}", "--vertex", "a", "--tuple",
      "c a c b"],
     whorbit, "presentation_from_finite_index", flip_first_generator,
     "stabilizer generator moves U"),
    (["peak-reduce", "--graph", "{f2}", "--tuple", "a", "--aut", "{aut}"],
     peak, "rewrite_loop", append_inversion,
     "peak reduction changed the automorphism"),
    (["matrix-orbit", "--matrix", "{example}", "--matrix2", "{example}"],
     linalg, "_lift_block", flip_result,
     "orbit witness does not map A to B"),
])
def test_wrong_certificates_stop_the_command(files, capsys, monkeypatch,
                                             command, module, name, wrong,
                                             message):
    """Each command's certificate is checked by the library function that
    builds it: a wrong one raises that check's error from ``main``, which
    prints nothing and returns no exit code."""
    aut = files["dir"] / "aut.json"
    aut.write_text(json.dumps(F2_AUT))
    argv = [a.format(aut=aut, **files) for a in command]
    code, _, err = run(argv + ["--json"], capsys)
    assert code == 0 and err == ""
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    with pytest.raises(AssertionError, match=message):
        main(argv + ["--json"])
    assert capsys.readouterr().out == ""
