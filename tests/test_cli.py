from __future__ import annotations

import io
import json
import time

import pytest

from slamlog.cli import main
from slamlog.datalog import canonical_program, render_program
from slamlog.fixtures import (
    directed_cycle,
    non_caterpillar_example,
    path,
    transitive_tournament,
    unfolding_tree,
    weak_rules_template,
)
from slamlog.structures import make_structure, parse_structure, render_structure


@pytest.fixture
def files(tmp_path):
    out = {}
    named = {
        "p2": path(2),
        "p3": path(3),
        "t3": transitive_tournament(3),
        "c2": directed_cycle(2),
        "c3": directed_cycle(3),
        "edge": make_structure("A", (("E", 2),), 2, {"E": {(0, 1)}}),
        "tree": unfolding_tree(),
        "noncat": non_caterpillar_example(),
    }
    for name, s in named.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(render_structure(s))
        out[name] = str(p)
    out["dir"] = tmp_path
    return out


def test_classify_emits_json(files, capsys):
    assert main(["classify", files["p2"], "--no-timing"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["verdicts"]["slam"]["value"] == "yes"
    assert "timing_ms" not in blob


def test_solve_exit_codes(files, capsys):
    assert main(["solve", files["p2"], files["edge"]]) == 0
    assert "satisfiable" in capsys.readouterr().out
    assert main(["solve", files["p2"], files["c3"]]) == 1
    assert "unsatisfiable" in capsys.readouterr().out
    assert main(["solve", files["t3"], files["c3"]]) == 2
    assert "slam verdict is no" in capsys.readouterr().err


def test_classify_and_solve_refuse_an_empty_template(files, capsys):
    empty = files["dir"] / "empty.txt"
    empty.write_text(render_structure(make_structure("Empty", (("E", 2),),
                                                     0, {})))
    for argv in (["classify", str(empty)], ["solve", str(empty),
                                            files["edge"]]):
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "error: template Empty has an empty domain\n"


def test_solve_search_engine_handles_non_slam_templates(files, capsys):
    assert main(["solve", files["t3"], files["c3"], "--engine", "search"]) == 1
    assert main(["solve", files["t3"], files["edge"], "--engine", "search"]) == 0
    capsys.readouterr()


def test_solve_json_includes_derivation(files, capsys):
    assert main(["solve", files["p2"], files["c3"], "--json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["satisfiable"] is False
    assert blob["derivation"][-1]["fact"] == ["goal", []]


def test_hom_prints_map(files, capsys):
    assert main(["hom", files["c3"], files["c3"]]) == 0
    out = capsys.readouterr().out
    assert "0 -> " in out
    assert main(["hom", files["c2"], files["c3"]]) == 1
    assert "no homomorphism" in capsys.readouterr().out


def test_core_map_output(files, capsys):
    union = make_structure("A", (("E", 2),), 3, {"E": {(0, 1), (2, 2)}})
    p = files["dir"] / "union.txt"
    p.write_text(render_structure(union))
    assert main(["core", str(p), "--map"]) == 0
    out = capsys.readouterr().out
    core = parse_structure("".join(
        line + "\n" for line in out.splitlines() if not line.startswith("#")
    ))
    assert core.size == 1
    assert any(line.startswith("# retract") for line in out.splitlines())


def test_canon_fragments(files, capsys):
    assert main(["canon", files["p2"], "--fragment", "slam"]) == 0
    out = capsys.readouterr().out
    assert out == render_program(canonical_program(path(2), "slam"))


def test_canon_am_over_the_stream_cap_exits_2_before_building(files,
                                                              capsys):
    start = time.perf_counter()
    assert main(["canon", files["noncat"], "--fragment", "am"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3557568 candidate rules" in captured.err


def test_canon_refuses_non_slam_template(files, capsys):
    assert main(["canon", files["t3"], "--fragment", "slam"]) == 0
    out = capsys.readouterr().out
    assert out == render_program(canonical_program(transitive_tournament(3),
                                                   "slam"))


def test_eval_pipes_program_from_stdin(files, capsys, monkeypatch):
    program = render_program(canonical_program(path(2), "slam"))
    monkeypatch.setattr("sys.stdin", io.StringIO(program))
    assert main(["eval", "-", files["c3"]]) == 0
    assert "goal derived" in capsys.readouterr().out


def test_eval_json_reports_goal(files, capsys, monkeypatch):
    program = render_program(canonical_program(path(2), "slam"))
    monkeypatch.setattr("sys.stdin", io.StringIO(program))
    assert main(["eval", "-", files["c3"], "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["goal"] is True
    assert blob["facts"]


def test_eval_of_piped_slam_text_derives_as_solve(files, capsys,
                                                  monkeypatch):
    # the parsed program runs from tables compiled from its rules, the
    # emitted one from its template's blocks: same derivation either way
    assert main(["solve", files["p2"], files["c3"], "--json"]) == 1
    solved = json.loads(capsys.readouterr().out)
    program = render_program(canonical_program(path(2), "slam"))
    monkeypatch.setattr("sys.stdin", io.StringIO(program))
    assert main(["eval", "-", files["c3"], "--json"]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert evaluated["goal"] is True
    assert evaluated["derivation"] == solved["derivation"]


def test_unfold_round_trip(files, capsys):
    assert main(["unfold", files["tree"], "2", "5"]) == 0
    out = capsys.readouterr().out
    assert parse_structure(out).size == 13


def test_unfold_errors_exit_2(files, capsys):
    assert main(["unfold", files["tree"], "0", "3"]) == 2
    assert "leaf" in capsys.readouterr().err


def test_gadget_power_and_apply(files, capsys, tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "ppower d=1 from E/2\nrel E/2 := exists z1 . E(x1,z1), E(z1,x2)\n")
    assert main(["gadget", "power", str(spec), files["p3"]]) == 0
    power = parse_structure(capsys.readouterr().out)
    assert sorted(power.rel("E")) == [(0, 2)]
    assert main(["gadget", "apply", str(spec), files["edge"]]) == 0
    red = parse_structure(capsys.readouterr().out)
    assert red.size == 3


def test_verify_duality(files, capsys):
    assert main(["verify", "duality", files["p2"], files["p3"], "--size", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["holds"] is True
    assert main(["verify", "duality", files["p2"], files["c3"], "--size", "2"]) == 1
    capsys.readouterr()


def test_verify_solves(files, capsys, tmp_path):
    prog = tmp_path / "prog.txt"
    prog.write_text(render_program(canonical_program(path(2), "slam")))
    assert main(["verify", "solves", str(prog), files["p2"], "--size", "3",
                 "--jobs", "2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["holds"] is True and blob["checked"] == 531


def test_verify_reports_labeled_instances_and_classes(files, capsys):
    assert main(["verify", "duality", files["p2"], files["p3"],
                 "--size", "4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert (blob["checked"], blob["classes"]) == (4627, 335)


def test_verify_over_the_stream_cap_exits_2(files, capsys):
    # loopless digraphs on 6 vertices: 2^30 labeled instances
    assert main(["verify", "duality", files["p2"], files["p3"],
                 "--size", "6"]) == 2
    assert "stream cap" in capsys.readouterr().err


def test_verify_with_a_negative_size_exits_2(files, capsys):
    assert main(["verify", "duality", files["p2"], files["p3"],
                 "--size", "-1"]) == 2
    assert "negative size cap" in capsys.readouterr().err


def test_missing_file_is_a_clean_error(files, capsys):
    assert main(["classify", str(files["dir"] / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_structure_text_is_a_clean_error(files, capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("structure X\ndomain two\n")
    assert main(["hom", str(bad), files["p2"]]) == 2
    assert "error:" in capsys.readouterr().err


def test_internal_error_exits_2_not_1(files, capsys, monkeypatch):
    def broken(a, b):
        raise RuntimeError("solver defect")
    monkeypatch.setattr("slamlog.cli.find_homomorphism", broken)
    assert main(["solve", files["t3"], files["edge"], "--engine", "search"]) == 2
    err = capsys.readouterr().err
    assert err == "error: internal: RuntimeError: solver defect\n"


def test_solve_ac_engine_json(files, capsys):
    assert main(["solve", files["p2"], files["edge"], "--engine", "ac",
                 "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["engine"] == "ac" and blob["satisfiable"] is True
    assert blob["note"].startswith("arc consistency refutes")
    assert main(["solve", files["p2"], files["p3"], "--engine", "ac",
                 "--json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["satisfiable"] is False


def test_classify_echoes_its_caps_and_names_the_swept_pairs(files, capsys):
    weak = files["dir"] / "weak.txt"
    weak.write_text(render_structure(weak_rules_template()))
    assert main(["classify", str(weak), "--no-timing", "--cap-stream", "4096",
                 "--max-kn", "2", "2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["caps"]["stream_cap"] == 4096
    assert (blob["caps"]["max_k"], blob["caps"]["max_n"]) == (2, 2)
    assert blob["verdicts"]["caterpillar_lam"]["value"] == "inconclusive"
    assert blob["witnesses"]["caterpillar_lam"] == {
        "kind": "cap", "checked": [[1, 1], [1, 2], [2, 1], [2, 2]],
        "skipped": []}


def test_classify_dense_cap_leaves_quasi_maltsev_inconclusive(files, capsys):
    assert main(["classify", files["p3"], "--no-timing",
                 "--cap-dense", "8"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["caps"]["dense_cap"] == 8
    qm = blob["verdicts"]["quasi_maltsev"]
    assert qm["value"] == "inconclusive" and "dense cap 8" in qm["detail"]


def test_stdin_serves_one_argument_only(files, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(render_structure(path(2))))
    assert main(["hom", "-", "-"]) == 2
    assert capsys.readouterr().err == \
        "error: stdin can be used for at most one argument\n"


@pytest.mark.parametrize("flags", [["--cap-stream", "-5"],
                                   ["--cap-dense", "-1"],
                                   ["--max-kn", "-1", "2"]])
def test_classify_with_a_negative_cap_exits_2(files, capsys, flags):
    assert main(["classify", files["p2"], *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "negative" in captured.err


UNARY = "structure U\ndomain 1\nrel U 1\n0\nend\nend\n"
SPEC = "ppower d=1 from E/2\nrel E/2 := E(x1,x2)\n"


# Each case: the arguments, with {t0}, {t1} standing for files holding the
# texts and {p2}, {edge} for fixture files, then a fragment of the message.
@pytest.mark.parametrize("argv,texts,fragment", [
    (["hom", "{t0}", "{p2}"], ["domain 2\nend\n"], "expected 'structure'"),
    (["hom", "{t0}", "{p2}"], ["structureX\ndomain 1\nend\n"],
     "expected 'structure'"),
    (["hom", "{t0}", "{p2}"], ["structures foo\ndomain 1\nend\n"],
     "expected 'structure'"),
    (["hom", "{t0}", "{p2}"], ["structure A\nrel E 2\nend\nend\n"],
     "expected 'domain <n>'"),
    (["hom", "{t0}", "{p2}"], ["structure A\ndomain 3 junk\nend\n"],
     "expected 'domain <n>'"),
    (["hom", "{t0}", "{p2}"], ["structure A\ndomain 2\nrel E two\nend\nend\n"],
     "bad arity"),
    (["hom", "{t0}", "{p2}"], ["structure A\ndomain 2\nrel E 2\n0 x\nend\nend\n"],
     "bad tuple"),
    (["hom", "{t0}", "{p2}"], ["structure A\ndomain 2\nend\nend\n"],
     "trailing content"),
    (["hom", "{t0}", "{p2}"], ["structure A\ndomain -1\nend\n"],
     "negative domain size"),
    (["hom", "{t0}", "{p2}"], ["structure A\ndomain 1\nrel E 0\nend\nend\n"],
     "symbol E has arity 0 < 1"),
    (["eval", "{t0}", "{edge}"], ["P(x) :- E(x,y)\n"], "must end with '.'"),
    (["eval", "{t0}", "{edge}"], ["P(x) E(x,y).\n"], "missing ':-'"),
    (["eval", "{t0}", "{edge}"], ["P(x) :- E(x,1y).\n"], "bad variable '1y'"),
    (["eval", "{t0}", "{edge}"], ["P(x) :- E(x,y), (Q(x).\n"],
     "unbalanced '('"),
    (["eval", "{t0}", "{edge}"], ["P(x) :- E(x,y), goal.\n"],
     "goal cannot occur in a body"),
    (["eval", "{t0}", "{edge}"], ["P(x) :- E(x).\n"],
     "'E' expects 2 arguments, got 1"),
    (["gadget", "apply", "{t0}", "{edge}"], ["# nothing\n"],
     "empty specification"),
    (["gadget", "apply", "{t0}", "{edge}"],
     ["ppower d=1 from E2\nrel E/2 := E(x1,x2)\n"], "bad signature entry"),
    (["gadget", "apply", "{t0}", "{edge}"],
     ["ppower d=1 from E/2,E/2\nrel E/2 := E(x1,x2)\n"], "duplicate symbols"),
    (["gadget", "apply", "{t0}", "{edge}"],
     ["ppower d=1 from E/2\nrel E/2 := exists 1z . E(x1,x2)\n"],
     "bad bound variable"),
    (["gadget", "apply", "{t0}", "{edge}"],
     ["ppower d=1 from E/2\nrel E/2 := E(x1,x2), , E(x2,x1)\n"],
     "empty conjunct"),
    (["gadget", "apply", "{t0}", "{edge}"],
     ["ppower d=1 from E/2\nrel E/2 := E(x1,x2), x1 < x2\n"], "bad conjunct"),
    (["gadget", "apply", "{t0}", "{t1}"], [SPEC, UNARY],
     "instance does not match the target signature"),
    (["gadget", "power", "{t0}", "{t1}"], [SPEC, UNARY],
     "structure does not match the source signature"),
    (["verify", "duality", "{p2}", "{t0}", "--size", "2"], [UNARY],
     "obstruction signature mismatch"),
])
def test_malformed_input_exits_2_with_one_error_line(files, capsys, tmp_path,
                                                     argv, texts, fragment):
    paths = dict(files)
    for i, text in enumerate(texts):
        paths[f"t{i}"] = tmp_path / f"t{i}.txt"
        paths[f"t{i}"].write_text(text)
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and fragment in line, line
