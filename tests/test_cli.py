"""End-to-end command line behaviour, run in process."""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from hornalg.cli import EXHAUSTED, INPUT_ERROR, NOT_VERIFIED, OK, USAGE_ERROR, main


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_compose_bridge():
    code, out, _ = run("compose", "corpus:q1", "corpus:pluslist")
    assert code == OK
    assert out == "plus(0,A,A).\nplus(s(A),B,s(C)) :- plus(A,B,C).\n"


def test_compose_json():
    code, out, _ = run("compose", "corpus:q1", "corpus:pluslist", "--format", "json")
    assert code == OK
    assert json.loads(out) == {
        "program": ["plus(0,A,A).", "plus(s(A),B,s(C)) :- plus(A,B,C)."]
    }


def test_compose_folds_left():
    code, out, _ = run("compose", "corpus:member_q", "corpus:pluslist", "corpus:member_s")
    assert code == OK
    assert out.splitlines() == ["member(A,[A|B]).", "member(A,[B|C]) :- member(A,C)."]


def test_concat_ground_triple():
    code, out, _ = run("concat", "corpus:ground_p0", "corpus:ground_ps0", "corpus:ground_ps0")
    assert code == OK
    assert out.strip() == "plus(0,s(0),s(0))."


def test_reverse_round_trip():
    code, out, _ = run("reverse", "corpus:q1")
    assert code == OK
    code2, out2, _ = run("reverse", "corpus:q1rev")
    assert code2 == OK
    assert out != out2


def test_lm_counts_atoms_at_depth():
    code, out, _ = run("lm", "corpus:nat", "--depth", "2")
    assert code == OK
    assert out.splitlines() == ["nat(0)", "nat(s(0))", "nat(s(s(0)))"]


def test_lm_of_nat_at_depth_300():
    code, out, _ = run("lm", "corpus:nat", "--depth", "300")
    assert code == OK
    assert len(out.splitlines()) == 301


def test_lm_of_nat_at_depth_400_renders_past_the_recursion_limit():
    # one frame per s(...) level would pass the limit; the chain renders in a loop
    code, out, err = run("lm", "corpus:nat", "--depth", "400")
    assert (code, err) == (OK, "")
    lines = out.splitlines()
    assert len(lines) == 401
    assert lines[-1] == "nat(" + "s(" * 400 + "0" + ")" * 401


def test_lm_of_empty_program_prints_nothing():
    code, out, _ = run("lm", "corpus:empty")
    assert code == OK
    assert out == ""


def test_lm_json():
    code, out, _ = run("lm", "corpus:nat", "--depth", "1", "--format", "json")
    assert json.loads(out) == {"atoms": ["nat(0)", "nat(s(0))"]}
    assert code == OK


def test_query_yes_with_answer():
    code, out, _ = run("query", "corpus:member", "member(X,[a,b])")
    assert code == OK
    assert out.splitlines()[0] == "yes"
    assert "{X = a}" in out


def test_query_trace_lines():
    code, out, _ = run(
        "query", "corpus:q1rev", "corpus:plus", "plus([a],[b,c],[a,b,c])", "--trace"
    )
    assert code == OK
    assert out.splitlines() == [
        "yes",
        "<- plus([a],[b,c],[a,b,c])",
        "<- [q1rev] plus(s([]),[b,c],s([b,c]))",
        "<- [plus] plus([],[b,c],[b,c])",
        "<- [q1rev] plus(0,[b,c],[b,c])",
        "<- [plus] []",
    ]


def test_query_json_mirrors_text():
    code, out, _ = run(
        "query", "corpus:member", "member(X,[a,b])", "--trace", "--format", "json"
    )
    payload = json.loads(out)
    assert code == OK
    assert payload["result"] == "yes"
    assert payload["answer"] == {"X": "a"}
    assert payload["trace"][0] == "<- member(X,[a,b])"


def test_query_answers_rename_engine_variables():
    code, out, _ = run("query", "corpus:plus", "plus(X,Y,Z)")
    assert code == OK
    assert out.splitlines()[1] == "{X = 0, Y = _1, Z = _1}"
    code, out, _ = run("query", "corpus:member", "member(a,L)")
    assert code == OK
    assert out.splitlines()[1] == "{L = [a|_1]}"


def test_query_answer_names_avoid_query_variables():
    code, out, _ = run("query", "corpus:plus", "plus(_1,Y,Z)", "--format", "json")
    assert code == OK
    assert json.loads(out)["answer"] == {"_1": "0", "Y": "_2", "Z": "_2"}


def test_query_trace_renames_engine_variables():
    code, out, _ = run("query", "corpus:plus", "plus(s(X),Y,Z)", "--trace")
    assert code == OK
    assert out.splitlines() == [
        "yes",
        "{X = 0, Y = _1, Z = s(_1)}",
        "<- plus(s(X),Y,Z)",
        "<- plus(_2,_3,_4)",
        "<- []",
    ]
    code, out, _ = run("query", "corpus:plus", "plus(s(X),Y,Z)", "--trace", "--format", "json")
    assert code == OK
    assert json.loads(out) == {
        "result": "yes",
        "answer": {"X": "0", "Y": "_1", "Z": "s(_1)"},
        "trace": ["<- plus(s(X),Y,Z)", "<- plus(_2,_3,_4)", "<- []"],
    }


def test_query_trace_names_restart_each_query():
    # iterative deepening must not leak its fresh-name counter into the trace
    code, out, _ = run("query", "corpus:member", "member(a,[b|L])", "--trace")
    assert code == OK
    assert out.splitlines() == [
        "yes",
        "{L = [a|_1]}",
        "<- member(a,[b|L])",
        "<- member(a,_2)",
        "<- []",
    ]
    code, out, _ = run("query", "corpus:member", "member(a,[b|L])", "--trace",
                       "--format", "json")
    assert code == OK
    assert json.loads(out) == {
        "result": "yes",
        "answer": {"L": "[a|_1]"},
        "trace": ["<- member(a,[b|L])", "<- member(a,_2)", "<- []"],
    }


def test_query_unprovable_is_exhausted():
    code, out, _ = run("query", "corpus:nat", "nat(f(0))")
    assert code == EXHAUSTED
    assert out.strip() == "no"


def test_query_depth_budget():
    code, _, _ = run("query", "corpus:nat", "nat(s(s(s(s(0)))))", "--depth", "3")
    assert code == EXHAUSTED


def test_query_past_the_frontier_cap_is_exhausted(tmp_path):
    # Level k holds 3^k resolvents, so level 8 is the first past the cap of
    # 4096: it is expanded at the default depth and is the last one at 8.
    path = tmp_path / "branch.lp"
    path.write_text("a :- a, x. a :- a, y. a :- a, z. x :- x. y :- y. z :- z.\n")
    code, out, err = run("query", str(path), "a")
    assert (code, out) == (EXHAUSTED, "")
    assert err == ("budget exhausted: SLD level 8 holds 6561 resolvents, "
                   "more than the frontier cap of 4096\n")
    assert run("query", str(path), "a", "--depth", "8") == (EXHAUSTED, "no\n", "")


def test_query_goal_order_ignores_fresh_names(tmp_path):
    # body goals go in the rule's own order, whatever names the renaming draws
    rules = "pair(X,Y) :- e(X), e(Y).\ne(a).\ne(b).\n"
    (tmp_path / "plain.lp").write_text(rules)
    (tmp_path / "padded.lp").write_text(rules + "pad(_S1,_S2,_S3,_S4).\n")
    for name in ("plain.lp", "padded.lp"):
        code, out, _ = run("query", str(tmp_path / name), "pair(a,b)", "--trace")
        assert code == OK
        assert out.splitlines() == ["yes", "<- pair(a,b)", "<- e(a), e(b)", "<- e(b)", "<- []"]


def _readme_examples():
    """Each `$ hornalg ...` line of README's examples with the output lines
    under it, up to a blank line or the end of the block."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ hornalg "):
            end = i + 1
            while end < len(lines) and lines[end] not in ("", "```"):
                end += 1
            examples.append((shlex.split(line)[2:], lines[i + 1:end]))
    return examples


def _untimed(text):
    return re.sub(r"\[\d+\.\d+s\]", "[0.000s]", text)


def test_readme_examples_print_what_readme_shows():
    # a `...` line stands for any run of lines, and golden timings vary
    examples = _readme_examples()
    assert len(examples) == 11
    for argv, shown in examples:
        code, out, _ = run(*argv)
        assert code == OK, argv
        pattern = "".join("(?:.*\n)*" if s == "..." else re.escape(_untimed(s)) + "\n" for s in shown)
        assert re.fullmatch(pattern, _untimed(out)), (argv, out)


def test_lm_rejects_a_negative_depth():
    code, out, err = run("lm", "corpus:nat", "--depth", "-1")
    assert (code, out) == (USAGE_ERROR, "")
    assert err == "error: --depth must be at least 0, got -1\n"


def test_query_rejects_a_negative_depth():
    code, out, err = run("query", "corpus:plus", "plus(0,0,0)", "--depth", "-3")
    assert (code, out) == (USAGE_ERROR, "")
    assert err == "error: --depth must be at least 0, got -3\n"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_not_a_traceback(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["corpus"])
    assert code == OK and err.getvalue() == ""
    assert sys.stdout.name == os.devnull  # shutdown flushes nothing into the pipe
    sys.stdout.close()


def test_query_needs_goal_and_program():
    code, _, err = run("query", "nat(0)")
    assert code == INPUT_ERROR
    assert "error:" in err


def test_form_eval_with_binding():
    code, out, _ = run("form-eval", "corpus:standard", "Plus", "--bind", "X=corpus:nat")
    assert code == OK
    assert out.splitlines() == ["plus(0,A,A).", "plus(s(A),B,s(C)) :- plus(A,B,C)."]


def test_form_eval_rename_binding():
    code, out, _ = run(
        "form-eval", "corpus:standard", "Even", "--bind", "X=corpus:nat[nat/even]"
    )
    assert code == OK
    assert out.splitlines() == ["even(0).", "even(s(s(A))) :- even(A)."]


def test_form_eval_tuple_binding():
    code, out, _ = run(
        "form-eval", "corpus:standard", "G", "--bind", "X=corpus:list(U,X)"
    )
    assert code == OK
    assert out.strip() == "plus([A],[A],[A,A])."


def test_prop_check_verified():
    code, out, _ = run("prop-check", "corpus:ex43_joint")
    assert code == OK
    assert out.splitlines()[-1] == "verified"


def test_prop_check_not_verified():
    code, out, _ = run("prop-check", "corpus:ex43_disjoint")
    assert code == NOT_VERIFIED
    assert out.splitlines()[-1] == "not verified"
    assert any(line.startswith("FAIL alien_literal") for line in out.splitlines())


def test_prop_check_json():
    code, out, _ = run("prop-check", "corpus:ex43_joint", "--format", "json")
    payload = json.loads(out)
    assert code == OK
    assert payload["verified"] is True
    assert payload["line"] == "fgfg"
    assert len(payload["items"]) == 10


# (exit code, sha256 prefix of the text output) of `prop-check` on each
# bundled problem, plain and with --strict-eq.  The witnesses of
# nat_plus_list and one_plus_one call forms that rename placeholders.
_PROP_CHECK_PINS = {
    "even_reverse": ((OK, "079b41717002c636"), (NOT_VERIFIED, "60a94ce174b5b775")),
    "ex43_disjoint": ((NOT_VERIFIED, "223dee13cfe50b8a"), (NOT_VERIFIED, "223dee13cfe50b8a")),
    "ex43_joint": ((OK, "f290eca7442dc455"), (OK, "f290eca7442dc455")),
    "nat_plus_list": ((OK, "852d8d14f87d7620"), (NOT_VERIFIED, "1098541e01239438")),
    "one_plus_one": ((OK, "6787862647e7c1c7"), (NOT_VERIFIED, "4fd22e8064fa0393")),
}


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("name", sorted(_PROP_CHECK_PINS))
def test_prop_check_output_is_pinned(name, strict):
    code, out, _ = run("prop-check", f"corpus:{name}", *(["--strict-eq"] if strict else []))
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == _PROP_CHECK_PINS[name][strict]
    assert len(out.splitlines()) == 11


def test_prop_solve_finds_answer():
    code, out, _ = run("prop-solve", "corpus:ex43_disjoint")
    assert code == OK
    assert "s: {c :- d. d.}" in out


# (s, line, f, g, pvec, rvec) of each solution, in output order
_EX43_JOINT_DEPTH2 = [
    (["b.", "c :- d."], "fgfg", "X1", "(X1 | {b.})", ["a :- b."], ["c :- d."]),
    (["b.", "c :- d."], "fgfg", "X1", "({b.} | X1)", ["a :- b."], ["c :- d."]),
    (["b.", "c :- d."], "fgfg", "X1", "(X1 | rev({b.}))", ["a :- b."], ["c :- d."]),
    (["b.", "c :- d."], "fgfg", "(X1 . X1)", "(X1 | {b.})", ["a :- b."], ["c :- d."]),
    (["c :- d."], "fgfg", "proper(X1)", "X1", ["a :- b.", "b."], ["c :- d."]),
    (["c :- d."], "fggf", "proper(X1)", "X1", ["a :- b.", "b."], ["c :- d."]),
    (["c :- d."], "fgfg", "(X1 . proper(X1))", "X1", ["a :- b.", "b."], ["c :- d."]),
    (["c :- d."], "fgfg", "proper((X1 . X1))", "X1", ["a :- b.", "b."], ["c :- d."]),
    (["c :- d.", "d."], "fgfg", "X1", "(X1 | body(X1))", ["a :- b."], ["c :- d."]),
    (["c :- d.", "d."], "fgfg", "(X1 . X1)", "(X1 | body(X1))", ["a :- b."], ["c :- d."]),
    (["c :- d.", "d."], "fgfg", "(X1 | X1)", "(X1 | body(X1))", ["a :- b."], ["c :- d."]),
    (["c :- d.", "d."], "fgfg", "proper(X1)", "(X1 | body(X1))", ["a :- b."], ["c :- d."]),
    (["c.", "c :- d."], "fgfg", "proper(X1)", "(X1 | (X1 o {d.}))", ["a :- b.", "b."], ["c :- d."]),
    (["c.", "c :- d."], "fgfg", "(X1 . proper(X1))", "(X1 | (X1 o {d.}))", ["a :- b.", "b."],
     ["c :- d."]),
    (["c.", "c :- d."], "fgfg", "proper((X1 . X1))", "(X1 | (X1 o {d.}))", ["a :- b.", "b."],
     ["c :- d."]),
    (["c.", "c :- d."], "fgfg", "proper((X1 | X1))", "(X1 | (X1 o {d.}))", ["a :- b.", "b."],
     ["c :- d."]),
]


def test_prop_solve_output_is_pinned():
    code, out, _ = run("prop-solve", "corpus:ex43_joint", "--budget", "2")
    assert code == OK
    expected = []
    for s, line, f, g, pvec, rvec in _EX43_JOINT_DEPTH2:
        expected += ["s: {" + " ".join(s) + "}", f"  line: {line}", f"  f: {f}", f"  g: {g}",
                     "  pvec: {" + " ".join(pvec) + "}", "  rvec: {" + " ".join(rvec) + "}"]
    assert out.splitlines() == expected

    code, out, _ = run("prop-solve", "corpus:ex43_joint", "--budget", "2", "--format", "json")
    assert code == OK
    assert json.loads(out) == {"solutions": [
        {"s": s, "line": line, "f": f, "g": g, "pvec": [pvec], "rvec": [rvec]}
        for s, line, f, g, pvec, rvec in _EX43_JOINT_DEPTH2
    ]}


def test_prop_solve_depth_three_output_is_pinned():
    # The digest of the whole text output (24 solutions); no benchmark op
    # solves at depth 3.
    code, out, _ = run("prop-solve", "corpus:ex43_joint", "--budget", "3")
    assert code == OK
    assert len(out.splitlines()) == 144
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "b10fa3db6a969cf1"


def test_prop_solve_budget_caps_witnesses_per_s():
    code, out, _ = run("prop-solve", "corpus:ex43_joint", "--budget", "1")
    assert code == OK
    assert sum(line.startswith("s: ") for line in out.splitlines()) == 8
    code, out, _ = run("prop-solve", "corpus:ex43_joint", "--budget", "depth=1,per-s=1")
    assert code == OK
    assert [line for line in out.splitlines() if line.startswith("s: ")] == [
        "s: {b. c :- d.}", "s: {c :- d.}"]


def test_prop_solve_exhausted_budget():
    code, out, err = run("prop-solve", "corpus:ex43_disjoint", "--budget", "depth=0,vec=0")
    assert code == EXHAUSTED
    assert out.strip() == "no solutions within budget"


def test_prop_solve_budget_shorthand():
    code, _, _ = run("prop-solve", "corpus:ex43_disjoint", "--budget", "1")
    assert code in (OK, EXHAUSTED)


def test_prop_solve_form_budget_bounds_the_work():
    # The pool stops growing at `forms`, and ex43_joint's passes 2000 forms
    # at depth 3, so a huge depth prints what depth 3 prints.  A child
    # process lets a runaway fail at the timeout instead of hanging the suite.
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (f"import sys; sys.path.insert(0, {src!r}); "
              "from hornalg.cli import main; sys.exit(main())")

    def solve(budget):
        proc = subprocess.run([sys.executable, "-c", script, "prop-solve", "corpus:ex43_joint",
                               "--budget", budget], capture_output=True, text=True, timeout=60)
        assert proc.returncode == OK, proc.stderr
        return proc.stdout

    assert solve("depth=1000000,forms=2000") == solve("depth=3,forms=2000")


def test_prop_solve_rejects_non_ascii_digits():
    for budget in ("depth=²", "²"):
        code, _, err = run("prop-solve", "corpus:ex43_disjoint", "--budget", budget)
        assert code == INPUT_ERROR
        assert f"bad budget entry {budget!r}" in err


def test_golden_all_pass():
    code, out, _ = run("golden")
    assert code == OK
    lines = out.splitlines()
    assert lines[-1].endswith("golden cases pass")
    assert all(line.startswith("pass") for line in lines[:-1])


def test_golden_only_filter():
    code, out, _ = run("golden", "--only", "concat_length")
    assert code == OK
    assert len(out.splitlines()) == 2


def test_golden_filter_matching_nothing_is_usage_error():
    for extra in ((), ("--format", "json")):
        code, out, err = run("golden", "--only", "nosuch", *extra)
        assert (code, out) == (USAGE_ERROR, "")
        assert err == "error: no golden case matches 'nosuch'\n"


def test_golden_bad_case_file_is_input_error(monkeypatch):
    from hornalg import corpus

    monkeypatch.setattr(corpus, "_cache", {})
    monkeypatch.setattr(corpus, "data_text", lambda rel: "name: probe\nbogus: 1\n")
    code, out, err = run("golden")
    assert (code, out) == (INPUT_ERROR, "")
    assert err == "error: golden/cases.txt:2:0: unknown key bogus\n"


def test_corpus_listing():
    code, out, _ = run("corpus")
    assert code == OK
    assert any("corpus:programs/nat.lp" in line for line in out.splitlines())
    assert any(line.startswith("form ") for line in out.splitlines())


def test_corpus_kind_filter():
    code, out, _ = run("corpus", "--kind", "proportion")
    assert code == OK
    assert out and all(line.startswith("proportion") for line in out.splitlines())


def test_unknown_subcommand_is_usage_error():
    code, _, _ = run("frobnicate")
    assert code == USAGE_ERROR


def test_missing_file_is_input_error():
    code, _, err = run("compose", "no/such/file.lp", "corpus:nat")
    assert code == INPUT_ERROR
    assert "error:" in err


def test_parse_error_location():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".lp", delete=False) as handle:
        handle.write("p(a) :-\n")
        path = handle.name
    code, _, err = run("lm", path)
    assert code == INPUT_ERROR
    assert f"{path}:" in err


def test_local_files_mix_with_bundled():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".lp", delete=False) as handle:
        handle.write("nat(s(s(X))) :- nat(X).\n")
        path = handle.name
    code, out, _ = run("compose", path, "corpus:nat")
    assert code == OK
    assert "nat(s(s(0)))." in out


def test_deeply_nested_term_is_a_budget_error(tmp_path):
    path = tmp_path / "deep.lp"
    path.write_text("p(" + "s(" * 3000 + "0" + ")" * 3000 + ").\n")
    code, out, err = run("lm", str(path))
    assert code == EXHAUSTED
    assert out == ""
    assert err == "budget exhausted: term nesting exceeds the recursion limit\n"


def test_long_list_is_a_budget_error(tmp_path):
    path = tmp_path / "flat.lp"
    path.write_text("p([" + ",".join(["a"] * 1500) + "]).\n")
    code, _, err = run("lm", str(path))
    assert code == EXHAUSTED
    assert err == "budget exhausted: grounding exceeded the atom budget of 200000\n"


def test_lm_past_the_atom_budget_is_exhausted(tmp_path):
    path = tmp_path / "wide.lp"
    path.write_text("p(f(a,b)).\n")
    code, out, err = run("lm", str(path), "--depth", "4")
    assert code == EXHAUSTED
    assert out == ""
    assert err == "budget exhausted: grounding exceeded the atom budget of 200000\n"


def test_form_eval_of_an_unknown_form():
    code, out, err = run("form-eval", "corpus:standard", "Nope")
    assert code == INPUT_ERROR and out == ""
    assert err == "error: unknown form Nope\n"


def test_form_eval_bind_needs_an_equals_sign():
    code, out, err = run("form-eval", "corpus:standard", "Plus", "--bind", "corpus:nat")
    assert code == INPUT_ERROR and out == ""
    assert err == "error: --bind expects NAME=SPEC, got 'corpus:nat'\n"


def test_form_eval_binding_needs_a_path():
    code, out, err = run("form-eval", "corpus:standard.lpf", "Plus", "--bind", "X=[nat]")
    assert code == INPUT_ERROR and out == ""
    assert err == "error: cannot parse binding spec '[nat]'\n"


def test_form_eval_rejects_a_name_the_form_does_not_declare():
    code, out, err = run("form-eval", "corpus:standard", "Plus",
                         "--bind", "X=corpus:nat", "--bind", "Q=corpus:list")
    assert code == INPUT_ERROR and out == ""
    assert err == "error: form Plus has no parameter Q\n"


def test_form_eval_rejects_a_name_bound_twice():
    code, out, err = run("form-eval", "corpus:standard", "Plus",
                         "--bind", "X=corpus:nat", "--bind", "X=corpus:list")
    assert code == INPUT_ERROR and out == ""
    assert err == "error: --bind binds X twice\n"


def test_form_eval_binding_names_are_program_identifiers():
    for spec, col, got in [("corpus:nat[nat/]", 16, "]"), ("corpus:nat[nat/Even]", 16, "Even"),
                           ("corpus:nat[Nat]", 12, "Nat")]:
        code, out, err = run("form-eval", "corpus:standard", "Even", "--bind", f"X={spec}")
        assert code == INPUT_ERROR and out == ""
        assert err == (f"error: binding spec {spec!r}:1:{col}: "
                       f"expected a predicate name (got {got!r})\n")


def test_a_nul_byte_in_a_named_path_is_an_input_error(tmp_path):
    for path in ("a\0b.lp", "corpus:a\0b"):
        problem = tmp_path / "nul.prop"
        problem.write_text(f"p: {path}\nq: corpus:nat\nr: corpus:nat\n")
        code, out, err = run("prop-solve", str(problem))
        assert code == INPUT_ERROR and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_an_unknown_problem_file_key_is_an_input_error(tmp_path):
    problem = tmp_path / "typo.prop"
    problem.write_text("p: corpus:ex43_p\nq: corpus:ex43_q\nr: corpus:ex43_r\n"
                       "source-pred: a b\nfrobnicate: 1\n")
    for command in ("prop-solve", "prop-check"):
        code, out, err = run(command, str(problem))
        assert code == INPUT_ERROR and out == ""
        assert err == f"error: {problem}:4: unknown key source-pred\n"


def test_a_corpus_name_cannot_leave_the_data_folder(tmp_path):
    (tmp_path / "x.lp").write_text("p(a).\n")
    programs = resources.files("hornalg").joinpath("data").joinpath("programs")
    up = os.path.relpath(tmp_path / "x", str(programs))
    assert up.startswith("../")
    for name in (up, str(tmp_path / "x"), "golden//plus_facts", "programs/", ""):
        code, out, err = run("compose", f"corpus:{name}")
        assert code == INPUT_ERROR and out == "", name
        assert "a bundled name is a relative path inside the data folder" in err, err


def test_error_text_escapes_control_characters_in_paths(tmp_path):
    bad = tmp_path / "bad\x1b[31m.lp"
    bad.write_text("p(a) :-\n")
    bare = tmp_path / "bare\x07.prop"
    bare.write_text("p: corpus:ex43_p\n")
    for argv in (("compose", "no\x1b[2Jsuch\x00.lp"), ("compose", "corpus:no\x1bsuch"),
                 ("compose", "corpus:..\x1b/x"), ("lm", str(bad)), ("prop-check", str(bare)),
                 ("prop-check", str(tmp_path / "missing\r.prop"))):
        code, out, err = run(*argv)
        assert code == INPUT_ERROR and out == "", argv
        assert err.startswith("error: ") and err.endswith("\n"), err
        assert all(ord(c) >= 0x20 for c in err[:-1]), err
        assert "\\x1b" in err or "\\x07" in err or "\\r" in err, err


def test_prop_check_needs_a_witness(tmp_path):
    path = tmp_path / "bare.prop"
    path.write_text("p: corpus:ex43_p\nq: corpus:ex43_q\nr: corpus:ex43_r\n"
                    "source-preds: a b c d\ntarget-preds: a b c d\n")
    code, out, err = run("prop-check", str(path))
    assert code == INPUT_ERROR and out == ""
    assert err == f"error: {path}: no witness to check\n"


def test_prop_solve_budget_skips_empty_entries():
    spaced = run("prop-solve", "corpus:ex43_joint", "--budget", "depth=1,,vec=1")
    assert spaced[0] == OK
    assert spaced == run("prop-solve", "corpus:ex43_joint", "--budget", "depth=1,vec=1")
