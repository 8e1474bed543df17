"""The bundled corpus: loading, listing, and the golden suite."""

import glob
from pathlib import Path

import pytest

from hornalg import corpus
from hornalg.errors import FormEvalError, ParseError
from hornalg.syntax import Program


def test_program_name_normalization():
    direct = corpus.program("nat")
    assert corpus.program("corpus:nat") == direct
    assert corpus.program("nat.lp") == direct
    assert corpus.program("programs/nat.lp") == direct


def test_program_loads_are_cached():
    assert corpus.program("nat") is corpus.program("corpus:nat")


def test_missing_entry_raises_parse_error():
    with pytest.raises(ParseError):
        corpus.program("no_such_program")


def test_core_programs_present():
    names = set(corpus.names("programs"))
    assert {
        "nat", "list", "tree",
        "plus", "pluslist", "pluslist_prime", "plus_list_inst",
        "q1", "q1rev", "q2", "q1_alt", "q2_alt",
        "member", "member_q", "member_s",
        "length", "list_as_length", "nat_as_length",
        "even", "reverse", "even_reverse", "times_nat",
    } <= names


def test_forms_and_problems_present():
    assert "standard" in corpus.names("forms")
    assert {"ex43_joint", "ex43_disjoint", "nat_plus_list",
            "even_reverse", "one_plus_one"} <= set(corpus.names("proportions"))


def test_standard_forms_cover_the_named_family():
    table = corpus.forms_table()
    assert {"Id", "Plus", "Even", "G1", "G2", "G", "Times"} <= set(table)


def test_entries_carry_kind_and_path():
    entries = corpus.corpus_entries()
    by_name = {e.name: e for e in entries}
    assert by_name["nat"].kind == "program"
    assert by_name["nat"].path == "programs/nat.lp"
    assert by_name["standard"].kind == "form"
    assert by_name["ex43_joint"].kind == "proportion"


def test_every_listed_entry_reads():
    for entry in corpus.corpus_entries():
        assert corpus.data_text(entry.path), entry
    assert "cases" not in corpus.names("golden")


def test_package_data_ships_every_data_file():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    config = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    package = root / "src" / "hornalg"
    patterns = config["tool"]["setuptools"]["package-data"]["hornalg"]
    shipped = {Path(package, hit) for pattern in patterns
               for hit in glob.glob(pattern, root_dir=package, recursive=True)}
    files = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert files and files <= shipped, sorted(str(f) for f in files - shipped)


def test_eval_form_helper_coerces_programs():
    out = corpus.eval_form("Plus", corpus.program("nat"))
    assert isinstance(out, Program)
    assert out == corpus.program("plus")


def test_eval_form_helper_rejects_a_wrong_argument_count():
    nat = corpus.program("nat")
    with pytest.raises(FormEvalError, match="takes 1 arguments, got 2"):
        corpus.eval_form("Plus", nat, nat)
    with pytest.raises(FormEvalError, match="unknown form"):
        corpus.eval_form("NoSuchForm", nat)


def test_golden_cases_have_unique_names():
    names = [c.name for c in corpus.golden_cases()]
    assert len(names) == len(set(names))
    assert len(names) >= 20


def test_every_golden_case_passes_quickly():
    results = corpus.run_golden_suite()
    failing = [r for r in results if not r.ok]
    assert not failing, [(r.name, r.detail) for r in failing]
    slow = [r for r in results if r.seconds >= 1.0]
    assert not slow, [(r.name, r.seconds) for r in slow]


def test_golden_suite_filter():
    results = corpus.run_golden_suite(only="form_plus_nat")
    assert [r.name for r in results] == ["form_plus_nat"]


def test_documented_mismatches_are_marked():
    cases = {c.name: c for c in corpus.golden_cases()}
    assert cases["bridge_q1_structured"].pinned_actual is not None
    assert cases["bridge_q2_forward"].pinned_actual is not None
    results = {r.name: r for r in corpus.run_golden_suite()}
    assert results["bridge_q1_structured"].documented_mismatch
    assert results["bridge_q2_forward"].documented_mismatch


_CASE = ("name: probe\nnote: a note\nrun: compose corpus:plus corpus:empty\n"
         "expect: golden/plus_facts.lp\n")


def test_case_file_reader_reads_every_field():
    text = "% a comment\n\n" + _CASE + "pinned: programs/empty.lp  % trailing\n" + \
        _CASE.replace("probe", "other")
    first, second = corpus.parse_golden_cases(text)
    assert first == corpus.GoldenCase("probe", "a note",
                                      ("compose", "corpus:plus", "corpus:empty"),
                                      "golden/plus_facts.lp", "programs/empty.lp")
    assert second.name == "other" and second.pinned_actual is None


@pytest.mark.parametrize("text, line, message", [
    (_CASE + "expected: programs/plus.lp\n", 5, "unknown key expected"),
    ("note: orphan\n" + _CASE, 1, "note: comes before the first name:"),
    (_CASE + "run: reverse corpus:q1\n", 5, "duplicate key run"),
    (_CASE + _CASE, 5, "duplicate case probe"),
    (_CASE + "name: second\nnote: n\nexpect: programs/plus.lp\n", 5, "case second has no run:"),
    (_CASE.replace("plus_facts", "no_such"), 4,
     "expect: names no bundled entry golden/no_such.lp"),
    (_CASE + "pinned: ../programs/plus.lp\n", 5,
     "pinned: names no bundled entry ../programs/plus.lp"),
    (_CASE + "no colon\n", 5, "expected `key: value`"),
])
def test_case_file_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as info:
        corpus.parse_golden_cases(text)
    assert (info.value.source, info.value.line) == ("golden/cases.txt", line)
    assert str(info.value) == f"golden/cases.txt:{line}:0: {message}"


def test_data_text_round_trip():
    text = corpus.data_text("programs/nat.lp")
    assert "nat(0)." in text


def _golden(command, expected, pinned_actual=None):
    return corpus.run_golden_case(corpus.GoldenCase(
        "probe", "a case built to fail", command, expected, pinned_actual))


def test_golden_case_fails_on_a_command_error(capsys):
    res = _golden(("compose", "corpus:no_such_program"), "programs/plus.lp")
    assert not res.ok and not res.documented_mismatch
    assert res.detail == "command exited 2: "
    assert "no bundled entry programs/no_such_program.lp" in capsys.readouterr().err


def test_golden_case_fails_on_a_mismatch():
    res = _golden(("compose", "corpus:q1", "corpus:pluslist"), "programs/nat.lp")
    assert not res.ok and not res.documented_mismatch
    assert res.detail == ("expected {nat(0). nat(s(A)) :- nat(A).}, "
                          "got {plus(0,A,A). plus(s(A),B,s(C)) :- plus(A,B,C).}")


def test_documented_mismatch_fails_once_it_vanishes():
    res = _golden(("compose", "corpus:q1", "corpus:pluslist"), "programs/plus.lp",
                  pinned_actual="programs/nat.lp")
    assert not res.ok and res.documented_mismatch
    assert res.detail == "documented mismatch vanished: output now equals the stated value"


def test_documented_mismatch_fails_once_its_pinned_value_drifts():
    res = _golden(("compose", "corpus:q1", "corpus:pluslist"), "programs/nat.lp",
                  pinned_actual="programs/empty.lp")
    assert not res.ok and res.documented_mismatch
    assert res.detail == ("pinned value drifted: "
                          "got {plus(0,A,A). plus(s(A),B,s(C)) :- plus(A,B,C).}")
