"""Bundled example programs, forms, and proportion problems, plus a table
of golden command-line cases over them.

Data files live under ``hornalg/data``: `programs/*.lp` are logic
programs, `forms/*.lpf` are form definitions, `proportions/*.prop` are
proportion problems, and `golden/*.lp` hold expected values that are not
themselves corpus programs.  Anywhere the command line takes a file, the
pseudo-path `corpus:<name>` names a bundled file.

Each golden case records a complete CLI invocation and the bundled file
its output must match.  Two cases are documented mismatches: the identity
they would naturally state does not hold, so they pin the actual computed
value instead and fail if it ever drifts — or if the stated identity
silently starts to hold.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .errors import ParseError
from .forms import Evaluator, FormCall, make_binding, parse_forms
from .parser import parse_program
from .proportion import ProblemSpec, parse_proportion_file
from .syntax import Program, render_program

_cache: dict = {}


def data_text(relpath: str) -> str:
    node = resources.files("hornalg").joinpath("data")
    for part in relpath.split("/"):
        node = node.joinpath(part)
    try:
        return node.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise ParseError(f"no bundled entry {relpath}", source=relpath) from exc


def _normalize(name: str, folder: str, suffix: str) -> str:
    """Accept a stem ("plus"), a data-relative path ("golden/x.lp"), or a
    `corpus:`-prefixed name as used on the command line."""
    if name.startswith("corpus:"):
        name = name[len("corpus:"):]
    if "/" not in name:
        name = f"{folder}/{name}"
    if not name.endswith(suffix):
        name += suffix
    return name


def program(name: str) -> Program:
    """A bundled program, by stem name ("plus") or data-relative path
    ("golden/plus_tree_shared.lp")."""
    rel = _normalize(name, "programs", ".lp")
    key = ("program", rel)
    if key not in _cache:
        _cache[key] = parse_program(data_text(rel), source=rel)
    return _cache[key]


def forms_table(name: str = "standard") -> dict:
    rel = _normalize(name, "forms", ".lpf")
    key = ("forms", rel)
    if key not in _cache:
        _cache[key] = parse_forms(data_text(rel), source=rel)
    return _cache[key]


def problem_spec(name: str) -> ProblemSpec:
    """A bundled proportion problem; file paths inside it are data-relative
    (they may carry the `corpus:` prefix, which is stripped)."""
    rel = _normalize(name, "proportions", ".prop")
    return parse_proportion_file(
        data_text(rel),
        load_program=program,
        load_forms=forms_table,
        source=rel,
    )


def names(kind: str = "programs") -> list:
    """Stem names of the bundled files of one kind."""
    folder = resources.files("hornalg").joinpath("data").joinpath(kind)
    return sorted(
        entry.name.rsplit(".", 1)[0] for entry in folder.iterdir() if entry.is_file()
    )


def evaluator() -> Evaluator:
    """A shared evaluator over the bundled form definitions."""
    key = ("evaluator",)
    if key not in _cache:
        _cache[key] = Evaluator(forms_table())
    return _cache[key]


def eval_form(form_name: str, *bindings) -> Program:
    """Apply a bundled form; raw programs are wrapped in default bindings."""
    table = forms_table()
    fd = table[form_name]
    coerced = [b if hasattr(b, "program") else make_binding(b) for b in bindings]
    if len(coerced) != len(fd.params):
        raise ValueError(
            f"form {form_name} takes {len(fd.params)} arguments, got {len(coerced)}"
        )
    params = tuple(f"X{i + 1}" for i in range(len(coerced)))
    call = FormCall(form_name, params)
    return evaluator().eval(call, dict(zip(params, coerced)), {})


# ---------------------------------------------------------------------------
# Corpus listing


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str  # program | form | proportion | golden
    path: str  # data-relative
    note: str = ""


_KINDS = (("programs", "program"), ("forms", "form"),
          ("proportions", "proportion"), ("golden", "golden"))


def corpus_entries() -> tuple:
    entries = []
    for folder, kind in _KINDS:
        for stem in names(folder):
            suffix = {"program": "lp", "form": "lpf", "proportion": "prop",
                      "golden": "lp"}[kind]
            entries.append(CorpusEntry(stem, kind, f"{folder}/{stem}.{suffix}"))
    return tuple(entries)


# ---------------------------------------------------------------------------
# Golden CLI cases


@dataclass(frozen=True)
class GoldenCase:
    """One checked CLI invocation: running `command` must print the
    canonical rendering of the program stored in `expected`.

    When `pinned_actual` is set the case is a documented mismatch: it
    passes while the output still differs from `expected` and still equals
    the pinned value.
    """

    name: str
    note: str
    command: tuple
    expected: str
    pinned_actual: Optional[str] = None

    @property
    def inputs(self) -> tuple:
        found = []
        for arg in self.command:
            at = arg.find("corpus:")
            if at < 0:
                continue
            rest = arg[at + len("corpus:"):]
            for stop in "([ ":
                cut = rest.find(stop)
                if cut >= 0:
                    rest = rest[:cut]
            found.append(rest)
        kinds = {"lpf": "form", "prop": "proportion"}
        return tuple(
            CorpusEntry(
                stem.rsplit(".", 1)[0],
                kinds.get(stem.rsplit(".", 1)[-1], "program"),
                stem,
            )
            for stem in found
        )


def golden_cases() -> tuple:
    F = ("form-eval", "corpus:standard.lpf")
    return (
        GoldenCase(
            "compose_nat_steps",
            "composing the step rule of the naturals with itself skips two",
            ("compose", "corpus:nat_proper", "corpus:nat_proper"),
            "golden/nat_double_step.lp",
        ),
        GoldenCase(
            "compose_plus_empty",
            "composing with the empty program keeps exactly the facts",
            ("compose", "corpus:plus", "corpus:empty"),
            "golden/plus_facts.lp",
        ),
        GoldenCase(
            "reverse_q1",
            "reversing the bridge flips each rule around its body atom",
            ("reverse", "corpus:q1"),
            "programs/q1rev.lp",
        ),
        GoldenCase(
            "bridge_q1_pluslist",
            "the bridge turns list addition into addition on numbers",
            ("compose", "corpus:q1", "corpus:pluslist"),
            "programs/plus.lp",
        ),
        GoldenCase(
            "bridge_q1_reversed",
            "the reversed bridge turns addition back into list addition",
            ("compose", "corpus:q1rev", "corpus:plus"),
            "programs/pluslist.lp",
        ),
        GoldenCase(
            "bridge_q1_structured",
            "the plain bridge does not absorb the three-rule list addition; "
            "the composition keeps an extra base case",
            ("compose", "corpus:q1", "corpus:pluslist_prime"),
            "programs/plus.lp",
            pinned_actual="golden/q1_pluslist_prime_actual.lp",
        ),
        GoldenCase(
            "bridge_q2_forward",
            "the three-rule bridge composes with addition to nothing: its "
            "bodies expect number constructors that no list head provides",
            ("compose", "corpus:q2", "corpus:plus"),
            "programs/pluslist_prime.lp",
            pinned_actual="programs/empty.lp",
        ),
        GoldenCase(
            "bridge_q1_alt",
            "grounding the base body lets the bridge absorb the three-rule "
            "list addition",
            ("compose", "corpus:q1_alt", "corpus:pluslist_prime"),
            "programs/plus.lp",
        ),
        GoldenCase(
            "bridge_q2_alt",
            "the flipped three-rule bridge turns addition into the "
            "three-rule list addition",
            ("compose", "corpus:q2_alt", "corpus:plus"),
            "programs/pluslist_prime.lp",
        ),
        GoldenCase(
            "member_chain",
            "membership factors through list addition",
            ("compose", "corpus:member_q", "corpus:pluslist", "corpus:member_s"),
            "programs/member.lp",
        ),
        GoldenCase(
            "concat_length",
            "concatenating the one-argument list and number programs gives "
            "the length relation",
            ("concat", "corpus:list_as_length", "corpus:nat_as_length"),
            "programs/length.lp",
        ),
        GoldenCase(
            "concat_ground_sum",
            "concatenating three one-fact programs builds a three-argument fact",
            ("concat", "corpus:ground_p0", "corpus:ground_ps0", "corpus:ground_ps0"),
            "golden/one_arg3.lp",
        ),
        GoldenCase(
            "form_plus_nat",
            "the addition form over the naturals",
            F + ("Plus", "--bind", "X=corpus:nat(X)"),
            "programs/plus.lp",
        ),
        GoldenCase(
            "form_plus_list",
            "the addition form over lists copies the head element",
            F + ("Plus", "--bind", "X=corpus:list"),
            "programs/plus_list_inst.lp",
        ),
        GoldenCase(
            "form_plus_tree_shared",
            "the addition form over trees with identified subtrees",
            F + ("Plus", "--bind", "X=corpus:tree(U,X,X)"),
            "golden/plus_tree_shared.lp",
        ),
        GoldenCase(
            "form_plus_tree_full",
            "the addition form over trees with independent subtrees pairs "
            "every subtree with every result slot",
            F + ("Plus", "--bind", "X=corpus:tree(U,X1,X2)"),
            "golden/plus_tree_full.lp",
        ),
        GoldenCase(
            "form_even_nat",
            "keeping the facts and doubling the step of the renamed naturals",
            F + ("Even", "--bind", "X=corpus:nat[nat/even]"),
            "programs/even.lp",
        ),
        GoldenCase(
            "form_even_reverse",
            "the doubling form over list reversal handles two elements per step",
            F + ("Even", "--bind", "X=corpus:reverse"),
            "programs/even_reverse.lp",
        ),
        GoldenCase(
            "form_g_nat",
            "the single-sum form over the naturals states one plus one",
            F + ("G", "--bind", "X=corpus:nat"),
            "programs/one_plus_one.lp",
        ),
        GoldenCase(
            "form_g_list",
            "the single-sum form over lists states a one-element sum",
            F + ("G", "--bind", "X=corpus:list"),
            "programs/single_sum.lp",
        ),
        GoldenCase(
            "form_times_nat",
            "the multiplication form over the naturals",
            F + ("Times", "--bind", "X=corpus:nat"),
            "programs/times_nat.lp",
        ),
        GoldenCase(
            "form_times_list",
            "the multiplication form over lists",
            F + ("Times", "--bind", "X=corpus:list"),
            "golden/times_list.lp",
        ),
    )


@dataclass(frozen=True)
class GoldenResult:
    name: str
    ok: bool
    seconds: float
    note: str
    detail: str
    documented_mismatch: bool = False


def _one_line(text: str) -> str:
    return "{" + " ".join(text.splitlines()) + "}"


def run_golden_case(case: GoldenCase) -> GoldenResult:
    from . import cli

    buffer = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(buffer):
        code = cli.main(list(case.command))
    seconds = time.perf_counter() - started
    got_text = buffer.getvalue().strip()
    if code != 0:
        return GoldenResult(case.name, False, seconds, case.note,
                            f"command exited {code}: {got_text}",
                            case.pinned_actual is not None)

    def same(target_name: str) -> bool:
        return got_text == render_program(program(target_name))

    if case.pinned_actual is None:
        ok = same(case.expected)
        detail = "" if ok else (
            f"expected {_one_line(render_program(program(case.expected)))}, "
            f"got {_one_line(got_text)}"
        )
        return GoldenResult(case.name, ok, seconds, case.note, detail)

    still_differs = not same(case.expected)
    stable = same(case.pinned_actual)
    ok = still_differs and stable
    if ok:
        detail = "documented mismatch: stated value differs, pinned value stable"
    elif not still_differs:
        detail = "documented mismatch vanished: output now equals the stated value"
    else:
        detail = f"pinned value drifted: got {_one_line(got_text)}"
    return GoldenResult(case.name, ok, seconds, case.note, detail,
                        documented_mismatch=True)


def run_golden_suite(only: Optional[str] = None) -> list:
    results = []
    for case in golden_cases():
        if only is not None and only not in case.name:
            continue
        results.append(run_golden_case(case))
    return results
