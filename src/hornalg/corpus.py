"""Bundled example programs, forms, and proportion problems, plus the
golden command-line cases over them.

Data files live under ``hornalg/data``: `programs/*.lp` are logic
programs, `forms/*.lpf` are form definitions, `proportions/*.prop` are
proportion problems, and `golden/*.lp` hold expected values that are not
themselves corpus programs.  Anywhere the command line takes a file, the
pseudo-path `corpus:<name>` names a bundled file.

`golden/cases.txt` lists the golden cases, in the `key: value` lines of
`.prop` files: each is a complete CLI invocation and the bundled program
its output must match (`GoldenCase`).
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from . import forms
from .errors import FormEvalError, ParseError, printable
from .forms import Binding, make_binding, parse_forms
from .parser import key_value_lines, parse_program
from .proportion import ProblemSpec, parse_proportion_file
from .syntax import Program, render_program

_cache: dict = {}


# Each data folder: the kind of its entries and their file suffix.
_FOLDERS = {"programs": ("program", ".lp"), "forms": ("form", ".lpf"),
            "proportions": ("proportion", ".prop"), "golden": ("golden", ".lp")}
PREFIX = "corpus:"


def data_text(relpath: str) -> str:
    node = resources.files("hornalg").joinpath("data")
    for part in relpath.split("/"):
        node = node.joinpath(part)
    try:
        return node.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ParseError(f"no bundled entry {printable(relpath)}", source=relpath) from exc


def read_text(path: str, folder: str) -> str:
    """The text a file argument names: a bundled entry of `folder` for a
    `corpus:` name, else a local file."""
    if path.startswith(PREFIX):
        return data_text(_normalize(path, folder))
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {printable(path)}: {getattr(exc, 'strerror', None) or exc}",
                         source=path) from exc


def _normalize(name: str, folder: str) -> str:
    """Accept a stem ("plus"), a data-relative path ("golden/x.lp"), or a
    `corpus:`-prefixed name as used on the command line.  A name that is
    empty, absolute, or has an empty or `..` segment would leave the data
    folder, and is a ParseError."""
    if name.startswith(PREFIX):
        name = name[len(PREFIX):]
    if any(part in ("", "..") for part in name.split("/")):
        raise ParseError(f"a bundled name is a relative path inside the data folder, "
                         f"not {name!r}", source=PREFIX + name)
    if "/" not in name:
        name = f"{folder}/{name}"
    suffix = _FOLDERS[folder][1]
    if not name.endswith(suffix):
        name += suffix
    return name


def program(name: str) -> Program:
    """A bundled program, by stem name ("plus") or data-relative path
    ("golden/plus_tree_shared.lp")."""
    rel = _normalize(name, "programs")
    key = ("program", rel)
    if key not in _cache:
        _cache[key] = parse_program(data_text(rel), source=rel)
    return _cache[key]


def forms_table(name: str = "standard") -> dict:
    rel = _normalize(name, "forms")
    key = ("forms", rel)
    if key not in _cache:
        _cache[key] = parse_forms(data_text(rel), source=rel)
    return _cache[key]


def problem_spec(name: str) -> ProblemSpec:
    """A bundled proportion problem; file paths inside it are data-relative
    (they may carry the `corpus:` prefix, which is stripped)."""
    rel = _normalize(name, "proportions")
    return parse_proportion_file(
        data_text(rel),
        load_program=program,
        load_forms=forms_table,
        source=rel,
    )


def names(kind: str = "programs") -> list:
    """Stem names of the bundled files of one kind: those of the data
    folder `kind` that carry its suffix."""
    folder = resources.files("hornalg").joinpath("data").joinpath(kind)
    suffix = _FOLDERS[kind][1]
    return sorted(entry.name[:-len(suffix)] for entry in folder.iterdir()
                  if entry.is_file() and entry.name.endswith(suffix))


def eval_form(form_name: str, *bindings) -> Program:
    """Apply a bundled form to its arguments in order; raw programs are
    wrapped in default bindings."""
    table = forms_table()
    params = table[form_name].params if form_name in table else ()
    if params and len(bindings) != len(params):
        raise FormEvalError(f"form {form_name} takes {len(params)} arguments, got {len(bindings)}")
    named = {param: b if isinstance(b, Binding) else make_binding(b)
             for param, b in zip(params, bindings)}
    return forms.eval_form(table, form_name, named)


# ---------------------------------------------------------------------------
# Corpus listing


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str  # program | form | proportion | golden
    path: str  # data-relative


def corpus_entries() -> tuple:
    return tuple(CorpusEntry(stem, kind, f"{folder}/{stem}{suffix}")
                 for folder, (kind, suffix) in _FOLDERS.items() for stem in names(folder))


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


CASES = "golden/cases.txt"


def golden_cases() -> tuple:
    """The bundled golden cases, in file order."""
    key = ("golden",)
    if key not in _cache:
        _cache[key] = parse_golden_cases(data_text(CASES))
    return _cache[key]


def parse_golden_cases(text: str) -> tuple:
    """Golden cases from text in the format of `golden/cases.txt`; each
    error is a ParseError at its line of that file."""

    def fail(lineno: int, message: str) -> ParseError:
        return ParseError(message, source=CASES, line=lineno)

    cases: dict = {}  # name -> (the line of its name:, its other fields)
    fields: dict = {}
    for lineno, key, value in key_value_lines(text, ("name", "note", "run", "expect", "pinned"), fail):
        if key == "name":
            if value in cases:
                raise fail(lineno, f"duplicate case {value}")
            fields = {}
            cases[value] = (lineno, fields)
        elif not cases:
            raise fail(lineno, f"{key}: comes before the first name:")
        elif key in fields:
            raise fail(lineno, f"duplicate key {key}")
        else:
            if key in ("expect", "pinned"):
                try:
                    data_text(_normalize(value, "programs"))
                except ParseError:
                    raise fail(lineno, f"{key}: names no bundled entry {value}") from None
            fields[key] = value
    for name, (lineno, fields) in cases.items():
        for required in ("note", "run", "expect"):
            if required not in fields:
                raise fail(lineno, f"case {name} has no {required}:")
    return tuple(GoldenCase(name, f["note"], tuple(f["run"].split()), f["expect"], f.get("pinned"))
                 for name, (_, f) in cases.items())


@dataclass(frozen=True)
class GoldenResult:
    name: str
    ok: bool
    seconds: float
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
        return GoldenResult(case.name, False, seconds,
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
        return GoldenResult(case.name, ok, seconds, detail)

    still_differs = not same(case.expected)
    stable = same(case.pinned_actual)
    ok = still_differs and stable
    if ok:
        detail = "documented mismatch: stated value differs, pinned value stable"
    elif not still_differs:
        detail = "documented mismatch vanished: output now equals the stated value"
    else:
        detail = f"pinned value drifted: got {_one_line(got_text)}"
    return GoldenResult(case.name, ok, seconds, detail, documented_mismatch=True)


def run_golden_suite(only: Optional[str] = None) -> list:
    results = []
    for case in golden_cases():
        if only is not None and only not in case.name:
            continue
        results.append(run_golden_case(case))
    return results
