"""Command-line front end.

Subcommands:
  compose FILE...            sequential composition, folded left to right
  concat FILE...             concatenation, folded left to right
  reverse FILE               rule-wise reversal
  lm FILE... [--depth N]     bounded least model, one atom per line
  query FILE... GOAL         SLD proof search (yes/no, answer, --trace)
  form-eval FORMS NAME       evaluate a named form (--bind X=SPEC ...)
  prop-check PROBLEM         verify a proportion problem's witness
  prop-solve PROBLEM         search for fourth programs (--budget SPEC)
  golden [--only SUBSTR]     run the bundled golden cases
  corpus [--kind KIND]       list the bundled data files

File arguments accept ordinary paths or `corpus:<name>` for bundled data.
Output is deterministic; `--format json` mirrors the text structure.

Exit codes: 0 success; 1 bad arguments; 2 unreadable or malformed input;
3 exhausted budget, unproved goal, or no solution; 4 failed verification.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import algebra, corpus
from .errors import (BudgetError, EngineError, FormEvalError, ParseError, ProportionError,
                     printable)
from .forms import Evaluator, eval_form, form_to_text, parse_forms
from .parser import parse_program, parse_query
from .proportion import (
    SolveBudget,
    check_proportion,
    parse_binding_spec,
    parse_proportion_file,
    solve_proportion,
)
from .semantics import DEFAULT_TERM_DEPTH, GroundingBound, least_model
from .sld import (
    DEFAULT_MAX_DEPTH,
    Query,
    answer_substitution,
    label_rules,
    prove_with_trace,
    render_answer,
    render_trace,
)
from .syntax import Program, render_atom, render_program, render_term

OK, USAGE_ERROR, INPUT_ERROR, EXHAUSTED, NOT_VERIFIED = 0, 1, 2, 3, 4

def _label_of(path: str) -> str:
    if path.startswith(corpus.PREFIX):
        path = path[len(corpus.PREFIX):]
    return Path(path).stem


def load_program_arg(path: str) -> Program:
    return parse_program(corpus.read_text(path, "programs"), source=path)


def load_forms_arg(path: str) -> dict:
    return parse_forms(corpus.read_text(path, "forms"), source=path)


def _emit(args, text_lines: list, payload: dict) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _program_out(args, result: Program) -> int:
    text = render_program(result)
    _emit(args, text.splitlines(), {"program": text.splitlines()})
    return OK


def _cmd_fold(args, op) -> int:
    programs = [load_program_arg(f) for f in args.files]
    result = programs[0]
    for nxt in programs[1:]:
        result = op(result, nxt)
    return _program_out(args, result)


def cmd_compose(args) -> int:
    return _cmd_fold(args, algebra.compose)


def cmd_concat(args) -> int:
    return _cmd_fold(args, algebra.concatenate)


def cmd_reverse(args) -> int:
    return _program_out(args, load_program_arg(args.file).reverse())


def cmd_lm(args) -> int:
    parts = [(_label_of(f), load_program_arg(f)) for f in args.files]
    program, _ = label_rules(parts)
    bound = GroundingBound(max_term_depth=args.depth)
    model = least_model(program, bound)
    lines = sorted(render_atom(a) for a in model)
    _emit(args, lines, {"atoms": lines})
    return OK


def cmd_query(args) -> int:
    if len(args.args) < 2:
        raise ParseError("query needs at least one program file and a goal",
                         source="query")
    *files, goal_text = args.args
    parts = [(_label_of(f), load_program_arg(f)) for f in files]
    program, labels = label_rules(parts)
    goals = parse_query(goal_text, source="<goal>")
    q = Query(goals)
    steps = prove_with_trace(program, q, max_depth=args.depth,
                             labels=labels if len(parts) > 1 else None)
    if steps is None:
        _emit(args, ["no"], {"result": "no"})
        return EXHAUSTED
    answers = answer_substitution(steps, q)
    lines = ["yes"]
    payload: dict = {"result": "yes"}
    if answers:
        lines.append(render_answer(answers))
        payload["answer"] = {name: render_term(t) for name, t in answers.items()}
    if args.trace:
        trace = render_trace(steps, q)
        lines.extend(trace.splitlines())
        payload["trace"] = trace.splitlines()
    _emit(args, lines, payload)
    return OK


def cmd_form_eval(args) -> int:
    table = load_forms_arg(args.forms)
    bindings = {}
    for spec in args.bind or []:
        if "=" not in spec:
            raise FormEvalError(f"--bind expects NAME=SPEC, got {spec!r}")
        name, rest = spec.split("=", 1)
        name = name.strip()
        if name in bindings:
            raise FormEvalError(f"--bind binds {name} twice")
        bindings[name] = parse_binding_spec(rest, load_program_arg)
    return _program_out(args, eval_form(table, args.name, bindings))


def _load_problem(args):
    return parse_proportion_file(
        corpus.read_text(args.problem, "proportions"),
        load_program=load_program_arg,
        load_forms=load_forms_arg,
        source=args.problem,
    )


def cmd_prop_check(args) -> int:
    spec = _load_problem(args)
    if spec.witness is None:
        raise ProportionError(f"{printable(args.problem)}: no witness to check")
    report = check_proportion(spec.problem, spec.witness, strict=args.strict_eq,
                              evaluator=Evaluator(spec.table))
    lines = report.format_lines()
    payload = {
        "line": report.line,
        "items": [
            {"code": i.code, "ok": i.ok, "detail": i.detail} for i in report.items
        ],
        "verified": report.ok,
    }
    _emit(args, lines, payload)
    return OK if report.ok else NOT_VERIFIED


def _parse_budget(text: Optional[str]) -> Optional[SolveBudget]:
    """Budget spec: a bare integer (form depth) or comma-separated
    key=value pairs over depth, vec, forms, solutions, per-s."""
    if text is None:
        return None
    text = text.strip()
    if text.isascii() and text.isdigit():
        return SolveBudget(max_form_depth=int(text))
    fields = {"depth": "max_form_depth", "vec": "max_vector_rules",
              "forms": "max_forms", "solutions": "max_solutions",
              "per-s": "witnesses_per_s"}
    values: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ProportionError(f"bad budget entry {part!r}")
        key, value = (s.strip() for s in part.split("=", 1))
        if key not in fields or not (value.isascii() and value.isdigit()):
            raise ProportionError(f"bad budget entry {part!r}")
        values[fields[key]] = int(value)
    return SolveBudget(**values)


def _vec_text(vec) -> str:
    return " ; ".join(
        "{" + " ".join(render_program(b.program).splitlines()) + "}" for b in vec
    )


def cmd_prop_solve(args) -> int:
    spec = _load_problem(args)
    budget = _parse_budget(args.budget) or SolveBudget()
    solutions = solve_proportion(spec.problem, budget,
                                 evaluator=Evaluator(spec.table))
    lines: list = []
    payload_solutions = []
    for sol in solutions:
        w = sol.witness
        lines.append("s: {" + " ".join(render_program(sol.s).splitlines()) + "}")
        lines.append(f"  line: {w.line}")
        lines.append(f"  f: {form_to_text(w.f)}")
        lines.append(f"  g: {form_to_text(w.g)}")
        lines.append("  pvec: " + _vec_text(w.pvec))
        lines.append("  rvec: " + _vec_text(w.rvec))
        payload_solutions.append({
            "s": render_program(sol.s).splitlines(),
            "line": w.line,
            "f": form_to_text(w.f),
            "g": form_to_text(w.g),
            "pvec": [render_program(b.program).splitlines() for b in w.pvec],
            "rvec": [render_program(b.program).splitlines() for b in w.rvec],
        })
    if not solutions:
        lines = ["no solutions within budget"]
    _emit(args, lines, {"solutions": payload_solutions})
    return OK if solutions else EXHAUSTED


def cmd_golden(args) -> int:
    results = corpus.run_golden_suite(only=args.only)
    if not results:
        print(f"error: no golden case matches {args.only!r}", file=sys.stderr)
        return USAGE_ERROR
    lines = []
    ok_count = 0
    for res in results:
        mark = "pass" if res.ok else "FAIL"
        ok_count += res.ok
        suffix = f" ({res.detail})" if res.detail else ""
        lines.append(f"{mark}  {res.name}  [{res.seconds:.3f}s]{suffix}")
    lines.append(f"{ok_count}/{len(results)} golden cases pass")
    payload = {
        "results": [
            {"name": r.name, "ok": r.ok, "seconds": round(r.seconds, 3),
             "detail": r.detail, "documented_mismatch": r.documented_mismatch}
            for r in results
        ],
        "passed": ok_count,
        "total": len(results),
    }
    _emit(args, lines, payload)
    return OK if ok_count == len(results) else NOT_VERIFIED


def cmd_corpus(args) -> int:
    entries = [e for e in corpus.corpus_entries()
               if args.kind is None or e.kind == args.kind]
    lines = [f"{e.kind:<10} {e.name:<24} corpus:{e.path}" for e in entries]
    payload = {"entries": [
        {"name": e.name, "kind": e.kind, "path": e.path}
        for e in entries
    ]}
    _emit(args, lines, payload)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornalg",
        description="An algebra of Horn logic programs: composition, "
                    "concatenation, closures, bounded models, SLD proofs, "
                    "program forms, and analogical proportions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("compose", cmd_compose, "sequentially compose programs, left to right")
    p.add_argument("files", nargs="+")

    p = add("concat", cmd_concat, "concatenate programs, left to right")
    p.add_argument("files", nargs="+")

    p = add("reverse", cmd_reverse, "reverse each rule of a program")
    p.add_argument("file")

    p = add("lm", cmd_lm, "bounded least model of the union of the files")
    p.add_argument("files", nargs="+")
    p.add_argument("--depth", type=int, default=DEFAULT_TERM_DEPTH,
                   help="maximum ground-term depth")

    p = add("query", cmd_query, "prove a goal against the union of the files")
    p.add_argument("args", nargs="+", metavar="FILE... GOAL")
    p.add_argument("--depth", type=int, default=DEFAULT_MAX_DEPTH,
                   help="maximum number of resolution steps")
    p.add_argument("--trace", action="store_true",
                   help="print the labeled derivation")

    p = add("form-eval", cmd_form_eval, "evaluate a named form over bindings")
    p.add_argument("forms", help="form definition file")
    p.add_argument("name", help="form name")
    p.add_argument("--bind", action="append", metavar="NAME=SPEC",
                   help="bind a form parameter, e.g. X=nat.lp or "
                        "X=corpus:tree(U,X,X) or X=corpus:nat[nat/even]")

    p = add("prop-check", cmd_prop_check, "verify a proportion problem's witness")
    p.add_argument("problem")
    p.add_argument("--strict-eq", action="store_true",
                   help="require syntactic rather than variant equality")

    p = add("prop-solve", cmd_prop_solve, "solve for the fourth program")
    p.add_argument("problem")
    p.add_argument("--budget", metavar="SPEC",
                   help="bare depth or key=value pairs over "
                        "depth, vec, forms, solutions, per-s")

    p = add("golden", cmd_golden, "run the bundled golden cases")
    p.add_argument("--only", help="run only cases whose name contains this")

    p = add("corpus", cmd_corpus, "list the bundled data files")
    p.add_argument("--kind", choices=("program", "form", "proportion", "golden"))

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else OK
    if getattr(args, "depth", 0) < 0:
        print(f"error: --depth must be at least 0, got {args.depth}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader left (`hornalg corpus | head`): shutdown flushes nowhere.
        sys.stdout = open(os.devnull, "w")
        return OK
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXHAUSTED
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except RecursionError:
        # Term traversals recurse once per nesting level.
        print("budget exhausted: term nesting exceeds the recursion limit", file=sys.stderr)
        return EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
