"""Outside-in tracing of hornalg's layers, for the traced run only.

`install` wraps public functions on the module attribute each caller
looks up (`hornalg.algebra.compose` is what `forms` and `star` call), so
the engine's source is untouched.  A timed wrapper opens a span (name,
start, parent) and, when it closes, folds it into per-name totals: call
count, self time (duration minus the time its child spans cover) and
inclusive time of outermost calls.  Spans are folded as they close,
not kept as a list, because one pass of `solve` closes about half a
million of them.  Counting wrappers (the `unify` layer, which runs
millions of times) only count calls and successful results.

Wrapping is process-wide and permanent, so it is only installed in a
process that runs the traced pass and then exits.  Wrappers record only
while `Tracer.active` is set, which the harness sets around each op; the
parser also records while `Tracer.parsing` is set, around input loading.
"""

from __future__ import annotations

import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False  # inside an op
        self.parsing = False  # loading inputs: only the parser records
        self.calls: Counter = Counter()
        self.ok: Counter = Counter()  # counted calls whose result was not None
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.tally: Counter = Counter()  # work sizes: rules emitted, atoms, ...
        self._depth: Counter = Counter()
        self._stack: list = []  # child seconds of each open span

    def span(self, name: str, fn, post=None, in_setup=False):
        """Wrap `fn` in a timed span; `post(result)` may add to the tally.
        An `in_setup` span also records while `parsing` is set."""
        calls, self_s, incl_s, depth, stack = (
            self.calls, self.self_s, self.incl_s, self._depth, self._stack)

        def wrapper(*args, **kwargs):
            if not (self.active or in_setup and self.parsing):
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += dur
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if not depth[name]:
                    incl_s[name] += dur
            if post is not None:
                post(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        """Wrap `fn` to count calls and results that are not None."""
        calls, ok = self.calls, self.ok

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.active:
                calls[name] += 1
                if out is not None:
                    ok[name] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def inside(self, name: str) -> bool:
        return self._depth[name] > 0


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries named in the benchmark's README."""
    from hornalg import algebra, corpus, forms, parser, proportion, semantics, sld, syntax, unify

    t = tracer
    tally = t.tally

    def patch(name, fn, modules, wrap):
        wrapped = wrap(name, fn)
        for mod in modules:
            if getattr(mod, fn.__name__) is not fn:
                raise RuntimeError(f"{mod.__name__}.{fn.__name__} is not {name}")
            setattr(mod, fn.__name__, wrapped)

    def add(key, size=len):
        def post(out):
            tally[key] += size(out)
        return post

    def span(post=None):
        return lambda name, fn: t.span(name, fn, post)

    # proportion
    patch("proportion.solve", proportion.solve_proportion, [proportion],
          span(add("proportion.solutions")))
    patch("proportion.check", proportion.check_proportion, [proportion],
          span(add("proportion.verified", lambda report: int(report.ok))))
    patch("proportion.form_pool", proportion.form_pool, [proportion],
          span(add("proportion.forms_in_pool")))

    # forms
    forms.Evaluator.eval = t.span("forms.eval", forms.Evaluator.eval)
    forms.Evaluator._eval = t.count("forms._eval", forms.Evaluator._eval)
    patch("forms.is_nonconstant", forms.is_nonconstant, [proportion], t.count)

    # algebra
    def compose_post(out):
        tally["algebra.rules_emitted"] += len(out)
        if t.inside("algebra.star"):
            tally["algebra.closure_rounds"] += 1

    patch("algebra.compose", algebra.compose, [algebra], span(compose_post))
    patch("algebra.star", algebra.star, [algebra], span())
    patch("algebra.concatenate", algebra.concatenate, [algebra], t.count)

    # syntax
    syntax.Program.__init__ = t.span("syntax.program_build", syntax.Program.__init__)

    # unify: counted where each layer calls it, never inside unify itself
    patch("unify.apply", unify.apply, [algebra, semantics, sld, forms], t.count)
    patch("unify.fresh_variant", unify.fresh_variant, [algebra, sld], t.count)
    patch("unify.unify", unify._unify_atoms, [algebra], t.count)
    patch("unify.match", unify.match_atom, [semantics], t.count)
    patch("unify.mgu", unify.mgu_atoms, [sld], t.count)

    # semantics
    patch("semantics.least_model", semantics.least_model, [semantics],
          span(add("semantics.model_atoms")))
    patch("semantics.universe", semantics.herbrand_universe, [semantics, sld],
          span(add("semantics.universe_terms")))
    patch("semantics.ground", semantics.ground, [semantics],
          span(add("semantics.ground_rules")))

    # sld
    def proof_post(steps):
        if steps is not None:
            tally["sld.proved"] += 1
            tally["sld.proof_steps"] += len(steps)

    patch("sld.prove", sld.prove_with_trace, [sld], span(proof_post))

    # parser
    patch("parser.parse", parser.parse_program, [parser, corpus, forms],
          lambda name, fn: t.span(name, fn, add("parser.rules_parsed"), in_setup=True))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, canon_hits: int, canon_misses: int) -> dict:
    """Per-layer metrics, by the names BENCHMARK.json lists."""
    c, s, k = t.calls, t.self_s, t.tally
    return {
        "proportion.solve_self_s": s["proportion.solve"],
        "proportion.check_self_s": s["proportion.check"],
        "proportion.check_share": _ratio(t.incl_s["proportion.check"], t.incl_s["proportion.solve"]),
        "proportion.forms_in_pool": k["proportion.forms_in_pool"],
        "proportion.candidates_checked": c["proportion.check"],
        "proportion.verified_ratio": _ratio(k["proportion.verified"], c["proportion.check"]),
        "proportion.solutions": k["proportion.solutions"],
        "forms.eval_calls": c["forms.eval"],
        "forms.eval_misses": c["forms._eval"],
        "forms.memo_hit_ratio": 1 - _ratio(c["forms._eval"], c["forms.eval"]) if c["forms.eval"] else 0.0,
        "forms.eval_self_s": s["forms.eval"],
        "forms.nonconstancy_calls": c["forms.is_nonconstant"],
        "algebra.compose_calls": c["algebra.compose"],
        "algebra.compose_self_s": s["algebra.compose"],
        "algebra.rules_emitted": k["algebra.rules_emitted"],
        "algebra.closure_rounds": k["algebra.closure_rounds"],
        "algebra.concat_calls": c["algebra.concatenate"],
        "syntax.program_builds": c["syntax.program_build"],
        "syntax.program_build_self_s": s["syntax.program_build"],
        "syntax.canon_misses": canon_misses,
        "syntax.canon_hit_ratio": _ratio(canon_hits, canon_hits + canon_misses),
        "unify.apply_calls": c["unify.apply"],
        "unify.fresh_variants": c["unify.fresh_variant"],
        "unify.unify_calls": c["unify.unify"],
        "unify.unify_success_ratio": _ratio(t.ok["unify.unify"], c["unify.unify"]),
        "unify.match_calls": c["unify.match"],
        "unify.match_success_ratio": _ratio(t.ok["unify.match"], c["unify.match"]),
        "unify.mgu_calls": c["unify.mgu"],
        "unify.mgu_success_ratio": _ratio(t.ok["unify.mgu"], c["unify.mgu"]),
        "semantics.least_model_calls": c["semantics.least_model"],
        "semantics.least_model_self_s": s["semantics.least_model"],
        "semantics.model_atoms": k["semantics.model_atoms"],
        "semantics.universe_self_s": s["semantics.universe"],
        "semantics.universe_terms": k["semantics.universe_terms"],
        "semantics.ground_self_s": s["semantics.ground"],
        "semantics.ground_rules": k["semantics.ground_rules"],
        "sld.prove_calls": c["sld.prove"],
        "sld.prove_self_s": s["sld.prove"],
        "sld.proved_ratio": _ratio(k["sld.proved"], c["sld.prove"]),
        "sld.proof_steps": k["sld.proof_steps"],
        "parser.parse_self_s": s["parser.parse"],
        "parser.rules_parsed": k["parser.rules_parsed"],
    }
