"""The benchmark's traced run replaces engine functions by name on the
modules that call them; installing it must keep working as the engine
changes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PRELUDE = (
    "import sys\n"
    f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
    "import tracing\n"
    "tracer = tracing.Tracer()\n"
    "tracing.install(tracer)\n"
)


def _run(script):
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_tracer_installs_on_every_hooked_module():
    _run("")


def test_form_evaluation_reaches_the_traced_callees():
    # A form operator bound to `algebra.compose` or `unify.apply` when its
    # module is imported would bypass the wrappers and count 0.
    _run(
        "from hornalg.forms import Evaluator, make_binding, parse_forms\n"
        "from hornalg.parser import parse_program\n"
        "t = parse_forms('form C(X) = X o X; form S(X) = X[Y := a];')\n"
        "x = {'X': make_binding(parse_program('p(a). q(Y) :- p(Y).'))}\n"
        "tracer.active = True\n"
        "Evaluator(t).eval(t['C'].body, x)\n"
        "assert tracer.calls['algebra.compose'] == 1, tracer.calls\n"
        "before = tracer.calls['unify.apply']\n"
        "Evaluator(t).eval(t['S'].body, x)\n"
        "assert tracer.calls['unify.apply'] == before + 1, tracer.calls\n"
    )


def test_proof_search_reaches_the_traced_callees():
    # `sld` must call `fresh_variant` and `mgu_atoms` through its own globals
    _run(
        "from hornalg import corpus, sld\n"
        "from hornalg.parser import parse_atom\n"
        "tracer.active = True\n"
        "goal = sld.Query((parse_atom('plus(s(0),s(0),X)'),))\n"
        "assert sld.prove_with_trace(corpus.program('plus'), goal) is not None\n"
        "assert tracer.calls['unify.fresh_variant'] > 0, tracer.calls\n"
        "assert tracer.calls['unify.mgu'] > 0, tracer.calls\n"
    )


def test_composition_reaches_the_traced_callees():
    # `algebra.compose` must copy and unify through its own globals, or the
    # traced `closure` counters read 0
    _run(
        "from hornalg import algebra, corpus\n"
        "tracer.active = True\n"
        "p = corpus.program('plus')\n"
        "assert len(algebra.compose(p, p)) == 3\n"
        "assert tracer.calls['unify.fresh_variant'] > 0, tracer.calls\n"
        "assert tracer.calls['unify.unify'] > 0, tracer.calls\n"
    )
