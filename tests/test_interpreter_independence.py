"""Results do not depend on the interpreter.

Terms hash by identity, so the iteration order of a set of terms follows
memory addresses and differs between interpreter runs.  One script is run in
two fresh interpreters, and their outputs must agree byte for byte: a
bounded sweep, an exact sweep with violations, the proof search's neighbour
lists, essential_subterms with the oracle questions it asks, and a bounded
closure.  The second run first builds and keeps some terms of its own, so
that every later term sits at another address than in the first run, and
the two runs hash strings with different seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PADDING = 101  # terms the second run keeps before it starts

SCRIPT = r"""
import json
import random
import sys

from termalg.deduction import ClosureBounds, SweepBounds, bounded_closure, check_stability
from termalg.essentiality import essential_subterms
from termalg.errors import UndecidedError
from termalg.terms import Node, Var, flat_code, parse_term, random_term, term_to_text
from termalg.theories import Identity, OracleConfig, Theory, theory_from_name

padding = [Node(Var(100 + i), Var(100)) for i in range(int(sys.argv[1]))]


def theory(axiom, **bounds):
    return Theory((Identity.parse(axiom),), OracleConfig(**bounds))


# a bounded sweep with Unknowns
report = check_stability(
    theory("f(f(x2,x2),x1)=f(x1,x1)", max_deduction_steps=300), "SigmaR1", SweepBounds(3, 2, 2)
)
print(json.dumps(report.to_json(), sort_keys=True))

# an exact sweep whose buckets and renaming orbits are found through dicts
# keyed by terms: of its three violations, with their counter-models, two are
# found in buckets that read another bucket's partition
report = check_stability(theory_from_name("assoc"), "SigmaR1", SweepBounds(2, 3, 1))
assert len(report.violations) == 3
print(json.dumps(report.to_json(), sort_keys=True))

# neighbour lists, where a right-side variable the left side lacks takes
# pool values
rng = random.Random(13)
for axiom in ("f(f(x1,x2),x1)=f(x2,x2)", "f(f(x4,x5),x6)=f(x4,f(x5,x3))"):
    thy = theory(axiom)
    for _ in range(30):
        code = flat_code(random_term(rng, 4, rng.randint(1, 4), leaf_prob=0.3))
        print(axiom, code, thy._neighbors(code))

# essential_subterms under bounds that leave some of its questions Unknown:
# the questions in order, then its result or the query it gave up on
CASES = (
    ("f(f(x1,x1),x2)=f(x1,x1)", 3, "f(f(f(f(x1,x2),f(x1,x2)),f(f(x1,x2),f(x1,x2))),"
     "f(f(f(x1,x2),f(x1,x1)),f(f(x1,x3),x3)))"),
    ("f(f(x1,x1),x2)=f(x1,x1)", 30, "f(f(f(x3,x3),f(x1,x1)),f(f(x1,x1),f(x1,x1)))"),
    ("f(f(x1,x1),x2)=f(x1,x1)", 30, "f(f(x2,x2),f(f(f(x2,x1),f(x1,x1)),f(f(x2,x1),f(x3,x3))))"),
    ("f(f(x1,x2),x3)=f(x1,x3)", 30, "f(f(f(f(x1,x1),f(x1,x2)),f(f(x1,x1),f(x1,x2))),x1)"),
)
for axiom, steps, text in CASES:
    thy = theory(axiom, max_model_size=2, max_deduction_steps=steps)
    asked = []
    equal = thy.equal

    def logged(t, s, equal=equal, asked=asked):
        asked.append((term_to_text(t), term_to_text(s)))
        return equal(t, s)

    thy.equal = logged
    try:
        got = sorted(term_to_text(u) for u in essential_subterms(parse_term(text), thy))
    except UndecidedError as e:
        got = [term_to_text(u) for u in e.query]
    print(axiom, text, asked, got)

# a bounded closure
axioms = (Identity.parse("f(f(x1,x2),x2)=f(x2,x2)"),)
for ident in bounded_closure(axioms, bounds=ClosureBounds(6, 3, 2, 300)):
    print(ident.text())
"""


def run_script(padding, hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(padding)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_two_interpreters_print_the_same_results():
    first = run_script(0, hash_seed=1)
    assert first.count("\n") > 60
    assert run_script(PADDING, hash_seed=2) == first
