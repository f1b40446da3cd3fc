"""The three workloads: theory sets and seeded op lists.

Everything a run feeds to termalg is built here from the seed (and, for
``decide``, from the class representatives recorded in the fixture), using
only the term constructors ``Var`` and ``Node`` and the theory constructors.
"""

from __future__ import annotations

import itertools
import random

from termalg.deduction import SweepBounds
from termalg.terms import Node, Var, parse_term
from termalg.theories import AxiomsTheory, Identity, OracleConfig, theory_from_name

from certify import instantiate, match, replaced, subterm, term_vars

SIGMA2 = "grp-rule:f(f(x1,x2),x3)=f(x2,x3)"

# Criterion 09: the 35 sweeps, each (theory spec, mode).  A spec is a
# built-in theory name or "axioms:<identity>" for a bounded-oracle theory.
CRITERION_09 = (
    (("idempotent", "SigmaR1"), ("commutative", "SigmaR1"))
    + tuple(
        (f"axioms:f(f(x{i},x{j}),x{k})=f(x{m},x{m})", "SigmaR1")
        for i, j, k, m in itertools.product((1, 2), repeat=4)
    )
    + tuple((name, "SigmaR1") for name in ("sg-abs-1-2", "sg-abs-2-3", "sg-abs-1-3", "assoc", SIGMA2))
    + tuple(
        (f"grp-rule:{fam}=f(x{i},x{j})", "SR1")
        for fam in ("f(f(x1,x2),x3)", "f(x1,f(x2,x3))")
        for i, j in itertools.permutations((1, 2, 3), 2)
    )
)
CRITERION_09_BOUNDS = SweepBounds(3, 3, 3)
CRITERION_09_STEPS = 5000

# Criterion 11: the exact deciders and their query domain (Len <= 4 over x1..x3).
CRITERION_11_THEORIES = (
    ("idempotent", "commutative", "assoc")
    + tuple(f"sg-abs-{i}-{j}" for i in (1, 2, 3) for j in (1, 2, 3))
    + (SIGMA2,)
)

# The benchmark sweeps at max_vars = 2: at the CLI default of 3 one exact
# sweep takes 10-23 s, too long to repeat within a run.  Bounded theories get
# 1000 BFS steps instead of criterion 09's 5000 for the same reason; the
# Unknowns stay (9 in each member of the bounded stratum).
SWEEP_BOUNDS = SweepBounds(3, 2, 3)
BENCH_STEPS = 1000

# Each stratum is one sweep, or two sweeps that cost about the same (mirror
# images, x1 and x2 swapped or the arguments reversed, where the family has
# them).  The seed picks one member of every stratum, so every seed sweeps
# the same amount of work.  The middle of the seven ops
# (op_p50_ms) is the fixed assoc or Sigma2 sweep, which cost about the same;
# the next cheaper one (idempotent) is about 10% faster.
SWEEP_STRATA = (
    ("SigmaR1", ("idempotent",)),
    ("SigmaR1", ("assoc",)),
    ("SigmaR1", (SIGMA2,)),
    ("SigmaR1", ("sg-abs-1-2", "sg-abs-2-3")),
    ("SR1", ("grp-rule:f(f(x1,x2),x3)=f(x1,x3)", "grp-rule:f(x1,f(x2,x3))=f(x1,x3)")),
    ("SR1", ("grp-rule:f(f(x1,x2),x3)=f(x2,x1)", "grp-rule:f(f(x1,x2),x3)=f(x3,x2)")),
    ("SigmaR1", ("axioms:f(f(x1,x1),x2)=f(x2,x2)", "axioms:f(f(x2,x2),x1)=f(x1,x1)")),
)

DECIDE_EXACT = (
    "idempotent",
    "commutative",
    "assoc",
    "sg-abs-1-2",
    SIGMA2,
    "grp-rule:f(f(x1,x2),x3)=f(x1,x2)",
)
# Theories with i != j: under the i == j ones about one query in fifty needs
# up to a second of BFS, which would make a pass's time depend on the seed.
# Their BFS cost stays in the fixed Unknown probes below.
DECIDE_BOUNDED = (
    "axioms:f(f(x1,x2),x1)=f(x1,x1)",
    "axioms:f(f(x1,x2),x2)=f(x2,x2)",
    "axioms:f(f(x2,x1),x1)=f(x1,x1)",
    "axioms:f(f(x2,x1),x2)=f(x2,x2)",
)
DECIDE_PAIRS_PER_EXACT = 500
DECIDE_IDENTITIES_PER_BOUNDED = 75
# fixed queries that exhaust the BFS budget (recorded in the fixture), so
# every seed pays the same Unknown cost
DECIDE_UNKNOWN_PROBES = 2

NORMALIZE_THEORIES = (
    "idempotent",
    "commutative",
    "assoc",
    "sg-abs-1-2",
    SIGMA2,
    "grp-rule:f(f(x1,x2),x3)=f(x1,x3)",
)
# Len of the corpus terms: the same multiset for every seed, mean 24
NORMALIZE_LENGTHS = (16, 20, 24, 28, 32) * 10
NORMALIZE_DEPTH = 7
NORMALIZE_VARS = 4
NORMALIZE_STRATEGY_TERMS = 10
NORMALIZE_STRATEGY_SEEDS = (0, 1)
# a corpus that is the same for every seed; its normal forms are in the
# fixture, so a wrong or missed redex shows as a mismatch
NORMALIZE_FIXED_LENGTHS = (16, 20, 24, 28, 32)
NORMALIZE_FIXED_SEED = "normalize-fixture"


def build_theory(spec, steps=BENCH_STEPS):
    """A fresh theory object for a spec (built-in name or "axioms:<identity>")."""
    if spec.startswith("axioms:"):
        axiom = Identity.parse(spec[len("axioms:") :])
        return AxiomsTheory(
            (axiom,), config=OracleConfig(max_deduction_steps=steps), name="axioms:" + axiom.text()
        )
    return theory_from_name(spec)


# --- op lists -----------------------------------------------------------------


def sweep_ops(seed):
    """[(spec, mode)]: one seeded member of every stratum, in stratum order
    (a fixed order keeps peak memory independent of the seed)."""
    rng = random.Random(seed)
    return [(rng.choice(members), mode) for mode, members in SWEEP_STRATA]


def decide_ops(seed, fixture):
    """[(spec, left, right, kind)] with kind "exact", "true", "perturbed" or "probe"."""
    rng = random.Random(seed)
    ops = []
    for spec in DECIDE_EXACT:
        reps = [parse_term(text) for text in fixture["decide"]["representatives"][spec]]
        for _ in range(DECIDE_PAIRS_PER_EXACT):
            a, b = rng.sample(reps, 2)
            ops.append((spec, a, b, "exact"))
    for spec in DECIDE_BOUNDED:
        axiom = Identity.parse(spec[len("axioms:") :])
        for _ in range(DECIDE_IDENTITIES_PER_BOUNDED):
            t, s = derived_identity(rng, axiom)
            ops.append((spec, t, s, "true"))
            ops.append((spec, t, perturb_leaf(rng, s), "perturbed"))
    for spec, left, right in fixture["decide"]["unknown_probes"][:DECIDE_UNKNOWN_PROBES]:
        ops.append((spec, parse_term(left), parse_term(right), "probe"))
    rng.shuffle(ops)
    return ops


def normalize_fixed_corpus():
    rng = random.Random(NORMALIZE_FIXED_SEED)
    return [
        random_term_of_length(rng, n, NORMALIZE_DEPTH, NORMALIZE_VARS) for n in NORMALIZE_FIXED_LENGTHS
    ]


def normalize_ops(seed):
    """[(spec, term, mode, strategy seed or None, fixed-corpus index or None)]
    over a seeded corpus plus the fixed corpus."""
    rng = random.Random(seed)
    corpus = [
        random_term_of_length(rng, n, NORMALIZE_DEPTH, NORMALIZE_VARS) for n in NORMALIZE_LENGTHS
    ]
    ops = []
    for spec in NORMALIZE_THEORIES:
        for t in corpus:
            ops.append((spec, t, "S", None, None))
            ops.append((spec, t, "E", None, None))
        for t in corpus[:NORMALIZE_STRATEGY_TERMS]:
            for mode in ("S", "E"):
                for strategy_seed in NORMALIZE_STRATEGY_SEEDS:
                    ops.append((spec, t, mode, strategy_seed, None))
        for k, t in enumerate(normalize_fixed_corpus()):
            ops.append((spec, t, "S", None, k))
            ops.append((spec, t, "E", None, k))
    rng.shuffle(ops)
    return ops


# --- input generators ---------------------------------------------------------


def random_term(rng, size, num_vars):
    """A random term with ``size`` inner nodes."""
    if size == 0:
        return Var(rng.randint(1, num_vars))
    k = rng.randint(0, size - 1)
    return Node(random_term(rng, k, num_vars), random_term(rng, size - 1 - k, num_vars))


def random_term_of_length(rng, length, max_depth, num_vars):
    """A random term with exactly ``length`` leaves and depth <= max_depth."""
    if length == 1:
        return Var(rng.randint(1, num_vars))
    cap = 2 ** (max_depth - 1)
    k = rng.randint(max(1, length - cap), min(length - 1, cap))
    return Node(
        random_term_of_length(rng, k, max_depth - 1, num_vars),
        random_term_of_length(rng, length - k, max_depth - 1, num_vars),
    )


def _positions(t):
    out = []
    stack = [(t, ())]
    while stack:
        u, p = stack.pop()
        out.append(p)
        if isinstance(u, Node):
            stack.append((u.right, p + (2,)))
            stack.append((u.left, p + (1,)))
    return out


def _rewrite_once(rng, t, axiom, num_vars):
    """t with one seeded axiom instance applied (either direction), or t."""
    options = []
    for p in _positions(t):
        for src, dst in ((axiom.lhs, axiom.rhs), (axiom.rhs, axiom.lhs)):
            binding = match(src, subterm(t, p), {})
            if binding is not None:
                options.append((p, dst, binding))
    if not options:
        return t
    p, dst, binding = rng.choice(options)
    for x in sorted(term_vars(dst) - binding.keys()):
        binding[x] = Var(rng.randint(1, num_vars))
    return replaced(t, p, instantiate(dst, binding))


def derived_identity(rng, axiom, num_vars=3, max_size=8):
    """A true identity (t, s): t holds one planted axiom instance and s is
    reached from t by one to three seeded axiom-instance rewrites."""
    while True:
        t = random_term(rng, rng.randint(0, 2), num_vars)
        src = axiom.lhs if rng.random() < 0.5 else axiom.rhs
        planted = instantiate(src, {x: Var(rng.randint(1, num_vars)) for x in term_vars(src)})
        p = rng.choice(_positions(t))
        t = replaced(t, p, planted)
        s = t
        for _ in range(rng.randint(1, 3)):
            nxt = _rewrite_once(rng, s, axiom, num_vars)
            if nxt.size <= max_size:
                s = nxt
        if s != t:
            return t, s


def perturb_leaf(rng, t, num_vars=4):
    """t with one seeded leaf replaced by a different variable."""
    leaves = [p for p in _positions(t) if isinstance(subterm(t, p), Var)]
    p = rng.choice(leaves)
    old = subterm(t, p).index
    return replaced(t, p, Var(rng.choice([i for i in range(1, num_vars + 1) if i != old])))
