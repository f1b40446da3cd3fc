"""Derivation rules, bounded closures, and the stability sweep checkers.

The classical rules D1-D5 (reflexivity, symmetry, transitivity, single-variable
substitution, positional replacement) plus the two replacement rules that
characterize stability:

* SigmaR1 replaces a shared essential subterm on both sides of a proved
  identity via theory composition;
* SR1 does the same via star (essential) composition.

check_stability sweeps all small terms for violations: proved identities whose
replaced versions the theory refutes.  A validated violation is a concrete
counterexample to closure under the rule; absence of violations is evidence
only up to the sweep bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import eval_term, satisfies
from .compose import sigma_compose, star_compose
from .errors import BoundsError, SideConditionError, UndecidedError
from .essentiality import decided_report, is_essential_subterm
from .terms import (
    Node,
    Term,
    Var,
    enumerate_terms,
    max_var_index,
    preorder,
    replace_at,
    subterm_at,
    subterm_set,
    substitute,
    term_to_text,
    var_set,
)
from .theories import (
    REFUTED,
    UNKNOWN,
    CounterModel,
    Derivation,
    DistinctCanonicalKeys,
    Identity,
    OracleConfig,
    Theory,
    term_sort_key,
)

RULE_TAGS = ("D1", "D2", "D3", "D4", "D5", "SigmaR1", "SR1")


def apply_rule(rule: str, premises, data=None, theory: Theory | None = None) -> Identity:
    """Apply one derivation rule to premise identities and rule-specific data.

    data keys: D1 "term"; D4 "var" (index) and "term"; D5 "context" and
    "position"; SigmaR1/SR1 "pattern" (the subterm r) and "replacement" (u).
    Side-condition failures raise SideConditionError naming the condition.
    """
    data = data or {}
    premises = tuple(premises)
    if rule not in RULE_TAGS:
        raise SideConditionError(f"unknown rule {rule!r}")

    if rule == "D1":
        t = data["term"]
        return Identity(t, t)

    if rule == "D2":
        _need_premises(rule, premises, 1)
        return premises[0].flipped()

    if rule == "D3":
        _need_premises(rule, premises, 2)
        first, second = premises
        if first.rhs != second.lhs:
            raise SideConditionError(
                "D3: middle terms differ "
                f"({term_to_text(first.rhs)} vs {term_to_text(second.lhs)})"
            )
        return Identity(first.lhs, second.rhs)

    if rule == "D4":
        _need_premises(rule, premises, 1)
        index, r = data["var"], data["term"]
        ident = premises[0]
        return Identity(
            substitute(ident.lhs, {index: r}), substitute(ident.rhs, {index: r})
        )

    if rule == "D5":
        _need_premises(rule, premises, 1)
        context, p = data["context"], tuple(data["position"])
        ident = premises[0]
        if subterm_at(context, p) != ident.lhs:
            raise SideConditionError(
                f"D5: subterm of the context at {p} is not the premise left side"
            )
        return Identity(replace_at(context, p, ident.rhs), context)

    # SigmaR1 / SR1
    _need_premises(rule, premises, 1)
    if theory is None:
        raise SideConditionError(f"{rule}: a theory is required")
    t, s = premises[0].lhs, premises[0].rhs
    r, u = data["pattern"], data["replacement"]
    premise_holds = theory.equal(t, s)
    if premise_holds is None:
        raise SideConditionError(f"{rule}: premise {premises[0].text()} is undecided")
    if premise_holds is False:
        raise SideConditionError(
            f"{rule}: premise {premises[0].text()} does not hold in the theory"
        )
    for side_name, side in (("left", t), ("right", s)):
        if not is_essential_subterm(r, side, theory):
            raise SideConditionError(
                f"{rule}: {term_to_text(r)} is not an essential subterm of the "
                f"{side_name} side {term_to_text(side)}"
            )
    compose = _compose_for(rule)
    return Identity(compose(t, r, u, theory), compose(s, r, u, theory))


def _compose_for(rule):
    """The composition of rule SigmaR1 or SR1, which a sweep's mode names."""
    return sigma_compose if rule == "SigmaR1" else star_compose


def _need_premises(rule, premises, count):
    if len(premises) != count:
        raise SideConditionError(f"{rule}: expected {count} premise(s), got {len(premises)}")


# --- bounded closure ----------------------------------------------------------


@dataclass(frozen=True)
class ClosureBounds:
    """Bounds of bounded_closure, whose max_identities is a soft cap."""

    max_term_length: int = 6
    max_vars: int = 4
    max_rounds: int = 6
    max_identities: int = 5000

    def __post_init__(self):
        if min(self.max_term_length, self.max_vars, self.max_rounds, self.max_identities) < 1:
            raise BoundsError("closure bounds must be positive")


def _closure_pool(max_vars):
    """Substitution/context pool: all variables and two-leaf terms."""
    variables = [Var(i) for i in range(1, max_vars + 1)]
    return variables + [Node(a, b) for a in variables for b in variables]


def bounded_closure(axioms, rules=RULE_TAGS[:5], bounds: ClosureBounds | None = None,
                    theory: Theory | None = None):
    """Least fixpoint of the given rules over the axioms, within bounds.

    Substitutions (D4) and contexts (D5) draw from the pool of variables and
    two-leaf terms; deep contexts arise by iterating rounds.  Returns the
    derived identities in a deterministic order.

    bounds.max_identities is a soft cap: reaching it ends only the innermost
    loop of a rule, and the outer loops and later rules for the same
    identity each add up to one more (the bounded sweeps' closures reach 413
    identities for a cap of 400).
    """
    bounds = bounds or ClosureBounds()
    rules = tuple(rules)
    pool = _closure_pool(bounds.max_vars)

    def fits(ident):
        return (
            ident.lhs.length <= bounds.max_term_length
            and ident.rhs.length <= bounds.max_term_length
        )

    known = {}  # insertion-ordered set
    for ax in axioms:
        if fits(ax):
            known[ax] = None
    if "D1" in rules:
        for w in pool:
            known.setdefault(Identity(w, w), None)

    for _ in range(bounds.max_rounds):
        if len(known) >= bounds.max_identities:
            break
        current = list(known)
        by_lhs = {}
        for ident in current:
            by_lhs.setdefault(ident.lhs, []).append(ident)
        fresh = []

        def emit(ident):
            if fits(ident) and ident not in known:
                known[ident] = None
                fresh.append(ident)
            return len(known) < bounds.max_identities

        for ident in current:
            if len(known) >= bounds.max_identities:
                break
            if "D2" in rules:
                if not emit(ident.flipped()):
                    break
            if "D3" in rules:
                for follower in by_lhs.get(ident.rhs, ()):
                    if not emit(Identity(ident.lhs, follower.rhs)):
                        break
            if "D4" in rules:
                for index in sorted(var_set(ident.lhs) | var_set(ident.rhs)):
                    for r in pool:
                        if not emit(apply_rule("D4", (ident,), {"var": index, "term": r})):
                            break
            if "D5" in rules:
                for w in pool:
                    for context, p in (
                        (Node(ident.lhs, w), (1,)),
                        (Node(w, ident.lhs), (2,)),
                    ):
                        derived = apply_rule(
                            "D5", (ident,), {"context": context, "position": p}
                        )
                        if not emit(derived):
                            break
            for tag in ("SigmaR1", "SR1"):
                if tag not in rules:
                    continue
                reps = _essential_subterm_reps(ident.lhs, ident.rhs, theory)
                for r in reps:
                    for u in pool[: bounds.max_vars]:
                        try:
                            derived = apply_rule(
                                tag, (ident,), {"pattern": r, "replacement": u}, theory
                            )
                        except (SideConditionError, UndecidedError):
                            continue
                        if not emit(derived):
                            break
        if not fresh:
            break
    return tuple(known)


def _essential_subterm_reps(t, s, theory):
    """Representatives of the equivalence classes of SEss(t) ∩ SEss(s)."""
    reps = []
    for candidate in sorted(subterm_set(t) | subterm_set(s), key=term_sort_key):
        if any(theory.equal(candidate, seen) is True for seen in reps):
            continue
        if is_essential_subterm(candidate, t, theory) and is_essential_subterm(
            candidate, s, theory
        ):
            reps.append(candidate)
    return reps


# --- stability sweeps ---------------------------------------------------------

# the most terms an exact sweep enumerates: it keeps 1.5-2.5 KB per term
MAX_EXACT_SWEEP_TERMS = 250_000


@dataclass(frozen=True)
class SweepBounds:
    max_depth: int = 3
    max_vars: int = 3
    max_u_size: int = 3

    def __post_init__(self):
        if min(self.max_depth, self.max_vars, self.max_u_size) < 1:
            raise BoundsError("sweep bounds must be positive")


@dataclass(frozen=True)
class Violation:
    t: Term
    s: Term
    r: Term
    u: Term
    left: Term
    right: Term
    certificate: object

    def to_json(self):
        return {
            "t": term_to_text(self.t),
            "s": term_to_text(self.s),
            "r": term_to_text(self.r),
            "u": term_to_text(self.u),
            "left": term_to_text(self.left),
            "right": term_to_text(self.right),
            "certificate": certificate_to_json(self.certificate),
        }


@dataclass
class StabilityReport:
    theory: Theory
    mode: str  # "SigmaR1" | "SR1"
    bounds: SweepBounds
    violations: list = field(default_factory=list)
    unknowns: list = field(default_factory=list)  # (t, s, r or None, reason)
    candidates: int = 0
    exhaustive: bool = True

    @property
    def unknown_fraction(self):
        return len(self.unknowns) / self.candidates if self.candidates else 0.0

    def to_json(self):
        return {
            "theory": self.theory.name,
            "mode": self.mode,
            "bounds": {
                "maxDepth": self.bounds.max_depth,
                "maxVars": self.bounds.max_vars,
                "maxReplacementSize": self.bounds.max_u_size,
            },
            "exhaustive": self.exhaustive,
            "candidates": self.candidates,
            "violations": [v.to_json() for v in self.violations],
            "unknowns": [
                {
                    "t": term_to_text(t),
                    "s": term_to_text(s),
                    "r": term_to_text(r) if r is not None else None,
                    "reason": reason,
                }
                for t, s, r, reason in self.unknowns
            ],
        }


def certificate_to_json(certificate):
    if certificate is None:
        return None
    if isinstance(certificate, CounterModel):
        return {
            "kind": "counter-model",
            "size": certificate.algebra.size,
            "table": list(certificate.algebra.to_flat()),
            "assignment": [[i, v] for i, v in certificate.assignment],
        }
    if isinstance(certificate, Derivation):
        return {
            "kind": "derivation",
            "method": certificate.method,
            "steps": list(certificate.steps),
        }
    if isinstance(certificate, DistinctCanonicalKeys):
        return {
            "kind": "distinct-canonical-keys",
            "left": str(certificate.left_key),
            "right": str(certificate.right_key),
        }
    if isinstance(certificate, OracleConfig):  # the bounds an Unknown exhausted
        return {
            "kind": "exhausted-bounds",
            "maxModelSize": certificate.max_model_size,
            "maxDeductionTermSize": certificate.max_deduction_term_size,
            "maxDeductionSteps": certificate.max_deduction_steps,
        }
    return {"kind": type(certificate).__name__, "detail": repr(certificate)}


def check_stability(
    theory: Theory, mode: str, bounds: SweepBounds | None = None
) -> StabilityReport:
    """Sweep small proved identities for rule violations.

    mode "SigmaR1" tests closure under theory composition, mode "SR1" under
    star composition.  Exact theories get a complete sweep of all terms within
    bounds (grouped by canonical form); theories with only a bounded oracle
    get candidates from a bounded derivation closure and exhaustive=False.

    The only replacement tried is one fresh variable, which already decides
    whether violations exist: any violating replacement u factors through the
    fresh variable by substitution, so a violation for some u is a violation
    for the fresh variable too.  bounds.max_u_size is only recorded in the
    report.
    """
    if mode not in ("SigmaR1", "SR1"):
        raise ValueError(f"mode must be 'SigmaR1' or 'SR1', got {mode!r}")
    bounds = bounds or SweepBounds()
    u = Var(bounds.max_vars + 1)
    report = StabilityReport(theory, mode, bounds)
    if theory.exact:
        # T(0) = v, T(d) = T(d-1)**2 + v terms of depth <= d over v variables
        count, depth = bounds.max_vars, 0
        while count <= MAX_EXACT_SWEEP_TERMS and depth < bounds.max_depth:
            count, depth = count * count + bounds.max_vars, depth + 1
        if count > MAX_EXACT_SWEEP_TERMS:
            raise BoundsError(
                f"sweep bounds (depth {bounds.max_depth}, {bounds.max_vars} variables) give "
                f"at least {count:,} terms; an exact sweep takes {MAX_EXACT_SWEEP_TERMS:,} at most"
            )
        _sweep_exact(theory, mode, bounds, report, u)
    else:
        report.exhaustive = False
        _sweep_bounded(theory, mode, bounds, report, u)
    return report


def _sweep_exact(theory, mode, bounds, report, u):
    """Sweep every key bucket of the enumerated terms, once per renaming orbit.

    A bucket holds the enumerated terms of one key.  Each essential-subterm
    class of a bucket groups the members that have it; a group whose
    compositions with the class's representative r fall into two or more
    classes gives one violation per class after the first.

    A permutation π of x1..xv maps the enumeration onto itself, and with an
    exact theory key(πt) = key(πs) exactly when key(t) = key(s).  So the image
    πB of a bucket B is a bucket, and the buckets fall into orbits.  The
    first bucket of an orbit to be visited, its representative, composes
    every member of every group and keeps each splitting group's partition
    by composed class.  It finds the rest of its orbit by a breadth-first
    search over two generators of S_v (the swap of x1 and x2, and the cycle
    x1 -> x2 -> ... -> xv -> x1): one renamed member per bucket and
    generator, so the search keys two terms per bucket of the orbit, not v!
    per bucket.  Each later bucket B' = πB of the orbit is then known as an
    image before it is visited, with π kept on the variables of B, and
    reads the partition through π⁻¹ instead of composing:

    * essentiality commutes with renaming (one report serves a whole
      rename_canonical class), so the group of B' for r' is π applied to the
      group of B for the class of π⁻¹r';
    * compositions depend on r only through its class, and π fixes u =
      x_{v+1}, so compose(πt, r', u) = π·compose(t, r, u) when r' ≈ πr; the
      partition of the group of B' by composed class is therefore the image
      of the partition of the group of B.

    Where a group of an image splits, the image composes the first member
    of each composed class in group order, which is the composition a full
    sweep keeps of that class.  What does not commute with π it computes
    afresh: its representatives (term_sort_key is not π-invariant) and the
    counter-models of its violations.  So the report is the one a sweep
    gives in which every bucket composes every member.
    """
    compose = _compose_for(mode)
    key = theory._cached_key
    # every subterm of an enumerated term is enumerated, so one sort ranks them
    # all; buckets filled in rank order come in order and list members in order
    ranked = sorted(enumerate_terms(bounds.max_depth, bounds.max_vars), key=term_sort_key)
    rank = {t: i for i, t in enumerate(ranked)}
    buckets = {}
    for t in ranked:
        buckets.setdefault(key(t), []).append(t)
    # generators of the renamings of x1..xv, as index maps and as substitutions;
    # u = x_{v+1} is fixed by both
    v = bounds.max_vars
    generators = [{1: 2, 2: 1}] if v >= 2 else []
    if v >= 3:
        generators.append({i: i % v + 1 for i in range(1, v + 1)})
    generators = [(g, {i: Var(j) for i, j in g.items()}) for g in generators]
    # image bucket's key -> (its representative's partitions, π on the
    # representative's variables)
    images = {}

    for bucket_key, members in buckets.items():
        if len(members) < 2:
            continue
        # essential-subterm classes per member, keyed by canonical form
        rep_for_class = {}
        classes_of = {}
        for t in members:
            verdicts = decided_report(t, theory).verdicts
            keys = set()
            for sub, sub_key, fictive in zip(preorder(t), theory.key_vector(t), verdicts):
                if fictive:
                    continue
                keys.add(sub_key)
                prior = rep_for_class.get(sub_key)
                if prior is None or rank[sub] < rank[prior]:
                    rep_for_class[sub_key] = sub
            classes_of[t] = keys

        image = images.pop(bucket_key, None)
        if image is None:
            # a representative: its orbit, each bucket with the π that maps
            # this bucket onto it; the images read the partitions it fills
            partitions = {}
            orbit = {bucket_key: {i: i for t in members for i in var_set(t)}}
            queue = [bucket_key]
            for orbit_key in queue:
                pi, t = orbit[orbit_key], buckets[orbit_key][0]
                for g, renaming in generators:
                    next_key = key(substitute(t, renaming))
                    if next_key not in orbit:
                        orbit[next_key] = {i: g.get(j, j) for i, j in pi.items()}
                        queue.append(next_key)
            for orbit_key in queue[1:]:
                images[orbit_key] = (partitions, orbit[orbit_key])
        else:
            partitions, pi = image
            inverse = {j: Var(i) for i, j in pi.items()}

        for sub_key in sorted(rep_for_class, key=lambda k: rank[rep_for_class[k]]):
            r = rep_for_class[sub_key]
            group = [t for t in members if sub_key in classes_of[t]]
            if len(group) < 2:
                continue
            report.candidates += len(group)
            if image is not None:
                # only a group that split in the representative splits here;
                # its first member of each composed class stands for the class
                partition = partitions.get(key(substitute(r, inverse)))
                if partition is None:
                    continue
                firsts = {}
                for t in group:
                    firsts.setdefault(partition[substitute(t, inverse)], t)
                group = firsts.values()
            partition = {}
            composed = {}
            for t in group:
                result = compose(t, r, u, theory)
                partition[t] = result_key = key(result)
                composed.setdefault(result_key, (t, result))
            if len(composed) > 1:
                if image is None:
                    partitions[sub_key] = partition
                outcomes = sorted(composed.values(), key=lambda pair: term_sort_key(pair[1]))
                (t0, left), rest = outcomes[0], outcomes[1:]
                for s0, right in rest:
                    verdict = theory.decide(left, right)
                    assert verdict.outcome == REFUTED
                    report.violations.append(
                        Violation(t0, s0, r, u, left, right, verdict.certificate)
                    )


def _sweep_bounded(theory, mode, bounds, report, u):
    compose = _compose_for(mode)
    closure_bounds = ClosureBounds(
        max_term_length=2 ** bounds.max_depth,
        max_vars=bounds.max_vars,
        max_rounds=3,
        max_identities=400,
    )
    candidates = []
    seen = set()
    for ident in bounded_closure(theory.axioms, RULE_TAGS[1:5], closure_bounds):
        t, s = ident.lhs, ident.rhs
        if t == s:
            continue
        if t.depth > bounds.max_depth or s.depth > bounds.max_depth:
            continue
        if max(max_var_index(t), max_var_index(s)) > bounds.max_vars:
            continue
        key = frozenset((t, s))
        if key in seen:
            continue
        seen.add(key)
        candidates.append((t, s))

    for t, s in candidates:
        try:
            reps = _essential_subterm_reps(t, s, theory)
        except UndecidedError as exc:
            report.candidates += 1
            report.unknowns.append((t, s, None, str(exc)))
            continue
        for r in reps:
            report.candidates += 1
            try:
                left = compose(t, r, u, theory)
                right = compose(s, r, u, theory)
            except UndecidedError as exc:
                report.unknowns.append((t, s, r, str(exc)))
                continue
            verdict = theory.decide(left, right)
            if verdict.outcome == REFUTED:
                report.violations.append(Violation(t, s, r, u, left, right, verdict.certificate))
            elif verdict.outcome == UNKNOWN:
                report.unknowns.append((t, s, r, "composed identity undecided"))


def validate_report(report: StabilityReport) -> bool:
    """Re-check every recorded violation from scratch: it must be the identity
    the report's rule derives from its premise (``apply_rule`` checks that the
    premise is proved and r essential in both sides), and refuted; a
    counter-model certificate must satisfy every axiom and separate the sides.
    """
    theory = report.theory
    for v in report.violations:
        data = {"pattern": v.r, "replacement": v.u}
        try:
            derived = apply_rule(report.mode, (Identity(v.t, v.s),), data, theory)
        except SideConditionError:
            return False
        if derived != Identity(v.left, v.right):
            return False
        if theory.equal(v.left, v.right) is not False:
            return False
        if isinstance(v.certificate, CounterModel):
            assignment = dict(v.certificate.assignment)
            algebra = v.certificate.algebra
            if not all(satisfies(algebra, ax.lhs, ax.rhs) for ax in theory.axioms):
                return False
            if eval_term(algebra, v.left, assignment) == eval_term(algebra, v.right, assignment):
                return False
    return True

