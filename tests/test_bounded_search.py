"""Bounded proof search over flat codes: Theory._neighbors and
_bfs_prove against the term-based references kept here, which build and
intern every neighbour term."""

import itertools
import random
from collections import deque

import pytest

from termalg.terms import (
    Node,
    Var,
    flat_code,
    from_flat_code,
    max_var_index,
    parse_term,
    positions,
    random_term,
    substitute,
    subterm_at,
    var_set,
    variables,
)
from termalg.theories import (
    Identity,
    OracleConfig,
    Theory,
    match_pattern,
)

CRITERION_09_AXIOMS = tuple(
    f"f(f(x{i},x{j}),x{k})=f(x{m},x{m})" for i, j, k, m in itertools.product((1, 2), repeat=4)
)
# associativity up to a right-side variable the left side lacks, so each
# direction plugs pool values, composite subterms among them
ASSOC_LOOKALIKE = "f(f(x4,x5),x6)=f(x4,f(x5,x3))"
TWO_AXIOMS = ("f(x1,x1)=x1", "f(f(x1,x2),x3)=f(x1,x3)")
COMMUTATIVITY = "f(x1,x2)=f(x2,x1)"

THEORY_AXIOMS = {
    **{text: (text,) for text in CRITERION_09_AXIOMS},
    "assoc-lookalike": (ASSOC_LOOKALIKE,),
    "two-axioms": TWO_AXIOMS,
    "commutativity": (COMMUTATIVITY,),
}

# the benchmark's bounded-oracle budget, under which both probes are Unknown
PROBE_STEPS = 1000
UNKNOWN_PROBES = (
    ("f(f(x1,x1),x2)=f(x2,x2)", "f(f(x1,x1),f(f(x2,x3),x2))", "f(f(x1,x1),f(f(x2,x4),x2))"),
    ("f(f(x1,x1),x2)=f(x2,x2)", "f(f(x2,x2),f(f(x2,x3),x2))", "f(f(x2,x2),f(f(x2,x4),x2))"),
)


def theory(axioms, **bounds):
    return Theory(tuple(Identity.parse(a) for a in axioms), OracleConfig(**bounds))


def seeded_terms(seed, count):
    """Random terms of depth <= 4 over at most 4 variables."""
    rng = random.Random(seed)
    return [random_term(rng, 4, rng.randint(1, 4), leaf_prob=0.3) for _ in range(count)]


# --- references: neighbours as interned terms ---------------------------------


def ref_plug(context, s):
    while context is not None:
        parent, side, context = context
        s = Node(s, parent.right) if side == 1 else Node(parent.left, s)
    return s


def ref_neighbors(thy, t):
    out = []
    cap = thy.config.max_deduction_term_size
    pool = [Var(i) for i in sorted(var_set(t))[:3] + [max_var_index(t) + 1]]
    # the three smallest distinct composite subterms; of equal size, the one
    # that comes first in the preorder goes first
    firsts = dict.fromkeys(subterm_at(t, p) for p in positions(t))
    pool += sorted((u for u in firsts if isinstance(u, Node)), key=lambda u: u.size)[:3]
    stack = [(t, None)]
    while stack:
        sub, context = stack.pop()
        room = cap - t.size + sub.size
        for ax in thy.axioms:
            for src, dst in ((ax.lhs, ax.rhs), (ax.rhs, ax.lhs)):
                binding = match_pattern(src, sub)
                if binding is None:
                    continue
                dst_vars = variables(dst)
                missing = sorted(set(dst_vars) - binding.keys())
                for combo in itertools.product(pool, repeat=len(missing)):
                    b = dict(binding)
                    b.update(zip(missing, combo))
                    if dst.size + sum(b[i].size for i in dst_vars) <= room:
                        out.append(ref_plug(context, substitute(dst, b)))
        if isinstance(sub, Node):
            stack.append((sub.right, (sub, 2, context)))
            stack.append((sub.left, (sub, 1, context)))
    return out


def ref_bfs_prove(thy, t, s):
    if t == s:
        return (t,)
    steps = 0
    limit = thy.config.max_deduction_steps
    side_a = {t: (t,)}
    side_b = {s: (s,)}
    frontier_a, frontier_b = deque([t]), deque([s])
    while frontier_a and frontier_b and steps < limit:
        if len(frontier_a) <= len(frontier_b):
            frontier, seen, other = frontier_a, side_a, side_b
        else:
            frontier, seen, other = frontier_b, side_b, side_a
        for _ in range(len(frontier)):
            if steps == limit:
                break
            steps += 1
            u = frontier.popleft()
            for n in ref_neighbors(thy, u):
                if n in seen:
                    continue
                seen[n] = seen[u] + (n,)
                if n in other:
                    return side_a[n] + tuple(reversed(side_b[n][:-1]))
                frontier.append(n)
    return None


def neighbors(thy, t):
    return [from_flat_code(code) for code in thy._neighbors(flat_code(t))]


# --- neighbour sequences -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(THEORY_AXIOMS))
def test_neighbors_match_reference(name):
    thy = theory(THEORY_AXIOMS[name])
    for t in seeded_terms(name, 40):
        assert neighbors(thy, t) == ref_neighbors(thy, t), str(t)


def test_pool_subterms_are_used():
    """The look-alike's free variable takes composite pool values, and the
    cap drops every instance that would outgrow it."""
    t = parse_term("f(f(x1,f(x2,x2)),x3)")
    got = neighbors(theory((ASSOC_LOOKALIKE,)), t)
    assert parse_term("f(x1,f(f(x2,x2),f(x2,x2)))") in got
    assert got == ref_neighbors(theory((ASSOC_LOOKALIKE,)), t)
    capped = theory((ASSOC_LOOKALIKE,), max_deduction_term_size=t.size)
    assert neighbors(capped, t) == ref_neighbors(capped, t)
    assert all(u.size <= t.size for u in neighbors(capped, t))


def test_neighbors_keep_duplicates():
    # both directions of commutativity at the root of f(x1,x1) give itself
    t = parse_term("f(x1,x1)")
    assert neighbors(theory((COMMUTATIVITY,)), t) == [t, t]


# --- whole searches ------------------------------------------------------------------


@pytest.mark.parametrize("probe", range(len(UNKNOWN_PROBES)))
def test_unknown_probes_match_reference(probe):
    axiom, left, right = UNKNOWN_PROBES[probe]
    thy = theory((axiom,), max_deduction_steps=PROBE_STEPS)
    t, s = parse_term(left), parse_term(right)
    assert thy._bfs_prove(t, s) is None
    assert ref_bfs_prove(thy, t, s) is None


def derived_identity(rng, thy, t):
    """s reached from t by one to three seeded axiom replacements."""
    s = t
    for _ in range(rng.randint(1, 3)):
        got = ref_neighbors(thy, s)
        if got:
            s = rng.choice(got)
    return s


@pytest.mark.parametrize("name", ["f(f(x1,x2),x1)=f(x1,x1)", "two-axioms", "assoc-lookalike"])
def test_derived_identities_match_reference(name):
    thy = theory(THEORY_AXIOMS.get(name, (name,)), max_deduction_steps=300)
    rng = random.Random(name)
    proved = 0
    for t in seeded_terms(name, 25):
        s = derived_identity(rng, thy, t)
        path = thy._bfs_prove(t, s)
        assert path == ref_bfs_prove(thy, t, s), f"{t} = {s}"
        if path is not None:
            proved += 1
            assert path[0] is t and path[-1] is s
            # each step is one replacement, found from either end
            for u, v in zip(path, path[1:]):
                assert v in ref_neighbors(thy, u) or u in ref_neighbors(thy, v)
    assert proved > 0


def test_deep_start_term_answers():
    # f(x2, f(x2, ... f(x1,x1))) of depth 1500; idempotence rewrites only the
    # innermost node, and the cap leaves no room to grow anything
    depth = 1500
    t = Node(Var(1), Var(1))
    for _ in range(depth - 1):
        t = Node(Var(2), t)
    s = Var(1)
    for _ in range(depth - 1):
        s = Node(Var(2), s)
    thy = theory(("f(x1,x1)=x1",), max_model_size=1, max_deduction_term_size=t.size)
    assert t.depth == depth
    assert thy._bfs_prove(t, s) == ref_bfs_prove(thy, t, s) == (t, s)
    verdict = thy.decide(t, s)
    assert verdict.proved and len(verdict.certificate.steps) == 2
