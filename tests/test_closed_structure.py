"""The closed-structure check: against the oracle, against the procedures
of `decide_clauses`, and on the conditions under which a failure refutes."""

import contextlib
import io
import itertools
import json
import random
import re
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import load_graph, load_shapes, people_star, within
from corpus import CASES, NODES, PREDICATES, PREFIXES, SHAPE_POOL
from shacl2fol import cli, closed_structure, miniprover, oracle, sat
from shacl2fol.clausify import clausify
from shacl2fol.closed_structure import ClosedStructure, ProverResult
from shacl2fol.decide import (
    DecisionTask, ProverConfig, TaskKind, build_problem, run_task,
)
from shacl2fol.errors import Clock
from shacl2fol.fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, FalseF, Forall, Iff, Implies, NotN, OrN, Var,
)
from shacl2fol.tptp import Dialect, EmitOptions, render, term_symbol
from shacl2fol.tptp_parse import parse_tptp
from test_miniprover import PEOPLE_SHAPES, people

sys.path.append(str(Path(__file__).parent.parent / "perfbench"))
from static_cases import problems as static_problems  # noqa: E402

EXACT = [c for c in CASES if not c.order]
APPROXIMATE = [c for c in CASES if c.order]  # an order role
STARS = [c for c in CASES if c.star]  # a zero-or-more path


def emitted(shapes_ttl, data_ttl, dialect=Dialect.TFF):
    """The shape graph, the data graph and the parsed units of the
    emitted validation problem."""
    sg, g = load_shapes(shapes_ttl), load_graph(data_ttl)
    doc = build_problem(DecisionTask(TaskKind.VALIDATION, sg, data_graph=g,
                                     options=EmitOptions(dialect=dialect)))
    return sg, g, parse_tptp(render(doc))


def case_problem(case, dialect=Dialect.TFF):
    return emitted(case.shapes_ttl, case.data_ttl, dialect)


def named(units):
    return [(u.name, u.body) for u in units]


def check(units, deadline=None):
    """The answer of the units' candidate structure, None when the units
    have no one candidate; the clock passes at `deadline`."""
    try:
        return ClosedStructure(units, Clock(deadline)).evaluate()
    except closed_structure._Inapplicable:
        return None


def failing_targets(units) -> set[tuple[str, str]]:
    """The (shape, focus node) of each failing binding of a target unit."""
    structure = ClosedStructure(named(units))
    out = set()
    for name, f in structure.checked:
        if not name.startswith("target"):
            continue
        body = f.body if type(f) is Forall else f
        atom = body.right if type(body) is Implies else body
        node, shape = atom.args
        for env in structure.failures(f):
            out.add((shape.name, env[node.name] if type(node) is Var else node.name))
    return out


@pytest.mark.parametrize("dialect", list(Dialect), ids=lambda d: d.value)
@pytest.mark.parametrize("case", EXACT, ids=lambda c: c.name)
def test_the_check_gives_the_oracle_verdict(case, dialect):
    sg, g, units = case_problem(case, dialect)
    answer = check(named(units))
    assert answer is not None
    assert (answer.status == "Satisfiable") == oracle.evaluate(sg, g).conforms


@pytest.mark.parametrize("case", EXACT, ids=lambda c: c.name)
def test_failing_targets_are_the_oracle_violations(case):
    sg, g, units = case_problem(case)
    report = oracle.evaluate(sg, g)
    assert failing_targets(units) == {
        (term_symbol(v.shape_name), term_symbol(v.focus_node)) for v in report.violations}


@pytest.mark.parametrize("case", APPROXIMATE, ids=lambda c: c.name)
def test_an_approximate_star_or_an_order_never_refutes(case):
    # the order roles are not closed: the candidate, which makes them
    # false, fails a unit, and that failure proves nothing
    _, _, units = emitted(case.shapes_ttl, case.data_ttl)
    structure = ClosedStructure(named(units))
    assert any(next(structure.failures(f), None) is not None for _, f in structure.checked)
    assert not structure.exact()
    assert check(named(units)) is None


@pytest.mark.parametrize("case", STARS, ids=lambda c: c.name)
def test_a_validation_star_is_decided_exactly(case):
    # each constant's component is closed and reachability between the
    # components is defined without a cycle, so a failure refutes
    sg, g, units = case_problem(case)
    structure = ClosedStructure(named(units))
    assert structure.exact()
    assert not any(u.name.endswith(("_refl", "_step")) for u in units)
    answer = check(named(units))
    assert (answer.status == "Satisfiable") == oracle.evaluate(sg, g).conforms == case.conforms


@pytest.mark.parametrize("violating", [False, True], ids=["conforms", "violates"])
@pytest.mark.parametrize("n", [40, 200])
def test_a_people_star_graph_gets_the_oracle_verdict(tmp_path, capsys, n, violating):
    # ex:knows is one component of all n people
    shapes_ttl, data_ttl = people_star(n, violating)
    shapes, data = tmp_path / "s.ttl", tmp_path / "d.ttl"
    shapes.write_text(shapes_ttl)
    data.write_text(data_ttl)
    code = cli.main(["validate", str(shapes), str(data), "--prover", "builtin", "--json"])
    got = json.loads(capsys.readouterr().out)
    conforms = oracle.evaluate(load_shapes(shapes_ttl), load_graph(data_ttl)).conforms
    assert conforms is not violating
    assert (code, got["verdict"]) == ((0, "Conforms") if conforms else (1, "DoesNotConform"))
    assert got["approximate"] is False
    assert got["proverDetail"].startswith("closed structure of ")


STAR_PATHS = [
    "[ sh:zeroOrMorePath ex:p ]",  # p*
    "[ sh:inversePath [ sh:zeroOrMorePath ex:p ] ]",  # ^(p*)
    "[ sh:zeroOrMorePath [ sh:inversePath ex:p ] ]",  # (^p)*
    "[ sh:oneOrMorePath ex:p ]",  # p+
    "[ sh:zeroOrMorePath ( [ sh:zeroOrMorePath ex:p ] ex:q ) ]",  # (p*/q)*
]
STAR_CONSTRAINTS = ["sh:minCount 2", "sh:nodeKind sh:IRI", "sh:nodeKind sh:Literal",
                    "sh:hasValue ex:n0", "sh:class ex:C", "sh:node ex:T"]
STAR_INNER = ["sh:hasValue ex:n1", "sh:class ex:C", "sh:minCount 3"]
STAR_NODES = ["ex:n0", "ex:n1", "ex:n2", "ex:n3", "ex:n4"]


def star_problem(rng):
    """A shape whose property has a zero-or-more path, or whose `sh:node`
    shape has one, and a data graph over five nodes and two literals:
    each node has each p-, q- and type edge with some probability, so
    cycles, self-loops, chains, branches and isolated nodes all come up."""
    path, constraint, inner = map(rng.choice, (STAR_PATHS, STAR_CONSTRAINTS, STAR_INNER))
    shapes = (f"ex:S a sh:NodeShape ; sh:targetNode ex:n0, ex:n3 ; sh:targetClass ex:C ;\n"
              f"  sh:property [ sh:path {path} ; {constraint} ] .\n"
              f"ex:T a sh:NodeShape ; sh:property [ sh:path ex:p ; sh:maxCount 1 ] ;\n"
              f"  sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; {inner} ] .\n")
    density = rng.choice([0.1, 0.2, 0.35])
    data = "".join(f"{s} {p} {o} .\n" for s in STAR_NODES for p in ("ex:p", "ex:q")
                   for o in STAR_NODES + ['"x"', '"y"'] if rng.random() < density)
    data += "".join(f"{s} a ex:C .\n" for s in STAR_NODES if rng.random() < 0.3)
    return PREFIXES + shapes, PREFIXES + data


@seed(20241)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32))
def test_validation_of_a_star_agrees_with_the_oracle(rng_seed):
    shapes_ttl, data_ttl = star_problem(random.Random(rng_seed))
    conforms = oracle.evaluate(load_shapes(shapes_ttl), load_graph(data_ttl)).conforms
    with tempfile.TemporaryDirectory() as tmp:
        shapes, data = Path(tmp, "s.ttl"), Path(tmp, "d.ttl")
        shapes.write_text(shapes_ttl)
        data.write_text(data_ttl)
        for dialect in Dialect:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["validate", str(shapes), str(data), "--prover", "builtin",
                                 "--dialect", dialect.value, "--json"])
            got = json.loads(out.getvalue())
            assert (code, got["verdict"]) == \
                ((0, "Conforms") if conforms else (1, "DoesNotConform")), dialect
            assert got["approximate"] is False
            assert got["proverDetail"].startswith("closed structure of ")


# the shapes of the random pool and of the hand-written cases that the
# check decides
SHAPES = [PREFIXES + shape for _, shape in SHAPE_POOL] + [c.shapes_ttl for c in EXACT]
SUBJECTS = NODES + ["ex:a", "ex:b"]
OBJECTS = SUBJECTS + ['"x"', '"y"']


@st.composite
def validation_problems(draw):
    """A shape graph of the corpus, and up to five triples over its nodes,
    predicates and two literals; rdf:type (`a`) always has `ex:C`."""
    triples = draw(st.lists(st.tuples(
        st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES + ["ex:name", "a"]),
        st.sampled_from(OBJECTS)), min_size=1, max_size=5, unique=True))
    data = "".join(f"{s} {p} {'ex:C' if p == 'a' else o} .\n" for s, p, o in triples)
    return draw(st.sampled_from(SHAPES)), PREFIXES + data


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(validation_problems())
def test_the_check_agrees_with_the_procedures(problem):
    sg, g, units = emitted(*problem)
    answer = check(named(units))
    assert answer is not None
    assert (answer.status == "Satisfiable") == oracle.evaluate(sg, g).conforms
    got = miniprover.decide_clauses(clausify([u.body for u in units]), within(2))
    if got.status in ("Satisfiable", "Unsatisfiable"):
        assert answer.status == got.status


CONSTANTS = [Const(name) for name in ("a", "b", "c", "t1", "t2")]
X, Y = Var("X"), Var("Y")


PREDS = ("r", "e", "q", "isI", "isL", "s", "=")
KIND_PREDS = ("isI", "isL", "s", "=")  # no open predicate, so a failure may refute


def random_sentence(rng, bound, depth, preds=PREDS):
    """A sentence over `preds`: the closed r and e, the kinds isI and isL,
    the defined s, the open q and equality; a quantifier is guarded by an
    r or e atom (isI or isL without them), or at times not at all."""
    def term():
        return Var(rng.choice(bound)) if bound and rng.random() < 0.7 \
            else rng.choice(CONSTANTS[:3])

    k = rng.random()
    if depth <= 0 or k < 0.3:
        pred = rng.choice(preds)
        if pred == "=":
            return Eq(term(), term())
        if pred == "s":
            return Atom("s", (term(), rng.choice(CONSTANTS[3:])))
        return Atom(pred, (term(), term()) if pred == "r" else (term(),))
    if k < 0.45:
        return NotN(random_sentence(rng, bound, depth - 1, preds))
    if k < 0.8:
        left, right = (random_sentence(rng, bound, depth - 1, preds) for _ in range(2))
        return rng.choice([lambda: AndN((left, right)), lambda: OrN((left, right)),
                           lambda: Implies(left, right), lambda: Iff(left, right)])()
    v = rng.choice(["X", "Y", "Z"])
    body = random_sentence(rng, bound + [v], depth - 1, preds)
    exists = rng.random() < 0.5
    if rng.random() < 0.6:
        if rng.random() < 0.5:
            guard = Atom("r", (Var(v), term())) if "r" in preds else Atom("isI", (Var(v),))
        else:
            guard = Atom("e", (Var(v),)) if "e" in preds else Atom("isL", (Var(v),))
        body = AndN((guard, body)) if exists else Implies(guard, body)
    return (Exists if exists else Forall)((v,), body)


def random_closed_problem(rng):
    """Closures of r over a, b, c (most tuples asserted) and of e, a kind
    per constant, unique names most of the time, definitions of s at t1
    and t2 most of the time, and up to three random sentences."""
    pairs = [p for p in itertools.product(CONSTANTS[:3], repeat=2) if rng.random() < 0.3]
    es = [c for c in CONSTANTS[:3] if rng.random() < 0.5]
    units = [("r_closed", Forall(("X", "Y"), Implies(Atom("r", (X, Y)), OrN(tuple(
        AndN((Eq(X, a), Eq(Y, b))) for a, b in pairs)) if pairs else FalseF()))),
        ("e_closed", Forall(("X",), Implies(Atom("e", (X,)), OrN(tuple(
            Eq(X, c) for c in es)) if es else FalseF()))),
        ("kinds", Forall(("X",), NotN(AndN((Atom("isI", (X,)), Atom("isL", (X,)))))))]
    units += [("r", Atom("r", pair)) for pair in pairs if rng.random() < 0.9]
    units += [("e", Atom("e", (c,))) for c in es]
    units += [("kind", Atom(rng.choice(["isI", "isL"]), (c,))) for c in CONSTANTS]
    if rng.random() < 0.8:
        units.append(("una", Distinct(tuple(CONSTANTS))))
    units += [("s_def", Forall(("X",), Iff(Atom("s", (X, t)), random_sentence(rng, ["X"], 2))))
              for t in CONSTANTS[3:] if rng.random() < 0.8]
    return units + [(f"u{i}", random_sentence(rng, [], 3)) for i in range(rng.randint(1, 3))]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32))
def test_the_check_agrees_with_the_procedures_on_any_closed_problem(seed):
    # the check reads closures, kinds, unique names and definitions by
    # form, so it is run on problems the emitter never writes: where it
    # answers, the procedures must not conclude otherwise
    units = random_closed_problem(random.Random(seed))
    answer = check(units)
    if answer is None:
        return
    got = miniprover.decide_clauses(clausify([f for _, f in units]), within(1))
    if got.status in ("Satisfiable", "Unsatisfiable"):
        assert answer.status == got.status


def test_a_missing_unique_name_unit_keeps_a_failure_from_refuting():
    # FOF keeps constants apart one pair per unit: without one of them, two
    # constants may share an element in some model
    case = next(c for c in CASES if c.name == "or_violates")
    _, _, units = case_problem(case, Dialect.FOF)
    assert check(named(units)).status == "Unsatisfiable"
    fewer = [u for u in units if u.name != "una_1"]
    assert check(named(fewer)) is None


def test_one_distinct_of_20000_constants_is_pairwise_apart_in_linear_time():
    # the index reads one $distinct unit whole: no pair of its 20,000
    # constants is tested
    constants = tuple(Const(f"c{i}") for i in range(20_000))
    structure = ClosedStructure([("una", Distinct(constants))])
    start = time.monotonic()
    assert structure.unique.pairwise(structure.elements.keys())
    assert time.monotonic() - start < 0.1


def test_the_unique_name_index_reads_a_distinct_as_its_pairwise_units():
    # 200 constants kept apart by one $distinct unit, as tff writes them,
    # and by one unit ~(a = b) per pair, as fof does: the index answers
    # alike on every set of them and every pair, and without the unit
    # ~(c0 = c1) it keeps exactly the sets without both of those apart
    consts = [Const(f"c{i}") for i in range(200)]
    names = [c.name for c in consts]
    pairs = [(f"una_{i}", NotN(Eq(a, b)))
             for i, (a, b) in enumerate(itertools.combinations(consts, 2))]
    tff = ClosedStructure([("una", Distinct(tuple(consts)))]).unique
    fof = ClosedStructure(pairs).unique
    fewer = ClosedStructure(pairs[1:]).unique
    rng = random.Random(0)
    for k in (0, 1, 2, 3, 20, 199, 200):
        subset = set(rng.sample(names, k))
        assert tff.pairwise(subset) and fof.pairwise(subset)
        assert fewer.pairwise(subset) == (not {"c0", "c1"} <= subset)
    assert all(tff(a, b) and fof(a, b) for a, b in itertools.combinations(names[:50], 2))
    assert not fewer("c0", "c1") and fewer("c0", "c2")


# closures, facts and unique names by form, under names the emitter never
# writes: `r` relates a and b both ways, and `loop` asks for an r-loop
CLOSED_R = """
fof(r_is_closed, axiom, ![A, B]: (r(A, B) => ((A = a & B = b) | (A = b & B = a)))).
fof(ab, axiom, r(a, b)).
fof(ba, axiom, r(b, a)).
fof(symmetric, axiom, ![X, Y]: (r(X, Y) => r(Y, X))).
"""
APART = "fof(apart, axiom, a != b).\n"
LOOP = "fof(loop, axiom, ?[X]: r(X, X)).\n"


@pytest.mark.parametrize("text, status, detail", [
    (CLOSED_R + APART, "Satisfiable", "closed structure of 2 elements"),
    (CLOSED_R + APART + LOOP, "Unsatisfiable", "closed structure of 2 elements; fails loop"),
    # a second, narrower closure of r is checked as a unit, and fails
    (CLOSED_R + APART + "fof(narrower, axiom, ![A, B]: (r(A, B) => (A = a & B = b))).\n",
     "Unsatisfiable", "closed structure of 2 elements; fails narrower at A = b, B = a"),
    # with a = b allowed, a model has the loop; the search starts at three
    # elements, one per constant, the Skolem constant of `loop` included
    (CLOSED_R + LOOP, "Satisfiable", "finite model of size 3"),
], ids=["holds", "fails", "fails_a_second_closure", "fails_without_unique_names"])
def test_any_tptp_problem_of_the_closed_form(text, status, detail, tmp_path, capsys):
    problem = tmp_path / "problem.p"
    problem.write_text(text)
    assert miniprover.main([str(problem)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [f"% {detail}"]
    assert miniprover.decide_tptp_text(text).status == status


def test_an_unasserted_closure_tuple_keeps_a_failure_from_refuting():
    # r(a, b) is allowed by the closure but not asserted: the candidate
    # makes it true and fails ~r(a, b), which the model with r empty keeps
    text = ("fof(c, axiom, ![X, Y]: (r(X, Y) => (X = a & Y = b))).\n"
            "fof(apart, axiom, a != b).\nfof(no, axiom, ~r(a, b)).\n")
    assert check(named(parse_tptp(text))) is None
    assert miniprover.decide_tptp_text(text).status == "Satisfiable"


def test_an_unguarded_quantifier_keeps_a_failure_from_refuting():
    # ?[X]: ~e(X) has no guard: it fails on the one constant, which is an
    # e, but a model with one more element satisfies it
    text = ("fof(c, axiom, ![X]: (e(X) => X = a)).\nfof(f, axiom, e(a)).\n"
            "fof(other, axiom, ?[X]: ~e(X)).\n")
    structure = ClosedStructure(named(parse_tptp(text)))
    failing = [name for name, f in structure.checked
               if next(structure.failures(f), None) is not None]
    assert failing == ["other"]
    assert check(named(parse_tptp(text))) is None
    assert miniprover.decide_tptp_text(text).status == "Satisfiable"


def test_an_undefined_reference_keeps_a_failure_from_refuting():
    # s is defined at t but not at u: the candidate makes s(a, u) false,
    # which no axiom fixes
    text = ("fof(c, axiom, ![X]: (e(X) => X = a)).\nfof(f, axiom, e(a)).\n"
            "fof(d, axiom, ![X]: (s(X, t) <=> e(X))).\nfof(g, axiom, s(a, u)).\n"
            "tff(apart, axiom, $distinct(a, t, u)).\n")
    assert check(named(parse_tptp(text))) is None
    assert miniprover.decide_tptp_text(text).status == "Satisfiable"


def test_definitions_in_a_cycle_have_no_one_candidate():
    # s(a, t) is defined by its own negation: no structure satisfies it,
    # and the check gives way to the refutation
    text = ("fof(c, axiom, ![X]: (e(X) => X = a)).\nfof(f, axiom, e(a)).\n"
            "fof(d, axiom, ![X]: (s(X, t) <=> ~s(X, t))).\n")
    assert check(named(parse_tptp(text))) is None
    assert miniprover.decide_tptp_text(text).status == "Unsatisfiable"


# r takes a to t and b to u; s is defined at t and at u, where it holds of
# a alone; `g` asks s(K, X) of every r-pair (X, K), so refers to s by the
# bound K, which the check resolves as it evaluates
BY_VARIABLE = """
fof(c, axiom, ![X, Y]: (r(X, Y) => ((X = a & Y = t) | (X = b & Y = u)))).
fof(at, axiom, r(a, t)).
fof(bu, axiom, r(b, u)).
fof(st, axiom, ![X]: (s(t, X) <=> X = a)).
fof(su, axiom, ![X]: (s(u, X) <=> X = a)).
fof(g, axiom, ![X, K]: (r(X, K) => s(K, X))).
tff(apart, axiom, $distinct(a, b, t, u)).
"""


def test_a_reference_by_a_bound_variable_is_resolved_when_evaluated():
    units = named(parse_tptp(BY_VARIABLE))
    assert check(units) == ProverResult(
        "Unsatisfiable", "closed structure of 4 elements; fails g at X = b, K = u")
    assert miniprover.decide_tptp_text(BY_VARIABLE).status == "Unsatisfiable"
    # without a definition at u, nothing fixes s(u, b)
    fewer = [u for u in units if u[0] != "su"]
    assert check(fewer) is None


def test_a_reference_by_a_bound_variable_may_close_a_cycle():
    # st refers to s at whatever r gives, t itself included
    text = BY_VARIABLE.replace("(s(t, X) <=> X = a)", "(s(t, X) <=> ?[K]: (r(X, K) & ~s(K, X)))")
    assert check(named(parse_tptp(text))) is None


def test_the_clock_cuts_the_check(monkeypatch):
    # a passed deadline stops the check at its first clock reading, and
    # no procedure runs after it
    text = render(build_problem(DecisionTask(
        TaskKind.VALIDATION, load_shapes(PEOPLE_SHAPES), data_graph=load_graph(people(1000)))))
    with pytest.raises(sat.TimeBudgetExceeded):
        check(named(parse_tptp(text)), deadline=time.monotonic() - 1)
    calls = []
    monkeypatch.setattr(miniprover, "decide_clauses", lambda *a, **k: calls.append(a))
    assert miniprover.decide_tptp_text(text, timeout_s=0).status == "Timeout"
    assert calls == []


NODE_CHAIN = PREFIXES + "ex:S0 sh:targetNode ex:a .\n" + "".join(
    f"ex:S{i} sh:node ex:S{i + 1} .\n" for i in range(10_000)) + "ex:S10000 sh:nodeKind sh:IRI ."
WIDE_AND = PREFIXES + "ex:S sh:targetNode ex:a ; sh:and ( " + " ".join(
    "[ sh:property [ sh:path ex:p ; sh:minCount 1 ] ]" for _ in range(10_000)) + " ) ."


@pytest.mark.parametrize("shapes", [NODE_CHAIN, WIDE_AND], ids=["node_chain", "wide_and"])
def test_ten_thousand_deep_problems_conform(shapes):
    # 10,000 definitions each referring to the next, and a conjunction
    # nested 10,000 deep: both are evaluated on the check's own stack
    got = run_task(DecisionTask(
        TaskKind.VALIDATION, load_shapes(shapes),
        data_graph=load_graph(PREFIXES + "ex:a ex:p ex:b ."),
        prover=ProverConfig("builtin", timeout_s=30)))
    assert (got.verdict.value, got.prover_detail) \
        == ("Conforms", "closed structure of 10003 elements")


# --- problems with no closure: the same rule on their own facts --------------


def _static_problem(command, texts, strong=False):
    """The shape graphs and the units of a `sat` or `contains` problem."""
    graphs = [load_shapes(t) for t in texts]
    if command == "sat":
        task = DecisionTask(TaskKind.SATISFIABILITY, graphs[0],
                            strong_sat_shapes=[] if strong else None)
    else:
        task = DecisionTask(TaskKind.CONTAINMENT, graphs[0], shape_graph_b=graphs[1])
    return graphs, named(build_problem(task).formulas)


def _static_problems():
    seen = set()
    for problem_seed in (1, 2, 3):
        for p in static_problems(problem_seed):
            key = (p.command, p.shapes, p.strong_sat)
            if key not in seen:
                seen.add(key)
                yield key
    pool = [PREFIXES + shape for _, shape in SHAPE_POOL]
    for a in pool:
        yield "sat", (a,), False
    for a, b in itertools.product(pool + [PREFIXES], repeat=2):
        yield "contains", (a, b), False


def test_the_facts_only_structure_agrees_with_the_oracle_and_the_procedures():
    """A Satisfiable or NotContained on the structure of the problem's
    facts is the empty data graph, which the oracle confirms: it conforms
    to the shape graph, or to A and not to B.  An Unsatisfiable or
    Contained from the check is what the clausal procedures conclude."""
    empty = load_graph(PREFIXES)
    decided = {True: 0, False: 0}
    for command, texts, strong in _static_problems():
        graphs, units = _static_problem(command, texts, strong)
        answer = check(units)
        if answer is None:
            continue
        satisfiable = answer.status == "Satisfiable"
        decided[satisfiable] += 1
        if satisfiable:
            assert answer.detail.startswith("facts-only structure"), texts
            conforms = [oracle.evaluate(sg, empty).conforms for sg in graphs]
            assert conforms == ([True] if command == "sat" else [True, False]), texts
        else:
            got = miniprover.decide_clauses(clausify([f for _, f in units]), within(5))
            assert got.status == "Unsatisfiable", texts
    assert decided[True] >= 10 and decided[False] >= 2, decided
    # the oracle stays an independent cross-check
    source = Path(closed_structure.__file__).read_text()
    assert not re.search(r"^\s*(from|import)\b.*\boracle\b", source, re.M)


def random_open_problem(rng):
    """`random_closed_problem` with no closure: facts of r and e, a kind
    per constant, unique names most of the time, definitions of s most of
    the time, and up to three random sentences.  Half the problems have
    no r, e or q, so that a failure may refute."""
    preds = PREDS if rng.random() < 0.5 else KIND_PREDS
    units = [("kinds", Forall(("X",), NotN(AndN((Atom("isI", (X,)), Atom("isL", (X,)))))))]
    if "r" in preds:
        units += [("r", Atom("r", pair)) for pair in itertools.product(CONSTANTS[:3], repeat=2)
                  if rng.random() < 0.3]
        units += [("e", Atom("e", (c,))) for c in CONSTANTS[:3] if rng.random() < 0.5]
    units += [("kind", Atom(rng.choice(["isI", "isL"]), (c,))) for c in CONSTANTS]
    if rng.random() < 0.8:
        units.append(("una", Distinct(tuple(CONSTANTS))))
    units += [("s_def", Forall(("X",), Iff(Atom("s", (X, t)),
                                            random_sentence(rng, ["X"], 2, preds))))
              for t in CONSTANTS[3:] if rng.random() < 0.8]
    return units + [(f"u{i}", random_sentence(rng, [], 3, preds))
                    for i in range(rng.randint(1, 3))]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32))
def test_the_facts_only_structure_agrees_with_the_procedures(seed):
    # with no closure every predicate but the defined ones holds on its
    # facts alone: where the check answers, the procedures must not
    # conclude otherwise
    units = random_open_problem(random.Random(seed))
    answer = check(units)
    if answer is None:
        return
    got = miniprover.decide_clauses(clausify([f for _, f in units]), within(1))
    if got.status in ("Satisfiable", "Unsatisfiable"):
        assert answer.status == got.status, answer


KINDS = ("fof(kind_a, axiom, isI(a)).\nfof(kind_b, axiom, isI(b)).\n"
         "fof(kinds, axiom, ![X]: ~(isI(X) & isL(X))).\nfof(apart, axiom, a != b).\n")
FACTS = "fof(r_ab, axiom, r(a, b)).\n" + KINDS


@pytest.mark.parametrize("text, detail", [
    # r holds on its one fact, and the guard of Y is that fact
    (FACTS + "fof(u, axiom, ![X]: (isI(X) => (X = b | ?[Y]: r(X, Y)))).\n",
     "facts-only structure of 2 elements"),
    # a unit on kinds fixed at every constant fails in every model
    (KINDS + "fof(u, axiom, ~isI(a)).\n", "facts-only structure of 2 elements; fails u"),
    (KINDS + "fof(u, axiom, ![X]: (isI(X) => (X = a | isL(X)))).\n",
     "facts-only structure of 2 elements; fails u at X = b"),
    # no constant: one fresh element
    ("fof(u, axiom, ![X]: ~(isI(X) & isL(X))).\n", "facts-only structure of 1 elements"),
], ids=["holds", "fails_ground", "fails_at_a_constant", "fresh"])
def test_a_problem_with_no_closure_is_decided_on_its_facts(text, detail):
    answer = check(named(parse_tptp(text)))
    assert answer.detail == detail


@pytest.mark.parametrize("unit", [
    # r(b, c) is no fact, but a model may have it
    "fof(u, axiom, ![X]: (isI(X) => ?[Y]: r(X, Y))).",
    # the guard of Y is r's facts, which a model may extend by a literal
    "fof(u, axiom, ?[Y]: (r(a, Y) & isL(Y))).",
    # so is the guard in a definition's body
    "fof(d, axiom, ![X]: (s(X) <=> ?[Y]: r(X, Y))).\nfof(u, axiom, s(b)).",
], ids=["open_role", "facts_guard", "definition"])
def test_a_failure_on_the_facts_alone_refutes_nothing(unit):
    text = FACTS + unit + "\n"
    assert check(named(parse_tptp(text))) is None
    assert miniprover.decide_tptp_text(text, timeout_s=5).status == "Satisfiable"


# --- one rule for closed and unclosed predicates ------------------------------


def test_a_closed_problem_with_no_constant_is_checked_on_one_fresh_element():
    text = "fof(c, axiom, ~?[X,Y]: p(X,Y)).\nfof(u, axiom, ![X]: ~p(X,X)).\n"
    assert check(named(parse_tptp(text))) \
        == ProverResult("Satisfiable", "closed structure of 1 elements")


# e is closed to a and b; the kind isI, fixed at both, is unclosed: a
# model may add an isI element that is neither a nor b
CLOSED_E = ("fof(c, axiom, ![X]: (e(X) => (X = a | X = b))).\n"
            "fof(ea, axiom, e(a)).\nfof(eb, axiom, e(b)).\n" + KINDS)


def test_an_unclosed_guard_keeps_a_failure_from_refuting():
    # isI's facts are the only guard of Y: the check fails u on them, and
    # a model with a third isI element satisfies it
    text = CLOSED_E + "fof(u, axiom, ?[Y]: (isI(Y) & Y != a & Y != b)).\n"
    structure = ClosedStructure(named(parse_tptp(text)))
    assert structure.closed == {"e"} and not structure.exact() and structure.unguarded()
    assert check(named(parse_tptp(text))) is None
    assert miniprover.decide_tptp_text(text, timeout_s=5).status == "Satisfiable"


def test_a_closed_guard_beside_an_unclosed_one_refutes():
    # isI(Y) and e(Y) cost the same but for the closure, and isI comes
    # first: the closed e must win for the failure to refute
    text = CLOSED_E + "fof(u, axiom, ?[Y]: (isI(Y) & e(Y) & Y != a & Y != b)).\n"
    assert check(named(parse_tptp(text))) \
        == ProverResult("Unsatisfiable", "closed structure of 2 elements; fails u")
    assert miniprover.decide_tptp_text(text, timeout_s=5).status == "Unsatisfiable"


# the clausal procedures read p/2 and p/3, or q/1 and q/2, as two
# predicates; the candidate structure has one arity per predicate
TWO_ARITIES = [
    "fof(c, axiom, ![X,Y]: (p(X,Y) => (X=a & Y=b))). fof(f, axiom, p(a,b)). "
    "fof(u, axiom, ?[X,Y,Z]: p(X,Y,Z)).",
    "fof(f, axiom, q(a)). fof(u, axiom, ?[X,Y]: q(X,Y)).",
    "fof(f, axiom, q(a)). fof(g, axiom, q(a,b)). fof(u, axiom, ![X]: (q(X) => ?[Y]: q(X,Y))).",
    # the relevant-instance join of the procedures keys s/1 apart from s/2
    "fof(d, axiom, ![X,Y]: (s(X,Y) <=> X=Y)). fof(u, axiom, s(a)).",
]


@pytest.mark.parametrize("text", TWO_ARITIES, ids=["closure", "fact", "facts", "definition"])
def test_a_predicate_at_two_arities_is_left_to_the_procedures(text, tmp_path, capsys):
    units = parse_tptp(text)
    assert check(named(units)) is None
    assert closed_structure.decide_units(units, within(5)).status == "Satisfiable"
    assert miniprover.decide_tptp_text(text, timeout_s=5).status == "Satisfiable"
    problem = tmp_path / "problem.p"
    problem.write_text(text)
    assert miniprover.main([str(problem), "--timeout", "5"]) == 0
    assert capsys.readouterr().out.startswith("% SZS status Satisfiable")


@pytest.mark.parametrize("text", [
    "fof(d, axiom, ![X,Y]: (s(X,Y) <=> X=Y)). fof(u, axiom, s(a)).",
    "fof(d, axiom, ![X]: (s(c,X) <=> X=a)). fof(e, axiom, ![X,Y]: (s(d,X,Y) <=> X=Y)). "
    "fof(u, axiom, s(d,a)).",
], ids=["atom", "definitions"])
def test_a_defined_predicate_at_two_arities_has_no_one_candidate(text):
    assert check(named(parse_tptp(text))) is None
