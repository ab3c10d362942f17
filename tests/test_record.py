"""The value records compare, hash and print by their fields."""

import pytest

from shacl2fol.clausify import Literal
from shacl2fol.decide import ProverConfig
from shacl2fol.fol import (
    AndN, Atom, Const, Eq, FalseF, Forall, Func, NotN, OrN, TrueF, Var,
)
from shacl2fol.rdf import Triple, iri, literal
from shacl2fol.shapes import (
    Alternative, And, MinCount, Predicate, Sequence, Inverse, TrueC, ZeroOrMore,
)

P = Predicate("http://e/p")
Q = Predicate("http://e/q")
ARGS = (Const("a"), Var("X"))
OPERANDS = (Atom("p", ARGS), Atom("q", ()))


@pytest.mark.parametrize("a, b", [
    (Var("X"), Const("X")),
    (AndN(OPERANDS), OrN(OPERANDS)),
    (Inverse(P), ZeroOrMore(P)),
    (Sequence((P, Q)), Alternative((P, Q))),
    (TrueF(), FalseF()),
])
def test_classes_with_equal_fields_stay_unequal(a, b):
    assert a != b and not a == b


@pytest.mark.parametrize("build", [
    lambda: Var("X"),
    lambda: Func("f", ARGS),
    lambda: Forall(("X",), NotN(Eq(Var("X"), Const("a")))),
    lambda: Literal(True, "p", ARGS),
    lambda: MinCount(2, Sequence((P, Inverse(Q))), And((TrueC(),))),
    lambda: Triple(iri("http://e/s"), iri("http://e/p"), literal("o")),
])
def test_equal_instances_hash_alike(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("record, fields", [
    (Atom("p", ARGS), ("p", ARGS)),
    (TrueF(), ()),
    (Var("X"), ("X",)),
    (Literal(False, "p", ARGS), (False, "p", ARGS)),
    (MinCount(1, P, TrueC()), (1, P, TrueC())),
])
def test_the_hash_is_the_field_tuples(record, fields):
    """Hashes, and so set orders and the prover's search order under each
    hash seed, are those of the field tuples."""
    assert hash(record) == hash(fields)


def test_repr_names_the_fields():
    assert repr(Atom("p", (Const("a"),))) == "Atom(pred='p', args=(Const(name='a'),))"
    assert repr(TrueC()) == "TrueC()"


def test_a_mutable_record_compares_by_value_and_is_unhashable():
    assert ProverConfig("builtin") == ProverConfig("builtin") != ProverConfig("e")
    with pytest.raises(TypeError):
        hash(ProverConfig())


def test_triples_sort_by_subject_predicate_object():
    s, p, o = iri("http://e/s"), iri("http://e/p"), iri("http://e/o")
    triples = [Triple(s, p, s), Triple(o, p, s), Triple(s, p, o)]
    assert sorted(triples) == [Triple(o, p, s), Triple(s, p, o), Triple(s, p, s)]
    assert Triple(o, p, s) <= Triple(o, p, s) < Triple(s, p, o)
