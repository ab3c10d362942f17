import pytest
from hypothesis import given, settings, strategies as st

from shacl2fol.rdf import iri, literal
from shacl2fol import scl
from shacl2fol.scl import (
    Alt, AndF, AtLeast, EqConstF, Exists, Filter, ForallIff, HasShapeF,
    NotExistsBoth, NotF, Opt, OrderAtom, OrderRel, PairwiseOrder, Role,
    Star, Top,
    formula_constants, free_shape_refs,
)

EX = "http://example.org/"


_paths = st.deferred(lambda: st.one_of(
    st.builds(Role, st.sampled_from([EX + "p", EX + "q"]), st.booleans()),
    st.builds(scl.Seq, _paths, _paths),
    st.builds(Alt, _paths, _paths),
    st.builds(Star, _paths),
    st.builds(Opt, _paths),
))

_terms = st.one_of(
    st.builds(lambda s: iri(EX + s), st.sampled_from(["a", "b", "S1", "S2"])),
    st.builds(literal, st.sampled_from(["x", "y"])),
)

_formulas = st.deferred(lambda: st.one_of(
    st.just(Top()),
    st.builds(EqConstF, _terms),
    st.builds(Filter, st.sampled_from(["isIRI", "isLiteral", "isBlank"])),
    st.builds(HasShapeF, st.builds(lambda s: iri(EX + s), st.sampled_from(["S1", "S2"]))),
    st.builds(NotF, _formulas),
    st.builds(AndF, _formulas, _formulas),
    st.builds(Exists, _paths, _formulas),
    st.builds(NotExistsBoth, _paths, st.just(EX + "r")),
    st.builds(ForallIff, _paths, st.just(EX + "r")),
    st.builds(PairwiseOrder, _paths, st.just(EX + "r"),
              st.builds(OrderAtom, st.sampled_from(list(OrderRel)), st.booleans())),
    st.builds(AtLeast, st.integers(1, 5), _paths, _formulas),
))


class TestRoundTripProperty:
    @settings(max_examples=100)
    @given(_formulas)
    def test_free_shape_refs_matches_brute_traversal(self, f):
        def brute(x):
            out = set()
            if isinstance(x, HasShapeF):
                out.add(x.shape_name)
            for field in getattr(x, "__dataclass_fields__", {}):
                out |= brute(getattr(x, field))
            return out

        assert free_shape_refs(f) == brute(f)


class TestWellFormedness:
    def test_bad_filter_name_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Filter("isWeird")


class TestHelpers:
    def test_formula_constants(self):
        f = AndF(EqConstF(iri(EX + "a")), Exists(Role(EX + "p"), EqConstF(literal("x"))))
        assert formula_constants(f) == {iri(EX + "a"), literal("x")}

    def test_atleast_requires_positive(self):
        with pytest.raises(ValueError):
            AtLeast(0, Role(EX + "p"), Top())
