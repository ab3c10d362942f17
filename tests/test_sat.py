import itertools
import random
import time

import pytest

from shacl2fol.sat import Clock, TimeBudgetExceeded, solve


def brute_force(clauses, n_vars):
    for bits in itertools.product([False, True], repeat=n_vars):
        assign = {i + 1: bits[i] for i in range(n_vars)}
        if all(
            any(assign[abs(l)] == (l > 0) for l in cl)
            for cl in clauses
        ):
            return assign
    return None


def check_model(clauses, model):
    for cl in clauses:
        if not any(model.get(abs(l), False) == (l > 0) for l in cl):
            return False
    return True


class TestFuzzAgainstBruteForce:
    def test_random_3sat(self):
        rng = random.Random(20240823)
        for _ in range(200):
            n_vars = rng.randint(1, 12)
            n_clauses = rng.randint(1, 40)
            clauses = [
                tuple(
                    rng.choice([-1, 1]) * rng.randint(1, n_vars)
                    for _ in range(rng.randint(1, 3))
                )
                for _ in range(n_clauses)
            ]
            got = solve(clauses)
            want = brute_force(clauses, n_vars)
            if want is None:
                assert got is None, clauses
            else:
                assert got is not None and check_model(clauses, got), clauses


class TestStructured:
    def test_empty_problem(self):
        assert solve([]) == {}

    def test_empty_clause(self):
        assert solve([()]) is None

    def test_unit_chain(self):
        clauses = [(1,), (-1, 2), (-2, 3), (-3, 4)]
        model = solve(clauses)
        assert model[1] and model[2] and model[3] and model[4]

    def test_contradicting_units(self):
        assert solve([(5,), (-5,)]) is None

    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_pigeonhole_unsat(self, holes):
        pigeons = holes + 1

        def var(p, h):
            return p * holes + h + 1

        clauses = [
            tuple(var(p, h) for h in range(holes)) for p in range(pigeons)
        ]
        for h in range(holes):
            for p1, p2 in itertools.combinations(range(pigeons), 2):
                clauses.append((-var(p1, h), -var(p2, h)))
        assert solve(clauses) is None

    def test_large_satisfiable_with_learning_pressure(self):
        # exactly-one blocks chained together; DPLL without learning thrashes
        rng = random.Random(7)
        clauses = []
        blocks = []
        for b in range(40):
            block = [b * 4 + i + 1 for i in range(4)]
            blocks.append(block)
            clauses.append(tuple(block))
            clauses.extend(
                (-x, -y) for x, y in itertools.combinations(block, 2)
            )
        for _ in range(60):
            b1, b2 = rng.sample(range(40), 2)
            clauses.append((-rng.choice(blocks[b1]), rng.choice(blocks[b2])))
        start = time.monotonic()
        model = solve(clauses)
        assert model is not None and check_model(clauses, model)
        assert time.monotonic() - start < 5

    def test_deadline_raises(self):
        # pigeonhole with 8 holes needs far more than the 64 conflicts
        # between deadline checks, so an expired deadline must surface
        holes, pigeons = 8, 9

        def var(p, h):
            return p * holes + h + 1

        clauses = [
            tuple(var(p, h) for h in range(holes)) for p in range(pigeons)
        ]
        for h in range(holes):
            for p1, p2 in itertools.combinations(range(pigeons), 2):
                clauses.append((-var(p1, h), -var(p2, h)))
        with pytest.raises(TimeBudgetExceeded):
            solve(clauses, Clock(time.monotonic() - 1))

    def test_a_wide_clause_keeps_the_deadline(self):
        # 20,000 literals, no two complementary: the clause is read in time
        # linear in its literals, and the search then reads the clock
        clause = tuple(v if v % 2 else -v for v in range(1, 20_001))
        start = time.monotonic()
        try:
            solve([clause], Clock(start + 0.5))
        except TimeBudgetExceeded:
            pass
        assert time.monotonic() - start < 1.5

    def test_decisions_take_the_next_variable_from_a_heap(self):
        # 10,000 independent pairs, each x_i xor x_(i+1): 10,000 decisions
        # and no conflict, each decision popped from the order heap rather
        # than found by a scan of all 20,000 variables
        clauses = []
        for i in range(1, 20_001, 2):
            clauses += [(i, i + 1), (-i, -(i + 1))]
        start = time.monotonic()
        model = solve(clauses)
        assert time.monotonic() - start < 1
        assert model is not None and check_model(clauses, model)
