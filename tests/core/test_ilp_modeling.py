"""Tests for the MILP modeling layer and both solver backends."""

import numpy as np
import pytest

from repro.core.ilp.bnb import solve_with_bnb
from repro.core.ilp.highs import solve_with_highs
from repro.core.ilp.modeling import LinExpr, Model
from repro.errors import SolverError

BACKENDS = [solve_with_highs, solve_with_bnb]


class TestLinExpr:
    def test_add_term_accumulates(self):
        model = Model()
        x = model.binary("x")
        expr = LinExpr()
        expr.add_term(x, 2.0)
        expr.add_term(x, 3.0)
        assert expr.coefficients[x.index] == 5.0

    def test_zero_coefficient_ignored(self):
        model = Model()
        x = model.binary("x")
        expr = LinExpr()
        expr.add_term(x, 0.0)
        assert x.index not in expr.coefficients

    def test_add_scales(self):
        model = Model()
        x = model.binary("x")
        a = LinExpr({x.index: 1.0}, constant=2.0)
        b = LinExpr({x.index: 3.0}, constant=1.0)
        a.add(b, scale=2.0)
        assert a.coefficients[x.index] == 7.0
        assert a.constant == 4.0

    def test_value(self):
        model = Model()
        x = model.binary("x")
        y = model.binary("y")
        expr = LinExpr({x.index: 2.0, y.index: -1.0}, constant=0.5)
        assert expr.value(np.array([1.0, 1.0])) == pytest.approx(1.5)


class TestModel:
    def test_variable_indices_sequential(self):
        model = Model()
        assert model.binary("a").index == 0
        assert model.continuous("b").index == 1
        assert model.num_variables == 2

    def test_empty_domain_rejected(self):
        with pytest.raises(SolverError):
            Model().continuous("x", lower=2.0, upper=1.0)

    def test_compile_shapes(self):
        model = Model()
        x = model.binary("x")
        y = model.continuous("y")
        model.add_le(LinExpr({x.index: 1.0, y.index: 1.0}, constant=-1.5))
        model.add_eq(LinExpr({y.index: 1.0}, constant=-0.5))
        model.minimize(LinExpr({x.index: 1.0}))
        compiled = model.compile()
        assert compiled.a_ub.shape == (1, 2)
        assert compiled.a_eq.shape == (1, 2)
        assert compiled.b_ub[0] == 1.5
        assert compiled.b_eq[0] == 0.5
        assert compiled.integrality.tolist() == [1, 0]

    def test_ge_negated_into_ub(self):
        model = Model()
        x = model.binary("x")
        model.add_ge(LinExpr({x.index: 1.0}, constant=-0.5))  # x >= 0.5
        compiled = model.compile()
        assert compiled.a_ub[0, 0] == -1.0
        assert compiled.b_ub[0] == -0.5


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackends:
    def test_simple_minimization(self, backend):
        # min x1 + 2 x2  s.t.  x1 + x2 >= 1, binaries.
        model = Model()
        x1 = model.binary("x1")
        x2 = model.binary("x2")
        model.add_ge(LinExpr({x1.index: 1.0, x2.index: 1.0}, constant=-1.0))
        model.minimize(LinExpr({x1.index: 1.0, x2.index: 2.0}))
        result = backend(model.compile(), None)
        assert result.optimal
        assert result.objective == pytest.approx(1.0)
        assert result.is_one(x1)
        assert not result.is_one(x2)

    def test_knapsack(self, backend):
        # max 6x1 + 10x2 + 12x3 with weights 1, 2, 3 and budget 5
        # (expressed as minimisation of the negative).
        model = Model()
        xs = [model.binary(f"x{i}") for i in range(3)]
        values = [6.0, 10.0, 12.0]
        weights = [1.0, 2.0, 3.0]
        budget = LinExpr(constant=-5.0)
        for x, w in zip(xs, weights):
            budget.add_term(x, w)
        model.add_le(budget)
        objective = LinExpr()
        for x, v in zip(xs, values):
            objective.add_term(x, -v)
        model.minimize(objective)
        result = backend(model.compile(), None)
        assert result.optimal
        assert result.objective == pytest.approx(-22.0)  # items 2 and 3

    def test_objective_constant_carried(self, backend):
        model = Model()
        x = model.binary("x")
        model.minimize(LinExpr({x.index: 1.0}, constant=7.0))
        result = backend(model.compile(), None)
        assert result.objective == pytest.approx(7.0)

    def test_infeasible_raises(self, backend):
        model = Model()
        x = model.binary("x")
        model.add_ge(LinExpr({x.index: 1.0}, constant=-2.0))  # x >= 2
        model.minimize(LinExpr({x.index: 1.0}))
        with pytest.raises(SolverError):
            backend(model.compile(), None)

    def test_equality_constraint(self, backend):
        model = Model()
        x = model.binary("x")
        y = model.binary("y")
        model.add_eq(LinExpr({x.index: 1.0, y.index: 1.0}, constant=-1.0))
        model.minimize(LinExpr({x.index: 2.0, y.index: 1.0}))
        result = backend(model.compile(), None)
        assert result.objective == pytest.approx(1.0)
        assert result.is_one(y)


class TestBnbSpecifics:
    def test_timeout_returns_incumbent_or_raises(self):
        """A large-ish knapsack under an absurdly small deadline either
        raises (no incumbent) or flags the result as timed out."""
        rng = np.random.default_rng(0)
        model = Model()
        xs = [model.binary(f"x{i}") for i in range(40)]
        weights = rng.uniform(1, 10, size=40)
        values = rng.uniform(1, 10, size=40)
        budget = LinExpr(constant=-60.0)
        objective = LinExpr()
        for x, w, v in zip(xs, weights, values):
            budget.add_term(x, float(w))
            objective.add_term(x, -float(v))
        model.add_le(budget)
        model.minimize(objective)
        try:
            result = solve_with_bnb(model.compile(), timeout_seconds=1e-4)
        except SolverError:
            return
        assert result.timed_out or result.optimal

    def test_matches_highs_on_random_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            model = Model()
            xs = [model.binary(f"x{i}") for i in range(8)]
            weights = rng.uniform(1, 5, size=8)
            values = rng.uniform(1, 5, size=8)
            budget = LinExpr(constant=-10.0)
            objective = LinExpr()
            for x, w, v in zip(xs, weights, values):
                budget.add_term(x, float(w))
                objective.add_term(x, -float(v))
            model.add_le(budget)
            model.minimize(objective)
            compiled = model.compile()
            highs = solve_with_highs(compiled, None)
            bnb = solve_with_bnb(compiled, None)
            assert highs.objective == pytest.approx(bnb.objective,
                                                    abs=1e-6), trial
