"""Tests for text-to-multi-SQL candidate generation (Section 3)."""

import pytest

from repro.core.greedy import GreedySolver
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.errors import CandidateGenerationError
from repro.nlq.candidates import CandidateGenerator, CandidateQuery
from repro.sqldb.expressions import AggregateCall, AggregateFunction
from repro.sqldb.query import AggregateQuery, Predicate


@pytest.fixture()
def generator(nyc_db) -> CandidateGenerator:
    return CandidateGenerator(nyc_db, "nyc311")


@pytest.fixture()
def seed_query() -> AggregateQuery:
    return AggregateQuery.build(
        "nyc311", "avg", "resolution_hours",
        {"borough": "Brooklyn", "complaint_type": "Noise"})


class TestCandidateQuery:
    def test_probability_validated(self, seed_query):
        with pytest.raises(CandidateGenerationError):
            CandidateQuery(seed_query, 1.5)
        with pytest.raises(CandidateGenerationError):
            CandidateQuery(seed_query, -0.1)


class TestCandidateGeneration:
    def test_seed_is_most_likely(self, generator, seed_query):
        candidates = generator.candidates(seed_query, 20)
        assert candidates[0].query == seed_query
        assert candidates[0].probability == max(
            c.probability for c in candidates)

    def test_probabilities_sum_to_one(self, generator, seed_query):
        candidates = generator.candidates(seed_query, 20)
        assert sum(c.probability for c in candidates) == pytest.approx(1.0)

    def test_sorted_descending(self, generator, seed_query):
        candidates = generator.candidates(seed_query, 20)
        probs = [c.probability for c in candidates]
        assert probs == sorted(probs, reverse=True)

    def test_no_duplicate_queries(self, generator, seed_query):
        candidates = generator.candidates(seed_query, 20)
        queries = [c.query for c in candidates]
        assert len(queries) == len(set(queries))

    def test_max_candidates_respected(self, generator, seed_query):
        assert len(generator.candidates(seed_query, 5)) == 5
        assert len(generator.candidates(seed_query, 30)) == 30

    def test_phonetic_confusions_present(self, generator, seed_query):
        """Brooklyn/Bronx must appear among the alternatives."""
        candidates = generator.candidates(seed_query, 20)
        boroughs = {c.query.predicate_on("borough").value
                    for c in candidates
                    if c.query.predicate_on("borough") is not None}
        assert "Bronx" in boroughs

    def test_close_sounding_value_outranks_distant_one(self, generator,
                                                       seed_query):
        candidates = generator.candidates(seed_query, 20)

        def prob_of_complaint(value: str) -> float:
            for candidate in candidates:
                predicate = candidate.query.predicate_on("complaint_type")
                if predicate is not None and predicate.value == value:
                    other = candidate.query.predicate_on("borough")
                    if other is not None and other.value == "Brooklyn":
                        return candidate.probability
            return 0.0

        # "Noise Residential" sounds closer to "Noise" than "Graffiti".
        assert prob_of_complaint("Noise Residential") > prob_of_complaint(
            "Graffiti")

    def test_double_replacements_less_likely_than_single(self, generator,
                                                         seed_query):
        candidates = generator.candidates(seed_query, 40)
        singles, doubles = [], []
        seed_elements = {
            ("borough", "Brooklyn"), ("complaint_type", "Noise")}
        for candidate in candidates[1:]:
            replaced = sum(
                1 for p in candidate.query.predicates
                if (p.column, p.value) not in seed_elements)
            if replaced == 1:
                singles.append(candidate.probability)
            elif replaced >= 2:
                doubles.append(candidate.probability)
        if singles and doubles:
            assert max(doubles) <= max(singles)

    def test_candidates_all_on_same_table(self, generator, seed_query):
        for candidate in generator.candidates(seed_query, 20):
            assert candidate.query.table == "nyc311"

    def test_deterministic(self, generator, seed_query):
        first = generator.candidates(seed_query, 15)
        second = generator.candidates(seed_query, 15)
        assert first == second

    def test_invalid_parameters(self, nyc_db, generator, seed_query):
        with pytest.raises(CandidateGenerationError):
            CandidateGenerator(nyc_db, "nyc311", k=0)
        with pytest.raises(CandidateGenerationError):
            generator.candidates(seed_query, 0)

    def test_count_star_seed(self, generator):
        seed = AggregateQuery.build("nyc311", "count", None,
                                    {"borough": "Queens"})
        candidates = generator.candidates(seed, 10)
        assert candidates[0].query == seed
        assert len(candidates) == 10

    def test_aggregate_function_variation_can_be_disabled(self, nyc_db,
                                                          seed_query):
        generator = CandidateGenerator(nyc_db, "nyc311",
                                       vary_aggregate_function=False)
        candidates = generator.candidates(seed_query, 30)
        funcs = {c.query.aggregate.func for c in candidates}
        assert funcs == {seed_query.aggregate.func}

    def test_max_simultaneous_one_limits_replacements(self, nyc_db,
                                                      seed_query):
        generator = CandidateGenerator(nyc_db, "nyc311", max_simultaneous=1)
        seed_elements = {
            ("borough", "Brooklyn"), ("complaint_type", "Noise")}
        for candidate in generator.candidates(seed_query, 30):
            changed_predicates = sum(
                1 for p in candidate.query.predicates
                if (p.column, p.value) not in seed_elements)
            changed_agg = (candidate.query.aggregate
                           != seed_query.aggregate)
            assert changed_predicates + int(changed_agg) <= 1

    def test_substitution_repeating_a_predicate_still_plans(self,
                                                            generator):
        """A seed filtering one column twice (speech can produce
        ``agency = 'DOB' AND agency = 'DOT'``): substituting one value
        by the other repeats a predicate.  The candidate must collapse
        to the query without the repeat, so every candidate instantiates
        the templates planning builds from it."""
        seed = AggregateQuery(
            "nyc311", AggregateCall(AggregateFunction.COUNT, None),
            (Predicate("agency", "DOB"), Predicate("agency", "DOT")))
        candidates = generator.candidates(seed, 20)
        queries = [c.query for c in candidates]
        assert AggregateQuery.build("nyc311", "count", None,
                                    {"agency": "DOT"}) in queries
        for query in queries:
            assert len(set(query.predicates)) == len(query.predicates)
        assert len(set(queries)) == len(queries)
        problem = MultiplotSelectionProblem(
            candidates,
            geometry=ScreenGeometry(width_pixels=1500, num_rows=2))
        assert GreedySolver().solve(problem).multiplot.num_plots >= 1
