"""SolveRequest: validation, canonical digests, problem materialisation."""

from __future__ import annotations

import pytest

from repro.service.request import BadRequestError, SolveRequest


class TestValidation:
    def test_round_trips_a_full_document(self, request_doc):
        request = SolveRequest.from_dict(request_doc)
        assert request.solver == "qbp"
        assert request.grid == (2, 2)
        assert request.config["iterations"] == 5

    def test_rejects_non_object(self):
        with pytest.raises(BadRequestError, match="JSON object"):
            SolveRequest.from_dict([1, 2, 3])

    def test_rejects_unknown_fields(self, request_doc):
        request_doc["frobnicate"] = True
        with pytest.raises(BadRequestError, match="frobnicate"):
            SolveRequest.from_dict(request_doc)

    def test_rejects_missing_circuit(self):
        with pytest.raises(BadRequestError, match="circuit"):
            SolveRequest.from_dict({"solver": "qbp"})

    def test_rejects_unknown_solver(self, request_doc):
        request_doc["solver"] = "magic"
        with pytest.raises(BadRequestError, match="magic"):
            SolveRequest.from_dict(request_doc)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("iterations", 0),
            ("restarts", 0),
            ("capacity", -1.0),
            ("capacity_slack", -0.1),
            ("deadline_seconds", 0.0),
        ],
    )
    def test_rejects_out_of_range_numbers(self, request_doc, field, value):
        in_config = field in ("iterations", "restarts")
        (request_doc["config"] if in_config else request_doc)[field] = value
        with pytest.raises(BadRequestError):
            SolveRequest.from_dict(request_doc)

    @pytest.mark.parametrize("field", ["iterations", "restarts"])
    def test_rejects_top_level_config_fields(self, request_doc, field):
        request_doc[field] = 5
        with pytest.raises(BadRequestError, match=field):
            SolveRequest.from_dict(request_doc)

    def test_grid_accepts_string_form(self, request_doc):
        request_doc["grid"] = "3x2"
        assert SolveRequest.from_dict(request_doc).grid == (3, 2)

    def test_grid_rejects_single_partition(self, request_doc):
        request_doc["grid"] = [1, 1]
        with pytest.raises(BadRequestError, match="fewer than 2"):
            SolveRequest.from_dict(request_doc)


class TestDigest:
    def test_digest_is_stable_across_key_order(self, request_doc):
        shuffled = dict(reversed(list(request_doc.items())))
        assert (
            SolveRequest.from_dict(request_doc).digest()
            == SolveRequest.from_dict(shuffled).digest()
        )

    def test_transport_fields_do_not_change_the_digest(self, request_doc):
        base = SolveRequest.from_dict(request_doc)
        rushed = SolveRequest.from_dict(
            {**request_doc, "deadline_seconds": 0.5, "priority": 9}
        )
        assert base.digest() == rushed.digest()

    def test_semantic_fields_change_the_digest(self, request_doc):
        base = SolveRequest.from_dict(request_doc)
        other = SolveRequest.from_dict({**request_doc, "seed": 12})
        assert base.digest() != other.digest()

    def test_with_transport_keeps_digest(self, request_doc):
        base = SolveRequest.from_dict(request_doc)
        leased = base.with_transport(deadline_seconds=2.0, priority=3)
        assert leased.digest() == base.digest()
        assert leased.deadline_seconds == 2.0
        assert leased.priority == 3


class TestBuildProblem:
    def test_builds_a_consistent_problem(self, request_doc):
        problem = SolveRequest.from_dict(request_doc).build_problem()
        assert problem.num_partitions == 4
        assert problem.num_components == 16

    def test_explicit_capacity_is_honoured(self, request_doc):
        request_doc["capacity"] = 999.0
        problem = SolveRequest.from_dict(request_doc).build_problem()
        assert problem.capacities().max() == pytest.approx(999.0)

    def test_bad_circuit_document_is_a_bad_request(self, request_doc):
        request_doc["circuit"] = {"name": "broken"}
        with pytest.raises(BadRequestError, match="circuit"):
            SolveRequest.from_dict(request_doc).build_problem()

    def test_timing_component_count_mismatch_rejected(self, request_doc):
        request_doc["timing"] = {"num_components": 3, "constraints": []}
        with pytest.raises(BadRequestError, match="components"):
            SolveRequest.from_dict(request_doc).build_problem()

    @pytest.mark.parametrize(
        "constraints",
        [[5], [[0, 1]], [[0, 1, None]], [[0, "x", 1.0]], [[0, 99, 1.0]]],
    )
    def test_malformed_timing_is_a_bad_request(self, request_doc, constraints):
        request_doc["timing"] = {"num_components": 16, "constraints": constraints}
        with pytest.raises(BadRequestError, match="timing"):
            SolveRequest.from_dict(request_doc).build_problem()

    def test_timing_without_count_is_for_the_circuit(self, request_doc):
        request_doc["timing"] = {"constraints": [[0, 1, 4.0]]}
        problem = SolveRequest.from_dict(request_doc).build_problem()
        assert len(problem.timing) == 1

    def test_timing_constraints_are_applied(self, request_doc):
        request_doc["timing"] = {
            "num_components": 16,
            "constraints": [[0, 1, 4.0]],
        }
        problem = SolveRequest.from_dict(request_doc).build_problem()
        assert problem.timing is not None


class TestBudgets:
    def test_no_deadline_no_parent_means_no_budget(self, request_doc):
        assert SolveRequest.from_dict(request_doc).make_budget() is None

    def test_deadline_maps_to_wall_seconds(self, request_doc):
        request_doc["deadline_seconds"] = 1.5
        budget = SolveRequest.from_dict(request_doc).make_budget()
        assert budget is not None
        assert budget.wall_seconds == pytest.approx(1.5)

    def test_parent_cancel_flag_is_shared(self, request_doc):
        from repro.runtime.budget import Budget

        parent = Budget()
        request_doc["deadline_seconds"] = 30.0
        lease = SolveRequest.from_dict(request_doc).make_budget(parent)
        assert lease is not None
        parent.cancel()
        assert lease.check() == "cancelled"
