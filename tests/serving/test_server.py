"""End-to-end suite for the :class:`CircuitServer` HTTP serving layer.

The server's contract (DESIGN.md §10): registration grounds, builds
and compiles once per ``(program fingerprint, db fingerprint,
construction)`` key with LRU eviction; Boolean point queries coalesce
into 64-wide bitset lanes; numeric and incremental routes agree
*exactly* with direct in-process evaluation of the same circuit; and
malformed input maps to 4xx responses, never a dropped connection.

pytest-asyncio is not a dependency, so every test drives its own
event loop through ``asyncio.run``.
"""

import asyncio
import json

from repro.constructions import provenance_circuit
from repro.datalog import Database, Fact, parse_atom, parse_program
from repro.semirings import TROPICAL
from repro.serving import CircuitClient, CircuitServer, ServerError

TC = "T(X,Y) :- E(X,Y).\nT(X,Z) :- T(X,Y), E(Y,Z)."
EDGES = ["E(0,1)", "E(1,2)", "E(2,3)", "E(0,2)"]


def run(coro):
    return asyncio.run(coro)


async def with_server(scenario, **server_kwargs):
    async with CircuitServer(**server_kwargs) as (host, port):
        async with CircuitClient(host, port) as client:
            return await scenario(host, port, client)


# -- lifecycle and registration -------------------------------------------


def test_healthz_and_empty_stats():
    async def scenario(host, port, client):
        health = await client.healthz()
        assert health["status"] == "ok"
        assert health["draining"] is False
        ready = await client.readyz()
        assert ready["ready"] is True
        stats = await client.stats()
        assert stats["circuits"] == 0
        assert stats["cache"] == {"hits": 0, "misses": 0, "evictions": 0}

    run(with_server(scenario))


def test_register_compiles_once_and_hits_cache():
    async def scenario(host, port, client):
        first = await client.register(TC, EDGES, "T(0,3)", target="T")
        assert first["cached"] is False
        assert first["size"] > 0
        again = await client.register(TC, EDGES, "T(0,3)", target="T")
        assert again["cached"] is True
        assert again["key"] == first["key"]
        stats = await client.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1

    run(with_server(scenario))


def test_cache_key_separates_databases_and_constructions():
    async def scenario(host, port, client):
        base = await client.register(TC, EDGES, "T(0,3)", target="T")
        other_db = await client.register(TC, EDGES + ["E(3,4)"], "T(0,3)", target="T")
        pinned = await client.register(
            TC, EDGES, "T(0,3)", target="T", construction="generic"
        )
        keys = {base["key"], other_db["key"], pinned["key"]}
        assert len(keys) == 3
        assert pinned["construction"] == "generic"

    run(with_server(scenario))


def test_lru_eviction_forgets_the_oldest_circuit():
    async def scenario(host, port, client):
        first = await client.register(TC, EDGES, "T(0,3)", target="T")
        await client.register(TC, EDGES + ["E(3,4)"], "T(0,4)", target="T")
        stats = await client.stats()
        assert stats["circuits"] == 1
        assert stats["cache"]["evictions"] == 1
        try:
            await client.boolean(first["key"], EDGES)
        except ServerError as exc:
            assert exc.status == 404
        else:
            raise AssertionError("evicted key should 404")

    run(with_server(scenario, max_circuits=1))


# -- Boolean serving -------------------------------------------------------


def test_boolean_answers_match_direct_evaluation():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        key = reg["key"]
        # Direct in-process ground truth on the same inputs.
        program = parse_program(TC, target="T")
        database = Database.from_edges([(0, 1), (1, 2), (2, 3), (0, 2)])
        compiled = provenance_circuit(program, database, Fact("T", (0, 3))).compiled()
        cases = [
            ["E(0,1)", "E(1,2)", "E(2,3)"],
            ["E(0,2)", "E(2,3)"],
            ["E(0,1)", "E(2,3)"],  # gap at 1→2: unreachable
            [],
            EDGES,
        ]
        server_answers = [await client.boolean(key, case) for case in cases]
        direct = compiled.evaluate_boolean_batch(
            [frozenset(parse_atom(c).to_fact() for c in case) for case in cases]
        )
        assert server_answers == direct == [True, True, False, False, True]

    run(with_server(scenario))


def test_concurrent_point_queries_coalesce_into_lanes():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        key = reg["key"]
        workers = [CircuitClient(host, port) for _ in range(32)]
        for worker in workers:
            await worker.connect()
        try:
            answers = await asyncio.gather(
                *[worker.boolean(key, EDGES) for worker in workers]
            )
        finally:
            for worker in workers:
                await worker.close()
        assert answers == [True] * 32
        lanes = (await client.stats())["boolean_lanes"]
        # 32 queries must not have cost 32 single-item bitset passes.
        assert lanes["items"] == 32
        assert lanes["batches"] < 32
        assert lanes["fill_ratio"] > 1 / 64

    run(with_server(scenario))


def test_prebuilt_batches_bypass_the_coalescer():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        values = await client.boolean_batch(
            reg["key"], [["E(0,1)", "E(1,2)", "E(2,3)"], ["E(0,1)"]]
        )
        assert values == [True, False]
        lanes = (await client.stats())["boolean_lanes"]
        assert lanes["items"] == 0  # the coalescing queue never saw them

    run(with_server(scenario))


# -- numeric serving -------------------------------------------------------


def test_numeric_evaluate_matches_direct_circuit_evaluation():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        weights = {"E(0,1)": 1.0, "E(1,2)": 1.0, "E(2,3)": 1.0, "E(0,2)": 5.0}
        served = await client.evaluate(reg["key"], "tropical", weights)
        program = parse_program(TC, target="T")
        database = Database.from_edges([(0, 1), (1, 2), (2, 3), (0, 2)])
        choice = provenance_circuit(program, database, Fact("T", (0, 3)))
        direct = choice.evaluate(
            TROPICAL, {Fact("E", (u, v)): w for (u, v), w in
                       [((0, 1), 1.0), ((1, 2), 1.0), ((2, 3), 1.0), ((0, 2), 5.0)]}
        )
        assert served == direct == 3.0

    run(with_server(scenario))


def test_numeric_batch_and_partial_weights_default_to_stored_valuation():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        values = await client.evaluate_batch(
            reg["key"],
            "counting",
            [{}, {"E(0,2)": 0}],  # all-ones, then cut the shortcut edge
        )
        # Proof trees of T(0,3): 0→1→2→3 and 0→2→3.
        assert values == [2, 1]

    run(with_server(scenario))


def test_update_sessions_persist_and_report_cone_sizes():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        key = reg["key"]
        first = await client.update(key, "counting", {"E(0,2)": 0})
        assert first["outputs"] == [1]
        assert 0 < first["cone_size"] <= reg["size"]
        # Same session, incremental from the previous state.
        second = await client.update(key, "counting", {"E(0,2)": 1})
        assert second["outputs"] == [2]
        third = await client.update(key, "counting", {"E(0,1)": 0, "E(0,2)": 0})
        assert third["outputs"] == [0]

    run(with_server(scenario))


# -- one-shot solve --------------------------------------------------------


def test_solve_route_matches_fixpoint_semantics():
    async def scenario(host, port, client):
        result = await client.solve(TC, ["E(0,1)", "E(1,2)"], "counting", target="T")
        assert result["values"] == {"T(0,1)": 1, "T(1,2)": 1, "T(0,2)": 1}
        assert result["iterations"] >= 2

    run(with_server(scenario))


def test_removed_engine_and_strategy_fields_get_400():
    """Grounding and the fixpoint run one pipeline: a body naming the
    removed ``engine``/``strategy`` knobs is refused, naming the field,
    instead of being answered some other way than it asked for."""

    async def scenario(host, port, client):
        body = {"program": TC, "target": "T", "facts": EDGES}
        for route, extra in (("/solve", {}), ("/circuits", {"output": "T(0,3)"})):
            for field, value in (("engine", "indexed"), ("strategy", "naive")):
                status, payload = await client.request(
                    "POST", route, {**body, **extra, field: value}
                )
                assert status == 400, (route, field)
                assert repr(field) in payload["error"], payload
        # The connection survives the application-level 400s.
        result = await client.solve(TC, ["E(0,1)"], "boolean", target="T")
        assert result["values"] == {"T(0,1)": True}

    run(with_server(scenario))


def test_solve_reports_divergence_as_422():
    async def scenario(host, port, client):
        status, payload = await client.request(
            "POST",
            "/solve",
            {
                "program": TC,
                "target": "T",
                "facts": ["E(0,1)", "E(1,0)"],
                "semiring": "counting",
                "max_iterations": 5,
            },
        )
        assert status == 422
        assert "diverged" in payload["error"]

    run(with_server(scenario))


# -- error handling --------------------------------------------------------


def test_unknown_routes_keys_and_semirings():
    async def scenario(host, port, client):
        assert (await client.request("GET", "/bogus"))[0] == 404
        status, payload = await client.request(
            "POST", "/circuits/feedfacefeedface/boolean", {"true_facts": []}
        )
        assert status == 404 and "unknown circuit key" in payload["error"]
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        status, payload = await client.request(
            "POST", f"/circuits/{reg['key']}/evaluate", {"semiring": "quantum"}
        )
        assert status == 400 and "unknown semiring" in payload["error"]

    run(with_server(scenario))


def test_malformed_requests_return_400_not_a_dropped_connection():
    async def scenario(host, port, client):
        # Registration without an output fact.
        status, payload = await client.request("POST", "/circuits", {"program": TC, "target": "T"})
        assert status == 400 and "output" in payload["error"]
        # Unparseable fact spelling.
        status, payload = await client.request(
            "POST",
            "/circuits",
            {"program": TC, "target": "T", "facts": ["E(0,1)"], "output": "not a fact ("},
        )
        assert status == 400
        # Raw invalid JSON body straight down the socket.
        reader, writer = await asyncio.open_connection(host, port)
        body = b"{not json"
        writer.write(
            b"POST /solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        await writer.drain()
        status_line = await reader.readline()
        assert b"400" in status_line
        writer.close()
        # The keep-alive client connection is still healthy afterwards.
        assert (await client.healthz())["status"] == "ok"

    run(with_server(scenario))


def test_update_with_unknown_fact_is_a_client_error():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        status, payload = await client.request(
            "POST",
            f"/circuits/{reg['key']}/update",
            {"semiring": "counting", "delta": {"E(9,9)": 0}},
        )
        assert status == 400 and "no input gate" in payload["error"]

    run(with_server(scenario))


def test_wire_accepts_list_form_facts():
    async def scenario(host, port, client):
        reg = await client.register(
            TC, [["E", [0, 1]], ["E", [1, 2]]], ["T", [0, 2]], target="T"
        )
        assert await client.boolean(reg["key"], [["E", [0, 1]], ["E", [1, 2]]]) is True
        assert await client.boolean(reg["key"], [["E", [0, 1]]]) is False

    run(with_server(scenario))


def test_stats_payload_is_json_round_trippable():
    async def scenario(host, port, client):
        reg = await client.register(TC, EDGES, "T(0,3)", target="T")
        await client.boolean(reg["key"], EDGES)
        await client.evaluate(reg["key"], "tropical", {})
        stats = await client.stats()
        assert json.loads(json.dumps(stats)) == stats
        entry = stats["per_circuit"][reg["key"]]
        assert entry["queries"] >= 2
        assert entry["boolean_lanes"]["items"] == 1
        assert "tropical" in entry["numeric_lanes"]

    run(with_server(scenario))


# -- static analysis: /lint and structured validation errors ---------------


def test_lint_route_clean_program():
    async def scenario(host, port, client):
        report = await client.lint(TC, EDGES, target="T")
        assert report["ok"] is True
        assert report["dependencies"]["recursion"] == "linear"
        codes = {d["code"] for d in report["diagnostics"]}
        assert "DL005" in codes  # the SCC report rides along as info

    run(with_server(scenario))


def test_lint_route_reports_dl_codes_not_http_errors():
    async def scenario(host, port, client):
        # Unsafe rule + arity clash: still HTTP 200, diagnostics in body.
        report = await client.lint(
            ["T(X, Y) :- E(X, X).", "U(X) :- T(X)."], target="T"
        )
        assert report["ok"] is False
        codes = {d["code"] for d in report["diagnostics"]}
        assert {"DL001", "DL002"} <= codes
        # Errors come first in the ordered diagnostics list.
        severities = [d["severity"] for d in report["diagnostics"]]
        assert severities.index("error") == 0

    run(with_server(scenario))


def test_lint_route_predicts_divergence_with_semiring_and_facts():
    async def scenario(host, port, client):
        report = await client.lint(
            TC, ["E(0,1)", "E(1,0)"], target="T", semiring="counting"
        )
        assert report["ok"] is False  # DL006 error: predicted divergence
        assert report["divergence"]["verdict"] == "diverges"
        assert "witness" in report["divergence"]
        # Same data over an absorptive semiring is clean.
        clean = await client.lint(
            TC, ["E(0,1)", "E(1,0)"], target="T", semiring="boolean"
        )
        assert clean["ok"] is True
        assert clean["divergence"]["verdict"] == "converges"

    run(with_server(scenario))


def test_lint_route_answers_parse_errors_inline():
    async def scenario(host, port, client):
        report = await client.lint("T(X, Y) :- E(X, Y", target="T")
        assert report["ok"] is False
        error = report["parse_error"]
        assert error["line"] == 1 and error["column"] >= 1
        assert error["source_line"] == "T(X, Y) :- E(X, Y"
        status, _ = await client.request("POST", "/lint", {})
        assert status == 400  # missing 'program' is still a client error

    run(with_server(scenario))


def test_register_rejects_invalid_program_with_structured_400():
    async def scenario(host, port, client):
        status, payload = await client.request(
            "POST",
            "/circuits",
            {
                "program": "T(X, Y) :- E(X, X).",
                "facts": ["E(0,0)"],
                "outputs": ["T(0,0)"],
                "target": "T",
            },
        )
        assert status == 400
        assert "DL001" in payload["error"]
        assert payload["diagnostics"][0]["code"] == "DL001"
        assert payload["diagnostics"][0]["severity"] == "error"

    run(with_server(scenario))


def test_register_reports_parse_position_on_400():
    async def scenario(host, port, client):
        status, payload = await client.request(
            "POST",
            "/circuits",
            {
                "program": "T(X, Y) :- E(X, Y).\nT(X, Y) :- T(X, Z) E(Z, Y).",
                "facts": ["E(0,1)"],
                "outputs": ["T(0,1)"],
                "target": "T",
            },
        )
        assert status == 400
        assert payload["line"] == 2
        assert payload["source_line"].startswith("T(X, Y) :- T(X, Z)")

    run(with_server(scenario))
