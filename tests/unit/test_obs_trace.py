"""Unit tests for :mod:`repro.obs.trace` and the trace summariser.

Covers the deterministic span-ID scheme, the disabled-by-default no-op path,
span nesting and error capture, the worker-side buffer + ``adopt_spans``
re-parenting, I/O degradation, and ``summarize``/``render_summary`` over a
synthetic trace.
"""

import json

import pytest

from repro.obs.summary import render_summary, summarize
from repro.obs.trace import (
    SpanBuffer,
    TraceWriter,
    adopt_spans,
    collecting,
    emit_metrics,
    emit_span,
    enabled,
    event,
    read_trace,
    root_id,
    span,
    span_id,
    task_seed,
    timed,
    tracing,
)


class TestDeterministicIds:
    def test_span_ids_are_stable_and_structural(self):
        assert span_id("p", "a", 0) == span_id("p", "a", 0)
        assert span_id("p", "a", 0) != span_id("p", "a", 1)
        assert span_id("p", "a", 0) != span_id("p", "b", 0)
        assert root_id("run") == root_id("run")
        assert task_seed("cell", 2) == "cell#2"

    def test_same_run_produces_the_same_tree(self, tmp_path):
        def run(path):
            with tracing(str(path), "same-run"):
                with span("outer"):
                    with span("inner"):
                        pass
                    with span("inner"):
                        pass
            _, records = read_trace(str(path))
            return [(r["id"], r["parent"], r["name"]) for r in records]

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")


class TestDisabledPath:
    def test_span_is_a_shared_noop_when_off(self):
        assert not enabled()
        first = span("anything", key="value")
        second = span("other")
        assert first is second
        with first as live:
            live.set(more="attrs")  # must not raise

    def test_event_and_emit_are_noops_when_off(self):
        event("nothing", cell="x")
        assert emit_span("nothing", 1.0) is None
        emit_metrics({"counters": {}})

    def test_timed_measures_wall_even_when_off(self):
        with timed("region") as timer:
            sum(range(1000))
        assert timer.wall > 0.0
        assert timer.id is None  # no span was recorded


class TestTracing:
    def test_meta_record_comes_first_with_extra_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing(str(path), "my-run", {"cells": 4}):
            pass
        meta, records = read_trace(str(path))
        assert meta["run"] == "my-run"
        assert meta["root"] == root_id("my-run")
        assert meta["cells"] == 4
        assert records == []

    def test_spans_nest_with_parent_ids(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing(str(path), "nest"):
            with span("outer", level=1) as outer:
                with span("inner") as inner:
                    pass
        _, records = read_trace(str(path))
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] == root_id("nest")
        assert by_name["outer"]["attrs"] == {"level": 1}
        assert by_name["outer"]["status"] == "ok"
        # Inner closes before outer, so it is written first.
        assert [r["name"] for r in records] == ["inner", "outer"]

    def test_exception_marks_the_span_and_propagates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing(str(path), "err"):
            with pytest.raises(RuntimeError):
                with span("doomed"):
                    raise RuntimeError("boom")
        _, records = read_trace(str(path))
        (record,) = records
        assert record["status"] == "error"
        assert record["error"] == "RuntimeError: boom"

    def test_set_attaches_attributes_mid_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing(str(path), "attrs"):
            with span("cell") as live:
                live.set(result="fine", count=2)
        _, records = read_trace(str(path))
        assert records[0]["attrs"] == {"result": "fine", "count": 2}

    def test_events_carry_the_enclosing_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing(str(path), "ev"):
            with span("outer") as outer:
                event("hit", cell="a/b/c")
        _, records = read_trace(str(path))
        assert records[0]["type"] == "event"
        assert records[0]["parent"] == outer.id
        assert records[0]["attrs"] == {"cell": "a/b/c"}

    def test_emit_span_synthesizes_under_the_current_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing(str(path), "synth"):
            synthesized = emit_span(
                "grid.cell", 1.25, status="error",
                error="WorkerCrash: exit code 86", cell="x", synthesized=True,
            )
        _, records = read_trace(str(path))
        (record,) = records
        assert record["id"] == synthesized
        assert record["parent"] == root_id("synth")
        assert record["wall"] == 1.25
        assert record["status"] == "error"
        assert record["error"] == "WorkerCrash: exit code 86"
        assert record["attrs"]["synthesized"] is True

    def test_state_is_restored_after_tracing(self, tmp_path):
        with tracing(str(tmp_path / "t.jsonl"), "run"):
            assert enabled()
        assert not enabled()
        assert span("x") is span("y")  # back to the shared no-op


class TestWorkerCollection:
    def test_collecting_buffers_and_adopt_reparents(self, tmp_path):
        seed = task_seed("alg/wl/cm", 1)
        with collecting(seed) as buffer:
            with span("grid.cell", cell="alg/wl/cm"):
                with span("algorithm.compute"):
                    pass
        assert [r["name"] for r in buffer.records] == [
            "algorithm.compute", "grid.cell",
        ]
        assert buffer.records[1]["parent"] == root_id(seed)

        # Supervisor side: adopt the shipped records under a live span.
        path = tmp_path / "t.jsonl"
        with tracing(str(path), "parent-run"):
            with span("grid.execute") as execute:
                written = adopt_spans(buffer.records, seed)
        assert written == 2
        _, records = read_trace(str(path))
        by_name = {r["name"]: r for r in records}
        assert by_name["grid.cell"]["parent"] == execute.id
        # Deeper records keep their worker-side parent link.
        assert by_name["algorithm.compute"]["parent"] == by_name["grid.cell"]["id"]

    def test_buffer_survives_an_exception_in_the_block(self):
        with pytest.raises(ValueError):
            with collecting("seed") as buffer:
                with span("grid.cell"):
                    raise ValueError("mid-span failure")
        (record,) = buffer.records
        assert record["status"] == "error"

    def test_adopt_is_a_noop_without_a_sink(self):
        assert adopt_spans([{"parent": "x"}], "seed") == 0


class TestTraceWriterDegradation:
    def test_write_failure_warns_once_and_drops(self, tmp_path, capsys):
        writer = TraceWriter(str(tmp_path / "t.jsonl"), "run")
        writer._handle.close()  # force OSError on subsequent writes
        writer.write({"type": "event", "name": "a"})
        writer.write({"type": "event", "name": "b"})
        assert writer.dropped == 2
        err = capsys.readouterr().err
        assert err.count("trace write") == 1
        writer.close()  # second close must not raise


class TestReadTrace:
    def test_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"type":"span"}\n')
        with pytest.raises(ValueError):
            read_trace(str(path))

    def test_rejects_unsupported_format(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"type":"meta","format":99,"run":"x","root":"r"}\n')
        with pytest.raises(ValueError):
            read_trace(str(path))

    def test_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(
            '{"type":"meta","format":1,"run":"x","root":"r"}\n'
            "garbage not json\n"
            '{"type":"event","name":"ok"}\n'
            '{"type":"span","name":"trunc'  # torn final line (crash mid-write)
        )
        meta, records = read_trace(str(path))
        assert meta["run"] == "x"
        assert [r["name"] for r in records] == ["ok"]


class TestSummarize:
    def _write_trace(self, path):
        with tracing(str(path), "summary-run", {"cells": 2}):
            with timed("grid.resolve"):
                pass
            with timed("grid.cache-scan"):
                event("grid.cache-hit", cell="cached/wl/cm")
            with timed("grid.execute"):
                with span("grid.cell", cell="good/wl/cm", attempt=1):
                    pass
                event("grid.retry", cell="flaky/wl/cm", attempt=1)
                with span("grid.cell", cell="flaky/wl/cm", attempt=2):
                    pass
                event("grid.worker-crash", cell="dead/wl/cm", attempt=1)
                emit_span(
                    "grid.cell", 0.5, status="error",
                    error="WorkerCrash: exit code 86",
                    cell="dead/wl/cm", synthesized=True,
                )
            emit_metrics(
                {
                    "counters": {
                        "grid.cache.hits": 1,
                        "grid.retry.attempts": 1,
                        "grid.worker.crashes": 1,
                        "cost.evaluator.memo.hits": 4,
                        "cost.evaluator.memo.misses": 6,
                    },
                    "gauges": {},
                    "histograms": {},
                }
            )

    def test_summarize_attributes_everything(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        digest = summarize(str(path))
        assert digest.meta["run"] == "summary-run"
        assert list(digest.phases) == [
            "grid.resolve", "grid.cache-scan", "grid.execute",
        ]
        assert digest.cache_hits == 1
        assert digest.cells["good/wl/cm"].status == "ok"
        flaky = digest.cells["flaky/wl/cm"]
        assert flaky.retries == 1 and flaky.status == "ok"
        dead = digest.cells["dead/wl/cm"]
        assert dead.crashes == 1 and dead.status == "error"
        assert dead.errors == ["WorkerCrash: exit code 86"]
        assert digest.counter("grid.retry.attempts") == 1
        assert [c.label for c in digest.failed_cells] == ["dead/wl/cm"]

    def test_render_summary_is_readable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        text = render_summary(summarize(str(path)))
        assert "run=summary-run" in text
        assert "grid.execute" in text
        assert "1 cached" in text
        assert "evaluator memo 4 hits / 6 misses" in text
        assert "1 retries · 1 worker crashes" in text
        assert "dead/wl/cm: 1 crashes; quarantined: WorkerCrash: exit code 86" in text

    def test_summary_cli_round_trip(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        assert obs_main(["summary", str(path)]) == 0
        assert "run=summary-run" in capsys.readouterr().out
        assert obs_main(["summary", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_hits"] == 1
        assert payload["cells"]["dead/wl/cm"]["crashes"] == 1

    def test_summary_cli_reports_bad_inputs(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        assert obs_main(["summary", str(tmp_path / "missing.jsonl")]) == 1
        assert "no such file" in capsys.readouterr().err
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a trace\n")
        assert obs_main(["summary", str(bad)]) == 1
        assert "error" in capsys.readouterr().err
