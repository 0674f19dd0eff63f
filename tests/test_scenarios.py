"""The adversarial scenario engine (ISSUE 8 tentpole).

Three layers under test:

1. **Engine** — :class:`ScenarioPipeline` with toy stages: full chain,
   subset runs, skip-don't-crash on missing inputs, failure
   containment, checkpoint write and resume-with-cached-results,
   undeclared-artifact and duplicate-name config errors.
2. **Metrics** — nearest-rank percentiles, degradation deltas, budget
   checking (including the missing-metric-is-breach rule), and the
   merge into the bench-trend ``BENCH_<date>.json`` shape.
3. **Scenarios live** — delay injection end to end on a real worker,
   a tiny-scale run of the library stages against a live fleet, and the
   acceptance path: resume from a mid-pipeline checkpoint with the
   completed stage restored as cached.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigError
from repro.runtime import faults
from repro.scenarios import (
    DEFAULT_STAGE_NAMES,
    LoadMetrics,
    ScenarioConfig,
    ScenarioEnv,
    ScenarioPipeline,
    Stage,
    StageContext,
    StageOutput,
    check_budget,
    default_pipeline,
    degradation_vs,
    merge_reports_into_bench_json,
)
from repro.scenarios.metrics import percentile
from repro.scenarios.stage import StageReport


# ---------------------------------------------------------------------------
# Toy stages for engine tests
# ---------------------------------------------------------------------------


class _Toy:
    """Minimal structural Stage: records whether it ran."""

    def __init__(self, name, inputs=(), outputs=(), fn=None):
        self.name = name
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.fn = fn
        self.ran = 0

    def run(self, ctx):
        self.ran += 1
        if self.fn is not None:
            return self.fn(ctx)
        return StageOutput.ok({"n": self.ran},
                              **{key: f"{self.name}:{key}"
                                 for key in self.outputs})


class TestStageContract:
    def test_toy_satisfies_protocol(self):
        assert isinstance(_Toy("a"), Stage)

    def test_output_constructors(self):
        ok = StageOutput.ok({"p99_s": 0.1}, baseline={"x": 1})
        assert ok.status == "ok" and ok.artifacts == {"baseline": {"x": 1}}
        skip = StageOutput.skip("no input")
        assert skip.status == "skipped" and skip.reason == "no input"
        fail = StageOutput.fail("boom", {"partial": 1})
        assert fail.status == "failed" and fail.metrics == {"partial": 1}

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            StageOutput(status="exploded")

    def test_context_accessors(self):
        ctx = StageContext(artifacts={"a": 1})
        assert ctx.artifact("a") == 1
        assert ctx.has("a") and not ctx.has("b")
        assert ctx.missing(("a", "b", "c")) == ("b", "c")
        with pytest.raises(KeyError):
            ctx.artifact("b")

    def test_report_round_trips_through_dict(self):
        report = StageReport(name="x", status="ok", reason="",
                            metrics={"p99_s": 0.5}, duration_s=1.5)
        again = StageReport.from_dict(json.loads(
            json.dumps(report.to_dict())))
        assert again.name == "x" and again.metrics == {"p99_s": 0.5}
        assert again.duration_s == 1.5 and not again.cached


class TestPipelineEngine:
    def _chain(self):
        return [
            _Toy("a", outputs=("base",)),
            _Toy("b", inputs=("base",), outputs=("mid",)),
            _Toy("c", inputs=("mid",)),
        ]

    def test_full_chain_runs_in_order(self):
        stages = self._chain()
        result = ScenarioPipeline(stages).run()
        assert [r.name for r in result.reports] == ["a", "b", "c"]
        assert all(r.ok for r in result.reports)
        assert result.ok
        assert result.artifacts == {"base": "a:base", "mid": "b:mid"}
        assert result.counts() == {"ok": 3, "skipped": 0, "failed": 0}

    def test_subset_preserves_declared_order(self):
        stages = self._chain()
        pipeline = ScenarioPipeline(stages)
        result = pipeline.run(names=["b", "a"])  # order comes from chain
        assert [r.name for r in result.reports] == ["a", "b"]
        assert stages[2].ran == 0

    def test_unknown_stage_name_raises(self):
        with pytest.raises(ConfigError, match="unknown scenario stage"):
            ScenarioPipeline(self._chain()).run(names=["a", "nope"])

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ScenarioPipeline([_Toy("a"), _Toy("a")])

    def test_missing_input_skips_not_crashes(self):
        stages = self._chain()
        result = ScenarioPipeline(stages).run(names=["b", "c"])
        skipped = result.report_for("b")
        assert skipped.status == "skipped"
        assert "base" in skipped.reason
        # c's input came from b which was skipped -> c skips too
        assert result.report_for("c").status == "skipped"
        assert result.ok  # skips are within contract

    def test_failure_contained_and_downstream_skipped(self):
        def boom(ctx):
            raise RuntimeError("scenario exploded")
        stages = [
            _Toy("a", outputs=("base",)),
            _Toy("bad", inputs=("base",), outputs=("mid",), fn=boom),
            _Toy("c", inputs=("mid",)),
            _Toy("d", inputs=("base",)),
        ]
        result = ScenarioPipeline(stages).run()
        assert result.report_for("bad").status == "failed"
        assert "scenario exploded" in result.report_for("bad").reason
        assert result.report_for("c").status == "skipped"
        # independent stage after the failure still runs
        assert result.report_for("d").status == "ok"
        assert not result.ok

    def test_non_stageoutput_return_is_failure(self):
        stages = [_Toy("weird", fn=lambda ctx: {"not": "an output"})]
        result = ScenarioPipeline(stages).run()
        assert result.report_for("weird").status == "failed"
        assert "StageOutput" in result.report_for("weird").reason

    def test_undeclared_artifact_is_config_error(self):
        stages = [_Toy("leaky",
                       fn=lambda ctx: StageOutput.ok({}, sneaky=1))]
        with pytest.raises(ConfigError, match="undeclared"):
            ScenarioPipeline(stages).run()

    def test_checkpoint_then_resume_restores_cached(self, tmp_path):
        ckpt = tmp_path / "scenarios.ckpt.json"
        first = self._chain()
        ScenarioPipeline(first, checkpoint_path=ckpt).run(names=["a"])
        data = json.loads(ckpt.read_text())
        assert data["format"] == "repro-scenarios-checkpoint"
        assert set(data["completed"]) == {"a"}

        second = self._chain()
        result = ScenarioPipeline(second, checkpoint_path=ckpt).run(
            resume=True)
        # a restored from checkpoint, not re-run; b and c ran live with
        # a's artifact resolved from the checkpoint
        assert second[0].ran == 0
        assert result.report_for("a").cached
        assert not result.report_for("b").cached
        assert [r.status for r in result.reports] == ["ok"] * 3
        assert result.artifacts["base"] == "a:base"

    def test_resume_false_ignores_checkpoint(self, tmp_path):
        ckpt = tmp_path / "c.json"
        ScenarioPipeline(self._chain(), checkpoint_path=ckpt).run(
            names=["a"])
        second = self._chain()
        result = ScenarioPipeline(second, checkpoint_path=ckpt).run()
        assert second[0].ran == 1
        assert not result.report_for("a").cached

    def test_failed_stages_not_checkpointed(self, tmp_path):
        ckpt = tmp_path / "c.json"

        def boom(ctx):
            raise RuntimeError("no")
        stages = [_Toy("a", outputs=("base",)),
                  _Toy("bad", fn=boom)]
        ScenarioPipeline(stages, checkpoint_path=ckpt).run()
        assert set(json.loads(ckpt.read_text())["completed"]) == {"a"}

    def test_garbage_checkpoint_ignored(self, tmp_path):
        ckpt = tmp_path / "c.json"
        ckpt.write_text("{not json")
        stages = self._chain()
        result = ScenarioPipeline(stages, checkpoint_path=ckpt).run(
            resume=True)
        assert all(not r.cached for r in result.reports)
        assert result.ok


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0
        assert percentile(samples, 0.0) == 1.0
        assert percentile([0.25], 99.0) == 0.25

    def test_percentile_edge_cases(self):
        assert math.isnan(percentile([], 50.0))
        with pytest.raises(ValueError):
            percentile([1.0], 150.0)

    def test_load_metrics_summary(self):
        m = LoadMetrics("probe").start()
        for v in (0.010, 0.020, 0.030):
            m.record(v)
        m.record_error()
        summary = m.stop().summary()
        assert summary["ops"] == 3.0
        assert summary["errors"] == 1.0
        assert summary["error_rate"] == pytest.approx(0.25)
        assert summary["p50_s"] == pytest.approx(0.020)
        assert summary["p99_s"] == pytest.approx(0.030)
        assert summary["throughput_ops"] > 0

    def test_load_metrics_rejects_bad_samples(self):
        m = LoadMetrics()
        with pytest.raises(ValueError):
            m.record(-1.0)
        with pytest.raises(ValueError):
            m.record(float("nan"))

    def test_degradation_vs(self):
        summary = {"p50_s": 0.02, "p99_s": 0.30, "throughput_ops": 50.0}
        baseline = {"p50_s": 0.01, "p99_s": 0.03, "throughput_ops": 100.0}
        delta = degradation_vs(summary, baseline)
        assert delta["p50_x"] == pytest.approx(2.0)
        assert delta["p99_x"] == pytest.approx(10.0)
        assert delta["throughput_x"] == pytest.approx(0.5)
        assert delta["baseline_p99_s"] == pytest.approx(0.03)

    def test_degradation_vs_undefined_is_nan(self):
        delta = degradation_vs({"p99_s": 1.0}, {"p99_s": 0.0})
        assert math.isnan(delta["p99_x"])

    def test_check_budget_within_and_over(self):
        metrics = {"p99_x": 7.0, "error_rate": 0.01, "throughput_x": 0.9}
        assert check_budget(metrics, {"p99_x_max": 10.0,
                                      "error_rate_max": 0.05,
                                      "throughput_x_min": 0.5}) == []
        breaches = check_budget(metrics, {"p99_x_max": 5.0,
                                          "throughput_x_min": 0.95})
        assert len(breaches) == 2
        assert any("p99_x=7" in b for b in breaches)

    def test_check_budget_missing_metric_is_breach(self):
        breaches = check_budget({}, {"p99_x_max": 10.0})
        assert len(breaches) == 1
        assert "no measurement" in breaches[0]

    def test_check_budget_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown budget key"):
            check_budget({}, {"p42_x_max": 1.0})

    def test_merge_creates_fresh_bench_file(self, tmp_path):
        path = tmp_path / "BENCH_2026-08-08.json"
        reports = [
            StageReport(name="churn_storm", status="ok",
                        metrics={"p50_s": 0.01, "p99_s": 0.05,
                                 "p99_x": 3.0, "within_budget": True,
                                 "breaches": []}),
            StageReport(name="flash_crowd", status="skipped",
                        reason="missing input artifact(s): baseline"),
        ]
        data = merge_reports_into_bench_json(path, reports, n_records=500)
        on_disk = json.loads(path.read_text())
        assert on_disk == data
        assert on_disk["n_records"] == 500
        assert on_disk["timings_s"]["scenario_churn_storm_p50_s"] == 0.01
        assert on_disk["timings_s"]["scenario_churn_storm_p99_s"] == 0.05
        # skipped stages record status+reason but publish no timings
        assert "scenario_flash_crowd_p99_s" not in on_disk["timings_s"]
        assert on_disk["scenarios"]["flash_crowd"]["status"] == "skipped"
        assert on_disk["scenarios"]["churn_storm"]["p99_x"] == 3.0

    def test_merge_extends_existing_smoke_archive(self, tmp_path):
        path = tmp_path / "BENCH_2026-08-08.json"
        path.write_text(json.dumps(
            {"n_records": 100000, "timings_s": {"match_selective": 0.004}}))
        reports = [StageReport(name="hot_shard", status="ok",
                               metrics={"p50_s": 0.002, "p99_s": 0.01})]
        data = merge_reports_into_bench_json(path, reports, n_records=500)
        # the smoke timings survive; n_records stays the smoke run's
        assert data["n_records"] == 100000
        assert data["timings_s"]["match_selective"] == 0.004
        assert data["timings_s"]["scenario_hot_shard_p99_s"] == 0.01

    def test_merge_rejects_non_bench_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="not a bench-trend"):
            merge_reports_into_bench_json(path, [], n_records=1)

    def test_merge_drops_non_finite_metrics(self, tmp_path):
        path = tmp_path / "b.json"
        reports = [StageReport(name="x", status="ok",
                               metrics={"p99_s": float("nan"),
                                        "p50_s": 0.001})]
        data = merge_reports_into_bench_json(path, reports, n_records=1)
        assert "p99_s" not in data["scenarios"]["x"]
        assert "scenario_x_p99_s" not in data["timings_s"]
        assert data["timings_s"]["scenario_x_p50_s"] == 0.001


# ---------------------------------------------------------------------------
# Delay injection (the slow-worker brownout primitive)
# ---------------------------------------------------------------------------


class TestDelayInjector:
    def test_wildcard_and_lookup(self):
        inj = faults.DelayInjector({"match": 0.05, "*": 0.01})
        assert inj.delay_for("match") == 0.05
        assert inj.delay_for("register") == 0.01
        assert faults.DelayInjector({"match": 0.1}).delay_for("take") == 0.0

    def test_unknown_verb_rejected_against_vocabulary(self):
        with pytest.raises(ValueError, match="unknown verb"):
            faults.DelayInjector({"mtach": 0.05},
                                 known_verbs=("match", "register"))
        # wildcard always allowed
        faults.DelayInjector({"*": 0.05}, known_verbs=("match",))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            faults.DelayInjector({"match": -0.1})

    def test_install_and_module_lookup(self):
        assert faults.delay_for("match") == 0.0
        faults.install_delays(faults.DelayInjector({"match": 0.25}))
        try:
            assert faults.delay_for("match") == 0.25
            assert faults.delay_for("register") == 0.0
            assert faults.installed_delays() is not None
        finally:
            faults.install_delays(None)
        assert faults.delay_for("match") == 0.0
        assert faults.installed_delays() is None


@pytest.fixture(scope="module")
def mini_env():
    """One tiny live fleet shared by the live-scenario tests."""
    config = ScenarioConfig(n_records=200, shards=2, duration_s=0.25,
                            load_threads=2, churn_records=8,
                            slow_worker_delay_s=0.05)
    with ScenarioEnv(config) as env:
        yield env


class TestLiveDelayInjection:
    def test_injected_delay_slows_match_then_disarms(self, mini_env):
        client = mini_env.client()
        plan = mini_env.probe_plan()
        delay = mini_env.config.slow_worker_delay_s

        import time as _time
        t0 = _time.perf_counter()
        client.match(plan)
        fast = _time.perf_counter() - t0

        reply = client.inject_fault(0, delays={"match": delay})
        assert "delay:match" in reply.get("armed", [])
        try:
            t0 = _time.perf_counter()
            client.match(plan)
            slow = _time.perf_counter() - t0
            # fan-out waits on the browned-out shard
            assert slow >= delay
        finally:
            client.inject_fault(0, delays={})
        t0 = _time.perf_counter()
        client.match(plan)
        recovered = _time.perf_counter() - t0
        assert recovered < delay
        assert fast < delay  # sanity: unloaded match is faster than delay

    def test_health_reports_armed_delays(self, mini_env):
        client = mini_env.client()
        client.inject_fault(0, delays={"match": 0.01})
        try:
            health = client.health()
            shard0 = health[0]
            assert shard0.get("delays") == {"match": 0.01}
        finally:
            client.inject_fault(0, delays={})
        assert client.health()[0].get("delays") == {}


# ---------------------------------------------------------------------------
# Scenario library at tiny scale (live fleet + sim kernel)
# ---------------------------------------------------------------------------


class TestScenarioLibrary:
    def test_default_chain_names(self):
        pipeline = default_pipeline()
        assert tuple(pipeline.stage_names()) == DEFAULT_STAGE_NAMES
        assert DEFAULT_STAGE_NAMES[0] == "baseline"
        assert len(DEFAULT_STAGE_NAMES) >= 6

    def test_loaded_stages_skip_without_baseline(self, mini_env):
        """Deselecting the baseline skips its dependents — the engine's
        skip-don't-crash contract applied to the real library."""
        ctx = StageContext(env=mini_env, config=mini_env.config)
        result = default_pipeline().run(names=["churn_storm"], context=ctx)
        report = result.report_for("churn_storm")
        assert report.status == "skipped"
        assert "baseline" in report.reason

    def test_baseline_and_churn_storm_live(self, mini_env):
        ctx = StageContext(env=mini_env, config=mini_env.config)
        result = default_pipeline().run(
            names=["baseline", "churn_storm"], context=ctx)
        assert result.ok
        base = result.report_for("baseline")
        assert base.status == "ok"
        assert base.metrics["p99_s"] > 0
        churn = result.report_for("churn_storm")
        assert churn.status == "ok"
        assert churn.metrics["load_ops"] > 0  # hostile work landed
        assert "p99_x" in churn.metrics
        assert churn.metrics["budget"]["p99_x_max"] == 10.0
        assert isinstance(churn.metrics["within_budget"], bool)

    def test_full_chain_live(self, mini_env, tmp_path):
        """Acceptance: every scenario runs end-to-end against the live
        fleet (WAN on the sim kernel), each reporting degradation
        metrics and a budget verdict."""
        ctx = StageContext(env=mini_env, config=mini_env.config)
        ckpt = tmp_path / "full.ckpt.json"
        result = default_pipeline(checkpoint_path=ckpt).run(context=ctx)
        assert result.ok
        statuses = {r.name: r.status for r in result.reports}
        assert statuses == {name: "ok" for name in DEFAULT_STAGE_NAMES}
        for r in result.reports:
            if r.name == "baseline":
                continue
            assert "p99_s" in r.metrics, r.name
            assert "budget" in r.metrics, r.name
            assert isinstance(r.metrics["within_budget"], bool), r.name
        # slow worker's tail must feel the injected brownout
        slow = result.report_for("slow_worker")
        assert slow.metrics["p99_s"] >= \
            mini_env.config.slow_worker_delay_s
        # hot shard reports how skewed the hostile writes were
        hot = result.report_for("hot_shard")
        assert hot.metrics["load_ops"] > 0
        # every ok stage is checkpointed for resume
        completed = json.loads(ckpt.read_text())["completed"]
        assert set(completed) == set(DEFAULT_STAGE_NAMES)

    def test_wan_partition_runs_on_sim_kernel(self, mini_env):
        """No live fleet needed — deterministic simulation, so the
        metrics are stable run to run."""
        ctx = StageContext(env=mini_env, config=mini_env.config)
        result = default_pipeline().run(names=["wan_partition"],
                                        context=ctx)
        report = result.report_for("wan_partition")
        assert report.status == "ok"
        # partitioned tail must feel the injected one-way WAN delay
        assert report.metrics["p99_s"] >= mini_env.config.partition_s
        assert report.metrics["connected_p99_s"] < report.metrics["p99_s"]

    def test_resume_mid_pipeline_with_live_stages(self, mini_env,
                                                  tmp_path):
        """Acceptance: kill a pipeline after the baseline completes;
        the resumed run restores it cached and runs only the rest."""
        ckpt = tmp_path / "scenarios.ckpt.json"
        ctx = StageContext(env=mini_env, config=mini_env.config)
        pipeline = default_pipeline(checkpoint_path=ckpt)
        first = pipeline.run(names=["baseline"], context=ctx)
        assert first.report_for("baseline").status == "ok"

        # "restart": fresh pipeline + fresh context, same checkpoint
        ctx2 = StageContext(env=mini_env, config=mini_env.config)
        resumed = default_pipeline(checkpoint_path=ckpt).run(
            names=["baseline", "flash_crowd"], resume=True, context=ctx2)
        base = resumed.report_for("baseline")
        assert base.cached and base.status == "ok"
        crowd = resumed.report_for("flash_crowd")
        assert not crowd.cached
        assert crowd.status == "ok"
        # the cached baseline's artifact fed the live stage
        assert crowd.metrics["baseline_p99_s"] == pytest.approx(
            base.metrics["p99_s"])


# ---------------------------------------------------------------------------
# CLI verb
# ---------------------------------------------------------------------------


class TestScenariosCli:
    def test_list(self, capsys):
        from repro.cli import main
        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        for name in DEFAULT_STAGE_NAMES:
            assert name in out

    def test_small_run_with_json_out(self, tmp_path, capsys):
        from repro.cli import main
        out_path = tmp_path / "scen.json"
        rc = main(["scenarios", "--stages", "baseline,wan_partition",
                   "--records", "150", "--shards", "1",
                   "--duration", "0.2", "--load-threads", "1",
                   "--json-out", str(out_path), "--check-budgets"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "baseline" in printed and "wan_partition" in printed
        data = json.loads(out_path.read_text())
        assert set(data["scenarios"]) == {"baseline", "wan_partition"}
        assert "scenario_wan_partition_p99_s" in data["timings_s"]

    def test_unknown_stage_fails_loudly(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["scenarios", "--stages", "nope",
                     "--records", "100"]) == 1
        assert "repro: error: ConfigError: unknown scenario stage" in \
            capsys.readouterr().err
