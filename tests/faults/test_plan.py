"""The unified fault plan: grammar, validation, determinism, runtime."""

from __future__ import annotations

import pytest

from repro.config import JobConf, Keys
from repro.errors import ConfigError
from repro.faults import FaultPlan, FaultRule, parse_fault_spec
from repro.faults.runtime import (
    active_injector,
    current_scope,
    installed,
    task_scope,
)


class TestSpecGrammar:
    def test_single_rule(self) -> None:
        (rule,) = parse_fault_spec("worker.kill:0.5")
        assert (rule.site, rule.kind, rule.fraction, rule.attempts) == (
            "worker", "kill", 0.5, 1
        )

    def test_multiple_rules_with_attempts(self) -> None:
        rules = parse_fault_spec("disk.corrupt:0.3:2; shuffle.drop:0.1")
        assert [r.site for r in rules] == ["disk", "shuffle"]
        assert rules[0].attempts == 2

    def test_empty_spec_is_no_rules(self) -> None:
        assert parse_fault_spec("") == ()
        assert not FaultPlan.parse("").enabled

    @pytest.mark.parametrize(
        "bad",
        [
            "corrupt:0.5",  # no site
            "disk.corrupt",  # no fraction
            "disk.corrupt:x",  # unparsable fraction
            "disk.corrupt:0.5:1:9",  # too many fields
            "mars.corrupt:0.5",  # unknown site
            "disk.kill:0.5",  # kind not valid for site
            "disk.corrupt:1.5",  # fraction out of range
            "disk.corrupt:0.5:0",  # attempts must be >= 1
        ],
    )
    def test_malformed_specs_raise_config_error(self, bad: str) -> None:
        with pytest.raises(ConfigError):
            parse_fault_spec(bad)

    def test_spec_roundtrip(self) -> None:
        plan = FaultPlan.parse("worker.kill:0.5;disk.corrupt:0.25:3", seed=7)
        assert FaultPlan.parse(plan.spec(), seed=7) == plan


class TestConfAndEnv:
    def test_from_conf_reads_fault_keys(self) -> None:
        conf = JobConf(
            {
                Keys.FAULTS_SPEC: "dfs.corrupt:1.0:2",
                Keys.FAULTS_SEED: 99,
                Keys.FAULTS_DELAY: 0.01,
            }
        )
        plan = FaultPlan.from_conf(conf)
        [rule] = plan.rules_for("dfs", "corrupt")
        assert rule.attempts == 2
        assert plan.seed == 99
        assert plan.delay_seconds == 0.01

    def test_env_override_beats_conf(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_FAULT", "worker.hang:0.2")
        plan = FaultPlan.from_conf(JobConf({Keys.FAULTS_SPEC: "disk.torn:0.9"}))
        assert plan.rules_for("worker", "hang")
        assert not plan.rules_for("disk")

    def test_default_conf_is_disabled(self) -> None:
        assert not FaultPlan.from_conf(JobConf()).enabled


class TestSelection:
    def test_selection_is_deterministic_and_seed_dependent(self) -> None:
        rule = FaultRule(site="disk", kind="corrupt", fraction=0.5)
        tokens = [f"job.m{i:04d}:spill{i}" for i in range(200)]
        first = [rule.selects(1234, t) for t in tokens]
        assert first == [rule.selects(1234, t) for t in tokens]
        assert first != [rule.selects(4321, t) for t in tokens]
        # The fraction roughly governs how many tokens are selected.
        assert 60 <= sum(first) <= 140

    def test_zero_fraction_selects_nothing(self) -> None:
        rule = FaultRule(site="worker", kind="kill", fraction=0.0)
        assert not any(rule.selects(1, f"t{i}") for i in range(50))


class TestRuntimeInstallation:
    def test_disabled_plan_installs_nothing(self) -> None:
        with installed(FaultPlan.parse("")) as injector:
            assert injector is None
            assert active_injector() is None

    def test_install_and_uninstall(self) -> None:
        plan = FaultPlan.parse("disk.corrupt:1.0")
        assert active_injector() is None
        with installed(plan) as injector:
            assert active_injector() is injector
        assert active_injector() is None

    def test_reentrant_install_shares_one_injector(self) -> None:
        plan = FaultPlan.parse("disk.corrupt:1.0")
        with installed(plan) as outer:
            with installed(FaultPlan.parse("disk.corrupt:1.0")) as inner:
                assert inner is outer
            # Still installed: the outer hold keeps it alive.
            assert active_injector() is outer
        assert active_injector() is None

    def test_task_scope_nests_and_restores(self) -> None:
        assert current_scope() is None
        with task_scope("job.m0000", 1):
            assert current_scope() == ("job.m0000", 1)
            with task_scope("job.r0000", 2):
                assert current_scope() == ("job.r0000", 2)
            assert current_scope() == ("job.m0000", 1)
        assert current_scope() is None

    def test_attempt_bound_gates_injection(self) -> None:
        plan = FaultPlan.parse("disk.corrupt:1.0:2")
        with installed(plan) as injector:
            [rule] = plan.rules_for("disk", "corrupt")
            assert injector.armed_for_attempt(rule, "tok", 1)
            assert injector.armed_for_attempt(rule, "tok", 2)
            assert not injector.armed_for_attempt(rule, "tok", 3)

    def test_counted_bound_gates_per_token(self) -> None:
        plan = FaultPlan.parse("dfs.corrupt:1.0:2")
        with installed(plan) as injector:
            [rule] = plan.rules_for("dfs")
            assert injector.armed_counted(rule, "blk@a")
            assert injector.armed_counted(rule, "blk@a")
            assert not injector.armed_counted(rule, "blk@a")  # budget spent
            assert injector.armed_counted(rule, "blk@b")  # fresh token
