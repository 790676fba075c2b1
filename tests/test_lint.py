"""The repro-lint two-phase engine, rule families, and live-tree gate."""

import shutil
import sys
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    all_rule_ids,
    all_rules,
    lint_paths,
    lint_project,
    lint_source,
)
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: fixture file -> rule ids it must (and may only) trigger.
BAD_FIXTURES = {
    "bad_wallclock.py": {"det-wallclock"},
    "bad_rng.py": {"det-seed-flow"},
    "bad_seed_flow.py": {"det-seed-flow"},
    "bad_id_key.py": {"det-id-key"},
    "bad_set_iter.py": {"det-set-iter"},
    "bad_units.py": {"units-mix"},
    "bad_epoch.py": {"epoch-bypass"},
    "bad_rng_batch.py": {"rng-batch-bypass"},
    "bad_rng_readahead.py": {"rng-batch-bypass"},
    "msr_regs_bad.py": {"msr-layout"},
    "trace_schema_bad_version.py": {"trace-schema-version"},
    "trace_schema_bad_digest.py": {"trace-schema-digest"},
    "trace_schema_bad_field.py": {"trace-schema-field"},
    "bad_suppression.py": {"suppression"},
    "bad_async_blocking.py": {"async-blocking"},
    "bad_async_condition.py": {"async-condition"},
    "bad_fire_forget.py": {"async-fire-forget"},
    "bad_executor_lambda.py": {"exec-picklable"},
    "bad_pool_lambda.py": {"exec-picklable"},
}

GOOD_FIXTURES = [
    "good_wallclock.py",
    "good_rng.py",
    "good_seed_flow.py",
    "good_id_key.py",
    "good_set_iter.py",
    "good_units.py",
    "good_epoch.py",
    "good_rng_batch.py",
    "good_rng_readahead.py",
    "msr_regs_good.py",
    "trace_schema_good.py",
    "good_suppression.py",
    "good_async_blocking.py",
    "good_async_condition.py",
    "good_fire_forget.py",
    "good_executor.py",
    "good_pool.py",
]

#: rule ids proven by the directory fixtures (archpkg) below rather
#: than by a single-file pair.
PROJECT_FIXTURE_RULES = {"arch-layering", "arch-cycle", "arch-sim-reach"}

#: the layer/sim-core configuration the archpkg fixture violates.
ARCH_CONFIG = dict(layers=[("low", ("lowpkg",)), ("high", ("highpkg",))],
                   sim_core=["simcore"])


def lint_fixture(name):
    path = FIXTURES / name
    # A fresh default config: the repo pyproject's allowlists must not
    # mask what a fixture is designed to prove.
    return lint_source(path.read_text(), name, config=LintConfig())


def lint_fixture_dir(name, **config_kwargs):
    root = FIXTURES / name
    findings, index = lint_project([root], root=root,
                                   config=LintConfig(**config_kwargs))
    return findings, index


class TestRuleFixtures:
    @pytest.mark.parametrize("name", sorted(BAD_FIXTURES))
    def test_bad_fixture_fires_exactly_its_rule(self, name):
        findings = lint_fixture(name)
        assert findings, f"{name}: expected findings, got none"
        assert {f.rule for f in findings} == BAD_FIXTURES[name]

    @pytest.mark.parametrize("name", GOOD_FIXTURES)
    def test_good_fixture_is_clean(self, name):
        findings = lint_fixture(name)
        assert findings == [], \
            f"{name}: " + "; ".join(f.render() for f in findings)

    def test_supervised_pool_submits_are_all_checked(self):
        # A local pool, a nested function and an attribute-bound pool
        # (self._pool = SupervisedPool(...)) are each classed "process".
        findings = lint_fixture("bad_pool_lambda.py")
        assert [f.line for f in findings] == [8, 13, 22]

    def test_epoch_bypass_sees_setattr_aliases(self):
        # A module-level and a local alias of object.__setattr__ are
        # flagged like the attribute; a non-rate field through an alias
        # (good_epoch.py) is not.
        findings = lint_fixture("bad_epoch.py")
        assert [f.line for f in findings if f.line > 16] == [22, 27]

    def test_rng_batch_rule_exempts_the_rng_module(self):
        # DrawBatch's own implementation is the one sanctioned toucher
        # of the prefill buffer.
        path = REPO_ROOT / "src" / "repro" / "engine" / "rng.py"
        findings = lint_source(path.read_text(), str(path),
                               config=LintConfig())
        assert not [f for f in findings if f.rule == "rng-batch-bypass"]

    def test_rng_batch_rule_sees_named_read_ahead(self):
        # getattr with a literal name and operator.attrgetter reach the
        # buffer as surely as the attribute does.
        findings = lint_fixture("bad_rng_readahead.py")
        assert [f.line for f in findings] == [8, 9, 13, 17]

    def test_every_rule_family_has_a_fixture_pair(self):
        covered = set().union(*BAD_FIXTURES.values()) - {"suppression"}
        covered |= PROJECT_FIXTURE_RULES
        assert covered == all_rule_ids()


class TestProjectRules:
    """The cross-file families over the deliberate-violation packages."""

    def test_layering_violation_package(self):
        findings, _ = lint_fixture_dir("archpkg", **ARCH_CONFIG)
        by_rule = {}
        for finding in findings:
            by_rule.setdefault(finding.rule, []).append(finding)
        assert set(by_rule) == PROJECT_FIXTURE_RULES, \
            "; ".join(f.render() for f in findings)

        [layering] = by_rule["arch-layering"]
        assert layering.path == "lowpkg/base.py"
        assert "lowpkg.base (layer low) imports highpkg.api (layer high)" \
            in layering.message

        [cycle] = by_rule["arch-cycle"]
        assert "cyc_a -> cyc_b -> cyc_a" in cycle.message

        [reach] = by_rule["arch-sim-reach"]
        assert reach.path == "simcore/clock.py"
        assert "imports asyncio" in reach.message

    def test_deferred_and_type_checking_imports_are_exempt(self, tmp_path):
        (tmp_path / "lowpkg").mkdir()
        (tmp_path / "lowpkg" / "__init__.py").write_text("")
        (tmp_path / "lowpkg" / "late.py").write_text(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from highpkg.api import build\n"
            "def use():\n"
            "    from highpkg.api import build\n"
            "    return build()\n")
        (tmp_path / "highpkg").mkdir()
        (tmp_path / "highpkg" / "__init__.py").write_text("")
        (tmp_path / "highpkg" / "api.py").write_text(
            "def build():\n    return 1\n")
        findings, _ = lint_project([tmp_path], root=tmp_path,
                                   config=LintConfig(**ARCH_CONFIG))
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cross_file_seed_taint(self):
        findings, _ = lint_fixture_dir("taintpkg")
        assert {f.rule for f in findings} == {"det-seed-flow"}
        assert {f.path for f in findings} \
            == {"producer.py", "consumer.py"}
        [flow] = [f for f in findings if f.path == "consumer.py"]
        assert "parameter 'rng'" in flow.message


class TestEngine:
    def test_findings_carry_location_rule_and_hint(self):
        findings = lint_fixture("bad_wallclock.py")
        first = findings[0]
        assert first.path == "bad_wallclock.py"
        assert first.line > 0
        rendered = first.render()
        assert "bad_wallclock.py:" in rendered
        assert "det-wallclock" in rendered
        assert "hint:" in rendered

    def test_inline_suppression_with_reason_suppresses(self):
        source = ("import time\n"
                  "t = time.time()  # repro-lint: disable=det-wallclock"
                  " — fixture reason\n")
        assert lint_source(source, "x.py", config=LintConfig()) == []

    def test_standalone_suppression_covers_next_line(self):
        source = ("import time\n"
                  "# repro-lint: disable=det-wallclock — fixture reason\n"
                  "t = time.time()\n")
        assert lint_source(source, "x.py", config=LintConfig()) == []

    def test_suppression_without_reason_is_a_finding(self):
        source = ("import time\n"
                  "t = time.time()  # repro-lint: disable=det-wallclock\n")
        findings = lint_source(source, "x.py", config=LintConfig())
        assert [f.rule for f in findings] == ["suppression"]

    def test_suppression_covers_project_rule_findings(self):
        source = ("import asyncio\n"
                  "async def main():\n"
                  "    # repro-lint: disable=async-fire-forget — fixture\n"
                  "    asyncio.create_task(main())\n")
        assert lint_source(source, "x.py", config=LintConfig()) == []

    def test_disable_file_covers_whole_file(self):
        source = ("# repro-lint: disable-file=det-wallclock — fixture\n"
                  "import time\n"
                  "a = time.time()\n"
                  "b = time.time()\n")
        assert lint_source(source, "x.py", config=LintConfig()) == []

    def test_string_mentioning_syntax_is_inert(self):
        source = ('import time\n'
                  'doc = "# repro-lint: disable=all — not a comment"\n'
                  't = time.time()\n')
        findings = lint_source(source, "x.py", config=LintConfig())
        assert [f.rule for f in findings] == ["det-wallclock"]

    def test_syntax_error_becomes_parse_error_finding(self):
        findings = lint_source("def broken(:\n", "x.py",
                               config=LintConfig())
        assert [f.rule for f in findings] == ["parse-error"]

    def test_import_alias_resolution(self):
        source = ("from time import monotonic as mono\n"
                  "t = mono()\n")
        findings = lint_source(source, "x.py", config=LintConfig())
        assert [f.rule for f in findings] == ["det-wallclock"]
        assert "time.monotonic" in findings[0].message

    def test_allowlist_switches_rule_off_per_path(self):
        config = LintConfig(allow={"det-wallclock": ["bench_*.py"]})
        source = "import time\nt = time.time()\n"
        assert lint_source(source, "bench_x.py", config=config) == []
        assert lint_source(source, "other.py", config=config)


class TestPhase1:
    """Phase-1 mechanics: the one-tokenize contract and the fact cache."""

    def test_suppressions_tokenize_once_per_module(self, tmp_path,
                                                   monkeypatch):
        """Satellite bugfix guard: suppression scanning is hoisted to
        exactly one tokenize pass per module, however many findings and
        suppressions the module holds."""
        import repro.lint.engine as engine_mod
        for i in range(3):
            (tmp_path / f"mod{i}.py").write_text(
                "import time\n"
                "a = time.time()\n"
                "b = time.time()  # repro-lint: disable=det-wallclock"
                " — fixture\n"
                "c = time.monotonic()\n"
                "d = time.perf_counter()\n")
        calls = []
        real = engine_mod.tokenize.generate_tokens

        def counting(readline):
            calls.append(1)
            return real(readline)

        monkeypatch.setattr(engine_mod.tokenize, "generate_tokens",
                            counting)
        findings, _ = lint_project([tmp_path], root=tmp_path,
                                   config=LintConfig())
        assert len([f for f in findings if f.rule == "det-wallclock"]) == 9
        assert len(calls) == 3      # one pass per module, not per finding

    def test_fact_cache_round_trip(self, tmp_path):
        source_dir = tmp_path / "pkg"
        source_dir.mkdir()
        shutil.copy(FIXTURES / "bad_async_blocking.py",
                    source_dir / "mod.py")
        config = LintConfig()
        cold, _ = lint_project([source_dir], root=tmp_path, config=config,
                               use_cache=True)
        cache_dir = tmp_path / config.cache_dir
        assert any(cache_dir.glob("*.json")), "cache was not written"
        warm, _ = lint_project([source_dir], root=tmp_path, config=config,
                               use_cache=True)
        assert [f.render() for f in warm] == [f.render() for f in cold]
        assert cold and {f.rule for f in cold} == {"async-blocking"}

    def test_fact_cache_invalidated_by_source_edit(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import time\nt = time.time()\n")
        config = LintConfig()
        first, _ = lint_project([tmp_path], root=tmp_path, config=config,
                                use_cache=True)
        assert {f.rule for f in first} == {"det-wallclock"}
        target.write_text("VALUE = 1\n")
        second, _ = lint_project([tmp_path], root=tmp_path, config=config,
                                 use_cache=True)
        assert second == []


class TestLiveTree:
    def test_repo_lints_clean(self):
        """The acceptance gate: any finding in the live tree fails."""
        findings = lint_paths(root=REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)


class TestCli:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(all_rules()) + sorted(all_rule_ids()):
            assert rule_id in out

    def test_bad_fixture_exits_nonzero(self, capsys):
        code = lint_main([str(FIXTURES / "bad_wallclock.py"),
                          "--root", str(REPO_ROOT), "--no-cache"])
        assert code == 1
        assert "det-wallclock" in capsys.readouterr().out

    def test_good_fixture_exits_zero(self, capsys):
        code = lint_main([str(FIXTURES / "good_wallclock.py"),
                          "--root", str(REPO_ROOT), "--no-cache"])
        assert code == 0

    def test_select_project_rule(self, capsys):
        code = lint_main([str(FIXTURES / "bad_fire_forget.py"),
                          "--root", str(REPO_ROOT), "--no-cache",
                          "--select", "async-fire-forget"])
        assert code == 1
        out = capsys.readouterr().out
        assert "async-fire-forget" in out

    def test_select_unknown_rule_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--select", "no-such-rule"])
        assert excinfo.value.code == 2

    def test_unreadable_config_is_a_usage_error(self, monkeypatch):
        # Without tomllib (Python 3.10) the [tool.repro-lint] table cannot
        # be read; linting with defaults would drop the layer map.
        monkeypatch.setitem(sys.modules, "tomllib", None)
        with pytest.raises(ValueError, match="tomllib"):
            LintConfig.load(REPO_ROOT)
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(FIXTURES / "good_wallclock.py"),
                       "--root", str(REPO_ROOT), "--no-cache"])
        assert excinfo.value.code == 2
