"""The runtime sanitizer: draw ledger and epoch-consistency checker."""

import numpy as np
import pytest

from repro.engine import sanitize
from repro.engine.rng import make_rng, spawn_rng
from repro.engine.simulator import Simulator
from repro.errors import EpochConsistencyError, SanitizeError
from repro.system.node import build_haswell_node
from repro.units import ms
from repro.workloads import micro
from repro.workloads.firestarter import firestarter


@pytest.fixture
def sanitize_mode():
    sanitize.set_enabled(True)
    yield
    sanitize.set_enabled(None)


class TestDrawLedger:
    def test_wrapping_changes_no_drawn_value(self):
        bare = make_rng(42)
        wrapped = sanitize.wrap_rng(make_rng(42), sanitize.DrawLedger())
        assert np.array_equal(bare.normal(size=8), wrapped.normal(size=8))
        assert bare.integers(0, 100) == wrapped.integers(0, 100)

    def test_draws_are_recorded_and_collapsed(self):
        ledger = sanitize.DrawLedger()
        rng = sanitize.wrap_rng(make_rng(1), ledger)
        rng.random()
        rng.random()
        rng.normal()
        assert ledger.total_draws == 3
        # consecutive same-site random() draws collapse to one entry
        assert len(ledger.entries) == 3
        assert ledger.entries[0][1] == "random"
        assert ledger.entries[2][1] == "normal"

    def test_diff_reports_first_divergence(self):
        a, b = sanitize.DrawLedger(), sanitize.DrawLedger()
        a.record("x.py:1", "random")
        b.record("x.py:1", "random")
        assert a.diff(b) is None
        b.record("x.py:2", "normal")
        assert "x.py:2" in a.diff(b)

    def test_spawned_child_records_into_same_ledger(self):
        ledger = sanitize.DrawLedger()
        parent = sanitize.wrap_rng(make_rng(7), ledger)
        child = spawn_rng(parent)
        child.random()
        assert ledger.total_draws == 1

    def test_spawn_values_unchanged_by_wrapping(self):
        plain_child = spawn_rng(make_rng(7))
        ledgered_child = spawn_rng(
            sanitize.wrap_rng(make_rng(7), sanitize.DrawLedger()))
        assert plain_child.random() == ledgered_child.random()

    def test_error_hierarchy(self):
        assert issubclass(EpochConsistencyError, SanitizeError)

    def test_simulator_carries_ledger_only_in_sanitize_mode(self,
                                                            sanitize_mode):
        assert Simulator(seed=1).ledger is not None
        sanitize.set_enabled(False)
        assert Simulator(seed=1).ledger is None


class TestLedgerParity:
    def _ledger(self, fastpath):
        sim, node = build_haswell_node(seed=404)
        node.set_fastpath(fastpath)
        node.run_workload([0, 1], firestarter())
        sim.run_for(ms(5))
        return sim.ledger

    def test_fastpath_on_off_identical_ledgers(self, sanitize_mode):
        on, off = self._ledger(True), self._ledger(False)
        assert on is not None and on.total_draws > 0
        assert on.diff(off) is None
        assert on.render() == off.render()


class TestEpochChecker:
    def test_clean_run_passes_with_checks_performed(self, sanitize_mode):
        sim, node = build_haswell_node(seed=405)
        node.run_workload([0], firestarter())
        sim.run_for(ms(10))
        assert sum(s.sanitize_checks for s in node.sockets) > 0

    def test_setattr_bypass_is_caught(self, sanitize_mode, monkeypatch):
        # Stride 1 = check every cache-hit segment, so the stale window
        # between the bypass and the next legitimate epoch bump (which
        # would recompute and "heal" the cache) is always sampled.
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        sim, node = build_haswell_node(seed=406)
        node.run_workload([0], firestarter())
        sim.run_for(ms(5))
        # Corrupt the active core the forbidden way: the epoch never
        # bumps, so the cached rate matrix goes stale.
        core = node.core(0)
        object.__setattr__(core, "freq_hz", core.freq_hz * 0.5)
        with pytest.raises(EpochConsistencyError):
            sim.run_for(ms(10))

    def test_stale_rate_matrix_caught_under_vectorized_path(
            self, sanitize_mode, monkeypatch):
        """Corrupting the memoized rate matrix itself is detected.

        The vectorized multiply-add integration consumes the cached
        ``_SegmentRates`` matrix directly; the sampled check must
        recompute through ``Socket._compute_rates`` (bypassing the memo)
        and compare against that cache — not against the scalar per-core
        views — or an in-place corruption would integrate silently
        forever.
        """
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        sim, node = build_haswell_node(seed=409)
        node.set_fastpath(True)
        node.run_workload([c.core_id for c in node.all_cores],
                          micro.tick_heavy())
        sim.run_for(ms(2))
        sock = node.sockets[0]
        assert sock._rates is not None
        sock._rates.rate_matrix[0, 0] += 1.0e6
        with pytest.raises(EpochConsistencyError, match="without an epoch"):
            sim.run_for(ms(5))

    def test_corrupted_node_rate_block_caught(self, sanitize_mode,
                                              monkeypatch):
        """The node integrates its rate vector, not the cached rates.

        A socket's entries of ``Node._acc_rates`` (its slice of the
        rate block, or its scalar rates in the tail) written outside a
        rate refresh leave every ``_SegmentRates`` intact, so the
        sampled check must compare the entries themselves with the
        fresh recompute.
        """
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        cases = {"rate block": lambda node: node._rate_block[0, :1],
                 "rate vector": lambda node: node.sockets[0]._scalar_rates}
        for match, entries in cases.items():
            sim, node = build_haswell_node(seed=411)
            node.run_workload([0], firestarter())
            sim.run_for(ms(5))
            corrupted = entries(node)
            assert np.shares_memory(corrupted, node._acc_rates)
            corrupted += 1.0e6
            with pytest.raises(EpochConsistencyError, match=match):
                sim.run_for(ms(5))

    def test_tick_heavy_field_bypass_caught_with_fastpath(
            self, sanitize_mode, monkeypatch):
        monkeypatch.setattr(sanitize, "EPOCH_CHECK_STRIDE", 1)
        sim, node = build_haswell_node(seed=410)
        node.set_fastpath(True)
        node.run_workload([c.core_id for c in node.all_cores],
                          micro.tick_heavy())
        sim.run_for(ms(2))
        core = node.core(0)
        object.__setattr__(core, "freq_hz", core.freq_hz * 0.5)
        with pytest.raises(EpochConsistencyError):
            sim.run_for(ms(5))

    def test_sanctioned_write_is_not_flagged(self, sanitize_mode):
        sim, node = build_haswell_node(seed=407)
        node.run_workload([0], firestarter())
        sim.run_for(ms(5))
        node.set_pstate([0], node.spec.cpu.min_hz)  # bumps the epoch
        sim.run_for(ms(10))
