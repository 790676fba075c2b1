"""RAPL semantics: measured vs modeled, energy units, DRAM modes,
wraparound."""

import pytest

from repro.engine.simulator import Simulator
from repro.errors import UnsupportedFeatureError
from repro.power.rapl import (
    DramRaplMode,
    RaplBank,
    RaplDomain,
    unit_exponent,
    wraparound_delta,
)
from repro.specs.cpu import E5_2670_SNB, E5_2680_V3
from repro.specs.node import HASWELL_TEST_NODE, SANDY_BRIDGE_TEST_NODE
from repro.system.node import build_node
from repro.units import ms
from repro.workloads.micro import compute


@pytest.fixture
def hsw_bank() -> RaplBank:
    return RaplBank(spec=E5_2680_V3)


@pytest.fixture
def snb_bank() -> RaplBank:
    return RaplBank(spec=E5_2670_SNB, modeled=True)


def _credit(bank: RaplBank, domain: RaplDomain, joules: float) -> None:
    """Add ``joules`` to one domain of the bank's energy storage."""
    bank.energy_j[bank.domains.index(domain)] += joules


class TestMeasuredVsModeled:
    """The paper's Fig. 2 finding at node level: Haswell-EP RAPL is the
    integrated package power, Sandy Bridge's the power times a
    workload bias."""

    @staticmethod
    def _run(spec):
        sim = Simulator(seed=17)
        node = build_node(sim, spec)
        node.run_workload([c.core_id for c in node.all_cores], compute())
        sim.run_for(ms(50))
        return node

    def test_measured_credits_true_joules(self):
        node = self._run(HASWELL_TEST_NODE)
        for socket in node.sockets:
            assert not socket.rapl.modeled
            assert socket.rapl.true_energy_j(RaplDomain.PACKAGE) \
                == socket.energy_pkg_j > 0.0
            assert socket.rapl.true_energy_j(RaplDomain.DRAM) \
                == socket.energy_dram_j > 0.0

    def test_modeled_credits_the_bias(self):
        node = self._run(SANDY_BRIDGE_TEST_NODE)
        bias = compute().phase(0).rapl_model_bias
        assert bias != 1.0
        for socket in node.sockets:
            assert socket.rapl.modeled
            for domain, truth in ((RaplDomain.PACKAGE, socket.energy_pkg_j),
                                  (RaplDomain.DRAM, socket.energy_dram_j)):
                assert socket.rapl.true_energy_j(domain) / truth \
                    == pytest.approx(bias, rel=1e-12)


class TestDomainSupport:
    def test_pp0_unsupported_on_haswell(self, hsw_bank):
        # Section IV: "The power domain for core consumption (PP0) is not
        # supported on Haswell-EP"
        assert RaplDomain.PP0 not in hsw_bank.domains
        with pytest.raises(UnsupportedFeatureError):
            hsw_bank.true_energy_j(RaplDomain.PP0)
        with pytest.raises(UnsupportedFeatureError):
            hsw_bank.read_counter(RaplDomain.PP0)

    def test_pp0_supported_on_sandybridge(self, snb_bank):
        _credit(snb_bank, RaplDomain.PP0, 1.0)
        snb_bank.refresh()
        assert snb_bank.read_counter(RaplDomain.PP0) > 0


class TestEnergyUnits:
    def test_haswell_dram_unit_is_15_3uj(self, hsw_bank):
        # Section IV, quoting the registers datasheet
        assert hsw_bank.energy_unit_j(RaplDomain.DRAM) \
            == pytest.approx(15.3e-6)

    def test_haswell_package_unit_is_generic(self, hsw_bank):
        assert hsw_bank.energy_unit_j(RaplDomain.PACKAGE) \
            == pytest.approx(61e-6)

    def test_sandybridge_dram_uses_generic_unit(self, snb_bank):
        assert snb_bank.energy_unit_j(RaplDomain.DRAM) == pytest.approx(61e-6)

    def test_unit_exponent_sdm_encoding(self):
        assert unit_exponent(61e-6) == 14       # 1/2^14 J
        assert unit_exponent(15.3e-6) == 16     # 1/2^16 J

    def test_misconfigured_unit_overestimates_4x(self, hsw_bank):
        # The paper's warning: using the SDM unit for the DRAM counter
        # yields "unreasonably high values" (~4x).
        _credit(hsw_bank, RaplDomain.DRAM, 1.0)
        hsw_bank.refresh()
        correct = hsw_bank.read_energy_j(RaplDomain.DRAM)
        wrong = hsw_bank.read_energy_j(RaplDomain.DRAM,
                                       assumed_unit_j=61e-6)
        assert wrong / correct == pytest.approx(61 / 15.3, rel=0.01)


class TestCounterSemantics:
    def test_reads_are_quantized_to_unit(self, hsw_bank):
        unit = hsw_bank.energy_unit_j(RaplDomain.PACKAGE)
        _credit(hsw_bank, RaplDomain.PACKAGE, 2.5 * unit)
        hsw_bank.refresh()
        assert hsw_bank.read_counter(RaplDomain.PACKAGE) == 2

    def test_reads_latch_at_refresh(self, hsw_bank):
        # The MSR updates ~every 1 ms, not continuously.
        _credit(hsw_bank, RaplDomain.PACKAGE, 1.0)
        assert hsw_bank.read_counter(RaplDomain.PACKAGE) == 0
        hsw_bank.refresh()
        assert hsw_bank.read_counter(RaplDomain.PACKAGE) > 0

    def test_counter_wraps_32bit(self, hsw_bank):
        unit = hsw_bank.energy_unit_j(RaplDomain.PACKAGE)
        _credit(hsw_bank, RaplDomain.PACKAGE, (2 ** 32 + 5) * unit)
        hsw_bank.refresh()
        assert hsw_bank.read_counter(RaplDomain.PACKAGE) == 5

    def test_wraparound_delta(self):
        assert wraparound_delta(10, 25) == 15
        assert wraparound_delta(2 ** 32 - 5, 10) == 15
        assert wraparound_delta(0, 0) == 0


class TestDramModes:
    def test_default_is_mode1(self, hsw_bank):
        assert hsw_bank.dram_mode is DramRaplMode.MODE1

    def test_mode0_uses_generic_unit(self):
        bank = RaplBank(spec=E5_2680_V3, dram_mode=DramRaplMode.MODE0)
        # mode 0 behaviour is "unspecified"; modeled as the generic unit,
        # i.e. readings a correct mode-1 reader would call ~4x too high
        assert bank.energy_unit_j(RaplDomain.DRAM) == pytest.approx(61e-6)
