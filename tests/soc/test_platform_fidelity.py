"""Fidelity pins: the virtual platforms must match the paper's Table 2.

These tests freeze the *architectural* facts (core counts, frequencies,
GPU identities, pinnability) so future calibration of the behavioural
knobs cannot silently drift the hardware descriptions away from the
paper.
"""

import pytest

from repro.soc import get_platform
from repro.soc.pu import BIG, GPU, LITTLE, MEDIUM


class TestPixel7a:
    @pytest.fixture(scope="class")
    def platform(self):
        return get_platform("pixel7a")

    def test_cpu_tiers(self, platform):
        big = platform.clusters[BIG]
        assert (big.cores, big.freq_ghz, big.model) == (
            2, 2.85, "Cortex-X1"
        )
        medium = platform.clusters[MEDIUM]
        assert (medium.cores, medium.freq_ghz) == (2, 2.35)
        little = platform.clusters[LITTLE]
        assert (little.cores, little.freq_ghz) == (4, 1.80)

    def test_gpu(self, platform):
        assert platform.gpu.model == "Mali-G710 MP7"
        assert platform.gpu.vendor == "arm"
        assert platform.gpu.api == "vulkan"

    def test_fully_pinnable(self, platform):
        assert sum(c.cores for c in platform.clusters.values()) == 8
        assert len(platform.schedulable_classes()) == 4


class TestOnePlus11:
    @pytest.fixture(scope="class")
    def platform(self):
        return get_platform("oneplus11")

    def test_cpu_tiers(self, platform):
        assert platform.clusters[BIG].cores == 1
        assert platform.clusters[BIG].freq_ghz == 3.2
        assert platform.clusters[BIG].model == "Cortex-X3"
        assert platform.clusters[MEDIUM].cores == 4
        assert platform.clusters[LITTLE].cores == 3

    def test_gpu(self, platform):
        assert platform.gpu.model == "Adreno 740"
        assert platform.gpu.vendor == "qualcomm"
        assert platform.gpu.api == "vulkan"

    def test_five_of_eight_pinnable(self, platform):
        clusters = platform.clusters
        assert sum(c.cores for c in clusters.values()) == 8
        assert sum(clusters[c].cores for c in platform.schedulable_classes()
                   if c != GPU) == 5
        assert LITTLE not in platform.schedulable_classes()


class TestJetson:
    def test_normal_mode(self):
        platform = get_platform("jetson_orin_nano")
        cpu = platform.clusters[BIG]
        assert (cpu.cores, cpu.freq_ghz, cpu.model) == (
            6, 1.7, "Cortex-A78AE"
        )
        assert platform.gpu.vendor == "nvidia"
        assert platform.gpu.api == "cuda"
        assert len(platform.pu_classes()) == 2

    def test_low_power_mode_shuts_cores_and_halves_clock(self):
        normal = get_platform("jetson_orin_nano")
        lp = get_platform("jetson_orin_nano_lp")
        assert lp.clusters[BIG].cores == normal.clusters[BIG].cores - 2
        assert lp.clusters[BIG].freq_ghz == pytest.approx(0.85)
        assert lp.gpu.freq_ghz < normal.gpu.freq_ghz
        assert lp.interference.dram_bw_gbps < normal.interference.dram_bw_gbps


class TestBehaviouralDirections:
    """The Fig. 7 interference signs, pinned at the model level."""

    def test_pixel_dvfs_directions(self):
        dvfs = get_platform("pixel7a").interference.dvfs
        assert dvfs[BIG].speed_at_full_load < 1.0
        assert dvfs[MEDIUM].speed_at_full_load < 1.0
        assert dvfs[LITTLE].speed_at_full_load < 1.0
        assert dvfs[GPU].speed_at_full_load > 1.0

    def test_oneplus_boost_anomalies(self):
        dvfs = get_platform("oneplus11").interference.dvfs
        assert dvfs[LITTLE].speed_at_full_load > 1.0
        assert dvfs[GPU].speed_at_full_load > 1.0
        assert dvfs[MEDIUM].speed_at_full_load == pytest.approx(1.0)

    def test_jetson_throttles_harder_in_lp(self):
        normal = get_platform("jetson_orin_nano").interference.dvfs
        lp = get_platform("jetson_orin_nano_lp").interference.dvfs
        assert normal[GPU].speed_at_full_load < 1.0
        assert lp[GPU].speed_at_full_load < normal[GPU].speed_at_full_load

    def test_vulkan_launch_costs_exceed_cuda(self):
        mali = get_platform("pixel7a").gpu
        adreno = get_platform("oneplus11").gpu
        ampere = get_platform("jetson_orin_nano").gpu
        assert mali.launch_overhead_s > 5 * ampere.launch_overhead_s
        assert adreno.launch_overhead_s > 5 * ampere.launch_overhead_s
