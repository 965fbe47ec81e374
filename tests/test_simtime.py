"""Virtual clock and cost-model tests, including the Table 3 filesystem
shape (MB/s/rank rises with image size)."""

import pytest

from repro.simtime.clock import VirtualClock
from repro.simtime.cost import (
    CostModel,
    FilesystemProfile,
    KernelProfile,
    NetworkProfile,
    checkpoint_time,
)


class TestVirtualClock:
    def test_advance_accumulates(self):
        c = VirtualClock()
        c.advance(1.5, "compute")
        c.advance(0.5, "compute")
        assert c.now == 2.0
        assert c.account("compute") == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_merge_forward_counts_idle(self):
        c = VirtualClock()
        c.advance(1.0)
        c.merge(3.0)
        assert c.now == 3.0
        assert c.account("idle") == 2.0

    def test_merge_backward_is_noop(self):
        c = VirtualClock(5.0)
        c.merge(2.0)
        assert c.now == 5.0
        assert c.account("idle") == 0.0

    def test_idle_independent_of_merge_order(self):
        # A waitall merges its receives' arrival times in arrival order;
        # the idle total must not depend on that order, down to the bit.
        bounds = [40.395836809309124, 76.59520081925255, 134.90237033014256,
                  148.6809826188731, 229.15600823108653, 254.24537770747605]
        seen = set()
        for order in (bounds, bounds[::-1], bounds[1::2] + bounds[::2]):
            c = VirtualClock()
            c.advance(0.1)
            for b in order:
                c.merge(b)
            seen.add((c.now, c.account("idle")))
        assert len(seen) == 1
        # A separate wait after an advance still adds on top.
        c.advance(0.5)
        c.merge(c.now + 0.25)
        assert c.account("idle") == pytest.approx(254.14537770747605 + 0.25)

    def test_state_roundtrip(self):
        c = VirtualClock()
        c.advance(2.0, "a")
        c.merge(5.0)
        c2 = VirtualClock()
        c2.set_state(c.get_state())
        assert c2.now == c.now
        assert c2.accounts() == c.accounts()


class TestKernelProfiles:
    def test_prctl_much_more_expensive_than_fsgsbase(self):
        prctl = KernelProfile.prctl_profile()
        fsgs = KernelProfile.fsgsbase_profile()
        assert not prctl.fsgsbase and fsgs.fsgsbase
        # The paper's penalty range (3%-30%+) requires roughly an order
        # of magnitude between the two switch costs.
        assert prctl.switch_pair_cost > 5 * fsgs.switch_pair_cost


class TestCostModel:
    def test_message_cost_latency_plus_bandwidth(self):
        cm = CostModel.discovery()
        small = cm.message_cost(0)
        big = cm.message_cost(1_000_000)
        assert small == cm.network.latency
        assert big > small

    def test_wrapper_crossing_vid_designs(self):
        cm = CostModel.discovery()
        assert cm.wrapper_crossing_cost("new") < cm.wrapper_crossing_cost(
            "legacy"
        )

    def test_compute_cost_scales_with_cpu_speed(self):
        disc = CostModel.discovery()
        perl = CostModel.perlmutter()
        assert perl.compute_cost(1.0) < disc.compute_cost(1.0)

    def test_with_kernel_replaces_only_kernel(self):
        cm = CostModel.discovery()
        cm2 = cm.with_kernel(KernelProfile.fsgsbase_profile())
        assert cm2.kernel.fsgsbase
        assert cm2.network == cm.network


class TestFilesystemModel:
    """Table 3's load-bearing shape."""

    def test_mbps_per_rank_rises_with_image_size(self):
        fs = FilesystemProfile.discovery_nfsv3()
        sizes_mb = [32, 42, 49, 207, 934]
        rates = []
        for mb in sizes_mb:
            t = checkpoint_time(fs, 56, mb * 1024 * 1024)
            rates.append(mb / t)
        assert rates == sorted(rates), (
            "MB/s/rank must rise with image size (fixed cost amortizes)"
        )

    def test_fixed_overhead_dominates_small_images(self):
        fs = FilesystemProfile.discovery_nfsv3()
        t = checkpoint_time(fs, 27, 1024)
        assert t == pytest.approx(fs.fixed_overhead, rel=0.01)

    def test_table3_endpoints_roughly_match_paper(self):
        fs = FilesystemProfile.discovery_nfsv3()
        t_comd = checkpoint_time(fs, 27, 32 * 1024 * 1024)
        t_hpcg = checkpoint_time(fs, 56, 934 * 1024 * 1024)
        assert 6 < t_comd < 13      # paper: 8.9 s
        assert 55 < t_hpcg < 95     # paper: 72.9 s

    def test_lustre_much_faster(self):
        nfs = FilesystemProfile.discovery_nfsv3()
        lustre = FilesystemProfile.perlmutter_lustre()
        mb = 207 * 1024 * 1024
        assert checkpoint_time(lustre, 64, mb) < checkpoint_time(nfs, 27, mb)


class TestNetworkProfiles:
    def test_perlmutter_network_much_faster(self):
        disc = NetworkProfile.discovery_tcp()
        perl = NetworkProfile.perlmutter_ss11()
        assert perl.latency < disc.latency / 5
        assert perl.bandwidth > disc.bandwidth * 5
