"""Programmable Flash memory controller tests (sections 4, 5.2)."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.core.controller import (
    ControllerConfig,
    FixedEccController,
    ProgrammableFlashController,
    ReconfigKind,
)
from repro.faults import FaultConfig, FaultInjector
from repro.flash.device import EraseFailure, FlashDevice, ProgramFailure
from repro.flash.geometry import FlashGeometry, PageAddress
from repro.flash.timing import CellMode
from repro.flash.wear import CellLifetimeModel, WearModelConfig


def make_controller(worn=False, injector=None, **config_kwargs):
    geometry = FlashGeometry(frames_per_block=4, num_blocks=4)
    device = FlashDevice(
        geometry=geometry,
        lifetime_model=CellLifetimeModel(WearModelConfig()) if worn else None,
        initial_mode=CellMode.MLC,
        seed=3,
        fault_injector=injector,
    )
    return ProgrammableFlashController(
        device, config=ControllerConfig(**config_kwargs))


class TestDescriptors:
    def test_descriptor_reflects_fpst(self):
        controller = make_controller(initial_ecc_strength=2)
        descriptor = controller.descriptor(PageAddress(0, 0, 0))
        assert descriptor.ecc_strength == 2
        assert descriptor.mode is CellMode.MLC

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(max_ecc_strength=4, initial_ecc_strength=5)


class TestTimedOperations:
    def test_read_adds_decode_and_crc(self):
        controller = make_controller()
        result = controller.read(PageAddress(0, 0, 0))
        raw = controller.device.timing.mlc_read_us
        assert result.latency_us > raw
        assert result.recovered
        assert result.reconfig is None

    def test_program_adds_encode(self):
        controller = make_controller()
        latency = controller.program(PageAddress(0, 0, 0), lba=5)
        assert latency > controller.device.timing.mlc_write_us
        entry = controller.fpst.entry(PageAddress(0, 0, 0))
        assert entry.valid and entry.lba == 5

    def test_stronger_code_costs_more(self):
        weak = make_controller(initial_ecc_strength=1)
        strong = make_controller(initial_ecc_strength=12)
        assert (strong.read(PageAddress(0, 0, 0)).latency_us
                > weak.read(PageAddress(0, 0, 0)).latency_us)

    def test_erase_updates_fbst_and_resets_pages(self):
        controller = make_controller()
        controller.program(PageAddress(1, 0, 0), lba=9)
        controller.erase(1)
        assert controller.fbst.entry(1).erase_count == 1
        entry = controller.fpst.entry(PageAddress(1, 0, 0))
        assert not entry.valid and entry.lba is None

    def test_ecc_strength_persists_across_erase(self):
        """Strength tracks physical wear, so it must survive the erase."""
        controller = make_controller()
        address = PageAddress(0, 1, 0)
        controller.fpst.entry(address).ecc_strength = 7
        controller.erase(0)
        assert controller.fpst.entry(address).ecc_strength == 7

    def test_invalidate_clears_valid_bit(self):
        controller = make_controller()
        controller.program(PageAddress(0, 0, 0), lba=1)
        controller.invalidate(PageAddress(0, 0, 0))
        assert not controller.fpst.entry(PageAddress(0, 0, 0)).valid


class TestDensityChangeAtErase:
    def test_pended_slc_applied_at_erase(self):
        controller = make_controller()
        address = PageAddress(2, 1, 0)
        controller.request_slc(address)
        assert controller.device.frame_mode(2, 1) is CellMode.MLC
        controller.erase(2)
        assert controller.device.frame_mode(2, 1) is CellMode.SLC
        assert controller.fbst.entry(2).total_slc_pages == 1

    def test_subpage_entries_dropped_on_density_switch(self):
        controller = make_controller()
        controller.fpst.entry(PageAddress(2, 1, 1)).ecc_strength = 5
        controller.request_slc(PageAddress(2, 1, 0))
        controller.erase(2)
        # subpage 1 no longer exists in SLC mode
        assert controller.fpst.get(PageAddress(2, 1, 1)) is None

    def test_pages_of_block_follows_modes(self):
        controller = make_controller()
        assert len(controller.pages_of_block(0)) == 8  # 4 frames x 2 MLC
        controller.request_slc(PageAddress(0, 0, 0))
        controller.erase(0)
        assert len(controller.pages_of_block(0)) == 7


class TestFaultResponse:
    def _age_to_limit(self, controller, block=0, frame=0):
        """Age a frame until its raw errors reach the page's strength."""
        address = PageAddress(block, frame, 0)
        strength = controller.fpst.entry(address).ecc_strength
        threshold = controller.device.next_error_damage(
            block, frame, strength - 1)
        sensitivity = controller.device.frame_read_sensitivity(block, frame)
        controller.device.age_block(block, threshold / sensitivity * 1.001)
        return address

    def test_reconfig_triggered_at_limit(self):
        controller = make_controller(worn=True)
        address = self._age_to_limit(controller)
        result = controller.read(address)
        assert result.reconfig is not None
        assert controller.stats.descriptor_updates == 1

    def test_cold_page_prefers_stronger_ecc(self):
        """delta_tcs ~ freq * code_delay ~ 0 for a never-read page."""
        controller = make_controller(worn=True)
        address = self._age_to_limit(controller)
        entry = controller.fpst.entry(address)
        entry.access_count = 0
        controller.fgst.total_accesses = 1_000_000
        result = controller.read(address)
        assert result.reconfig is ReconfigKind.CODE_STRENGTH
        assert controller.fpst.entry(address).ecc_strength == 2

    def test_hot_page_prefers_density_reduction(self):
        controller = make_controller(worn=True)
        controller.marginal_miss_estimate = 0.0  # short tail: free capacity
        address = self._age_to_limit(controller)
        entry = controller.fpst.entry(address)
        entry.access_count = 500_000
        controller.fgst.total_accesses = 1_000_000
        result = controller.read(address)
        assert result.reconfig is ReconfigKind.DENSITY

    def test_exhausted_page_retires_block(self):
        controller = make_controller(worn=True, max_ecc_strength=1,
                                     initial_ecc_strength=1)
        address = self._age_to_limit(controller)
        entry = controller.fpst.entry(address)
        entry.mode = CellMode.MLC
        # Force SLC mode so neither repair is available.
        controller.request_slc(address)
        controller.erase(0)
        address = self._age_to_limit(controller)
        controller.read(address)
        assert controller.is_retired(0)
        assert controller.stats.blocks_retired == 1

    def test_uncorrectable_read_reported(self):
        controller = make_controller(worn=True)
        address = PageAddress(0, 0, 0)
        # Age far past the strength-1 limit so raw errors exceed t.
        threshold = controller.device.next_error_damage(0, 0, 5)
        controller.device.age_block(0, threshold)
        result = controller.read(address)
        assert not result.recovered
        assert controller.stats.uncorrectable_reads == 1

    def test_hot_promotion_flag_on_saturation(self):
        controller = make_controller(counter_max=3)
        address = PageAddress(0, 0, 0)
        flags = [controller.read(address).hot_promotion for _ in range(4)]
        assert flags[:2] == [False, False]
        assert flags[3] is True  # saturated on an MLC page


class TestFixedBaseline:
    def test_fixed_controller_retires_immediately(self):
        geometry = FlashGeometry(frames_per_block=4, num_blocks=4)
        device = FlashDevice(
            geometry=geometry,
            lifetime_model=CellLifetimeModel(WearModelConfig()), seed=3)
        controller = FixedEccController(device, strength=1)
        threshold = device.next_error_damage(0, 0, 0)
        device.age_block(0, threshold / 10 * 1.001)
        controller.read(PageAddress(0, 0, 0))
        assert controller.is_retired(0)
        assert controller.stats.descriptor_updates == 0

    def test_all_blocks_retired_flag(self):
        geometry = FlashGeometry(frames_per_block=2, num_blocks=2)
        device = FlashDevice(
            geometry=geometry,
            lifetime_model=CellLifetimeModel(WearModelConfig()), seed=3)
        controller = FixedEccController(device)
        assert not controller.all_blocks_retired
        for block in range(2):
            threshold = device.next_error_damage(block, 0, 0)
            device.age_block(block, threshold / 10 * 1.001)
            controller.read(PageAddress(block, 0, 0))
        assert controller.all_blocks_retired


class FrameFaultInjector(FaultInjector):
    """Fails every program into the scripted frames, and every erase
    when ``erase_fails`` is set; nothing else goes wrong."""

    def __init__(self, bad_frames=(), erase_fails=False):
        super().__init__(FaultConfig())
        self.bad_frames = set(bad_frames)
        self.erase_fails = erase_fails

    def program_fault(self, block, frame):
        return (block, frame) in self.bad_frames

    def erase_fault(self, block):
        return self.erase_fails


def fresh_layout(controller, block):
    """The block's page layout rebuilt from the device and bad frames."""
    geometry = controller.device.geometry
    return [
        PageAddress(block, frame, subpage)
        for frame in range(geometry.frames_per_block)
        if not controller.is_bad_frame(block, frame)
        for subpage in range(geometry.pages_per_frame(
            controller.device.frame_mode(block, frame)))
    ]


class TestLayoutMemo:
    """``pages_of_block`` is memoised; every layout change must show."""

    def test_repeat_calls_share_one_layout(self):
        controller = make_controller()
        assert controller.pages_of_block(1) is controller.pages_of_block(1)
        assert list(controller.pages_of_block(1)) == fresh_layout(
            controller, 1)

    def test_frame_marked_bad_by_program_failure(self):
        controller = make_controller(
            injector=FrameFaultInjector(bad_frames={(0, 1)}))
        assert len(controller.pages_of_block(0)) == 8
        with pytest.raises(ProgramFailure):
            controller.program(PageAddress(0, 1, 0), lba=3)
        assert controller.is_bad_frame(0, 1)
        layout = controller.pages_of_block(0)
        assert list(layout) == fresh_layout(controller, 0)
        assert all(address.frame != 1 for address in layout)
        assert len(layout) == controller.block_capacity_pages(0) == 6

    def test_density_switch_queried_before_and_after_erase(self):
        controller = make_controller()
        before = controller.pages_of_block(2)
        controller.request_slc(PageAddress(2, 3, 0))
        # Pended, not applied: the layout is unchanged until the erase.
        assert controller.pages_of_block(2) == before
        controller.erase(2)
        after = controller.pages_of_block(2)
        assert list(after) == fresh_layout(controller, 2)
        assert PageAddress(2, 3, 1) not in after
        assert len(after) == controller.block_capacity_pages(2) == 7

    def test_retirement(self):
        controller = make_controller(
            injector=FrameFaultInjector(erase_fails=True))
        before = controller.pages_of_block(1)
        controller.request_slc(PageAddress(1, 0, 0))
        with pytest.raises(EraseFailure):
            controller.erase(1)
        assert controller.is_retired(1)
        # The failed erase applied no density switch.
        assert controller.pages_of_block(1) == before
        assert list(controller.pages_of_block(1)) == fresh_layout(
            controller, 1)

    def test_caller_mutation_cannot_reach_the_memo(self):
        controller = make_controller()
        layout = controller.pages_of_block(0)
        with pytest.raises(TypeError):
            layout[0] = PageAddress(3, 3, 1)
        copied = list(layout)
        copied.clear()
        assert list(controller.pages_of_block(0)) == fresh_layout(
            controller, 0)


def reference_erase(controller, block):
    """The erase bookkeeping as the nested frame-by-page loop did it."""
    new_modes = {frame: mode
                 for (blk, frame), mode in controller._pending_modes.items()
                 if blk == block}
    stale_pages = fresh_layout(controller, block)
    device = controller.device
    result = device.erase_block(block, new_modes=new_modes or None)
    for frame in new_modes:
        del controller._pending_modes[(block, frame)]
    fbst_entry = controller.fbst.entry(block)
    fbst_entry.erase_count = result.erase_count
    fbst_entry.total_ecc = 0
    fbst_entry.total_slc_pages = 0
    for frame in range(device.geometry.frames_per_block):
        mode = device.frame_mode(block, frame)
        if mode is CellMode.SLC:
            fbst_entry.total_slc_pages += 1
        live_subpages = device.geometry.pages_per_frame(mode)
        for address in (a for a in stale_pages if a.frame == frame):
            if address.subpage >= live_subpages:
                controller.fpst.drop(address)
                continue
            entry = controller.fpst.get(address)
            if entry is None:
                continue
            entry.valid = False
            entry.lba = None
            entry.access_count = 0
            entry.mode = mode
            fbst_entry.total_ecc += max(
                entry.ecc_strength
                - controller.config.initial_ecc_strength, 0)


def table_state(controller, block):
    fpst = [(address, dataclasses.astuple(entry))
            for address, entry in controller.fpst]
    return fpst, dataclasses.astuple(controller.fbst.entry(block))


class TestOnePassErase:
    def test_mixed_block_with_bad_frame_matches_nested_loop(self):
        injector = FrameFaultInjector()
        controller = make_controller(injector=injector)
        # Frames 0 and 3 become SLC; frames 1 and 2 stay MLC.
        controller.request_slc(PageAddress(1, 0, 0))
        controller.request_slc(PageAddress(1, 3, 0))
        controller.erase(1)
        for lba, address in enumerate(controller.pages_of_block(1)):
            if address.frame == 2:
                continue
            controller.program(address, lba=lba)
            controller.fpst.entry(address).ecc_strength = 1 + lba % 5
            controller.fpst.entry(address).access_count = lba
        injector.bad_frames.add((1, 2))
        with pytest.raises(ProgramFailure):
            controller.program(PageAddress(1, 2, 0), lba=99)
        # The erase under test also switches MLC frame 1 to SLC.
        controller.request_slc(PageAddress(1, 1, 0))
        reference = copy.deepcopy(controller)
        reference_erase(reference, 1)
        controller.erase(1)
        assert table_state(controller, 1) == table_state(reference, 1)
        assert controller.fbst.entry(1).total_slc_pages == 3
        assert controller.fpst.get(PageAddress(1, 1, 1)) is None
