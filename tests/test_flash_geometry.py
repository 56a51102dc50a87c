"""Flash array geometry tests (paper section 2.1, Figure 1(a))."""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.flash.geometry import FlashGeometry, PageAddress, DEFAULT_GEOMETRY
from repro.flash.timing import CellMode


class TestPaperGeometry:
    """The published device shape: 2KB+64B pages, 64-frame blocks."""

    def test_page_sizes(self):
        assert DEFAULT_GEOMETRY.page_data_bytes == 2048
        assert DEFAULT_GEOMETRY.page_spare_bytes == 64

    def test_pages_per_block_by_mode(self):
        """Blocks of 64 SLC pages or 128 MLC pages (section 2.1)."""
        assert DEFAULT_GEOMETRY.pages_per_block(CellMode.SLC) == 64
        assert DEFAULT_GEOMETRY.pages_per_block(CellMode.MLC) == 128

    def test_block_data_bytes(self):
        assert DEFAULT_GEOMETRY.block_data_bytes(CellMode.SLC) == 128 << 10
        assert DEFAULT_GEOMETRY.block_data_bytes(CellMode.MLC) == 256 << 10

    def test_cells_per_frame(self):
        assert DEFAULT_GEOMETRY.cells_per_frame == (2048 + 64) * 8

    def test_data_cells_per_page_same_bit_count_either_mode(self):
        """Either mode stores (2048+64)*8 bits per logical page."""
        assert (DEFAULT_GEOMETRY.data_cells_per_page(CellMode.SLC)
                == DEFAULT_GEOMETRY.cells_per_frame)
        assert (DEFAULT_GEOMETRY.data_cells_per_page(CellMode.MLC)
                == DEFAULT_GEOMETRY.cells_per_frame // 2)


class TestValidation:
    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            FlashGeometry(num_blocks=0)
        with pytest.raises(ValueError):
            FlashGeometry(page_data_bytes=0)

    def test_page_address_validation(self):
        with pytest.raises(ValueError):
            PageAddress(-1, 0)
        with pytest.raises(ValueError):
            PageAddress(0, 0, subpage=2)

    def test_validate_address_bounds(self):
        geometry = FlashGeometry(frames_per_block=4, num_blocks=2)
        geometry.validate_address(PageAddress(1, 3, 1), CellMode.MLC)
        with pytest.raises(IndexError):
            geometry.validate_address(PageAddress(2, 0), CellMode.MLC)
        with pytest.raises(IndexError):
            geometry.validate_address(PageAddress(0, 4), CellMode.MLC)
        with pytest.raises(IndexError):
            geometry.validate_address(PageAddress(0, 0, 1), CellMode.SLC)


class TestCapacitySizing:
    @given(capacity=st.integers(min_value=1, max_value=1 << 32))
    def test_for_capacity_is_sufficient_and_tight(self, capacity):
        geometry = FlashGeometry.for_capacity(capacity, mode=CellMode.MLC)
        block_bytes = geometry.block_data_bytes(CellMode.MLC)
        assert geometry.device_data_bytes(CellMode.MLC) >= capacity
        assert (geometry.device_data_bytes(CellMode.MLC) - capacity
                < block_bytes)

    def test_slc_capacity_needs_twice_the_blocks(self):
        mlc = FlashGeometry.for_capacity(1 << 26, mode=CellMode.MLC)
        slc = FlashGeometry.for_capacity(1 << 26, mode=CellMode.SLC)
        assert slc.num_blocks == 2 * mlc.num_blocks

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlashGeometry.for_capacity(0)


@dataclass(frozen=True)
class _DataclassAddress:
    """The frozen-dataclass form PageAddress had before it became a
    tuple: the reference for hash values and set iteration order."""

    block: int
    frame: int
    subpage: int = 0


_ADDRESS_PARTS = st.tuples(st.integers(min_value=0, max_value=1 << 40),
                           st.integers(min_value=0, max_value=1 << 20),
                           st.sampled_from((0, 1)))


class TestPageAddressTuple:
    """PageAddress is a validated tuple that hashes like the old frozen
    dataclass, so every set and dict keyed by addresses keeps its order."""

    @given(parts=_ADDRESS_PARTS)
    def test_hash_is_the_field_tuple_hash(self, parts):
        address = PageAddress(*parts)
        assert hash(address) == hash(parts)
        assert hash(address) == hash(_DataclassAddress(*parts))

    @given(parts=st.lists(_ADDRESS_PARTS, max_size=200))
    def test_set_iteration_order_matches_the_dataclass(self, parts):
        ordered = [tuple(a) for a in set(PageAddress(*p) for p in parts)]
        reference = [(a.block, a.frame, a.subpage)
                     for a in set(_DataclassAddress(*p) for p in parts)]
        assert ordered == reference

    def test_repr_and_fields(self):
        address = PageAddress(1, 2)
        assert repr(address) == "PageAddress(block=1, frame=2, subpage=0)"
        assert str(address) == repr(address)
        assert (address.block, address.frame, address.subpage) == (1, 2, 0)
        assert address == PageAddress(block=1, frame=2, subpage=0)
        assert PageAddress._fields == ("block", "frame", "subpage")

    def test_no_instance_dict(self):
        assert not hasattr(PageAddress(0, 0), "__dict__")

    @pytest.mark.parametrize("parts", [(-1, 0, 0), (0, -1, 0), (0, 0, 2),
                                       (0, 0, -1)])
    def test_every_constructor_validates(self, parts):
        with pytest.raises(ValueError, match="invalid page address"):
            PageAddress(*parts)
        with pytest.raises(ValueError, match="invalid page address"):
            PageAddress._make(parts)
        block, frame, subpage = parts
        with pytest.raises(ValueError, match="invalid page address"):
            PageAddress(0, 0)._replace(block=block, frame=frame,
                                       subpage=subpage)

    def test_replace_and_make_keep_the_type(self):
        moved = PageAddress(3, 4, 0)._replace(subpage=1)
        assert type(moved) is PageAddress
        assert moved == PageAddress(3, 4, 1)
        assert type(PageAddress._make((5, 6, 1))) is PageAddress

    def test_pickle_round_trip_validates_and_keeps_type(self):
        address = PageAddress(7, 8, 1)
        copy = pickle.loads(pickle.dumps(address))
        assert type(copy) is PageAddress and copy == address
