"""Implementation-specific handle designs (paper Section 3).

These tests pin the exact properties that motivated the new virtual-id
architecture: MPICH's session-stable 32-bit constants, Open MPI's
session-varying 64-bit pointers, ExaMPI's enum + lazy aliased constants.
"""

import tracemalloc

import pytest

from repro.impls.exampi import ENUM_PRIMITIVE, PRIMITIVE_ENUM
from repro.impls.mpich import (
    CATEGORY_BUILTIN,
    CATEGORY_DYNAMIC,
    HANDLE_LAYOUT,
    KIND_CODES,
    TwoLevelHandleSpace,
)
from repro.mpi.api import HandleKind
from repro.util.errors import (
    InvalidHandleError,
    MpiError,
    UnsupportedFunctionError,
)
from tests.conftest import make_world


class TestMpichHandles:
    def test_handles_are_32_bit(self):
        _, lib_for = make_world(2, "mpich")
        lib = lib_for(0)
        assert lib.handles.handle_bits == 32
        world = lib.constant("MPI_COMM_WORLD")
        assert 0 <= world < (1 << 32)

    def test_builtin_constants_session_stable(self):
        # "the same in the upper and lower half, and the same before
        # checkpoint and after restart" (§4.3)
        _, lib_a = make_world(2, "mpich", epoch=0)
        _, lib_b = make_world(2, "mpich", epoch=7)
        a, b = lib_a(0), lib_b(1)
        for name in ("MPI_COMM_WORLD", "MPI_INT", "MPI_SUM", "MPI_DOUBLE"):
            assert a.constant(name) == b.constant(name)

    def test_constant_resolvable_before_init(self):
        # MPICH constants are compile-time literals from mpi.h.
        _, lib_for = make_world(2, "mpich")
        lib = lib_for(0, init=False)
        assert lib.constant("MPI_COMM_WORLD") == lib_for(1).constant(
            "MPI_COMM_WORLD"
        )

    def test_builtin_vs_dynamic_category_bits(self):
        # 1-rank world: comm_dup is collective and must not block.
        _, lib_for = make_world(1, "mpich")
        lib = lib_for(0)
        world = lib.constant("MPI_COMM_WORLD")
        assert HANDLE_LAYOUT.extract(world, "category") == CATEGORY_BUILTIN
        dup = lib.comm_dup(world)
        assert HANDLE_LAYOUT.extract(dup, "category") == CATEGORY_DYNAMIC

    def test_kind_bits_encode_object_type(self):
        _, lib_for = make_world(2, "mpich")
        lib = lib_for(0)
        world = lib.constant("MPI_COMM_WORLD")
        g = lib.comm_group(world)
        assert HANDLE_LAYOUT.extract(world, "kind") == KIND_CODES[HandleKind.COMM]
        assert HANDLE_LAYOUT.extract(g, "kind") == KIND_CODES[HandleKind.GROUP]

    def test_wrong_kind_resolution_rejected(self):
        _, lib_for = make_world(2, "mpich")
        lib = lib_for(0)
        world = lib.constant("MPI_COMM_WORLD")
        with pytest.raises(InvalidHandleError, match="not a group"):
            lib.handles.resolve(HandleKind.GROUP, world)

    def test_dynamic_handles_differ_across_epochs(self):
        # A restarted lower half hands out different physical ids for the
        # same logical objects — the hazard virtual ids absorb.
        _, lib_e0 = make_world(1, "mpich", epoch=0)
        _, lib_e1 = make_world(1, "mpich", epoch=1)
        a, b = lib_e0(0), lib_e1(0)
        assert a.comm_dup(a.constant("MPI_COMM_WORLD")) != b.comm_dup(
            b.constant("MPI_COMM_WORLD")
        )

    def test_dangling_handle_detected(self):
        _, lib_for = make_world(1, "mpich")
        lib = lib_for(0)
        dup = lib.comm_dup(lib.constant("MPI_COMM_WORLD"))
        lib.comm_free(dup)
        with pytest.raises(InvalidHandleError):
            lib.handles.resolve(HandleKind.COMM, dup)

    def test_slot_reuse_after_free(self):
        _, lib_for = make_world(1, "mpich")
        lib = lib_for(0)
        world = lib.constant("MPI_COMM_WORLD")
        h1 = lib.comm_dup(world)
        lib.comm_free(h1)
        h2 = lib.comm_dup(world)
        assert h1 == h2  # freed slot recycled, like real MPICH tables

    def test_craympi_different_magic_constants(self):
        _, mp = make_world(1, "mpich")
        _, cr = make_world(1, "craympi")
        assert mp(0).constant("MPI_COMM_WORLD") != cr(0).constant(
            "MPI_COMM_WORLD"
        )

    def test_insert_allocates_a_page_only_once(self):
        # A page's slot list is 65,536 entries (512 KiB); building one per
        # insert and discarding it would make every MPICH insert cost
        # O(page size).
        space = TwoLevelHandleSpace()
        obj = object()
        handles = []
        tracemalloc.start()
        try:
            handles.append(space.insert(HandleKind.REQUEST, obj))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                handles.append(space.insert(HandleKind.REQUEST, obj))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 64 * 1024, peak - base
        assert all(space.resolve(HandleKind.REQUEST, h) is obj
                   for h in handles)


class TestOpenMpiHandles:
    def test_handles_are_64_bit_pointers(self):
        _, lib_for = make_world(2, "openmpi")
        lib = lib_for(0)
        assert lib.handles.handle_bits == 64
        world = lib.constant("MPI_COMM_WORLD")
        assert world > (1 << 32)  # a heap address, not a small id

    def test_constants_vary_across_sessions(self):
        # §4.3: MPI_COMM_WORLD's value varies between before-checkpoint
        # and after-restart (and between linked halves).
        _, e0 = make_world(1, "openmpi", epoch=0)
        _, e1 = make_world(1, "openmpi", epoch=1)
        assert e0(0).constant("MPI_COMM_WORLD") != e1(0).constant(
            "MPI_COMM_WORLD"
        )

    def test_constants_vary_across_ranks(self):
        _, lib_for = make_world(2, "openmpi")
        assert lib_for(0).constant("MPI_COMM_WORLD") != lib_for(1).constant(
            "MPI_COMM_WORLD"
        )

    def test_constant_before_init_raises(self):
        # Open MPI constants are macros expanding to function calls,
        # resolvable only after library startup.
        _, lib_for = make_world(1, "openmpi")
        lib = lib_for(0, init=False)
        with pytest.raises(MpiError, match="before library"):
            lib.constant("MPI_COMM_WORLD")

    def test_dangling_pointer_detected(self):
        _, lib_for = make_world(1, "openmpi")
        lib = lib_for(0)
        dup = lib.comm_dup(lib.constant("MPI_COMM_WORLD"))
        lib.comm_free(dup)
        with pytest.raises(InvalidHandleError, match="dangling"):
            lib.handles.resolve(HandleKind.COMM, dup)

    def test_foreign_pointer_detected(self):
        _, lib_for = make_world(1, "openmpi")
        lib = lib_for(0)
        with pytest.raises(InvalidHandleError):
            lib.handles.resolve(HandleKind.COMM, 0xDEADBEEF)

    def test_wrong_struct_kind_detected(self):
        _, lib_for = make_world(1, "openmpi")
        lib = lib_for(0)
        world = lib.constant("MPI_COMM_WORLD")
        with pytest.raises(InvalidHandleError, match="comm struct"):
            lib.handles.resolve(HandleKind.DATATYPE, world)

    def test_null_is_zero_pointer(self):
        _, lib_for = make_world(1, "openmpi")
        lib = lib_for(0)
        for kind in HandleKind.ALL:
            assert lib.null_handle(kind) == 0


class TestExaMpiHandles:
    def test_primitive_datatypes_are_enum_values(self):
        _, lib_for = make_world(1, "exampi")
        lib = lib_for(0)
        h = lib.constant("MPI_INT")
        assert h == PRIMITIVE_ENUM["MPI_INT"]
        assert h < 64  # an enum value, not a pointer

    def test_enum_values_session_stable_but_lazy(self):
        _, e0 = make_world(1, "exampi", epoch=0)
        _, e1 = make_world(1, "exampi", epoch=3)
        assert e0(0).constant("MPI_DOUBLE") == e1(0).constant("MPI_DOUBLE")

    def test_constants_resolved_lazily(self):
        _, lib_for = make_world(1, "exampi")
        lib = lib_for(0)
        before = set(lib.resolved_constant_names())
        assert "MPI_SUM" not in before
        lib.constant("MPI_SUM")
        assert "MPI_SUM" in lib.resolved_constant_names()

    def test_unresolved_enum_rejected(self):
        _, lib_for = make_world(1, "exampi")
        lib = lib_for(0)
        with pytest.raises(InvalidHandleError, match="lazy"):
            lib.handles.resolve(
                HandleKind.DATATYPE, PRIMITIVE_ENUM["MPI_FLOAT"]
            )

    def test_aliasing_int8_char_share_pointer(self):
        # §4.3: "MPI_INT8_T and MPI_CHAR can share a pointer"
        _, lib_for = make_world(1, "exampi")
        lib = lib_for(0)
        assert lib.constant("MPI_INT8_T") == lib.constant("MPI_CHAR")
        assert lib.constant("MPI_UINT8_T") == lib.constant("MPI_BYTE")

    def test_aliased_types_resolve_to_same_object(self):
        _, lib_for = make_world(1, "exampi")
        lib = lib_for(0)
        h = lib.constant("MPI_INT8_T")
        obj = lib.handles.resolve(HandleKind.DATATYPE, h)
        assert obj.descriptor.size() == 1

    def test_ops_are_pointers(self):
        _, lib_for = make_world(1, "exampi")
        lib = lib_for(0)
        assert lib.constant("MPI_SUM") > (1 << 32)

    def test_unsupported_subset_raises(self):
        _, lib_for = make_world(4, "exampi")
        lib = lib_for(0)
        with pytest.raises(UnsupportedFunctionError):
            lib.cart_create(lib.constant("MPI_COMM_WORLD"), [2, 2], [True, True])
        with pytest.raises(UnsupportedFunctionError):
            lib.type_indexed([1], [0], lib.constant("MPI_INT"))

    def test_core_mana_subset_present(self):
        # §5: the functions MANA itself requires must exist.
        from repro.impls.exampi import ExaMpiLib

        required = {
            "iprobe", "recv", "test", "send", "alltoall", "comm_group",
            "group_translate_ranks", "type_get_envelope",
            "type_get_contents",
        }
        assert not (required & ExaMpiLib.UNSUPPORTED)

    def test_primitive_enum_cannot_be_freed(self):
        _, lib_for = make_world(1, "exampi")
        lib = lib_for(0)
        h = lib.constant("MPI_INT")
        with pytest.raises(MpiError):
            lib.type_free(h)

    def test_enum_reverse_map_consistent(self):
        assert all(
            PRIMITIVE_ENUM[name] == val
            for val, name in ENUM_PRIMITIVE.items()
        )
