"""Datatype algebra: geometry, packing, envelopes, reconstruction.

These invariants carry MANA's restart correctness: a datatype decoded
via envelope/contents and rebuilt must pack identically.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import constants as C
from repro.mpi import datatypes as _dt
from repro.mpi.datatypes import (
    ContiguousType,
    IndexedType,
    NamedType,
    StructType,
    TypeDescriptor,
    VectorType,
    descriptor_from_contents,
    make_predefined_types,
)
from repro.util.errors import MpiError, TruncationError

DOUBLE = NamedType("MPI_DOUBLE", "f8")
INT = NamedType("MPI_INT", "i4")
BYTE = NamedType("MPI_BYTE", "u1")


class TestNamedTypes:
    def test_all_predefined_construct(self):
        table = make_predefined_types()
        assert set(table) == set(C.PREDEFINED_DATATYPES)
        for t in table.values():
            assert t.size() == t.extent() > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(MpiError):
            NamedType("MPI_BOGUS", "f8")

    def test_pair_type_layout(self):
        di = NamedType("MPI_DOUBLE_INT", C.PREDEFINED_DATATYPES["MPI_DOUBLE_INT"])
        assert di.size() == 12  # unaligned f8 + i4

    def test_named_contents_is_erroneous(self):
        with pytest.raises(MpiError):
            DOUBLE.contents()

    def test_envelope_named(self):
        env = INT.envelope()
        assert env.combiner == C.COMBINER_NAMED
        assert (env.num_integers, env.num_addresses, env.num_datatypes) == (0, 0, 0)


class TestGeometry:
    def test_contiguous(self):
        t = ContiguousType(5, DOUBLE)
        assert t.size() == 40
        assert t.extent() == 40
        assert t.is_dense()

    def test_vector_gapped(self):
        t = VectorType(3, 2, 4, DOUBLE)  # 3 blocks of 2, stride 4
        assert t.size() == 6 * 8
        # span: last block starts at 8*4*2=64, covers 2 doubles -> 80
        assert t.extent() == (2 * 4 + 2) * 8
        assert not t.is_dense()

    def test_vector_stride_equal_blocklength_is_dense_sized(self):
        t = VectorType(4, 2, 2, DOUBLE)
        assert t.size() == t.extent() == 64

    def test_indexed(self):
        t = IndexedType([2, 1], [0, 5], INT)
        assert t.size() == 12
        assert t.extent() == 6 * 4

    def test_struct_mixed(self):
        t = StructType([2, 3], [0, 16], [DOUBLE, INT])
        assert t.size() == 2 * 8 + 3 * 4
        assert t.extent() == 16 + 3 * 4

    def test_empty_counts(self):
        assert ContiguousType(0, DOUBLE).size() == 0
        assert VectorType(0, 3, 4, INT).size() == 0
        assert IndexedType([], [], INT).size() == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(MpiError):
            ContiguousType(-1, DOUBLE)
        with pytest.raises(MpiError):
            VectorType(-1, 1, 1, INT)
        with pytest.raises(MpiError):
            IndexedType([-2], [0], INT)

    def test_mismatched_indexed_arrays(self):
        with pytest.raises(MpiError):
            IndexedType([1, 2], [0], INT)


class TestPacking:
    def test_contiguous_roundtrip(self):
        src = np.arange(10, dtype=np.float64)
        t = ContiguousType(10, DOUBLE)
        payload = t.pack(src, 1)
        dst = np.zeros(10)
        t.unpack(payload, dst, 1)
        assert np.array_equal(src, dst)

    def test_vector_selects_strided(self):
        src = np.arange(8, dtype=np.float64)
        t = VectorType(4, 1, 2, DOUBLE)
        payload = t.pack(src, 1)
        assert np.array_equal(
            np.frombuffer(payload, np.float64), src[::2]
        )

    def test_vector_unpack_scatters(self):
        t = VectorType(4, 1, 2, DOUBLE)
        payload = np.array([9.0, 8.0, 7.0, 6.0]).tobytes()
        dst = np.zeros(8)
        t.unpack(payload, dst, 1)
        assert np.array_equal(dst[::2], [9, 8, 7, 6])
        assert np.array_equal(dst[1::2], np.zeros(4))

    def test_indexed_roundtrip(self):
        src = np.arange(12, dtype=np.int32)
        t = IndexedType([2, 3], [1, 6], INT)
        payload = t.pack(src, 1)
        vals = np.frombuffer(payload, np.int32)
        assert list(vals) == [1, 2, 6, 7, 8]

    def test_struct_roundtrip(self):
        t = StructType([2, 2], [0, 16], [DOUBLE, INT])
        buf = np.zeros(24, dtype=np.uint8)
        buf[:16] = np.frombuffer(
            np.array([1.5, -2.5]).tobytes(), np.uint8
        )
        buf[16:24] = np.frombuffer(
            np.array([7, 9], dtype=np.int32).tobytes(), np.uint8
        )
        payload = t.pack(buf, 1)
        out = np.zeros(24, dtype=np.uint8)
        t.unpack(payload, out, 1)
        assert np.array_equal(out, buf)

    def test_multi_element_pack(self):
        src = np.arange(16, dtype=np.float64)
        t = VectorType(2, 1, 2, DOUBLE)  # extent 3 doubles? no: 2 blocks stride 2
        payload = t.pack(src, 2)
        vals = np.frombuffer(payload, np.float64)
        # element 0 -> indices 0,2 ; element 1 starts at extent boundary
        assert vals[0] == 0.0 and vals[1] == 2.0
        assert len(vals) == 4

    def test_pack_buffer_too_small(self):
        t = ContiguousType(100, DOUBLE)
        with pytest.raises(MpiError):
            t.pack(np.zeros(10), 1)

    def test_unpack_truncation(self):
        t = ContiguousType(2, DOUBLE)
        with pytest.raises(TruncationError):
            t.unpack(b"\0" * 100, np.zeros(64), 1)

    def test_unpack_partial_element(self):
        # MPI allows receiving fewer bytes than count*size.
        t = ContiguousType(4, DOUBLE)
        dst = np.zeros(4)
        consumed = t.unpack(np.array([5.0]).tobytes(), dst, 1)
        assert consumed == 8
        assert dst[0] == 5.0 and dst[1] == 0.0

    def test_noncontiguous_buffer_rejected(self):
        t = ContiguousType(2, DOUBLE)
        arr = np.zeros((4, 4))[:, 0]  # non-contiguous view
        with pytest.raises(MpiError, match="contiguous"):
            t.pack(arr, 1)

    def test_count_elements(self):
        t = ContiguousType(3, INT)
        assert t.count_elements(24) == 2
        assert t.count_elements(0) == 0
        assert t.count_elements(7) == C.UNDEFINED


class TestEnvelopeContents:
    def test_contiguous_roundtrip(self):
        t = ContiguousType(7, DOUBLE)
        env = t.envelope()
        assert env.combiner == C.COMBINER_CONTIGUOUS
        c = t.contents()
        rebuilt = descriptor_from_contents(env.combiner, c.integers, c.addresses, c.datatypes)
        assert rebuilt == t

    def test_nested_roundtrip(self):
        inner = VectorType(2, 3, 5, INT)
        t = ContiguousType(4, inner)
        c = t.contents()
        rebuilt = descriptor_from_contents(
            t.envelope().combiner, c.integers, c.addresses, c.datatypes
        )
        assert rebuilt == t
        assert rebuilt.signature() == t.signature()

    def test_struct_roundtrip(self):
        t = StructType([1, 2], [0, 8], [DOUBLE, INT])
        env = t.envelope()
        assert env.num_addresses == 2
        c = t.contents()
        rebuilt = descriptor_from_contents(env.combiner, c.integers, c.addresses, c.datatypes)
        assert rebuilt == t

    def test_indexed_contents_layout(self):
        t = IndexedType([2, 1], [0, 4], INT)
        c = t.contents()
        assert c.integers == (2, 2, 1, 0, 4)

    def test_signature_equality_is_structural(self):
        a = VectorType(2, 1, 3, NamedType("MPI_DOUBLE", "f8"))
        b = VectorType(2, 1, 3, NamedType("MPI_DOUBLE", "f8"))
        assert a == b and hash(a) == hash(b)
        assert a != VectorType(2, 1, 4, DOUBLE)


# ----------------------------------------------------------------------
# property-based: arbitrary descriptor trees survive decode/rebuild and
# pack/unpack roundtrips
# ----------------------------------------------------------------------

_named = st.sampled_from(
    [NamedType(n, C.PREDEFINED_DATATYPES[n])
     for n in ("MPI_DOUBLE", "MPI_INT", "MPI_BYTE", "MPI_INT16_T")]
)


def _derived(children):
    return st.one_of(
        st.builds(ContiguousType, st.integers(1, 4), children),
        st.builds(
            VectorType,
            st.integers(1, 3),
            st.integers(1, 3),
            st.integers(1, 5),
            children,
        ),
        st.builds(
            lambda bls, base: IndexedType(
                bls, list(range(0, 3 * len(bls), 3)), base
            ),
            st.lists(st.integers(1, 3), min_size=1, max_size=3),
            children,
        ),
    )


type_trees = st.recursive(_named, _derived, max_leaves=6)


@given(type_trees)
@settings(max_examples=60, deadline=None)
def test_property_contents_roundtrip(t: TypeDescriptor):
    if t.is_named():
        return
    env = t.envelope()
    c = t.contents()
    rebuilt = descriptor_from_contents(env.combiner, c.integers, c.addresses, c.datatypes)
    assert rebuilt == t


@given(type_trees, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_property_pack_unpack_roundtrip(t: TypeDescriptor, count: int):
    span = count * t.extent() + abs(t.lower_bound()) + 16
    rng = np.random.default_rng(0)
    src = rng.integers(0, 255, size=span, dtype=np.uint8) + 1
    payload = t.pack(src, count)
    assert len(payload) == count * t.size()
    dst = np.zeros(span, dtype=np.uint8)
    t.unpack(payload, dst, count)
    # Every byte the typemap touches must have been copied verbatim.
    payload2 = t.pack(dst, count)
    assert payload2 == payload


# ----------------------------------------------------------------------
# vectorized compile vs the loop implementations it replaced
# ----------------------------------------------------------------------


def _loop_merge_blocks(blocks: np.ndarray) -> np.ndarray:
    """Reference: the per-block merge loop."""
    if blocks.shape[0] <= 1:
        return blocks
    merged = [list(blocks[0])]
    for off, ln in blocks[1:]:
        last = merged[-1]
        if last[0] + last[1] == off:
            last[1] += ln
        else:
            merged.append([off, ln])
    return np.array(merged, dtype=np.int64)


def _loop_flat_byte_indices(t: TypeDescriptor, count: int) -> np.ndarray:
    """Reference: one ``np.arange`` per block."""
    blocks = t.compiled_blocks()
    if blocks.size == 0 or count == 0:
        return np.empty(0, dtype=np.int64)
    per_elem = np.concatenate(
        [np.arange(off, off + ln, dtype=np.int64) for off, ln in blocks]
    )
    starts = np.arange(count, dtype=np.int64) * t.extent()
    idx = (starts[:, None] + per_elem[None, :]).reshape(-1)
    if idx.size and idx.min() < 0:
        raise MpiError(
            "types with a negative lower bound are not supported by "
            "the simulated buffers",
            error_class="MPI_ERR_TYPE",
        )
    return idx


def _same_outcome(fn_a, fn_b):
    """Both return equal int64 arrays, or both raise the same MpiError."""
    try:
        a = fn_a()
    except MpiError as e:
        with pytest.raises(MpiError) as e2:
            fn_b()
        assert str(e2.value) == str(e)
        return
    b = fn_b()
    assert a.dtype == b.dtype == np.int64
    assert a.shape == b.shape and np.array_equal(a, b)


# Trees that reach zero-length blocks, adjacent block chains (stride ==
# blocklength, back-to-back struct members) and negative lower bounds.
_compile_leaves = st.sampled_from(
    [NamedType(n, C.PREDEFINED_DATATYPES[n])
     for n in ("MPI_DOUBLE", "MPI_INT", "MPI_BYTE", "MPI_INT16_T")]
)


def _compile_derived(children):
    small = st.integers(0, 3)
    return st.one_of(
        st.builds(ContiguousType, small, children),
        st.builds(VectorType, small, small, st.integers(-3, 4), children),
        st.builds(
            lambda pairs, base: IndexedType(
                [p[0] for p in pairs], [p[1] for p in pairs], base),
            st.lists(st.tuples(small, st.integers(-2, 6)), max_size=4),
            children,
        ),
        st.builds(
            lambda members: StructType(
                [m[0] for m in members], [m[1] for m in members],
                [m[2] for m in members]),
            st.lists(st.tuples(small, st.integers(-8, 40), children),
                     max_size=3),
        ),
    )


compile_trees = st.recursive(_compile_leaves, _compile_derived, max_leaves=5)


@given(compile_trees, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_property_flat_indices_match_loop(t: TypeDescriptor, count: int):
    _same_outcome(lambda: _loop_flat_byte_indices(t, count),
                  lambda: t._flat_byte_indices(count))


@given(compile_trees)
@settings(max_examples=150, deadline=None)
def test_property_compiled_blocks_match_loop_merge(t: TypeDescriptor):
    # blocks() recompiles the whole tree, merging at every level.
    vectorized = t.blocks()
    saved = _dt._merge_blocks
    _dt._merge_blocks = _loop_merge_blocks
    try:
        reference = t.blocks()
    finally:
        _dt._merge_blocks = saved
    assert vectorized.dtype == reference.dtype == np.int64
    assert vectorized.shape == reference.shape
    assert np.array_equal(vectorized, reference)


_block_rows = st.lists(
    st.tuples(st.integers(-20, 60), st.integers(0, 6)), max_size=12
)


@given(_block_rows, st.data())
@settings(max_examples=200, deadline=None)
def test_property_merge_blocks_matches_loop(rows, data):
    # Half the time turn the rows into a chain of adjacent blocks, so
    # long merges (including zero-length links) are common.
    if rows and data.draw(st.booleans()):
        off = rows[0][0]
        chained = []
        for _, ln in rows:
            chained.append((off, ln))
            off += ln
        rows = chained
    blocks = np.array(rows, dtype=np.int64).reshape(-1, 2)
    got = _dt._merge_blocks(blocks)
    ref = _loop_merge_blocks(blocks)
    assert got.shape == ref.shape and np.array_equal(got, ref)


def test_merge_blocks_edge_cases():
    cases = [
        [[0, 4], [4, 0], [4, 4]],        # zero-length link in a chain
        [[0, 4], [8, 0], [8, 4]],        # zero-length block opens a run
        [[0, 0], [0, 0]],                # only empty blocks
        [[16, 4], [0, 4], [4, 4]],       # typemap order, not sorted
        [[0, 4], [4, 4], [8, 4], [12, 4]],  # one run
    ]
    for rows in cases:
        blocks = np.array(rows, dtype=np.int64)
        assert np.array_equal(_dt._merge_blocks(blocks),
                              _loop_merge_blocks(blocks)), rows


def test_negative_lower_bound_error_unchanged():
    t = VectorType(2, 1, -2, INT)
    assert t.lower_bound() < 0
    with pytest.raises(MpiError, match="negative lower bound") as e:
        t._flat_byte_indices(1)
    assert e.value.error_class == "MPI_ERR_TYPE"
    with pytest.raises(MpiError, match="negative lower bound"):
        t.pack(np.zeros(64, dtype=np.uint8), 1)


@given(compile_trees, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_property_pack_matches_loop_indices(t: TypeDescriptor, count: int):
    if t.lower_bound() < 0 or t.size() == 0:
        return
    span = count * t.extent() + t.upper_bound() + 16
    rng = np.random.default_rng(1)
    src = rng.integers(0, 255, size=span, dtype=np.uint8)
    idx = _loop_flat_byte_indices(t, count)
    payload = t.pack(src, count)
    assert payload == src[idx].tobytes()
    dst = np.zeros(span, dtype=np.uint8)
    assert t.unpack(payload, dst, count) == len(payload)
    ref = np.zeros(span, dtype=np.uint8)
    ref[idx] = src[idx]
    assert np.array_equal(dst, ref)


@pytest.mark.parametrize("t", [
    ContiguousType(4, DOUBLE),
    VectorType(3, 2, 5, DOUBLE),
    IndexedType([2, 1], [0, 4], INT),
    StructType([1, 2], [0, 8], [INT, DOUBLE]),
])
def test_descriptor_pickles_without_caches(t):
    before = pickle.dumps(t)
    buf = np.arange(256, dtype=np.uint8)
    payload = t.pack(buf, 2)
    t.unpack(payload, np.zeros(256, dtype=np.uint8), 2)
    assert t._blocks_cache is not None and t._dense_cache is not None
    assert pickle.dumps(t) == before
    back = pickle.loads(before)
    assert back == t and back.pack(buf, 2) == payload
