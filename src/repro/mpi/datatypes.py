"""Datatype algebra: typemaps, envelopes/contents, and packing.

Every simulated implementation shares this algebra; what differs across
implementations is only how a *handle* names one of these descriptors
(32-bit MPICH id, Open MPI pointer, ExaMPI enum).

The envelope/contents protocol (``MPI_Type_get_envelope`` /
``MPI_Type_get_contents``) is implemented exactly as MANA needs it:
a derived type can be decoded recursively down to named types, which is
how MANA reconstructs user datatypes at restart (paper §5, category 2).

Packing is vectorized: a descriptor compiles once into a block table
(``(offset, nbytes)`` pairs for one element), and ``pack``/``unpack``
turn that into a flat uint8 index array reused across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mpi import constants as C
from repro.util.errors import MpiError, TruncationError


@dataclass(frozen=True)
class Envelope:
    """Result of ``MPI_Type_get_envelope``."""

    combiner: str
    num_integers: int
    num_addresses: int
    num_datatypes: int


@dataclass(frozen=True)
class Contents:
    """Result of ``MPI_Type_get_contents``.

    ``datatypes`` holds *descriptors*, not handles; the library layer
    translates them to handles of its own representation.
    """

    integers: Tuple[int, ...]
    addresses: Tuple[int, ...]
    datatypes: Tuple["TypeDescriptor", ...]


class TypeDescriptor:
    """Abstract base of the datatype algebra."""

    # Per-instance caches (descriptors are immutable after construction):
    # the compiled block table, the most recent flat index array and the
    # is_dense() answer.  They are derived data, never pickled.
    _blocks_cache: Optional[np.ndarray] = None
    _flat_cache: Optional[Tuple[int, np.ndarray]] = None
    _dense_cache: Optional[bool] = None
    _CACHE_ATTRS = ("_blocks_cache", "_flat_cache", "_dense_cache")

    def __getstate__(self) -> dict:
        # A descriptor reached through a DatatypeRecord rides inside the
        # checkpoint image; its caches must not change the image bytes.
        return {k: v for k, v in self.__dict__.items()
                if k not in self._CACHE_ATTRS}

    def compiled_blocks(self) -> np.ndarray:
        """Cached :meth:`blocks` — packing compiles the typemap once."""
        if self._blocks_cache is None:
            self._blocks_cache = self.blocks()
        return self._blocks_cache

    # -- geometry -------------------------------------------------------
    def size(self) -> int:
        """Bytes of actual data in one element (MPI_Type_size)."""
        raise NotImplementedError

    def extent(self) -> int:
        """Span from lower to upper bound (MPI_Type_get_extent)."""
        return self.upper_bound() - self.lower_bound()

    def lower_bound(self) -> int:
        raise NotImplementedError

    def upper_bound(self) -> int:
        raise NotImplementedError

    # -- introspection ---------------------------------------------------
    def envelope(self) -> Envelope:
        raise NotImplementedError

    def contents(self) -> Contents:
        raise NotImplementedError

    def is_named(self) -> bool:
        return isinstance(self, NamedType)

    # -- packing ----------------------------------------------------------
    def blocks(self) -> np.ndarray:
        """``(nblocks, 2)`` int64 array of (byte offset, byte length) for
        one element, offsets relative to the element origin (may be
        negative for exotic strides; callers use lower_bound)."""
        raise NotImplementedError

    def _flat_byte_indices(self, count: int) -> np.ndarray:
        """Absolute byte indices (into the caller's buffer) touched by
        ``count`` consecutive elements, in typemap order.  Cached for the
        most recent ``count`` (halo exchanges repeat the same shape)."""
        if self._flat_cache is not None and self._flat_cache[0] == count:
            return self._flat_cache[1]
        blocks = self.compiled_blocks()
        ext = self.extent()
        if blocks.size == 0 or count == 0:
            return np.empty(0, dtype=np.int64)
        # Expand each (offset, length) block into its byte indices: byte
        # j of the packed element sits at offs[b] + (j - first_j[b]).
        offs, lens = blocks[:, 0], blocks[:, 1]
        per_elem = np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(
            offs - (np.cumsum(lens) - lens), lens
        )
        # Element e starts at e * extent; typemap offsets are absolute
        # from the buffer origin (MPI semantics).  Types whose typemap
        # reaches below the buffer (negative lower bound) cannot be
        # addressed in the flat-array model.
        starts = np.arange(count, dtype=np.int64) * ext
        idx = (starts[:, None] + per_elem[None, :]).reshape(-1)
        if idx.size and idx.min() < 0:
            raise MpiError(
                "types with a negative lower bound are not supported by "
                "the simulated buffers",
                error_class="MPI_ERR_TYPE",
            )
        self._flat_cache = (count, idx)
        return idx

    def is_dense(self) -> bool:
        """True when one element is a single contiguous block starting at
        its lower bound and extent == size (so packing is a memcpy)."""
        dense = self._dense_cache
        if dense is None:
            blocks = self.compiled_blocks()
            dense = self._dense_cache = (
                blocks.shape[0] == 1
                and self.lower_bound() == 0
                and int(blocks[0, 0]) == 0
                and int(blocks[0, 1]) == self.size() == self.extent()
            )
        return dense

    def pack(self, buf: np.ndarray, count: int) -> bytes:
        """Gather ``count`` elements from ``buf`` into contiguous bytes."""
        raw = _as_bytes(buf)
        if self.is_dense():
            nbytes = count * self.size()
            if nbytes > raw.size:
                raise MpiError(
                    f"pack: buffer of {raw.size} bytes too small for "
                    f"{count} x {self!r}",
                    error_class="MPI_ERR_BUFFER",
                )
            return raw[:nbytes].tobytes()
        idx = self._flat_byte_indices(count)
        if idx.size and (idx[-1] >= raw.size or idx.min() < 0):
            raise MpiError(
                f"pack: buffer of {raw.size} bytes too small for "
                f"{count} x {self!r}",
                error_class="MPI_ERR_BUFFER",
            )
        return raw[idx].tobytes()

    def unpack(self, payload: bytes, buf: np.ndarray, count: int) -> int:
        """Scatter packed bytes into ``buf``; returns bytes consumed.

        Raises :class:`TruncationError` if the payload holds more data
        than ``count`` elements of this type can absorb.
        """
        raw = _as_bytes(buf)
        capacity = self.size() * count
        if len(payload) > capacity:
            raise TruncationError(
                f"message of {len(payload)} bytes truncated: receive "
                f"buffer holds {count} x {self.size()} bytes"
            )
        nbytes = len(payload)
        if nbytes == 0:
            return 0
        if self.is_dense():
            if nbytes > raw.size:
                raise MpiError(
                    f"unpack: buffer of {raw.size} bytes too small",
                    error_class="MPI_ERR_BUFFER",
                )
            raw[:nbytes] = np.frombuffer(payload, dtype=np.uint8)
            return nbytes
        full, part = divmod(nbytes, self.size())
        idx = self._flat_byte_indices(full)
        if part:
            tail = self._flat_byte_indices(full + 1)[idx.size : idx.size + part]
            idx = np.concatenate([idx, tail])
        if idx.size and idx[-1] >= raw.size:
            raise MpiError(
                f"unpack: buffer of {raw.size} bytes too small",
                error_class="MPI_ERR_BUFFER",
            )
        raw[idx] = np.frombuffer(payload, dtype=np.uint8)
        return nbytes

    def count_elements(self, nbytes: int) -> int:
        """MPI_Get_count: elements in ``nbytes``; raises if not integral."""
        sz = self.size()
        if sz == 0:
            return 0
        if nbytes % sz:
            return C.UNDEFINED
        return nbytes // sz

    # -- structural equality ------------------------------------------------
    def signature(self) -> Tuple:
        """A hashable structural signature (used for congruence tests and
        for MANA's restart replay verification)."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TypeDescriptor)
            and self.signature() == other.signature()
        )

    def __hash__(self) -> int:
        return hash(self.signature())


class NamedType(TypeDescriptor):
    """A predefined (named) type, e.g. MPI_INT."""

    def __init__(self, name: str, np_dtype: Union[str, list]):
        if name not in C.PREDEFINED_DATATYPES:
            raise MpiError(
                f"{name} is not a predefined datatype", "MPI_ERR_TYPE"
            )
        self.name = name
        self.np_dtype = np.dtype(np_dtype)

    def size(self) -> int:
        return self.np_dtype.itemsize

    def lower_bound(self) -> int:
        return 0

    def upper_bound(self) -> int:
        return self.np_dtype.itemsize

    def envelope(self) -> Envelope:
        return Envelope(C.COMBINER_NAMED, 0, 0, 0)

    def contents(self) -> Contents:
        # Per MPI-3 §4.1.13 it is erroneous to call get_contents on a
        # named type; MANA's replay relies on this to terminate recursion.
        raise MpiError(
            f"MPI_Type_get_contents called on named type {self.name}",
            "MPI_ERR_TYPE",
        )

    def blocks(self) -> np.ndarray:
        return np.array([[0, self.np_dtype.itemsize]], dtype=np.int64)

    def signature(self) -> Tuple:
        return ("named", self.name)

    def __repr__(self) -> str:
        return f"NamedType({self.name})"


class ContiguousType(TypeDescriptor):
    def __init__(self, count: int, base: TypeDescriptor):
        if count < 0:
            raise MpiError(f"negative count {count}", "MPI_ERR_COUNT")
        self.count = count
        self.base = base

    def size(self) -> int:
        return self.count * self.base.size()

    def lower_bound(self) -> int:
        return self.base.lower_bound()

    def upper_bound(self) -> int:
        if self.count == 0:
            return self.base.lower_bound()
        return (self.count - 1) * self.base.extent() + self.base.upper_bound()

    def envelope(self) -> Envelope:
        return Envelope(C.COMBINER_CONTIGUOUS, 1, 0, 1)

    def contents(self) -> Contents:
        return Contents((self.count,), (), (self.base,))

    def blocks(self) -> np.ndarray:
        return _offset_blocks(
            self.base, np.arange(self.count, dtype=np.int64) * self.base.extent()
        )

    def signature(self) -> Tuple:
        return ("contig", self.count, self.base.signature())

    def __repr__(self) -> str:
        return f"ContiguousType({self.count}, {self.base!r})"


class VectorType(TypeDescriptor):
    """``MPI_Type_vector``: ``count`` blocks of ``blocklength`` elements,
    block starts ``stride`` elements apart (stride in units of the base
    extent, as the standard specifies)."""

    def __init__(
        self, count: int, blocklength: int, stride: int, base: TypeDescriptor
    ):
        if count < 0 or blocklength < 0:
            raise MpiError("negative count/blocklength", "MPI_ERR_COUNT")
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.base = base

    def size(self) -> int:
        return self.count * self.blocklength * self.base.size()

    def _elem_offsets(self) -> np.ndarray:
        ext = self.base.extent()
        block_starts = np.arange(self.count, dtype=np.int64) * self.stride * ext
        within = np.arange(self.blocklength, dtype=np.int64) * ext
        return (block_starts[:, None] + within[None, :]).reshape(-1)

    def lower_bound(self) -> int:
        offs = self._elem_offsets()
        if offs.size == 0:
            return 0
        return int(offs.min()) + self.base.lower_bound()

    def upper_bound(self) -> int:
        offs = self._elem_offsets()
        if offs.size == 0:
            return 0
        return int(offs.max()) + self.base.upper_bound()

    def envelope(self) -> Envelope:
        return Envelope(C.COMBINER_VECTOR, 3, 0, 1)

    def contents(self) -> Contents:
        return Contents(
            (self.count, self.blocklength, self.stride), (), (self.base,)
        )

    def blocks(self) -> np.ndarray:
        return _offset_blocks(self.base, self._elem_offsets())

    def signature(self) -> Tuple:
        return (
            "vector",
            self.count,
            self.blocklength,
            self.stride,
            self.base.signature(),
        )

    def __repr__(self) -> str:
        return (
            f"VectorType({self.count}, {self.blocklength}, "
            f"{self.stride}, {self.base!r})"
        )


class IndexedType(TypeDescriptor):
    """``MPI_Type_indexed``: displacements in units of the base extent."""

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        base: TypeDescriptor,
    ):
        if len(blocklengths) != len(displacements):
            raise MpiError(
                "blocklengths and displacements differ in length",
                "MPI_ERR_ARG",
            )
        if any(b < 0 for b in blocklengths):
            raise MpiError("negative blocklength", "MPI_ERR_COUNT")
        self.blocklengths = tuple(int(b) for b in blocklengths)
        self.displacements = tuple(int(d) for d in displacements)
        self.base = base

    def size(self) -> int:
        return sum(self.blocklengths) * self.base.size()

    def _elem_offsets(self) -> np.ndarray:
        ext = self.base.extent()
        out: List[np.ndarray] = []
        for bl, disp in zip(self.blocklengths, self.displacements):
            out.append((disp + np.arange(bl, dtype=np.int64)) * ext)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    def lower_bound(self) -> int:
        offs = self._elem_offsets()
        if offs.size == 0:
            return 0
        return int(offs.min()) + self.base.lower_bound()

    def upper_bound(self) -> int:
        offs = self._elem_offsets()
        if offs.size == 0:
            return 0
        return int(offs.max()) + self.base.upper_bound()

    def envelope(self) -> Envelope:
        n = len(self.blocklengths)
        return Envelope(C.COMBINER_INDEXED, 1 + 2 * n, 0, 1)

    def contents(self) -> Contents:
        n = len(self.blocklengths)
        return Contents(
            (n,) + self.blocklengths + self.displacements, (), (self.base,)
        )

    def blocks(self) -> np.ndarray:
        return _offset_blocks(self.base, self._elem_offsets())

    def signature(self) -> Tuple:
        return (
            "indexed",
            self.blocklengths,
            self.displacements,
            self.base.signature(),
        )

    def __repr__(self) -> str:
        return (
            f"IndexedType({list(self.blocklengths)}, "
            f"{list(self.displacements)}, {self.base!r})"
        )


class StructType(TypeDescriptor):
    """``MPI_Type_create_struct``: byte displacements, per-block types."""

    def __init__(
        self,
        blocklengths: Sequence[int],
        byte_displacements: Sequence[int],
        bases: Sequence[TypeDescriptor],
    ):
        if not (len(blocklengths) == len(byte_displacements) == len(bases)):
            raise MpiError("struct argument arrays differ in length", "MPI_ERR_ARG")
        if any(b < 0 for b in blocklengths):
            raise MpiError("negative blocklength", "MPI_ERR_COUNT")
        self.blocklengths = tuple(int(b) for b in blocklengths)
        self.byte_displacements = tuple(int(d) for d in byte_displacements)
        self.bases = tuple(bases)

    def size(self) -> int:
        return sum(
            bl * b.size() for bl, b in zip(self.blocklengths, self.bases)
        )

    def lower_bound(self) -> int:
        lbs = [
            disp + b.lower_bound()
            for disp, b in zip(self.byte_displacements, self.bases)
        ]
        return min(lbs) if lbs else 0

    def upper_bound(self) -> int:
        ubs = [
            disp + (bl - 1) * b.extent() + b.upper_bound() if bl > 0 else disp
            for disp, bl, b in zip(
                self.byte_displacements, self.blocklengths, self.bases
            )
        ]
        return max(ubs) if ubs else 0

    def envelope(self) -> Envelope:
        n = len(self.blocklengths)
        return Envelope(C.COMBINER_STRUCT, 1 + n, n, n)

    def contents(self) -> Contents:
        n = len(self.blocklengths)
        return Contents(
            (n,) + self.blocklengths, self.byte_displacements, self.bases
        )

    def blocks(self) -> np.ndarray:
        parts: List[np.ndarray] = []
        for bl, disp, base in zip(
            self.blocklengths, self.byte_displacements, self.bases
        ):
            offs = disp + np.arange(bl, dtype=np.int64) * base.extent()
            parts.append(_offset_blocks(base, offs))
        if not parts:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(parts)

    def signature(self) -> Tuple:
        return (
            "struct",
            self.blocklengths,
            self.byte_displacements,
            tuple(b.signature() for b in self.bases),
        )

    def __repr__(self) -> str:
        return (
            f"StructType({list(self.blocklengths)}, "
            f"{list(self.byte_displacements)}, {list(self.bases)})"
        )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _offset_blocks(base: TypeDescriptor, elem_offsets: np.ndarray) -> np.ndarray:
    """Replicate a base type's block table at each element offset,
    merging adjacent blocks where possible (keeps pack index tables small
    for the common contiguous-over-basic case)."""
    base_blocks = base.blocks()
    if base_blocks.size == 0 or elem_offsets.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    offs = (elem_offsets[:, None] + base_blocks[None, :, 0]).reshape(-1)
    lens = np.broadcast_to(
        base_blocks[None, :, 1], (elem_offsets.size, base_blocks.shape[0])
    ).reshape(-1)
    blocks = np.stack([offs, lens], axis=1)
    return _merge_blocks(blocks)


def _merge_blocks(blocks: np.ndarray) -> np.ndarray:
    """Merge byte blocks that are exactly adjacent (in typemap order)."""
    if blocks.shape[0] <= 1:
        return blocks
    offs, lens = blocks[:, 0], blocks[:, 1]
    # A run starts wherever a block does not begin at its predecessor's end.
    starts = np.flatnonzero(
        np.concatenate(([True], offs[:-1] + lens[:-1] != offs[1:]))
    )
    return np.stack([offs[starts], np.add.reduceat(lens, starts)], axis=1)


def _as_bytes(buf: np.ndarray) -> np.ndarray:
    """Flat uint8 view of a (contiguous) numpy buffer."""
    arr = np.asarray(buf)
    if not arr.flags["C_CONTIGUOUS"]:
        raise MpiError("buffers must be C-contiguous", "MPI_ERR_BUFFER")
    return arr.view(np.uint8).reshape(-1)


def make_predefined_types() -> dict:
    """Fresh ``name -> NamedType`` table (one per library instance)."""
    return {
        name: NamedType(name, spec)
        for name, spec in C.PREDEFINED_DATATYPES.items()
    }


def descriptor_from_contents(
    combiner: str,
    integers: Sequence[int],
    addresses: Sequence[int],
    bases: Sequence[TypeDescriptor],
) -> TypeDescriptor:
    """Rebuild a descriptor from envelope/contents data.

    This is the exact operation MANA's restart replay performs after
    decoding a user datatype with get_envelope/get_contents.
    """
    if combiner == C.COMBINER_CONTIGUOUS:
        (count,) = integers
        return ContiguousType(count, bases[0])
    if combiner == C.COMBINER_VECTOR:
        count, blocklength, stride = integers
        return VectorType(count, blocklength, stride, bases[0])
    if combiner == C.COMBINER_INDEXED:
        n = integers[0]
        bls = tuple(integers[1 : 1 + n])
        disps = tuple(integers[1 + n : 1 + 2 * n])
        return IndexedType(bls, disps, bases[0])
    if combiner == C.COMBINER_STRUCT:
        n = integers[0]
        bls = tuple(integers[1 : 1 + n])
        return StructType(bls, tuple(addresses), tuple(bases))
    raise MpiError(f"cannot rebuild combiner {combiner}", "MPI_ERR_TYPE")
