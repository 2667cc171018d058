"""N-qubit Pauli-string operator algebra, its matrices and spectral norm.

Operators are complex-weighted sums of Pauli strings (tensor products of
I, X, Y, Z). Strings are stored in the symplectic encoding: a pair of
N-bit masks ``(x, z)`` with bit ``k`` describing site ``k``, and an
explicit power of ``i`` folded into the coefficient (Aaronson & Gottesman,
2004). Letters and masks convert in one place: :func:`_masks` encodes
``(site, letter)`` pairs and :func:`_pattern` decodes masks to a pattern
string, for every builder, lookup and printout. A string exists only as a
row of a sum: a sum holds its masks bit-packed, as ``(terms, ceil(N/64))``
uint64 word arrays sorted as ``(x, z)`` int tuples (as in Stim; Gidney,
2021), beside a complex128 weight array, and a single string is a sum of
one. Every consumer computes on these arrays; Python ints appear only
where strings are read out and in a row-block plan's key unions, and only
a plan's fill walks strings. Products and commutators run as one vectorized
kernel over all string pairs (:func:`_pair_terms`), which holds the one
product phase rule (:func:`_product_phase_exp`); :func:`multiply` ``(a,
b)`` is ``a @ b``. A product broadcasts blocks of one sum's rows against
the other sum, a commutator gathers the anticommuting pairs of a boolean
parity table, and a pair costs a few word operations, not O(4^N). Every
result is summed per string in sorted order, bit for bit as a
left-to-right Python loop over a dict of weights would sum it: the tests'
pair-product reference is such a loop, with a phase rule of its own.

A sum's matrix is one CSR matrix. Row ``i`` holds, for each distinct X
mask ``x`` in sorted order, the sum of the strings sharing ``x`` at
column ``i ^ x``, unless that sum is exactly zero: the stored entries are
the nonzero ones, and the memory guards count the upper bound of one
entry per row and X mask. A sum keeps one row-block plan, the one place
its X masks are grouped and its blocks sized (:meth:`PauliSum._layout`),
which the guards read before the first fill adds its sign vectors; one
kernel fills it a block of rows at a time (:meth:`PauliSum._row_blocks`).
A sum keeps one matrix (:meth:`PauliSum._operator`) for ``apply``,
``simulate``'s generators and :func:`spectral_norm`, real where every
weight is, with the complex matrix's bits (:meth:`PauliSum._csr_dtype`).
An expectation value builds no matrix: it adds each block's entries times
the state's entries ``i ^ x``, with the bits of the matvec. A real matrix
multiplies a complex state's real and imaginary parts apart
(:func:`_split`), and from ``_THREAD_ENTRIES`` entries on, with two usable
CPUs, the two parts run at once, the second on one kept worker thread
(:func:`_on_parts`). A norm of a sum whose X masks all have even
popcount, from ``_SECTOR_ENTRIES`` entries, runs instead on the two ∏Z
sector blocks of one build, at once on that thread likewise.

Conventions (fixed once, used everywhere):

* Site indices are 0-based internally; chain site ``k`` of a 1-based
  physics description maps to index ``k - 1``. Pattern strings are
  written with site 0 leftmost.
* In dense matrices and state vectors, site 0 is the least significant
  bit of the computational-basis index.
* ``PauliSum.frobenius_norm(normalized=True)`` uses the trace convention
  tr(1) = 1, i.e. sqrt(tr(A†A) / 2^N); the unnormalized variant carries
  the extra 2^(N/2).

Sums are canonical: one entry per string, coefficients below
``PRUNE_TOL`` (absolute) are dropped. All reductions iterate terms in
sorted mask order so repeated runs are bitwise deterministic.

From scipy the module imports only ``scipy.sparse``: the Lanczos Ritz step
runs on numpy's ``eigh``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import resource
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse

__all__ = [
    "PRUNE_TOL",
    "DEFAULT_DENSE_LIMIT",
    "ConvergenceError",
    "DenseLimitError",
    "PauliSum",
    "multiply",
    "commutator",
    "spectral_norm",
    "expm_hermitian",
]

# Coefficients below this magnitude are numerical noise at double precision.
PRUNE_TOL = 1e-14

# Qubit limit of the dense routines (to_dense, expm_hermitian, the unitaries).
DEFAULT_DENSE_LIMIT = 12

# letter -> (x bit, z bit), and back
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER_OF = {bits: letter for letter, bits in _BITS.items()}

_I_POW = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])  # i^0 .. i^3

# Bounds the row blocks' scratch: entries of their table of sums at a time, 16
# times a block's entries and 64 times its rows (an expectation's stay in cache).
_BLOCK_ENTRIES = 1 << 20

# String pairs per block of the pair kernel (:func:`_pair_terms`): its scratch, about
# 1 MB, stays in a 2 MiB L2 (2^14 was as fast; 2^15 slowed the pair lists 2x).
_PAIR_BLOCK = 1 << 13

# Bytes of Python and array objects a matrix build holds per string at most;
# its own take 16 times this.
_OBJECT_BYTES = 512

# Weights from which pruning tests max(|re|, |im|) before hypot: about where
# hypot's per-weight cost outgrows the fixed cost of the test's numpy calls.
_MAX_FIRST_WEIGHTS = 1024

# 2^n vectors the Lanczos norm holds besides the matrix: the current,
# previous and work vectors, and the two temporaries of an inner product.
_KRYLOV_VECTORS = 5

# Entries per part from which a split state's two parts run at once
# (:func:`_on_parts`); below it the handoff to the worker costs more than
# it saves. A 2-block Heisenberg simulate, with the parts overlapped at
# every size, went 16.2 -> 23.0 ms at n=12, 38.0 -> 38.1 ms at n=13 and
# 81.7 -> 66.7 ms at n=14 (medians of 20, 2-core x86-64, one BLAS thread).
_THREAD_ENTRIES = 1 << 14

# Entries a matrix may hold (one per row and X mask) from which a norm whose
# X masks all have even popcount runs one recurrence per ∏Z sector
# (:func:`spectral_norm`); below it two half recurrences cost more than one.
# Whole norms with their build, one recurrence -> two (medians of 15, 2-core
# x86-64, one BLAS thread): heis_da 13.1 -> 14.3 ms at n=12 (86,016 entries),
# 23.4 -> 21.1 ms at n=13 (188,416), 39.0 -> 33.1 ms at n=14 (409,600);
# heis_digital 6.8 -> 8.0 ms at n=13 (188,416), 13.0 -> 12.3 ms at n=14;
# xy2d_digital 5.4 -> 6.3 ms at 3x4 (172,032), 46.8 -> 34.9 ms at 3x5
# (1,966,080); xy2d_da 2.7 -> 4.5 ms at 2x6 (49,152), 31.1 -> 25.6 ms at 4x4
# (1,048,576).
_SECTOR_ENTRIES = 1 << 18

# Relative residual at which the Lanczos norm stops, and the steps after
# which it raises ConvergenceError.
_LANCZOS_TOL = 1e-8
_LANCZOS_MAX_ITER = 10_000

# β, relative to the largest tridiagonal entry, at which the Krylov space is
# taken as invariant (a breakdown) and the Ritz step runs at once. A β only
# below _LANCZOS_TOL may still leave a near-degenerate top value out.
_LANCZOS_BREAKDOWN = 1e-12


class ConvergenceError(RuntimeError):
    """Iterative norm estimation failed to converge within the budget."""


class DenseLimitError(ValueError):
    """A dense operation exceeds the qubit limit, or a sparse one memory."""


def _check_dense(n: int, what: str) -> None:
    if n > DEFAULT_DENSE_LIMIT:
        raise DenseLimitError(
            f"{what} needs a dense 2^{n} x 2^{n} matrix; "
            f"limit is {DEFAULT_DENSE_LIMIT} qubits (got {n})"
        )


def _check_memory(need: int, what: str) -> None:
    """Refuse, before allocating, to hold ``need`` bytes, more than usable memory.

    Usable memory is the least of physical memory, the soft address-space
    limit less the address space the process already maps
    (:func:`_mapped_bytes`), and the ``memory.max`` of the process's cgroup
    (:func:`_cgroup_memory`), each where it exists; a refusal names it.
    """
    limits = {"physical memory": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")}
    if (soft := resource.getrlimit(resource.RLIMIT_AS)[0]) != resource.RLIM_INFINITY:
        limits["the address-space limit, less what is mapped,"] = soft - _mapped_bytes()
    if (cgroup := _cgroup_memory()) is not None:
        limits["the cgroup memory limit"] = cgroup
    name, have = min(limits.items(), key=lambda item: item[1])
    if need > have:
        raise DenseLimitError(f"{what} needs about {need / 2**30:.3g} GiB; {name} is {have / 2**30:.3g} GiB")


# The process's memory sizes in pages, its whole mapped address space first.
_STATM = Path("/proc/self/statm")


def _mapped_bytes() -> int:
    """The address space the process maps now, in bytes; 0 where ``_STATM`` cannot be read."""
    try:
        return int(_STATM.read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


# Where the process's cgroup (v2) is named, and the root its path is under.
_CGROUP_FILES = (Path("/proc/self/cgroup"), Path("/sys/fs/cgroup"))


@functools.cache
def _cgroup_memory() -> int | None:
    """The process's cgroup (v2) ``memory.max`` in bytes, read once; None where it has none, or it reads ``max``."""
    own, root = _CGROUP_FILES
    try:
        path = next(line[3:] for line in own.read_text().splitlines() if line.startswith("0::"))
        limit = (root / path.lstrip("/") / "memory.max").read_text().strip()
    except (OSError, StopIteration):
        return None
    return int(limit) if limit.isdigit() else None


def _index_dtype(entries: int) -> type:
    """CSR index type: int32 while every index and row offset fits it."""
    return np.int32 if entries < 2**31 else np.int64


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of ``(..., W)`` mask words, as int64.

    The word counts are added one word at a time onto the total, which a
    reduction over the short last axis does several times slower.
    """
    counts = np.bitwise_count(words)
    total = counts[..., 0].astype(np.int64)
    for k in range(1, counts.shape[-1]):
        total += counts[..., k]
    return total


def _masks(pairs: Iterable[tuple[int, str]]) -> tuple[int, int]:
    """The one encoder: ``(x, z)`` masks with each ``(site, letter)`` pair's letter on its 0-based site."""
    x = z = 0
    for site, letter in pairs:
        if letter not in _BITS:
            raise ValueError(f"invalid Pauli letter {letter!r}")
        x, z = x | _BITS[letter][0] << site, z | _BITS[letter][1] << site
    return x, z


def _pattern(n: int, x: int, z: int) -> str:
    """The one decoder: the letters of masks ``(x, z)`` on ``n`` sites, site 0 leftmost."""
    return "".join(_LETTER_OF[(x >> k) & 1, (z >> k) & 1] for k in range(n))


def _product_phase_exp(z1, x2, ys, product):
    """Power of i picked up when composing two symplectic-encoded strings: the one phase rule.

    On ``(pairs, W)`` mask-word arrays, one int64 exponent per pair, from the
    first string's z words, the second's x words, the two strings' Y counts
    ``ys`` (``_popcount(x & z)`` of each) and the ``product`` words ``(x1 ^
    x2, z1 ^ z2)``.
    """
    (y1, y2), (x, z) = ys, product
    return (y1 + y2 + 2 * _popcount(z1 & x2) - _popcount(x & z)) & 3


def _clash_parity(x1, z1, x2, z2):
    """Per mask word, 1 where two strings clash at an odd count of its sites, else 0.

    The clashes are the sites of ``x1 & z2`` and of ``z1 & x2``; the parity
    of their total count is that of the one popcount of their XOR. Two
    strings anticommute when the XOR of their words' parities is 1.
    """
    return np.bitwise_count((x1 & z2) ^ (z1 & x2)) & 1


class _RowPlan(NamedTuple):
    """A sum's matrix by blocks of rows ``i = hi * 2^h + lo``, ``h = n // 2`` (:meth:`PauliSum._layout`); arrays read-only."""

    xs: np.ndarray  # the sorted distinct X masks: their first mask word, at _index_dtype
    starts: list[int]  # each X mask's first string, then the string count
    unions: list[int]  # per X mask, the union u of its strings' z masks' low h bits
    keys: list[int]  # per X mask, its count of keys lo & u, one table column each
    step: int  # hi values a table holds: about _BLOCK_ENTRIES entries
    rows: int  # hi values a laid-out block holds, at most step: at most a 64th as many rows, about a 16th as many entries
    weights: np.ndarray  # each string's matrix weight a = c i^-|x&z|
    kept: int  # bytes the plan holds with its sign vectors, _OBJECT_BYTES per string and 16 times that for objects
    hi: np.ndarray | None = None  # from the first fill on, as int8: each string's (-1)^|hi & z >> h|
    key_signs: tuple[np.ndarray, ...] = ()  # per X mask, its strings' (-1)^|key & z| over its keys
    columns: np.ndarray | None = None  # per lo and X mask, its table column


class PauliSum:
    """Canonical complex-weighted sum of Pauli strings on ``n`` sites.

    Treat instances as immutable: every operation returns a new sum.
    Construction rejects masks outside ``[0, 2^n)``, merges duplicate
    strings and prunes coefficients with magnitude below ``PRUNE_TOL``.
    Sums are hashable, and equal sums hash equal, so a sum can key a dict.
    """

    __slots__ = ("n", "_x", "_z", "_c", "_matrix", "_plan")

    def __init__(self, n: int, terms: Mapping[tuple[int, int], complex] | None = None):
        if n < 1:
            raise ValueError("need at least one site")
        keys = sorted(terms) if terms else []
        if any((x | z) >> n for x, z in keys):  # nonzero for negative masks too
            raise ValueError("mask bits outside the registered site range")
        w = -(-n // 64)
        x, z = _mask_words([int(x) for x, _ in keys], w), _mask_words([int(z) for _, z in keys], w)
        self._set(n, x, z, np.array([complex(terms[k]) for k in keys], dtype=complex))

    def _set(self, n: int, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> None:
        """The one canonicalizer: hold sorted distinct keys, refuse non-finite weights, prune."""
        self.n, (self._x, self._z, self._c), self._matrix, self._plan = n, _pruned(x, z, c), None, None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_pattern(cls, pattern: str, coeff: complex = 1.0) -> "PauliSum":
        """One string, the letters of ``pattern`` with site 0 leftmost."""
        return cls(len(pattern), {_masks(enumerate(pattern)): coeff})

    @classmethod
    def from_sites(
        cls, n: int, sites: Mapping[int, str], coeff: complex = 1.0
    ) -> "PauliSum":
        """One string, identity except at the given 0-based sites; the site range is checked first."""
        for k in sites:
            if not 0 <= k < n:
                raise ValueError(f"site {k} outside range 0..{n - 1}")
        return cls(n, {_masks(sites.items()): coeff})

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def _keyed(self) -> Iterator[tuple[int, int, complex]]:
        """``(x, z, c)`` per string, as Python ints and complex, in key order."""
        return zip(_mask_ints(self._x), _mask_ints(self._z), self._c.tolist())

    def num_terms(self) -> int:
        return len(self._c)

    def is_zero(self) -> bool:
        return not len(self._c)

    def is_hermitian(self) -> bool:
        # Pure Pauli strings are Hermitian, so Hermiticity means real weights.
        return bool((np.abs(self._c.imag) <= 1e-12).all())

    def dagger(self) -> "PauliSum":
        return _from_sorted(self.n, self._x, self._z, self._c.conj())

    def __len__(self) -> int:
        return len(self._c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        pairs = zip((self._x, self._z, self._c), (other._x, other._z, other._c))
        return self.n == other.n and all(np.array_equal(p, q) for p, q in pairs)

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which == does not tell apart
        return hash((self.n, self._x.tobytes(), self._z.tobytes(), (self._c + 0.0).tobytes()))

    def allclose(self, other: "PauliSum", tol: float = 1e-12) -> bool:
        if self.n != other.n:
            return False
        return bool((np.abs(_merged(self, other, -other._c)[2]) <= tol).all())

    def __repr__(self) -> str:
        head = itertools.islice(self._keyed(), 6)
        body = " + ".join(f"({c:.6g})*{_pattern(self.n, x, z)}" for x, z, c in head)
        more = "" if len(self) <= 6 else f" + ... [{len(self)} terms]"
        return f"PauliSum(n={self.n}: {body or '0'}{more})"

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def _require_same_size(self, other: "PauliSum") -> None:
        if self.n != other.n:
            raise ValueError(f"site count mismatch: {self.n} != {other.n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return _from_sorted(self.n, *_merged(self, other, other._c))

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return _from_sorted(self.n, *_merged(self, other, -other._c))

    def __neg__(self) -> "PauliSum":
        return _from_sorted(self.n, self._x, self._z, -self._c)

    def __mul__(self, scalar: complex) -> "PauliSum":
        """Each weight times ``scalar``, by :func:`_times`."""
        s = complex(scalar)
        c = np.empty_like(self._c)
        with np.errstate(over="ignore", invalid="ignore"):
            c.real, c.imag = _times(self._c.real, self._c.imag, s.real, s.imag)
        return _from_sorted(self.n, self._x, self._z, c)

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product, canonicalized (:func:`_pair_terms`, :func:`_summed`)."""
        return _from_sorted(self.n, *_summed(*_pair_terms(self, other)))

    # ------------------------------------------------------------------
    # numerical backends
    # ------------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        _check_dense(self.n, "to_dense")
        return self.to_sparse().toarray()

    def to_sparse(self) -> scipy.sparse.csr_matrix:
        """A new CSR matrix of the sum, which the caller may scale in place."""
        return self._build_csr()

    def _csr_dtype(self) -> type:
        """``float`` when each string's matrix weight (:class:`_RowPlan`) is exactly real, else ``complex``."""
        return complex if self._layout().weights.imag.any() else float

    def _layout(self, signs: bool = False) -> _RowPlan:
        """The sum's one row-block plan, kept once made; its sign vectors only with ``signs``, a fill's, after the guards."""
        plan, n, h = self._plan, self.n, self.n // 2
        if plan is None:  # from the mask words alone, with nothing of size 2^(n/2): the guards read this
            starts = np.flatnonzero(np.concatenate(([len(self) > 0], (self._x[1:] != self._x[:-1]).any(axis=1))))
            low = self._z & _mask_words([(1 << h) - 1], self._z.shape[1])
            unions = _mask_ints(np.bitwise_or.reduceat(low, starts)) if len(starts) else []
            keys = [1 << u.bit_count() for u in unions]
            step = min((1 << n) >> h, max(1, _BLOCK_ENTRIES // max(sum(keys), 1)))
            rows = min(step, max(1, (_BLOCK_ENTRIES >> 4) // (max(len(keys), 4) << h)))
            xs = self._x[starts, 0].astype(_index_dtype(len(keys) << n))
            # i^e has parts 0 and ±1, so one complex multiply by it rounds nothing
            weights = self._c * np.take(_I_POW, -_popcount(self._x & self._z) & 3)
            kept = len(self) * (((1 << n) >> h) + max(keys, default=0)) + (xs.itemsize * len(keys) << h)  # signs, columns
            kept += _OBJECT_BYTES * (len(self) + 16)  # Python and array objects
            xs.flags.writeable = weights.flags.writeable = False
            plan = _RowPlan(xs, [*starts.tolist(), len(self)], unions, keys, step, rows, weights, kept)
        if signs and plan.hi is None:
            zs, los = self._z[:, 0].astype(plan.xs.dtype), np.arange(1 << h, dtype=plan.xs.dtype)
            hi = _parity_signs(np.arange((1 << n) >> h, dtype=plan.xs.dtype), zs[:, None] >> h)
            columns, key_signs = np.empty((1 << h, len(plan.xs)), dtype=plan.xs.dtype), []
            offsets = itertools.accumulate(plan.keys, initial=0)
            for k, ((s0, s1), u, offset) in enumerate(zip(itertools.pairwise(plan.starts), plan.unions, offsets)):
                key = los & u
                keys = los[key == los]  # the distinct keys, ascending
                columns[:, k] = offset + np.searchsorted(keys, key)
                key_signs.append(_parity_signs(keys, zs[s0:s1, None]))
            for a in (hi, columns, *key_signs):
                a.flags.writeable = False
            plan = plan._replace(hi=hi, key_signs=tuple(key_signs), columns=columns)
        self._plan = plan
        return plan

    def _matrix_bytes(self, dtype: type = complex, parts: int = 1) -> int:
        """Bytes of the CSR matrix, or its ``parts`` blocks, at most: per row and X mask a weight and an index, and ``2^n + parts`` row pointers."""
        xs = self._layout().xs  # the index type is its dtype
        return (len(xs) << self.n) * (np.dtype(dtype).itemsize + xs.itemsize) + xs.itemsize * ((1 << self.n) + parts)

    def _build_scratch_bytes(self) -> int:
        """Bytes :meth:`_build_csr` holds at most besides its matrix: the row blocks and what it makes of them."""
        index = self._layout().xs.itemsize
        return self._row_block_bytes(1 + 16 + index, index + 8)  # per entry: flag, position, row, column; per row: index, count

    def _expectation_bytes(self) -> int:
        """Bytes :meth:`expectation` holds at most: h|state>, :func:`_vdot`'s two temporaries, the row blocks."""
        return (48 << self.n) + self._row_block_bytes(0, 64)  # a block row: two indices, an amplitude, products

    def _row_block_bytes(self, entry: int, row: int) -> int:
        """Bytes :meth:`_row_blocks` holds at most, and ``entry`` and ``row`` more per entry and row of a block.

        The plan; per string its hi signs over a table as floats and weights over the keys; the columns as ``take``
        indexes by them; the table and one outer product into it; a block's entries, at :meth:`_csr_dtype`.
        """
        plan, item, h = self._layout(), np.dtype(self._csr_dtype()).itemsize, self.n // 2
        masks, most, laid = len(plan.xs), max(plan.keys, default=0), plan.rows << h
        return (
            plan.kept + len(self) * (8 * plan.step + item * most) + (8 * masks << h)
            + item * (plan.step * (sum(plan.keys) + most) + laid * masks) + (entry * masks + row) * laid
        )

    def _row_blocks(self, dtype: type) -> tuple[np.ndarray, Iterator[tuple[int, np.ndarray]]]:
        """The sorted X masks ``xs``, and the matrix entries by blocks of rows ``(i0, vals)``: the plan filled at ``dtype``.

        ``vals[r, m]``, at ``(i0 + r, (i0 + r) ^ xs[m])``, sums from 0, in sorted z order, ``a (-1)^|i&z| = a
        (-1)^|hi & z >> h| (-1)^|key & z|`` over the strings sharing X mask ``xs[m]`` (:class:`_RowPlan`); ``float``
        keeps real parts. A table of ``step`` hi values holds each sum once, as outer products of each string's hi
        signs and weights over the keys (``a`` times ±1, exact); one ``take`` by key lays ``rows`` of them out.
        """
        plan = self._layout(signs=True)
        h, dim, masks = self.n // 2, 1 << self.n, len(plan.xs)
        a, offsets = plan.weights.real if dtype is float else plan.weights, [*itertools.accumulate(plan.keys, initial=0)]
        groups = zip(itertools.pairwise(plan.starts), itertools.pairwise(offsets), plan.key_signs)
        # per string: its table columns and its weights over the keys
        terms = [(slice(*part), a_key) for (s0, s1), part, signs in groups for a_key in a[s0:s1, None] * signs]

        def blocks() -> Iterator[tuple[int, np.ndarray]]:
            step, rows, columns = plan.step, plan.rows, plan.columns.astype(np.intp, copy=False)
            buffer = np.empty((step, offsets[-1]), dtype=dtype)
            for h0 in range(0, dim >> h, step):
                table = buffer[: (dim >> h) - h0]
                table[...] = 0.0
                for (part, a_key), s_hi in zip(terms, plan.hi[:, h0 : h0 + step].astype(float)):
                    table[:, part] += np.multiply.outer(s_hi, a_key)
                for r0 in range(0, len(table), rows):
                    count = min(rows, len(table) - r0) << h
                    yield (h0 + r0) << h, np.take(table[r0 : r0 + rows], columns, axis=1).reshape(count, masks)

        return plan.xs, blocks()

    def _build_csr(
        self, dtype: type = complex, sectors: bool = False
    ) -> scipy.sparse.csr_matrix | tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
        """CSR matrix of the nonzero entries of :meth:`_row_blocks`; ``dtype=float`` keeps real parts.

        Each block's entries go in row order to arrays sized for every X
        mask, trimmed at the end, unless exactly zero: a ±0 term never
        changes a sum, so a matvec or ``toarray`` gives the same bits as with
        every mask stored. With ``sectors``, for a sum whose X masks all have
        even popcount, the same pass lays out instead the pair of ∏Z blocks:
        row ``i`` of Z parity ``p`` goes to block ``p`` at row ``i >> 1``, its
        entries at columns ``(i ^ x) >> 1`` in the same mask order, so a block
        row sums with the bits of the whole matrix's row. Raises
        :class:`DenseLimitError` first if the upper bound,
        :meth:`_matrix_bytes`, exceeds usable memory (:func:`_check_memory`).
        """
        parts = 1 + sectors
        _check_memory(self._matrix_bytes(dtype, parts), "sparse matrix")
        xs, blocks = self._row_blocks(dtype)
        dim, masks = (1 << self.n) // parts, len(xs)
        # per part its data, its indices and its entries per row, summed at the end
        outs = [
            (np.empty(masks * dim, dtype=dtype), np.empty(masks * dim, dtype=xs.dtype), np.zeros(dim + 1, dtype=xs.dtype))
            for _ in range(parts)
        ]
        ends = [0] * parts
        for i0, vals in blocks:
            r0, count = i0 // parts, len(vals) // parts  # i0 and len(vals) are even with sectors
            for p, (data, indices, indptr) in enumerate(outs):
                rows = _sector_rows(r0, count, p, xs.dtype) if sectors else np.arange(i0, i0 + count, dtype=xs.dtype)
                part = np.take(vals, rows - i0, axis=0) if sectors else vals
                kept = np.flatnonzero(part != 0)
                stop = ends[p] + len(kept)
                cols = rows[:, None] ^ xs
                if sectors:
                    cols >>= 1
                # mode="clip" takes straight into ``out``; every index is in range
                np.take(part, kept, out=data[ends[p] : stop], mode="clip")
                np.take(cols, kept, out=indices[ends[p] : stop], mode="clip")
                indptr[r0 + 1 : r0 + 1 + count] = np.bincount(kept // masks, minlength=count)
                ends[p] = stop
                del rows, part, kept, cols  # before the next part's are made
            del vals  # before the next block's are made
        matrices = []
        for (data, indices, indptr), end in zip(outs, ends):
            data.resize(end, refcheck=False)
            indices.resize(end, refcheck=False)
            np.cumsum(indptr, out=indptr)
            matrices.append(scipy.sparse.csr_matrix((data, indices, indptr), shape=(dim, dim)))
        return tuple(matrices) if sectors else matrices[0]

    def _operator(self) -> scipy.sparse.csr_matrix:
        """The sum's one matrix for :meth:`apply` and norms, kept once :meth:`_build_csr` builds it."""
        if self._matrix is None:
            self._matrix = self._build_csr(self._csr_dtype())
        return self._matrix

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Matvec by the kept matrix (:meth:`_operator`), as a complex128 state.

        A real matrix multiplies the state's real and imaginary parts apart
        (:func:`_split`): the complex matvec adds ``a x_re - 0 x_im`` and
        ``a x_im + 0 x_re`` to 0, the same bits.
        """
        v = self._checked_state(state)
        m = self._operator()
        return _joined(_on_parts(m.__matmul__, _split(m, v)))

    def expectation(self, state: np.ndarray) -> complex:
        """<state|h|state>, by :func:`_vdot`, with the bits of ``apply``; it builds and reads no matrix.

        Per block of :meth:`_row_blocks` at :meth:`_csr_dtype` and per X mask
        ``x`` in sorted order, the block's entries multiply the state's
        entries ``i ^ x`` (gathered unless ``x = 0``; complex entries by
        :func:`_times`, as scipy's CSR product rounds); the products add to
        0.0 per part, as in a CSR row.
        """
        v = self._checked_state(state)
        hv, (xs, blocks) = np.zeros_like(v), self._row_blocks(self._csr_dtype())
        for i0, vals in blocks:
            rows, idx = slice(i0, i0 + len(vals)), np.arange(i0, i0 + len(vals))
            for x, w in zip(xs.tolist(), vals.T):
                u = v[rows] if x == 0 else np.take(v, idx ^ x)
                re, im = (w * u.real, w * u.imag) if w.dtype == float else _times(w.real, w.imag, u.real, u.imag)
                hv.real[rows] += re
                hv.imag[rows] += im
            vals = w = None  # the block and a view of it go before the next block is made
        return _vdot(state, hv)

    def _checked_state(self, state: np.ndarray) -> np.ndarray:
        """``state`` as complex128; ``ValueError``, before any matrix is built, unless it has 2^n amplitudes."""
        state = np.asarray(state, dtype=complex)
        if state.shape != (1 << self.n,):
            raise ValueError(
                f"state has {state.shape} amplitudes; expected {(1 << self.n,)}"
            )
        return state

    def frobenius_norm(self, normalized: bool = True) -> float:
        """sqrt of the summed squared weights, via Pauli-string orthogonality.

        The zero sum has norm 0.0 on any number of sites. A squared weight,
        their sum or the unnormalized scale ``2^(n/2)`` that overflows float64
        raises ``ValueError``.
        """
        if self.is_zero():
            return 0.0
        try:
            s = math.sqrt(_left_sum(abs(c) ** 2 for c in self._c.tolist()))
            s = s if normalized else s * 2 ** (self.n / 2)
        except OverflowError:
            s = math.inf
        if not math.isfinite(s):
            raise ValueError(f"Frobenius norm overflows float64 on {self.n} sites")
        return s

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        rows = sorted((_pattern(self.n, x, z), c.real, c.imag) for x, z, c in self._keyed())
        return {
            "n": self.n,
            "terms": [{"p": p, "re": re, "im": im} for p, re, im in rows],
        }


def _left_sum(values: Iterable[float]) -> float:
    """Floats added left to right from 0.0: the builtin ``sum`` before Python 3.12 (which compensates)."""
    return functools.reduce(operator.add, values, 0.0)


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> as a numpy sum: a threaded BLAS dot's last digits follow the thread count.

    A real ``a`` is used as it is (its ``conj()`` returns it), with no copy.
    """
    return complex(np.sum(a.conj() * b))


def _split(m, v: np.ndarray) -> list[np.ndarray]:
    """What a kept matrix ``m`` multiplies for a complex ``v``: ``v``, or its parts if ``m`` is real."""
    return [v] if m.dtype == complex else [v.real.copy(), v.imag.copy()]


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The complex vector of :func:`_split` ``parts``."""
    if len(parts) == 1:
        return parts[0]
    out = np.empty(len(parts[0]), dtype=complex)
    out.real, out.imag = parts
    return out


def _on_parts(f, *parts: list[np.ndarray]) -> list[np.ndarray]:
    """``f`` of each part of split states (:func:`_split`), in order: ``[f(*a) for a in zip(*parts)]``.

    Two parts of at least ``_THREAD_ENTRIES`` entries run at once
    (:func:`_at_once`). A part's arithmetic reads nothing of the other's,
    so the bits are the same either way.
    """
    if len(parts[0]) == 2 and len(parts[0][1]) >= _THREAD_ENTRIES:
        return _at_once(f, *parts)
    return [f(*a) for a in zip(*parts)]


def _at_once(f, *parts: Sequence) -> list:
    """``[f(*a) for a in zip(*parts)]`` of two parts, the second on ``_WORKER`` when two CPUs are usable.

    ``f`` must hold no state that the two calls share. No task outlives
    the call, and an error is raised as the serial loop raises it: the
    first part's, else the second's.
    """
    if not _two_cpus():
        return [f(*a) for a in zip(*parts)]
    later = _WORKER.submit(f, *(p[1] for p in parts))
    try:
        first = f(*(p[0] for p in parts))
    except BaseException:
        later.exception()  # waits for the second part, whose error is dropped
        raise
    return [first, later.result()]


def _two_cpus() -> bool:
    """Whether the process may run on two CPUs at once (its affinity, where the OS has one)."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return len(cpus) >= 2


_WORKER: ThreadPoolExecutor  # made by _make_worker, below


def _make_worker() -> None:
    """Make ``_WORKER``, the process's one worker thread for :func:`_on_parts`.

    The executor starts its thread at its first task. A forked child
    inherits the executor but not the thread, so it makes its own.
    """
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="crda-part")


_make_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_make_worker)


def _sector_rows(r0: int, count: int, p: int, dtype: type) -> np.ndarray:
    """The rows ``i`` of Z parity ``p`` whose ∏Z block rows ``i >> 1`` run from ``r0`` for ``count``: bit 0 completes the parity."""
    r = np.arange(r0, r0 + count, dtype=dtype)
    return (r << 1) | ((np.bitwise_count(r) & 1) ^ p)


def _parity_signs(idx: np.ndarray, z: int | np.ndarray) -> np.ndarray:
    """(-1)^popcount(idx & z) as an int8 array, broadcast over indices and z masks."""
    return np.where(np.bitwise_count(idx & z) & 1, np.int8(-1), np.int8(1))


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def _mask_words(masks: Sequence[int], w: int) -> np.ndarray:
    """``(len(masks), w)`` uint64 array; word ``k`` holds bits 64k to 64k + 63."""
    raw = b"".join(m.to_bytes(8 * w, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), w)


def _mask_ints(words: np.ndarray) -> list[int]:
    """Inverse of :func:`_mask_words`."""
    out = words[:, 0].tolist()
    for k in range(1, words.shape[1]):
        out = [lo | hi << 64 * k for lo, hi in zip(out, words[:, k].tolist())]
    return out


def _times(ar, ai, br, bi):
    """Real and imaginary parts of ``(ar + i ai)(br + i bi)``, as CPython forms them."""
    return ar * br - ai * bi, ar * bi + ai * br


def _anticommuting_pairs(a: PauliSum, b: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Term indices ``(i, j)`` in ``a`` and ``b`` of the anticommuting string pairs, in a-major order.

    The ``(len(a), len(b))`` parity table is the XOR of each mask word's
    clash parities, a block of ``a``'s rows at a time, as in :func:`_pair_terms`.
    Refused before the table and the indices (25 B a pair) outgrow memory.
    """
    a._require_same_size(b)
    _check_memory(25 * len(a) * len(b), "anticommuting pair table")
    odd, rows = np.zeros((len(a), len(b)), dtype=bool), max(1, _PAIR_BLOCK // max(len(b), 1))
    for i, k in itertools.product(range(0, len(a), rows), range(a._x.shape[1])):
        block = np.s_[i : i + rows, k, None]
        odd[i : i + rows] ^= _clash_parity(a._x[block], a._z[block], b._x[:, k], b._z[:, k]).view(bool)
    return np.divmod(np.flatnonzero(odd), len(b))


def _pair_terms(a: PauliSum, b: PauliSum, pairs: tuple[np.ndarray, np.ndarray] | None = None):
    """Unsummed string products ``PQ``, in a-major pair order, as ``(x, z, c)``.

    Of every pair, a block of ``a``'s rows against all of ``b`` at a time; or
    of the ``pairs`` ``(i, j)`` of term indices (:func:`_anticommuting_pairs`),
    a chunk gathered at a time. A block of about ``_PAIR_BLOCK`` pairs writes
    its ``(pairs, W)`` mask words and weights ``c1 * c2 * i^e`` (:func:`_times`,
    then :func:`_product_phase_exp` of those words) into the output; ``i^e``
    has parts 0 and ±1, so one complex multiply by it rounds nothing.
    Refused before the output and its sum (48 (W + 1) B a pair) outgrow memory.
    """
    a._require_same_size(b)
    w, rows = a._x.shape[1], max(1, _PAIR_BLOCK // max(len(b), 1))
    if pairs is None:  # a's arrays down a block's rows, b's across its columns
        shape, pick = (len(a), len(b)), operator.getitem
        blocks = ((np.s_[k : k + rows, None], np.s_[:], np.s_[k : k + rows]) for k in range(0, len(a), rows))
    else:  # np.take gathers rows several times faster than fancy indexing does
        shape, pick = (len(pairs[0]),), functools.partial(np.take, axis=0)
        steps = (np.s_[k : k + _PAIR_BLOCK] for k in range(0, shape[0], _PAIR_BLOCK))
        blocks = ((pairs[0][s], pairs[1][s], s) for s in steps)
    _check_memory(48 * (w + 1) * math.prod(shape), "Pauli product")
    ya, yb = (_popcount(h._x & h._z) for h in (a, b))
    x, z, c = np.empty((*shape, w), np.uint64), np.empty((*shape, w), np.uint64), np.empty(shape, complex)
    for i, j, out in blocks:
        x1, z1, y1, c1 = (pick(v, i) for v in (a._x, a._z, ya, a._c))
        x2, z2, y2, c2 = (pick(v, j) for v in (b._x, b._z, yb, b._c))
        product = np.bitwise_xor(x1, x2, out=x[out]), np.bitwise_xor(z1, z2, out=z[out])
        e = _product_phase_exp(z1, x2, (y1, y2), product)
        pc = c[out]
        with np.errstate(over="ignore", invalid="ignore"):
            pc.real, pc.imag = _times(c1.real, c1.imag, c2.real, c2.imag)
            pc *= np.take(_I_POW, e)
    return x.reshape(-1, w), z.reshape(-1, w), c.reshape(-1)


def _grouped(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The one key-grouping step: ``(order, first)`` of ``(terms, W)`` keys.

    ``order`` sorts the keys as ``(x, z)`` int tuples, stably; ``first`` marks
    the first of each run of equal keys in that order, or is None when every
    key is its own run. One sort of the most significant x word comes first:
    where the word fits beside the key index in 64 bits, a value sort of the
    two, twice as fast as ``argsort``. When no two keys share that word, the
    order it gives is the only one; otherwise a stable ``lexsort`` of every
    word sets the order.
    """
    top, shift = x[:, -1], len(x).bit_length()
    if int(top.max(initial=0)) >> (64 - shift) == 0:
        top = top << shift
        top |= np.arange(len(x), dtype=np.uint64)
        top.sort()
        order = (top & (1 << shift) - 1).view(np.int64)
        top >>= shift
    else:
        order = np.argsort(top)
        top = np.take(top, order)
    if (top[1:] != top[:-1]).all():
        return order, None
    keys = np.concatenate((z, x), axis=1)  # lexsort's last key is its primary
    order = np.lexsort(keys.T)
    keys = keys[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.logical_or.reduce(keys[1:] != keys[:-1], axis=1, out=first[1:])
    return order, first


def _summed(x: np.ndarray, z: np.ndarray, c: np.ndarray, start: np.ndarray | None = None):
    """Weights summed per distinct key, as ``(x, z, c)`` in key order.

    ``np.add.at`` adds them one by one, in input order, onto 0.0, as
    ``acc.get(key, 0.0) + c`` would; or onto ``start`` at each key's first
    input. Distinct keys' weights get that one addition in one pass.
    """
    order, first = _grouped(x, z)
    if first is None:
        keys, sums = order, np.take(c, order)
        sums += 0.0 if start is None else np.take(start, order)
    else:
        keys = order[first]
        sums = np.zeros(len(keys), dtype=complex) if start is None else start[keys]
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(sums, np.add.accumulate(first, dtype=np.intp) - 1, c[order])
    return np.take(x, keys, axis=0), np.take(z, keys, axis=0), sums


def _merged(a: PauliSum, b: PauliSum, cb: np.ndarray):
    """``a + b`` with ``cb`` for ``b``'s weights, as ``(x, z, c)``, key by key as a dict adds.

    A key only in ``a`` keeps its weight: its sum starts from -0.0, the
    additive identity. Any other gets ``(a's weight or 0.0) + cb``.
    """
    a._require_same_size(b)
    start = np.zeros(len(a) + len(b), dtype=complex)
    start[: len(a)] = complex(-0.0, -0.0)
    x, z = np.concatenate((a._x, b._x)), np.concatenate((a._z, b._z))
    return _summed(x, z, np.concatenate((a._c, cb)), start)


class _FoldPlan:
    """``sums[0] * scalars[0] + sums[1] * scalars[1] + ...`` for fixed sums and any scalars.

    Calling the plan gives, bit for bit, the loop ``out = out + scalar * h``
    from the zero sum. The keys are grouped once, when the plan is built:
    ``x``, ``z`` hold the union of the sums' keys, and the terms are laid out
    by bucket, bucket ``k`` holding each key's ``k``-th term in sum order, in
    key order. ``c`` and ``piece`` hold each term's weight and sum index, and
    ``buckets`` each bucket's slice of the terms and the union indices of its
    keys. The arrays are read-only, so threads may share a plan.
    """

    __slots__ = ("n", "x", "z", "c", "piece", "buckets")

    def __init__(self, n: int, sums: Sequence[PauliSum]):
        for h in sums:
            if h.n != n:
                raise ValueError(f"site count mismatch: {n} != {h.n}")
        sums = list(sums) or [PauliSum(n)]  # no sums: one with no terms
        x, z = np.concatenate([h._x for h in sums]), np.concatenate([h._z for h in sums])
        order, first = _grouped(x, z)
        first = np.ones(len(order), dtype=bool) if first is None else first
        group = np.add.accumulate(first, dtype=np.intp) - 1
        rank = np.arange(len(order)) - np.flatnonzero(first)[group]
        by_rank = np.argsort(rank, kind="stable")
        terms, group = order[by_rank], group[by_rank]
        ends = np.cumsum(np.bincount(rank)).tolist()
        keys = order[first]
        self.n, self.x, self.z = n, x[keys], z[keys]
        self.c = np.concatenate([h._c for h in sums])[terms]
        self.piece = np.repeat(np.arange(len(sums)), [len(h) for h in sums])[terms]
        self.buckets = tuple(
            (slice(start, end), group[start:end])
            for start, end in zip([0] + ends, ends)
        )
        for a in (self.x, self.z, self.c, self.piece):
            a.flags.writeable = False

    def __call__(self, scalars: Sequence[float]) -> PauliSum:
        """The weighted sum for one scalar per sum.

        Every weight is scaled by :func:`_times`, as ``*`` scales it. A
        non-finite scaled weight raises ``ValueError``; a scaled weight that
        ``*`` would prune becomes +0.0 and stays in the fold. Each key's
        running weight starts at +0.0 and adds its scaled weights bucket by
        bucket; one that a step takes to or below ``PRUNE_TOL`` restarts from
        +0.0, as ``+`` drops the key. Adding +0.0 never changes a running
        weight, which is never -0.0 (x + -x is +0.0), so the pruned weights
        leave the bits as they are. :func:`_from_sorted` prunes the zeros
        left and refuses a running weight that overflowed: the scaled weights
        are finite, so it stays non-finite to the end.
        """
        c, s = np.empty_like(self.c), np.asarray(scalars, dtype=float)[self.piece]
        with np.errstate(over="ignore", invalid="ignore"):
            c.real, c.imag = _times(self.c.real, self.c.imag, s, 0.0)
        if not np.isfinite(c).all():
            raise ValueError("coefficient must be finite")
        c[np.hypot(c.real, c.imag) <= PRUNE_TOL] = 0.0
        acc = np.zeros(len(self.x), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for terms, keys in self.buckets:
                v = acc[keys] + c[terms]
                v[np.hypot(v.real, v.imag) <= PRUNE_TOL] = 0.0
                acc[keys] = v
        return _from_sorted(self.n, self.x, self.z, acc)


def _from_rows(n: int, rows: Sequence[tuple[int, int, complex]]) -> PauliSum:
    """Sum of ``(x, z, coeff)`` rows of int masks; equal strings add up in row order, from 0.0."""
    w = -(-n // 64)
    xs, zs, cs = zip(*rows) if rows else ((), (), ())
    return _from_sorted(n, *_summed(_mask_words(xs, w), _mask_words(zs, w), np.array(cs, dtype=complex)))


def _pruned(x: np.ndarray, z: np.ndarray, c: np.ndarray):
    """``(x, z, c)`` without the weights of ``hypot(re, im) <= PRUNE_TOL``; refuses non-finite weights.

    ``hypot(re, im) >= max(|re|, |im|)``, so from ``_MAX_FIRST_WEIGHTS``
    weights on, a weight with either part above ``PRUNE_TOL`` is kept at
    once and ``hypot`` decides only the rest. Fewer weights go to ``hypot``
    at once: there its one call costs less than the test's extra calls.
    """
    if not np.isfinite(c).all():
        raise ValueError("coefficient must be finite")
    if len(c) < _MAX_FIRST_WEIGHTS:
        keep = np.hypot(c.real, c.imag) > PRUNE_TOL
    else:
        keep = (np.abs(c.real) > PRUNE_TOL) | (np.abs(c.imag) > PRUNE_TOL)
        if not keep.all():
            low = np.flatnonzero(~keep)
            keep[low] = np.hypot(c.real[low], c.imag[low]) > PRUNE_TOL
    return (x, z, c) if keep.all() else (x[keep], z[keep], c[keep])


def _from_sorted(n: int, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> PauliSum:
    """The canonical sum of sorted distinct keys and their weights, holding the arrays."""
    out = PauliSum.__new__(PauliSum)
    out._set(n, x, z, c)
    return out


def multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """The operator product ``a @ b``, by its one pair kernel; ``perfbench/tracing.py`` wraps it by name."""
    return a @ b


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Exact ``ab - ba`` in canonical pruned form: :func:`_doubled_sum` of the anticommuting pairs."""
    return _doubled_sum(a.n, *_summed(*_pair_terms(a, b, _anticommuting_pairs(a, b))))


def _doubled_sum(n: int, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> PauliSum:
    """``[P, Q] = 2PQ``: the anticommuting pairs' summed products ``(x, z, c)``, doubled (exactly) last."""
    with np.errstate(over="ignore"):
        c.real *= 2.0
        c.imag *= 2.0
    return _from_sorted(n, x, z, c)


def spectral_norm(
    h: PauliSum,
    dense_limit: int = 0,
    seed: int = 7,
) -> float:
    """Largest singular value, by a three-term Lanczos recurrence on a Hermitian proxy.

    A sum of at most one string has norm |c|, exactly. A sum of Z strings
    reads its kept matrix ``m`` (:meth:`PauliSum._operator`): the largest
    |entry| it stores, with no Lanczos run. Any other sum runs
    :func:`_lanczos` on a proxy of ``m``, real when :meth:`PauliSum._csr_dtype`
    is ``float``, from a seeded start vector of the proxy's dtype. The proxy
    is ``m`` for a Hermitian ``h``; for a non-normal one ``m^H m``, ``m^H``
    applied as ``m.T`` to the conjugated vector, whose top value is the
    squared norm; for an anti-Hermitian ``h`` (commutators of Hermitian sums)
    ``i m``. A real ``m`` is then antisymmetric, and with ``u_k = v_k / i^k``
    from a real start every α is 0 and ``u_{k+1} β_k = m u_k + β_{k-1}
    u_{k-1}``: one real matvec per step on the Krylov space of ``i m`` (Golub
    & Kahan, 1965). A complex ``m`` multiplies the vector, and the product's
    parts are swapped with one sign, which rounds nothing; the start vector
    is real when every entry of ``m`` is imaginary, and so is ``i m v``.

    When every X mask has even popcount, ``m`` commutes with ∏Z and is
    block-diagonal in its two parity sectors, and from ``_SECTOR_ENTRIES``
    entries (one per row and X mask) the norm is the larger of two
    recurrences, one per block of :meth:`PauliSum._build_csr` with
    ``sectors``, each from the start vector's entries in its sector; the
    second runs on the worker thread when two CPUs are usable
    (:func:`_at_once`), else after the first, with the same bits. The pair
    is made for the norm alone: the sum's kept matrix is neither read nor
    made. Other sums, and smaller ones, run one recurrence on ``m``.

    A matrix, its build's scratch while it is not yet built (the blocks
    always are), and Lanczos vectors at ``m``'s dtype that would not fit in
    usable memory raise :class:`DenseLimitError` (CLI exit 3) before
    allocating. ``dense_limit`` is not read; ``perfbench/tracing.py`` binds
    it.
    """
    if len(h) <= 1:
        return max((abs(c) for c in h._c.tolist()), default=0.0)
    dtype, diagonal, plan = h._csr_dtype(), not h._x.any(), h._layout()
    hermitian = h.is_hermitian()
    skew = not hermitian and bool((np.abs(h._c.real) <= 1e-12).all())  # i h is Hermitian
    gram = not hermitian and not skew
    sectors = not diagonal and len(plan.xs) << h.n >= _SECTOR_ENTRIES and not (_popcount(h._x) & 1).any()
    vectors = 0 if diagonal else _KRYLOV_VECTORS * (np.dtype(dtype).itemsize << h.n)
    building = h._build_scratch_bytes() if sectors or h._matrix is None else 0
    need = h._matrix_bytes(dtype, 1 + sectors) + building + vectors
    _check_memory(need, "diagonal norm" if diagonal else "Lanczos norm")
    if diagonal:
        return float(np.abs(h._operator().data).max())
    matrices = h._build_csr(dtype, sectors=True) if sectors else (h._operator(),)
    dim = 1 << h.n
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    if dtype is complex and (not skew or plan.weights.real.any()):
        v = v + 1j * rng.standard_normal(dim)
    starts = [np.take(v, _sector_rows(0, dim >> 1, p, np.intp)) for p in (0, 1)] if sectors else [v]
    del v

    def top(m, v) -> float:  # of the proxy of the matrix or block m, from v
        if gram:  # m^H m u; conj() of a real vector is itself
            return _lanczos(lambda u: (m.T @ (m @ u).conj()).conj(), v, False)
        if skew and m.dtype == complex:  # i m u, by its real part alone where it is real
            return _lanczos(lambda u: np.negative((m @ u).imag) if u.dtype == float else _times_i(m @ u), v, False)
        return _lanczos(m.__matmul__, v, skew)

    lam = max(_at_once(top, matrices, starts) if sectors else map(top, matrices, starts))
    return math.sqrt(lam) if gram else lam


def _times_i(w: np.ndarray) -> np.ndarray:
    """``i w`` for a complex ``w``: its parts swapped, the new real part negated, so nothing rounds."""
    out = np.empty_like(w)
    out.real, out.imag = -w.imag, w.real
    return out


def _lanczos(mul, v: np.ndarray, antisymmetric: bool) -> float:
    """Largest |Ritz value| of the Lanczos recurrence on the Hermitian ``mul`` from the start vector ``v``.

    ``v`` is normalized in place. With ``antisymmetric``, ``mul`` multiplies
    by a real antisymmetric matrix ``m``, and the recurrence runs on ``i m``
    in real arithmetic (:func:`spectral_norm`). Three vectors and no basis are kept:
    lost orthogonality only adds copies of converged Ritz values, so the
    extreme one is safe (Paige, 1980). Every 5 steps, when β drops below
    ``_LANCZOS_BREAKDOWN`` times the largest tridiagonal entry (a zero
    matrix stops at its first step this way, with no division by β = 0),
    and at step ``len(v)`` (exact), the k×k tridiagonal goes to
    :func:`_top_ritz`; the loop stops once the Ritz value θ of largest
    magnitude has |β s| <= ε |θ|, ε = ``_LANCZOS_TOL``, s the last entry of
    its vector. Inner products are numpy sums (:func:`_vdot`). An α or β
    that overflows float64 raises ``ValueError`` (CLI exit 2) before its
    Ritz step, and overrunning ``_LANCZOS_MAX_ITER`` steps
    :class:`ConvergenceError` (CLI exit 4).
    """
    v /= np.sqrt(_vdot(v, v).real)
    dim = len(v)
    alpha: list[float] = []
    beta: list[float] = []
    scale = 0.0  # largest |alpha|, beta so far: b <= ε * scale bounds the residual
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for k in range(1, _LANCZOS_MAX_ITER + 1):
            w = mul(v)
            a = 0.0 if antisymmetric else _vdot(v, w).real  # u_k^T m u_k = 0 for antisymmetric m
            if not antisymmetric:
                w -= a * v
            if beta:
                w += (beta[-1] if antisymmetric else -beta[-1]) * v_prev
            b = float(np.sqrt(_vdot(w, w).real))
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"Lanczos norm overflowed float64 at step {k} (alpha={a}, beta={b})")
            alpha.append(a)
            scale = max(scale, abs(a), b)
            if k % 5 == 0 or k == dim or b <= _LANCZOS_BREAKDOWN * scale:
                theta, s = _top_ritz(alpha, beta)
                if k == dim or abs(b * s) <= _LANCZOS_TOL * abs(theta):
                    return abs(theta)
            beta.append(b)
            w /= b
            v_prev, v = v, w
    raise ConvergenceError(f"Lanczos did not converge in {_LANCZOS_MAX_ITER} steps (tol={_LANCZOS_TOL})")


def _top_ritz(alpha: Sequence[float], beta: Sequence[float]) -> tuple[float, float]:
    """Ritz value θ of largest |θ| of the k×k Lanczos tridiagonal, and the last entry of its vector.

    The matrix ``t`` holds ``alpha`` on its diagonal and ``beta`` on its
    superdiagonal, and numpy's dense ``eigh`` reads its upper triangle: O(k³)
    time, and 8k² bytes each for ``t`` and its eigenvectors, which over
    usable memory raise :class:`DenseLimitError` (CLI exit 3) before
    allocating. The first of equal |θ| wins.
    """
    _check_memory(16 * len(alpha) ** 2, "Lanczos Ritz step")
    t = np.diag(alpha)
    t.flat[1 :: len(alpha) + 1] = beta
    theta, s = np.linalg.eigh(t, UPLO="U")
    i = np.argmax(np.abs(theta))
    return float(theta[i]), float(s[-1, i])


def expm_hermitian(h: PauliSum, t: float) -> np.ndarray:
    """Unitary exp(-i h t) by dense eigendecomposition of a Hermitian sum.

    The dense matrix comes from :meth:`PauliSum._build_csr`, in the
    sum's own dtype, so a sum with real matrix weights gets numpy's real
    symmetric ``eigh``.
    """
    if not h.is_hermitian():
        raise ValueError("expm_hermitian requires a Hermitian operator")
    _check_dense(h.n, "expm_hermitian")
    return _expm_eigh(h._build_csr(h._csr_dtype()).toarray(), t)


def _expm_eigh(m: np.ndarray, t: float) -> np.ndarray:
    """exp(-i m t) of a Hermitian matrix, or a stack of them, by ``eigh``.

    No argument checks. A ``(k, d, d)`` stack goes to one batched ``eigh``.
    """
    evals, evecs = np.linalg.eigh(m)
    return (evecs * np.exp(-1j * evals * t)[..., None, :]) @ np.swapaxes(evecs.conj(), -1, -2)
