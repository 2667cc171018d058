"""N-qubit Pauli-string operator algebra, its matrices and spectral norm.

Operators are complex-weighted sums of Pauli strings (tensor products of
I, X, Y, Z). Strings are stored in the symplectic encoding: a pair of
N-bit masks ``(x, z)`` with bit ``k`` describing site ``k``, and an
explicit power of ``i`` folded into the coefficient (Aaronson & Gottesman,
2004). Letters and masks convert in one place: :func:`_masks` encodes
``(site, letter)`` pairs and :func:`_pattern` decodes masks to a pattern
string, for every term, builder and printout. A sum holds its masks
bit-packed, as ``(terms, ceil(N/64))`` uint64 word arrays sorted as
``(x, z)`` int tuples (as in Stim; Gidney, 2021), beside a complex128 weight
array. Every consumer computes on these arrays; Python ints appear only
where terms are read out, and only the matrix builds walk terms, for
per-string sign vectors. Products and commutators run as one vectorized
kernel over all string pairs (:func:`_pair_terms`): a product broadcasts
one sum's term arrays against the other's, a commutator gathers the
anticommuting pairs of a boolean parity table, and a pair costs a few
word operations instead of O(4^N). Every result is summed per string in
sorted order, bit for bit as a left-to-right Python loop over a dict of
weights would sum it.

A sum's matrix is one CSR matrix. Row ``i`` holds, for each distinct X
mask ``x`` in sorted order, the sum of the strings sharing ``x`` at
column ``i ^ x``, unless that sum is exactly zero: the stored entries are
the nonzero ones, and the memory guards count the upper bound of one
entry per row and X mask. A sum keeps one matrix (:meth:`PauliSum._operator`)
for ``apply``, ``simulate`` and :func:`spectral_norm`, real where every
weight is (:meth:`PauliSum._csr_dtype`), and a sum of Z strings keeps only
its diagonal; both act as the complex matrix would, bit for bit.

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

import cmath
import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse

__all__ = [
    "PRUNE_TOL",
    "DEFAULT_DENSE_LIMIT",
    "ConvergenceError",
    "DenseLimitError",
    "PauliTerm",
    "PauliSum",
    "multiply",
    "commutator",
    "anticommutes",
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

_I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
_I_POW_RE = np.array([p.real for p in _I_POW])
_I_POW_IM = np.array([p.imag for p in _I_POW])

# Bounds the CSR build's scratch: entries of its table of sums at a time,
# and sixteen times the matrix entries it lays out at a time.
_BLOCK_ENTRIES = 1 << 20

# Weights from which pruning tests max(|re|, |im|) before hypot: about where
# hypot's per-weight cost outgrows the fixed cost of the test's numpy calls.
_MAX_FIRST_WEIGHTS = 1024

# 2^n vectors the Lanczos norm holds besides the matrix: the current,
# previous and work vectors, and the two temporaries of an inner product.
_KRYLOV_VECTORS = 5

# Relative residual at which the Lanczos norm stops.
_LANCZOS_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """Iterative norm estimation failed to converge within the budget."""


class DenseLimitError(ValueError):
    """A dense operation exceeds the qubit limit, or a sparse one memory."""


def _check_dense(n: int, what: str) -> None:
    if n > DEFAULT_DENSE_LIMIT:
        raise DenseLimitError(
            f"{what} needs a dense {2**n} x {2**n} matrix; "
            f"limit is {DEFAULT_DENSE_LIMIT} qubits (got {n})"
        )


def _check_memory(need: int, what: str) -> None:
    """Refuse, before allocating, to hold ``need`` bytes."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise DenseLimitError(
            f"{what} needs about {need / 2**30:.3g} GiB; "
            f"physical memory is {have / 2**30:.3g} GiB"
        )


def _index_dtype(entries: int) -> type:
    """CSR index type: int32 while every index and row offset fits it."""
    return np.int32 if entries < 2**31 else np.int64


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of ``(..., W)`` mask words, as int64.

    The uint8 word counts are added one word at a time onto an int64 total,
    which a reduction over the short last axis does several times slower.
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


def _product_phase_exp(x1, z1, x2, z2, popcount=int.bit_count, ys=None):
    """Power of i picked up when composing two symplectic-encoded strings.

    On int masks by default; on ``(pairs, W)`` word arrays with
    ``popcount=_popcount``, one exponent per pair. ``ys`` gives the two
    strings' Y counts ``popcount(x & z)`` where the caller has them.
    """
    y1, y2 = (popcount(x1 & z1), popcount(x2 & z2)) if ys is None else ys
    exp = y1 + y2 + 2 * popcount(z1 & x2) - popcount((x1 ^ x2) & (z1 ^ z2))
    return exp % 4


def _clash_parity(x1, z1, x2, z2, popcount=int.bit_count):
    """1 when two strings anticommute (odd count of clashing sites), else 0.

    The clashes are the sites of ``x1 & z2`` and of ``z1 & x2``; the parity
    of their total count is that of the one popcount of their XOR.
    """
    return popcount((x1 & z2) ^ (z1 & x2)) & 1


@dataclass(frozen=True)
class PauliTerm:
    """A single Pauli string with a complex coefficient.

    ``x`` and ``z`` are bit masks over the ``n`` sites; bit ``k`` set in
    ``x`` (``z``) means the site-``k`` factor contains an X (Z) component,
    with both set meaning Y.
    """

    n: int
    x: int
    z: int
    coeff: complex

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one site")
        if self.x >> self.n or self.z >> self.n:
            raise ValueError("mask bits outside the registered site range")
        if not cmath.isfinite(complex(self.coeff)):
            raise ValueError("coefficient must be finite")

    @classmethod
    def from_pattern(cls, pattern: str, coeff: complex = 1.0) -> "PauliTerm":
        return cls(len(pattern), *_masks(enumerate(pattern)), complex(coeff))

    @classmethod
    def from_sites(
        cls, n: int, sites: Mapping[int, str], coeff: complex = 1.0
    ) -> "PauliTerm":
        """Build a string that is identity except at the given 0-based sites."""
        for k in sites:
            if not 0 <= k < n:
                raise ValueError(f"site {k} outside range 0..{n - 1}")
        return cls(n, *_masks(sites.items()), complex(coeff))

    @property
    def pattern(self) -> str:
        return _pattern(self.n, self.x, self.z)

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x | self.z).bit_count()


def multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Matrix product of two Pauli terms, phase folded into the coefficient."""
    if a.n != b.n:
        raise ValueError(f"pattern length mismatch: {a.n} != {b.n}")
    phase = _I_POW[_product_phase_exp(a.x, a.z, b.x, b.z)]
    return PauliTerm(a.n, a.x ^ b.x, a.z ^ b.z, a.coeff * b.coeff * phase)


def anticommutes(a: PauliTerm, b: PauliTerm) -> bool:
    """True when the two strings anticommute (odd count of clashing sites)."""
    return _clash_parity(a.x, a.z, b.x, b.z) == 1


class PauliSum:
    """Canonical complex-weighted sum of Pauli strings on ``n`` sites.

    Treat instances as immutable: every operation returns a new sum.
    Construction rejects masks outside ``[0, 2^n)``, merges duplicate
    strings and prunes coefficients with magnitude below ``PRUNE_TOL``.
    Sums are hashable, and equal sums hash equal, so a sum can key a dict.
    """

    __slots__ = ("n", "_x", "_z", "_c", "_matrix")

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
        self.n, (self._x, self._z, self._c), self._matrix = n, _pruned(x, z, c), None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n, {(0, 0): complex(coeff)})

    @classmethod
    def from_term(cls, term: PauliTerm) -> "PauliSum":
        return cls(term.n, {(term.x, term.z): term.coeff})

    @classmethod
    def from_terms(cls, terms: Iterable[PauliTerm]) -> "PauliSum":
        """Sum of the terms; equal strings add up in list order, from 0.0."""
        terms = list(terms)
        if not terms:
            raise ValueError("empty term list; use PauliSum.zero(n)")
        n = terms[0].n
        if any(t.n != n for t in terms):
            raise ValueError("mixed site counts in term list")
        return _from_rows(n, [(t.x, t.z, t.coeff) for t in terms])

    @classmethod
    def from_pattern(cls, pattern: str, coeff: complex = 1.0) -> "PauliSum":
        return cls.from_term(PauliTerm.from_pattern(pattern, coeff))

    @classmethod
    def from_sites(
        cls, n: int, sites: Mapping[int, str], coeff: complex = 1.0
    ) -> "PauliSum":
        return cls.from_term(PauliTerm.from_sites(n, sites, coeff))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def _keyed(self) -> Iterator[tuple[int, int, complex]]:
        """``(x, z, c)`` per string, as Python ints and complex, in key order."""
        return zip(_mask_ints(self._x), _mask_ints(self._z), self._c.tolist())

    def terms(self) -> list[PauliTerm]:
        """Terms in sorted mask order (deterministic)."""
        return [PauliTerm(self.n, x, z, c) for x, z, c in self._keyed()]

    def coefficient(self, pattern: str) -> complex:
        t = PauliTerm.from_pattern(pattern)
        if t.n != self.n:
            raise ValueError("pattern length mismatch")
        return next((c for x, z, c in self._keyed() if (x, z) == (t.x, t.z)), 0.0 + 0j)

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
        """Operator product, canonicalized; refused before its table (48 (W + 1) B a pair) outgrows memory."""
        _check_memory(48 * (self._x.shape[1] + 1) * len(self) * len(other), "Pauli product")
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

    def _num_x_masks(self) -> int:
        x = self._x
        return int(len(x) and 1 + np.count_nonzero((x[1:] != x[:-1]).any(axis=1)))

    def _weights(self) -> Iterator[tuple[int, int, complex]]:
        """``(x, z, a)`` per string, in key order: its matrix entry ``(i, i ^ x)`` is ``a (-1)^|i&z|``."""
        return ((x, z, c * _I_POW[-(x & z).bit_count() % 4]) for x, z, c in self._keyed())

    def _csr_dtype(self) -> type:
        """``float`` when each string's weight ``a = c i^-|x&z|`` is exactly real, else ``complex``."""
        odd = _popcount(self._x & self._z) & 1  # a is ±c for an even Y count, ±i c for an odd one
        return float if (np.where(odd, self._c.real, self._c.imag) == 0.0).all() else complex

    def _matrix_bytes(self, dtype: type = complex) -> int:
        """Bytes of the CSR matrix at most, as :meth:`_build_csr` lays it out.

        Per row and X mask a weight (8 B real, 16 B complex) and an index, and
        ``2^n + 1`` row pointers, both at :func:`_index_dtype`. The matrix
        stores only its nonzero entries, so it may hold fewer.
        """
        entries = self._num_x_masks() << self.n
        index = np.dtype(_index_dtype(entries)).itemsize
        return entries * (np.dtype(dtype).itemsize + index) + index * ((1 << self.n) + 1)

    def _build_csr(self, dtype: type = complex) -> scipy.sparse.csr_matrix:
        """CSR matrix of the nonzero entries, filled by blocks of rows; ``dtype=float`` keeps real parts.

        For each distinct X mask ``x``, in sorted order, row ``i`` sums from 0,
        in sorted z order, ``a * (-1)^|i&z|`` over the strings sharing ``x``
        (:meth:`_weights`), and stores the sum at column ``i ^ x`` unless it
        is exactly zero: a ±0 term never changes a sum, so a matvec or
        ``toarray`` gives the same bits as with every mask stored.

        With ``i = hi * 2^h + lo``, ``h = n // 2``, that sign is ``(-1)^|hi &
        z >> h| * (-1)^|lo & z|``, and the low factor depends on ``lo`` only
        through its key ``lo & u``, ``u`` the union of the z masks sharing
        ``x``. A table with one column per X mask and distinct key holds each
        sum once, for about ``_BLOCK_ENTRIES`` entries' worth of ``hi`` values
        at a time, as outer products of per-string vectors. One ``take`` by
        key lays a few rows of it out in row order; their nonzero entries go
        to arrays sized for every mask, trimmed at the end. Raises
        :class:`DenseLimitError` first if that upper bound,
        :meth:`_matrix_bytes`, exceeds physical memory.
        """
        n, dim, masks = self.n, 1 << self.n, self._num_x_masks()
        _check_memory(self._matrix_bytes(dtype), "sparse matrix")
        itype = _index_dtype(masks << n)
        h = n // 2
        his, los = np.arange(dim >> h, dtype=itype), np.arange(1 << h, dtype=itype)
        # per X mask: x and each lo's table column; per string: its columns,
        # its signs over hi and its weights over the keys
        xs, columns, terms, width = [], np.empty((1 << h, masks), dtype=np.intp), [], 0
        for k, (x, group) in enumerate(itertools.groupby(self._weights(), key=lambda w: w[0])):
            group = list(group)
            key = los & np.bitwise_or.reduce([z for _, z, _ in group])
            keys = los[key == los]  # the distinct keys, ascending
            columns[:, k] = width + np.searchsorted(keys, key)
            part = slice(width, width + len(keys))
            terms += [
                (part, _parity_signs(his, z >> h), (a.real if dtype is float else a) * _parity_signs(keys, z))
                for _, z, a in group
            ]
            xs.append(x)
            width += len(keys)
        xs = np.array(xs, dtype=itype)
        data, indices = np.empty(masks << n, dtype=dtype), np.empty(masks << n, dtype=itype)
        indptr = np.zeros(dim + 1, dtype=itype)  # entries per row, summed at the end
        step = min(dim >> h, max(1, _BLOCK_ENTRIES // max(width, 1)))  # hi values per table
        rows = max(1, (_BLOCK_ENTRIES >> 4) // (max(masks, 1) << h))  # hi values laid out at a time
        buffer = np.empty((step, width), dtype=dtype)
        end = 0
        for h0 in range(0, dim >> h, step):
            table = buffer[: (dim >> h) - h0]
            table[...] = 0.0
            for part, s_hi, a_key in terms:
                table[:, part] += np.multiply.outer(s_hi[h0 : h0 + step], a_key)
            for r0 in range(0, len(table), rows):
                vals = np.take(table[r0 : r0 + rows], columns, axis=1)  # (hi, lo, mask)
                kept = np.flatnonzero(vals != 0)
                i0, count, stop = (h0 + r0) << h, len(vals) << h, end + len(kept)
                cols = np.arange(i0, i0 + count, dtype=itype)[:, None] ^ xs
                # mode="clip" takes straight into ``out``; every index is in range
                np.take(vals, kept, out=data[end:stop], mode="clip")
                np.take(cols, kept, out=indices[end:stop], mode="clip")
                indptr[i0 + 1 : i0 + 1 + count] = np.bincount(kept // masks, minlength=count)
                end = stop
        data.resize(end, refcheck=False)
        indices.resize(end, refcheck=False)
        np.cumsum(indptr, out=indptr)
        return scipy.sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))

    def _operator(self) -> scipy.sparse.csr_matrix | scipy.sparse.dia_matrix:
        """The sum's one matrix, for :meth:`apply` and :func:`spectral_norm`, built at the first call and kept.

        Its dtype is :meth:`_csr_dtype`. A sum of Z strings (every X mask 0)
        keeps its diagonal as a DIA matrix, one weight per row: each weight
        sums from 0, in key order, the terms ``±a`` that :meth:`_build_csr`
        sums, and a DIA matvec adds ``d_i x_i`` to 0 as a CSR row does.
        """
        if self._matrix is None:
            dim, dtype = 1 << self.n, self._csr_dtype()
            if self._x.any():
                self._matrix = self._build_csr(dtype)
            else:
                idx = np.arange(dim, dtype=_index_dtype(dim))
                diagonal = np.zeros(dim, dtype=dtype)
                for _, z, a in self._weights():
                    diagonal += (a.real if dtype is float else a) * _parity_signs(idx, z)
                self._matrix = scipy.sparse.dia_matrix((diagonal[None], [0]), shape=(dim, dim))
        return self._matrix

    def _operator_bytes(self) -> int:
        """Bytes of :meth:`_operator` at most: a weight per row for a diagonal, else :meth:`_matrix_bytes`."""
        dtype = self._csr_dtype()
        return self._matrix_bytes(dtype) if self._x.any() else np.dtype(dtype).itemsize << self.n

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Matvec by the kept matrix (:meth:`_operator`), as a complex128 state.

        A real matrix multiplies the state's real and imaginary parts apart
        (:func:`_split`): the complex matvec adds ``a x_re - 0 x_im`` and
        ``a x_im + 0 x_re`` to 0, the same bits.
        """
        state = np.asarray(state, dtype=complex)
        if state.shape != (1 << self.n,):
            raise ValueError(
                f"state has {state.shape} amplitudes; expected {(1 << self.n,)}"
            )
        m = self._operator()
        return _joined([m @ v for v in _split(m, state)])

    def expectation(self, state: np.ndarray) -> complex:
        """<state|h|state>, by :func:`_vdot`."""
        return _vdot(state, self.apply(state))

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


def _parity_signs(idx: np.ndarray, z: int) -> np.ndarray:
    """(-1)^popcount(idx & z) for every basis index, as a float array."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)


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
    clash parities, so its scratch holds one word per pair at a time.
    """
    a._require_same_size(b)
    odd = np.zeros((len(a), len(b)), dtype=bool)
    for k in range(a._x.shape[1]):
        xa, za, xb, zb = a._x[:, k, None], a._z[:, k, None], b._x[:, k], b._z[:, k]
        odd ^= _clash_parity(xa, za, xb, zb, np.bitwise_count).view(bool)
    return np.divmod(np.flatnonzero(odd), len(b))


def _pair_terms(a: PauliSum, b: PauliSum, pairs: tuple[np.ndarray, np.ndarray] | None = None):
    """Unsummed string products ``PQ``, in a-major pair order, as ``(x, z, c)``.

    Of every pair, as a ``(len(a), len(b))`` table that broadcasts ``a``'s
    term arrays against ``b``'s; or of the ``pairs`` ``(i, j)`` of term
    indices in ``a`` and ``b`` (:func:`_anticommuting_pairs`), gathered.
    Each product has its ``(pairs, W)`` mask words and its coefficient ``c1 *
    c2 * i^e`` (:func:`_times`, :func:`_product_phase_exp`), with each
    term's Y count taken once.
    """
    a._require_same_size(b)
    if pairs is None:  # a's arrays down the table's rows, b's across its columns
        pick, (i, j) = operator.getitem, (np.s_[:, None], np.s_[None])
    else:  # np.take gathers rows several times faster than fancy indexing does
        pick, (i, j) = functools.partial(np.take, axis=0), pairs
    x1, z1, y1, c1 = (pick(v, i) for v in (a._x, a._z, _popcount(a._x & a._z), a._c))
    x2, z2, y2, c2 = (pick(v, j) for v in (b._x, b._z, _popcount(b._x & b._z), b._c))
    e = _product_phase_exp(x1, z1, x2, z2, _popcount, (y1, y2))
    c = np.empty(e.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        pr, pi = _times(c1.real, c1.imag, c2.real, c2.imag)
        c.real, c.imag = _times(pr, pi, _I_POW_RE[e], _I_POW_IM[e])
    w = a._x.shape[1]
    return (x1 ^ x2).reshape(-1, w), (z1 ^ z2).reshape(-1, w), c.reshape(-1)


def _grouped(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one key-grouping step: ``(order, first, group)`` of ``(terms, W)`` keys.

    ``order`` sorts the keys as ``(x, z)`` int tuples, stably; ``first`` marks
    the first of each run of equal keys in that order, ``group`` its run.
    One sort of the most significant x word comes first. When no two keys
    share that word, the order it gives is the only one, and every key is its
    own run; otherwise a stable ``lexsort`` of every word sets the order.
    """
    top = x[:, -1]
    order = np.argsort(top)
    top = top[order]
    if (top[1:] != top[:-1]).all():
        return order, np.ones(len(order), dtype=bool), np.arange(len(order), dtype=np.intp)
    keys = np.concatenate((z, x), axis=1)  # lexsort's last key is its primary
    order = np.lexsort(keys.T)
    keys = keys[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.logical_or.reduce(keys[1:] != keys[:-1], axis=1, out=first[1:])
    return order, first, np.add.accumulate(first, dtype=np.intp) - 1


def _summed(x: np.ndarray, z: np.ndarray, c: np.ndarray, start: np.ndarray | None = None):
    """Weights summed per distinct key, as ``(x, z, c)`` in key order.

    ``np.add.at`` adds them one by one, in input order, onto 0.0, as
    ``acc.get(key, 0.0) + c`` would; or onto ``start`` at each key's first input.
    """
    order, first, group = _grouped(x, z)
    keys = order[first]
    sums = np.zeros(len(keys), dtype=complex) if start is None else start[keys]
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(sums, group, c[order])
    return x[keys], z[keys], sums


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
        sums = list(sums) or [PauliSum.zero(n)]  # no sums: one with no terms
        x, z = np.concatenate([h._x for h in sums]), np.concatenate([h._z for h in sums])
        order, first, group = _grouped(x, z)
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


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Exact ``ab - ba`` in canonical pruned form: :func:`_doubled_sum` of the anticommuting pairs."""
    return _doubled_sum(a.n, *_pair_terms(a, b, _anticommuting_pairs(a, b)))


def _doubled_sum(n: int, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> PauliSum:
    """``[P, Q] = 2PQ`` summed over anticommuting pairs' products ``(x, z, c)``, doubled (exactly) last."""
    x, z, c = _summed(x, z, c)
    with np.errstate(over="ignore"):
        c.real *= 2.0
        c.imag *= 2.0
    return _from_sorted(n, x, z, c)


def spectral_norm(
    h: PauliSum,
    dense_limit: int = 0,
    max_iter: int = 10_000,
    seed: int = 7,
) -> float:
    """Largest singular value, by a three-term Lanczos recurrence on a Hermitian proxy.

    A sum of at most one string has norm |c|, exactly. Any other sum reads
    its kept matrix ``m`` (:meth:`PauliSum._operator`): for a sum of Z
    strings the largest |entry| of its diagonal, with no Lanczos run.
    Otherwise the recurrence (Lanczos, 1950) runs on ``m``, real when
    :meth:`PauliSum._csr_dtype` is ``float``, from a seeded start vector of
    its dtype. The proxy is ``m`` for a Hermitian ``h``; for a non-normal one
    ``m^H m``, ``m^H`` applied as ``m.T`` to the conjugated vector, whose top
    value is the squared norm; for an anti-Hermitian ``h`` (commutators
    of Hermitian sums) ``i m``. A real ``m`` is then antisymmetric, and with
    ``u_k = v_k / i^k`` from a real start every α is 0 and ``u_{k+1} β_k =
    m u_k + β_{k-1} u_{k-1}``: one real matvec per step on the Krylov space
    of ``i m`` (Golub & Kahan, 1965). A complex ``m`` gives way to ``i*h``'s.
    Three vectors and no basis are kept: lost orthogonality only adds copies
    of converged Ritz values, so the extreme one is safe (Paige, 1980). Every
    5 steps, when β drops below ε = ``_LANCZOS_TOL`` times the largest
    tridiagonal entry, and at step 2^n (exact), the k×k tridiagonal goes to
    :func:`_top_ritz`; the loop stops once the Ritz value θ of largest
    magnitude has |β s| <= ε |θ|, s the last entry of its vector. Inner
    products are numpy sums (:func:`_vdot`). An α or β that overflows
    float64 raises ``ValueError`` (CLI exit 2) before its Ritz step,
    overrunning ``max_iter`` steps :class:`ConvergenceError` (CLI exit 4),
    and a matrix and vectors that would not fit in physical memory
    :class:`DenseLimitError` (CLI exit 3) before allocating. ``dense_limit``
    is not read; ``perfbench/tracing.py`` binds it.
    """
    if len(h) <= 1:
        return max((abs(c) for c in h._c.tolist()), default=0.0)
    skew = not h.is_hermitian() and (1j * h).is_hermitian()
    if skew and h._csr_dtype() is complex:
        h, skew = 1j * h, False
    dtype, diagonal = h._csr_dtype(), not h._x.any()
    vectors = 0 if diagonal else _KRYLOV_VECTORS * (np.dtype(dtype).itemsize << h.n)
    _check_memory(h._operator_bytes() + vectors, "diagonal norm" if diagonal else "Lanczos norm")
    m = h._operator()
    if diagonal:
        return float(np.abs(m.data).max())
    gram = not skew and not h.is_hermitian()
    dim = 1 << h.n
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    if dtype is complex:
        v = v + 1j * rng.standard_normal(dim)
    v /= np.sqrt(_vdot(v, v).real)
    alpha: list[float] = []
    beta: list[float] = []
    scale = 0.0  # largest |alpha|, beta so far: b <= ε * scale bounds the residual
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for k in range(1, max_iter + 1):
            w = m @ v
            if gram:
                w = (m.T @ w.conj()).conj()  # m^H w; conj() of a real vector is itself
            a = 0.0 if skew else _vdot(v, w).real  # u_k^T m u_k = 0 for antisymmetric m
            if not skew:
                w -= a * v
            if beta:
                w += (beta[-1] if skew else -beta[-1]) * v_prev
            b = float(np.sqrt(_vdot(w, w).real))
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"Lanczos norm overflowed float64 at step {k} (alpha={a}, beta={b})")
            alpha.append(a)
            scale = max(scale, abs(a), b)
            if k % 5 == 0 or k == dim or b <= _LANCZOS_TOL * scale:
                theta, s = _top_ritz(alpha, beta)
                if k == dim or abs(b * s) <= _LANCZOS_TOL * abs(theta):
                    lam = abs(theta)
                    return math.sqrt(lam) if gram else lam
            beta.append(b)
            w /= b
            v_prev, v = v, w
    raise ConvergenceError(f"Lanczos did not converge in {max_iter} steps (tol={_LANCZOS_TOL})")


def _top_ritz(alpha: Sequence[float], beta: Sequence[float]) -> tuple[float, float]:
    """Ritz value θ of largest |θ| of the k×k Lanczos tridiagonal, and the last entry of its vector.

    The matrix ``t`` holds ``alpha`` on its diagonal and ``beta`` on its
    superdiagonal, and numpy's dense ``eigh`` reads its upper triangle: O(k³)
    time, and 8k² bytes each for ``t`` and its eigenvectors, which over
    physical memory raise :class:`DenseLimitError` (CLI exit 3) before
    allocating. The first of equal |θ| wins.
    """
    _check_memory(16 * len(alpha) ** 2, "Lanczos Ritz step")
    t = np.diag(alpha)
    t.flat[1 :: len(alpha) + 1] = beta
    theta, s = np.linalg.eigh(t, UPLO="U")
    i = np.argmax(np.abs(theta))
    return float(theta[i]), float(s[-1, i])


def expm_hermitian(h: PauliSum, t: float) -> np.ndarray:
    """Unitary exp(-i h t) by dense eigendecomposition of a Hermitian sum."""
    if not h.is_hermitian():
        raise ValueError("expm_hermitian requires a Hermitian operator")
    return _expm_eigh(h.to_dense(), t)


def _expm_eigh(m: np.ndarray, t: float) -> np.ndarray:
    """exp(-i m t) of a Hermitian matrix, or a stack of them, by ``eigh``.

    No argument checks. A ``(k, d, d)`` stack goes to one batched ``eigh``.
    """
    evals, evecs = np.linalg.eigh(m)
    return (evecs * np.exp(-1j * evals * t)[..., None, :]) @ np.swapaxes(evecs.conj(), -1, -2)
