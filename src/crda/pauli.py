"""N-qubit Pauli-string operator algebra, its matrices and spectral norm.

Operators are complex-weighted sums of Pauli strings (tensor products of
I, X, Y, Z). Strings are stored in the symplectic encoding: a pair of
N-bit masks ``(x, z)`` with bit ``k`` describing site ``k``, and an
explicit power of ``i`` folded into the coefficient (Aaronson & Gottesman,
2004). Products and commutators of sums run as one vectorized kernel over
all string pairs: the masks become ``(terms, ceil(N/64))`` arrays of uint64
words, so a pair costs a few word operations instead of O(4^N), and the
pair products are summed per string in sorted order, bit for bit as a
left-to-right Python loop over the pairs would sum them.

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
"""

from __future__ import annotations

import cmath
import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np
import scipy.linalg
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

# 2^12 dense eigensolves stay seconds-scale; larger sizes must go sparse.
DEFAULT_DENSE_LIMIT = 12

# letter -> (x bit, z bit)
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER_OF = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}

_I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
_I_POW_RE = np.array([p.real for p in _I_POW])
_I_POW_IM = np.array([p.imag for p in _I_POW])

# Result entries converted to Python objects at a time: bounds the
# temporary lists beside the result dict.
_BUILD_CHUNK = 4096

# 2^n vectors the Lanczos norm holds besides the matrix: the current,
# previous and work vectors, and the two temporaries of an inner product.
_KRYLOV_VECTORS = 5


class ConvergenceError(RuntimeError):
    """Iterative norm estimation failed to converge within the budget."""


class DenseLimitError(ValueError):
    """A dense operation exceeds the qubit limit, or a sparse one memory."""


def _check_dense(n: int, dense_limit: int, what: str) -> None:
    if n > dense_limit:
        raise DenseLimitError(
            f"{what} needs a dense {2**n} x {2**n} matrix; "
            f"limit is {dense_limit} qubits (got {n})"
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
    """Set bits of each row of ``(..., W)`` mask words, as int64."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _product_phase_exp(x1, z1, x2, z2, popcount=int.bit_count):
    """Power of i picked up when composing two symplectic-encoded strings.

    On int masks by default; on ``(pairs, W)`` word arrays with
    ``popcount=_popcount``, one exponent per pair.
    """
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    exp = popcount(x1 & z1) + popcount(x2 & z2) + 2 * popcount(z1 & x2) - popcount(x3 & z3)
    return exp % 4


def _clash_parity(x1, z1, x2, z2, popcount=int.bit_count):
    """1 when two strings anticommute (odd count of clashing sites), else 0."""
    return (popcount(x1 & z2) + popcount(z1 & x2)) & 1


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
        x = z = 0
        for k, letter in enumerate(pattern):
            try:
                bx, bz = _BITS[letter]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {letter!r}") from None
            x |= bx << k
            z |= bz << k
        return cls(len(pattern), x, z, complex(coeff))

    @classmethod
    def from_sites(
        cls, n: int, sites: Mapping[int, str], coeff: complex = 1.0
    ) -> "PauliTerm":
        """Build a string that is identity except at the given 0-based sites."""
        x = z = 0
        for k, letter in sites.items():
            if not 0 <= k < n:
                raise ValueError(f"site {k} outside range 0..{n - 1}")
            bx, bz = _BITS[letter]
            if bx == bz == 0:
                continue
            if (x >> k) & 1 or (z >> k) & 1:
                raise ValueError(f"site {k} assigned twice")
            x |= bx << k
            z |= bz << k
        return cls(n, x, z, complex(coeff))

    @property
    def pattern(self) -> str:
        return "".join(
            _LETTER_OF[((self.x >> k) & 1, (self.z >> k) & 1)] for k in range(self.n)
        )

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

    __slots__ = ("n", "_terms", "_matrix")

    def __init__(self, n: int, terms: Mapping[tuple[int, int], complex] | None = None):
        if n < 1:
            raise ValueError("need at least one site")
        self.n = n
        clean: dict[tuple[int, int], complex] = {}
        if terms:
            for key in sorted(terms):
                if (key[0] | key[1]) >> n:  # nonzero for negative masks too
                    raise ValueError("mask bits outside the registered site range")
                c = complex(terms[key])
                if not cmath.isfinite(c):
                    raise ValueError("coefficient must be finite")
                if abs(c) > PRUNE_TOL:
                    clean[key] = c
        self._terms = clean
        self._matrix: scipy.sparse.csr_matrix | None = None

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
        terms = list(terms)
        if not terms:
            raise ValueError("empty term list; use PauliSum.zero(n)")
        n = terms[0].n
        acc: dict[tuple[int, int], complex] = {}
        for t in terms:
            if t.n != n:
                raise ValueError("mixed site counts in term list")
            key = (t.x, t.z)
            acc[key] = acc.get(key, 0.0) + t.coeff
        return cls(n, acc)

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

    def terms(self) -> list[PauliTerm]:
        """Terms in sorted mask order (deterministic)."""
        return [PauliTerm(self.n, x, z, c) for (x, z), c in self._terms.items()]

    def coefficient(self, pattern: str) -> complex:
        t = PauliTerm.from_pattern(pattern)
        if t.n != self.n:
            raise ValueError("pattern length mismatch")
        return self._terms.get((t.x, t.z), 0.0 + 0j)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        # Pure Pauli strings are Hermitian, so Hermiticity means real weights.
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def dagger(self) -> "PauliSum":
        return PauliSum(self.n, {k: c.conjugate() for k, c in self._terms.items()})

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._terms.items())))  # keys sorted: equal sums, equal tuples

    def allclose(self, other: "PauliSum", tol: float = 1e-12) -> bool:
        if self.n != other.n:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tol
            for k in keys
        )

    def __repr__(self) -> str:
        body = " + ".join(
            f"({c:.6g})*{PauliTerm(self.n, x, z, 1).pattern}"
            for (x, z), c in list(self._terms.items())[:6]
        )
        more = "" if len(self._terms) <= 6 else f" + ... [{len(self._terms)} terms]"
        return f"PauliSum(n={self.n}: {body or '0'}{more})"

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def _require_same_size(self, other: "PauliSum") -> None:
        if self.n != other.n:
            raise ValueError(f"site count mismatch: {self.n} != {other.n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._require_same_size(other)
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc.get(k, 0.0) + c
        return PauliSum(self.n, acc)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        self._require_same_size(other)
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc.get(k, 0.0) - c
        return PauliSum(self.n, acc)

    def __neg__(self) -> "PauliSum":
        return PauliSum(self.n, {k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar: complex) -> "PauliSum":
        s = complex(scalar)
        return PauliSum(self.n, {k: c * s for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product, canonicalized."""
        return _from_sorted(self.n, *_pair_sums(self, other, anticommuting_only=False))

    # ------------------------------------------------------------------
    # numerical backends
    # ------------------------------------------------------------------

    def to_dense(self, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
        _check_dense(self.n, dense_limit, "to_dense")
        return self.to_sparse().toarray()

    def to_sparse(self) -> scipy.sparse.csr_matrix:
        """A new CSR matrix of the sum, which the caller may scale in place."""
        return self._build_csr()

    def _phase_groups(self, idx: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """``(x, w)`` per distinct X mask, sorted: ``w[k] = <i|h|i ^ x>`` at ``i = idx[k]``.

        String ``(x, z)`` sends basis state ``j`` to ``j ^ x`` with weight
        ``c * i^|x&z| * (-1)^|j&z|``; at ``j = i ^ x`` that is ``c *
        (-i)^|x&z| * (-1)^|i&z|``. ``w`` sums the strings sharing x.
        """
        for x, group in itertools.groupby(self._terms.items(), key=lambda kv: kv[0][0]):
            yield x, sum(
                c * _I_POW[-(x & z).bit_count() % 4] * _parity_signs(idx, z)
                for (_, z), c in group
            )

    def _num_x_masks(self) -> int:
        return len({x for x, _ in self._terms})

    def _matrix_bytes(self) -> int:
        """Bytes of the CSR matrix: per row and X mask, 16 B of weight and an index."""
        entries = self._num_x_masks() << self.n
        return entries * (16 + np.dtype(_index_dtype(entries)).itemsize)

    def _build_csr(self) -> scipy.sparse.csr_matrix:
        """CSR matrix, built straight from :meth:`_phase_groups`.

        Row ``i`` holds one entry per distinct X mask ``x``, in sorted mask
        order: column ``i ^ x``, weight ``w[i]``. A row-major ``(2^n, masks)``
        array is the CSR data, filled one mask column at a time. Raises
        :class:`DenseLimitError` before allocating when the matrix and the
        build's scratch vectors exceed physical memory.
        """
        n, dim, masks = self.n, 1 << self.n, self._num_x_masks()
        _check_memory(self._matrix_bytes() + 4 * (16 << n), "sparse matrix")
        itype = _index_dtype(masks << n)
        idx = np.arange(dim, dtype=itype)
        data = np.empty((dim, masks), dtype=complex)
        indices = np.empty((dim, masks), dtype=itype)
        for k, (x, w) in enumerate(self._phase_groups(idx)):
            data[:, k] = w
            np.bitwise_xor(idx, x, out=indices[:, k])
        indptr = masks * np.arange(dim + 1, dtype=itype)
        return scipy.sparse.csr_matrix(
            (data.reshape(-1), indices.reshape(-1), indptr), shape=(dim, dim)
        )

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Matvec by the sum's CSR matrix, built at the first call and kept."""
        state = np.asarray(state, dtype=complex)
        if state.shape != (1 << self.n,):
            raise ValueError(
                f"state has {state.shape} amplitudes; expected {(1 << self.n,)}"
            )
        if self._matrix is None:
            self._matrix = self._build_csr()
        return self._matrix @ state

    def expectation(self, state: np.ndarray) -> complex:
        """<state|h|state>, by :func:`_vdot`."""
        return _vdot(state, self.apply(state))

    def frobenius_norm(self, normalized: bool = True) -> float:
        """sqrt of the summed squared weights, via Pauli-string orthogonality."""
        s = np.sqrt(sum(abs(c) ** 2 for c in self._terms.values()))
        return float(s if normalized else s * 2 ** (self.n / 2))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        rows = sorted(
            (t.pattern, t.coeff.real, t.coeff.imag) for t in self.terms()
        )
        return {
            "n": self.n,
            "terms": [{"p": p, "re": re, "im": im} for p, re, im in rows],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PauliSum":
        n = int(data["n"])
        acc: dict[tuple[int, int], complex] = {}
        for row in data["terms"]:
            t = PauliTerm.from_pattern(row["p"], complex(row["re"], row.get("im", 0.0)))
            if t.n != n:
                raise ValueError("pattern length inconsistent with n")
            acc[(t.x, t.z)] = acc.get((t.x, t.z), 0.0) + t.coeff
        return cls(n, acc)


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> as a numpy sum: a threaded BLAS dot's last digits follow the thread count."""
    return complex(np.sum(np.conj(a) * b))


def _parity_signs(idx: np.ndarray, z: int) -> np.ndarray:
    """(-1)^popcount(idx & z) for every basis index, as a float array."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def _mask_words(masks: list[int], w: int) -> np.ndarray:
    """``(len(masks), w)`` uint64 array; word ``k`` holds bits 64k to 64k + 63."""
    raw = b"".join(m.to_bytes(8 * w, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), w)


def _mask_ints(words: np.ndarray) -> list[int]:
    """Inverse of :func:`_mask_words`."""
    out = words[:, 0].tolist()
    for k in range(1, words.shape[1]):
        out = [lo | hi << 64 * k for lo, hi in zip(out, words[:, k].tolist())]
    return out


def _symplectic(s: PauliSum, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sum's x and z mask words and its complex weights, in key order."""
    keys = s._terms.keys()
    return (
        _mask_words([x for x, _ in keys], w),
        _mask_words([z for _, z in keys], w),
        np.fromiter(s._terms.values(), complex, len(s)),
    )


def _pair_terms(a: PauliSum, b: PauliSum, anticommuting_only: bool):
    """Unsummed string products ``PQ`` of every pair, in a-major pair order.

    Returns ``(i, j, x, z, re, im)``: the pair's term indices in ``a`` and
    ``b``, the product's ``(pairs, W)`` mask words and its coefficient
    ``c1 * c2 * i^e``, formed in real arithmetic as CPython multiplies
    complex numbers. With ``anticommuting_only`` commuting pairs are
    dropped before any product is formed.
    """
    a._require_same_size(b)
    w = -(-a.n // 64)
    xa, za, ca = _symplectic(a, w)
    xb, zb, cb = _symplectic(b, w)
    if anticommuting_only:
        pairs = _clash_parity(xa[:, None], za[:, None], xb[None], zb[None], _popcount) == 1
    else:
        pairs = np.ones((len(a), len(b)), dtype=bool)
    i, j = np.nonzero(pairs)
    x1, z1, x2, z2 = xa[i], za[i], xb[j], zb[j]
    e = _product_phase_exp(x1, z1, x2, z2, _popcount)
    x, z = x1 ^ x2, z1 ^ z2
    ar, ai, br, bi = ca.real[i], ca.imag[i], cb.real[j], cb.imag[j]
    with np.errstate(over="ignore", invalid="ignore"):
        pr = ar * br - ai * bi
        pi = ar * bi + ai * br
        qr, qi = _I_POW_RE[e], _I_POW_IM[e]
        return i, j, x, z, pr * qr - pi * qi, pr * qi + pi * qr


def _pair_sums(a: PauliSum, b: PauliSum, anticommuting_only: bool):
    """Pair products summed per string: ``(x, z, re, im)``, keys sorted and distinct.

    A stable lexsort orders the keys as sorted ``(x, z)`` int tuples (high
    word first, x before z) and keeps pairs of one key in a-major order;
    ``np.add.at`` then adds them one by one onto 0.0, as ``acc[key] =
    acc.get(key, 0.0) + c`` over the pairs would.
    """
    _, _, x, z, re, im = _pair_terms(a, b, anticommuting_only)
    order = np.lexsort((*z.T, *x.T))
    x, z = x[order], z[order]
    re, im = re[order], im[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = (x[1:] != x[:-1]).any(axis=1) | (z[1:] != z[:-1]).any(axis=1)
    group = np.cumsum(first) - 1
    sr = np.zeros(np.count_nonzero(first))
    si = np.zeros_like(sr)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(sr, group, re)
        np.add.at(si, group, im)
    return x[first], z[first], sr, si


def _from_sorted(n: int, x: np.ndarray, z: np.ndarray, re: np.ndarray, im: np.ndarray) -> PauliSum:
    """Canonical sum of sorted distinct keys, built without a second sort.

    Prunes and converts to Python objects one chunk at a time, so that
    only the chunk's temporaries sit beside the growing dict.
    """
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("coefficient must be finite")
    out = PauliSum.__new__(PauliSum)
    out.n, out._terms, out._matrix = n, {}, None
    for lo in range(0, len(re), _BUILD_CHUNK):
        part = slice(lo, lo + _BUILD_CHUNK)
        keep = np.hypot(re[part], im[part]) > PRUNE_TOL
        c = np.empty(np.count_nonzero(keep), dtype=complex)
        c.real, c.imag = re[part][keep], im[part][keep]
        keys = zip(_mask_ints(x[part][keep]), _mask_ints(z[part][keep]))
        out._terms.update(zip(keys, c.tolist()))
    return out


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Exact ``ab - ba`` in canonical pruned form.

    Commuting string pairs are skipped: for anticommuting strings P, Q the
    pair contributes 2*PQ, otherwise nothing. The factor 2 is applied
    after summing; scaling by 2 is exact, so the order does not matter.
    """
    x, z, re, im = _pair_sums(a, b, anticommuting_only=True)
    with np.errstate(over="ignore"):
        re *= 2.0
        im *= 2.0
    return _from_sorted(a.n, x, z, re, im)


def spectral_norm(
    h: PauliSum,
    dense_limit: int = 0,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    seed: int = 7,
) -> float:
    """Largest singular value, from the top |eigenvalue| of a Hermitian proxy.

    A sum of at most one string has norm |c|, exactly. Otherwise the proxy
    is ``h`` if Hermitian, ``i*h`` if anti-Hermitian (commutators of
    Hermitian sums), else ``h†h``, and a three-term Lanczos recurrence
    (Lanczos, 1950) runs on it through ``PauliSum.apply`` from a seeded
    complex start vector. It keeps three vectors and no basis: lost
    orthogonality only adds copies of converged Ritz values, so the extreme
    one is safe (Paige, 1980). Every 5 steps, when β drops below ``tol``
    times the largest tridiagonal entry, and at step 2^n (exact), the
    tridiagonal goes to ``eigh_tridiagonal``; the loop stops once the Ritz
    value θ of largest magnitude has |β s| <= tol |θ|, s the last entry of
    its vector. ``max_iter`` budgets proxy matvecs: overrunning it raises
    :class:`ConvergenceError` (CLI exit 4). :class:`DenseLimitError` (CLI
    exit 3) is raised before allocating what would not fit in physical
    memory. ``dense_limit`` is not read; ``perfbench/tracing.py`` binds it.
    """
    if len(h) <= 1:
        return max((abs(c) for c in h._terms.values()), default=0.0)
    if not h.is_hermitian() and (1j * h).is_hermitian():
        h = 1j * h
    gram = not h.is_hermitian()
    _check_memory((1 + gram) * h._matrix_bytes() + _KRYLOV_VECTORS * (16 << h.n), "Lanczos norm")
    hd = h.dagger() if gram else None
    dim = 1 << h.n
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.sqrt(_vdot(v, v).real)
    alpha: list[float] = []
    beta: list[float] = []
    scale = 0.0  # largest |alpha|, beta so far: b <= tol * scale bounds the residual
    for k in range(1, max_iter + 1):
        w = h.apply(v)
        if gram:
            w = hd.apply(w)
        a = _vdot(v, w).real
        w -= a * v
        if beta:
            w -= beta[-1] * v_prev
        b = float(np.sqrt(_vdot(w, w).real))
        alpha.append(a)
        scale = max(scale, abs(a), b)
        if k % 5 == 0 or k == dim or b <= tol * scale:
            theta, s = scipy.linalg.eigh_tridiagonal(alpha, beta)
            i = np.argmax(np.abs(theta))
            if k == dim or abs(b * s[-1, i]) <= tol * abs(theta[i]):
                lam = float(abs(theta[i]))
                return float(np.sqrt(lam)) if gram else lam
        beta.append(b)
        w /= b
        v_prev, v = v, w
    raise ConvergenceError(f"Lanczos did not converge in {max_iter} matvecs (tol={tol})")


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
