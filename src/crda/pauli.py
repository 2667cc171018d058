"""N-qubit Pauli-string operator algebra with dense and sparse backends.

Operators are complex-weighted sums of Pauli strings (tensor products of
I, X, Y, Z). Strings are stored in the symplectic encoding: a pair of
N-bit masks ``(x, z)`` with bit ``k`` describing site ``k``, and an
explicit power of ``i`` folded into the coefficient. Term products and
commutators then cost O(N) per pair instead of O(4^N).

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
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "PRUNE_TOL",
    "DEFAULT_DENSE_LIMIT",
    "NORM_DENSE_LIMIT",
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

# Largest size whose spectral norm is solved dense. Per Heisenberg commutator
# norm on one BLAS thread, dense against ARPACK: 2.7 ms against 5.0 ms at
# n=7, 13 ms against 5.6 ms at n=8, 480 ms against 11 ms at n=10.
NORM_DENSE_LIMIT = 7

# letter -> (x bit, z bit)
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER_OF = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}

_I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)

# 2^n vectors the Krylov norm holds besides the matrix: ARPACK's basis
# (ncv = 20), work array (3), residual, start vector, matvec output, scratch.
_KRYLOV_VECTORS = 27


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


def _product_phase_exp(x1: int, z1: int, x2: int, z2: int) -> int:
    """Power of i picked up when composing two symplectic-encoded strings."""
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    exp = (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        + 2 * (z1 & x2).bit_count()
        - (x3 & z3).bit_count()
    )
    return exp % 4


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
    return (((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2) == 1


class PauliSum:
    """Canonical complex-weighted sum of Pauli strings on ``n`` sites.

    Treat instances as immutable: every operation returns a new sum.
    Construction merges duplicate strings and prunes coefficients with
    magnitude below ``PRUNE_TOL``.
    """

    __slots__ = ("n", "_terms", "_matrix")

    def __init__(self, n: int, terms: Mapping[tuple[int, int], complex] | None = None):
        if n < 1:
            raise ValueError("need at least one site")
        self.n = n
        clean: dict[tuple[int, int], complex] = {}
        if terms:
            for key in sorted(terms):
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

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol <= 0.0:
            return not self._terms
        return all(abs(c) <= tol for c in self._terms.values())

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
        return PauliSum(self.n, _pair_products(self, other, anticommuting_only=False))

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
        """<state|h|state>, summed by numpy rather than a BLAS dot product.

        A threaded BLAS splits long dot products across threads, so the
        rounding, and the last digits, would follow the thread count.
        """
        return complex(np.sum(np.conj(state) * self.apply(state)))

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


def _parity_signs(idx: np.ndarray, z: int) -> np.ndarray:
    """(-1)^popcount(idx & z) for every basis index, as a float array."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def _pair_products(
    a: PauliSum, b: PauliSum, anticommuting_only: bool
) -> dict[tuple[int, int], complex]:
    """Summed string products ``PQ`` over all pairs, keyed by the result string."""
    a._require_same_size(b)
    acc: dict[tuple[int, int], complex] = {}
    for (x1, z1), c1 in a._terms.items():
        for (x2, z2), c2 in b._terms.items():
            if anticommuting_only and not ((x1 & z2).bit_count() + (z1 & x2).bit_count()) & 1:
                continue
            key = (x1 ^ x2, z1 ^ z2)
            phase = _I_POW[_product_phase_exp(x1, z1, x2, z2)]
            acc[key] = acc.get(key, 0.0) + c1 * c2 * phase
    return acc


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Exact ``ab - ba`` in canonical pruned form.

    Commuting string pairs are skipped: for anticommuting strings P, Q the
    pair contributes 2*PQ, otherwise nothing. The factor 2 is applied
    after summing; scaling by 2 is exact, so the order does not matter.
    """
    acc = _pair_products(a, b, anticommuting_only=True)
    for key in acc:
        acc[key] *= 2.0
    return PauliSum(a.n, acc)


def _krylov_extreme(h: PauliSum, gram: bool, tol: float, max_iter: int, seed: int) -> float:
    """Largest |eigenvalue| of Hermitian ``h`` (of ``h†h`` if ``gram``) by ARPACK."""
    _check_memory((1 + gram) * h._matrix_bytes() + _KRYLOV_VECTORS * (16 << h.n), "Krylov norm")
    hd = h.dagger() if gram else None
    dim = 1 << h.n
    matvecs = 0
    failed = ConvergenceError(f"ARPACK did not converge in {max_iter} matvecs (tol={tol})")

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        if matvecs > max_iter:
            raise failed
        w = h.apply(v)
        return hd.apply(w) if gram else w

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    op = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=matvec, dtype=complex)
    try:
        (lam,) = scipy.sparse.linalg.eigsh(
            op, k=1, which="LM", v0=v0, tol=tol, maxiter=max(max_iter, 1),
            return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackNoConvergence:
        raise failed from None
    return float(abs(lam))


def spectral_norm(
    h: PauliSum,
    dense_limit: int = NORM_DENSE_LIMIT,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    seed: int = 7,
) -> float:
    """Largest singular value, from the top |eigenvalue| of a Hermitian proxy.

    The proxy is ``h`` if Hermitian, ``i*h`` if anti-Hermitian (commutators
    of Hermitian sums), else ``h†h``. ``dense_limit`` is the largest size
    solved dense: up to it (and at one qubit, too small for ARPACK) the
    dense matrix goes to ``eigvalsh``. Above it, ARPACK ``eigsh`` (Lehoucq,
    Sorensen & Yang, 1998) runs from a seeded start vector on
    ``PauliSum.apply``, the sum's cached CSR matrix. ``max_iter`` budgets
    proxy matvecs: overrunning it, or ARPACK not converging, raises
    :class:`ConvergenceError` (CLI exit 4). :class:`DenseLimitError` (CLI
    exit 3) is raised before allocating when the matrix and the ARPACK
    workspace would not fit in physical memory.
    """
    if h.is_zero():
        return 0.0
    if not h.is_hermitian() and (1j * h).is_hermitian():
        h = 1j * h
    gram = not h.is_hermitian()
    if h.n <= max(dense_limit, 1):
        m = h.to_dense(h.n)
        lam = float(np.max(np.abs(np.linalg.eigvalsh(m.conj().T @ m if gram else m))))
    else:
        lam = _krylov_extreme(h, gram, tol, max_iter, seed)
    return float(np.sqrt(lam)) if gram else lam


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
