"""Ising spin-glass and QUBO problem containers.

The two equivalent quadratic forms a quantum annealer accepts (Section 3.1 of
the paper):

* the Ising form over spins ``s_i in {-1, +1}`` with linear fields ``f_i`` and
  couplings ``g_ij`` (Eq. 2);
* the QUBO form over bits ``q_i in {0, 1}`` with an upper-triangular matrix
  ``Q`` (Eq. 3).

Both classes track a constant energy offset so that converting between the
two forms (Eq. 4) preserves energies exactly, not just argmins — which is
what lets tests assert equality of full energy landscapes.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import (TYPE_CHECKING, Dict, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_integer_in_range

if TYPE_CHECKING:  # scipy is imported by the functions that return its types
    from scipy import sparse

Coupling = Tuple[int, int]


class CsrTemplate(NamedTuple):
    """Structure of the symmetric CSR coupling matrix over one key tuple."""

    #: ``edges[s]`` is the key whose value data slot ``s`` holds.
    edges: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def spins_to_bits(spins) -> np.ndarray:
    """Map spins ``{-1, +1}`` to bits ``{0, 1}`` (Eq. 4: ``q = (s + 1) / 2``)."""
    spins = np.asarray(spins)
    if np.count_nonzero(np.abs(spins) != 1):
        raise ConfigurationError("spins must be -1 or +1")
    return (spins > 0).view(np.uint8)


def bits_to_spins(bits) -> np.ndarray:
    """Map bits ``{0, 1}`` to spins ``{-1, +1}`` (inverse of Eq. 4)."""
    bits = np.asarray(bits)
    if bits.size and not ((bits == 0) | (bits == 1)).all():
        raise ConfigurationError("bits must be 0 or 1")
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def _normalise_couplings(num_variables: int,
                         couplings: Mapping[Coupling, float],
                         *, allow_diagonal: bool) -> Dict[Coupling, float]:
    """Validate coupling keys and fold (j, i) entries onto (i, j) with i < j."""
    result: Dict[Coupling, float] = {}
    for (i, j), value in couplings.items():
        i = check_integer_in_range("coupling index", i, minimum=0,
                                   maximum=num_variables - 1)
        j = check_integer_in_range("coupling index", j, minimum=0,
                                   maximum=num_variables - 1)
        if i == j:
            if not allow_diagonal:
                raise ConfigurationError(
                    f"self-coupling ({i}, {i}) is not allowed in the Ising form"
                )
            key = (i, j)
        else:
            key = (i, j) if i < j else (j, i)
        value = float(value)
        if value == 0.0:
            continue
        result[key] = result.get(key, 0.0) + value
    return result


def symmetric_csr_template(num_variables: int, keys: Tuple[Coupling, ...]
                           ) -> CsrTemplate:
    """``(edges, indices, indptr)`` of the symmetric CSR over *keys*.

    Direct canonical-CSR assembly: couplings are duplicate-free, so
    lexsorting the doubled ``(row, col)`` entry list yields exactly the
    indices/indptr a COO round trip would (row-major, columns ascending
    within a row), and ``edges[s]`` is the key whose value data slot ``s``
    holds — the matrix data of a value vector ``v`` is the single gather
    ``v[edges]``, minus scipy's per-call COO construction and
    canonicalisation overhead.  The template is a pure function of the key
    tuple: the serving path keeps the ones it reuses with what it serves
    (an :class:`~repro.annealer.embedded.EmbeddingPlan`, a sampler).
    """
    pairs = np.fromiter(chain.from_iterable(keys), dtype=np.int64,
                        count=2 * len(keys)).reshape(len(keys), 2)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((cols, rows))
    indices = np.ascontiguousarray(cols[order])
    indptr = np.zeros(num_variables + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_variables), out=indptr[1:])
    return CsrTemplate(order % max(len(keys), 1), indices, indptr)


def product_energies(spins: np.ndarray, product: np.ndarray,
                     linear: np.ndarray, offset: float) -> np.ndarray:
    """The energies of the ``(K, N)`` float *spins* of one problem, given
    its symmetric coupling operator's ``(N, K)`` *product* with them
    (:meth:`IsingModel.energies`), its fields and its offset: the one
    formula both :meth:`IsingModel.energies` and a pack's read-out
    (:func:`repro.ising.solver.aggregate_pack`) evaluate."""
    # The operator holds every coupling twice (g_ij and g_ji), so the
    # halved symmetric quadratic form equals the upper-triangular sum.
    quadratic = 0.5 * np.einsum("ki,ik->k", spins, product)
    return quadratic + spins @ linear + offset


@dataclass
class IsingModel:
    """Ising spin-glass objective ``sum_{i<j} g_ij s_i s_j + sum_i f_i s_i + offset``.

    The couplings have two equivalent spellings: the ``couplings`` dict the
    constructor takes, and the array form ``coupling_keys`` (a tuple of
    canonical ``(i, j)`` pairs, shareable between problems of one structure)
    plus ``coupling_values`` (a float vector in key order).  A model holds
    whichever it was built from and derives the other on first read, so the
    serving path — which builds, scales, embeds and perturbs problems as
    arrays — never pays for a dict nobody looks at.  Treat both as
    read-only.
    """

    num_variables: int
    linear: np.ndarray
    couplings: Dict[Coupling, float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self) -> None:
        self.num_variables = check_integer_in_range(
            "num_variables", self.num_variables, minimum=1)
        linear = np.asarray(self.linear, dtype=float)
        if linear.shape != (self.num_variables,):
            raise ConfigurationError(
                f"linear must have shape ({self.num_variables},), got {linear.shape}"
            )
        self.linear = linear
        self.couplings = _normalise_couplings(self.num_variables, self.couplings,
                                              allow_diagonal=False)
        self.offset = float(self.offset)

    def __getattr__(self, name: str):
        # Reached only for an attribute that is not set: the spelling of the
        # couplings this model was not built from.  The dict view of an
        # array-built model is kept; the array form of a dict-built one is
        # derived per read, so it can never go stale against the dict.
        state = self.__dict__
        if name == "couplings" and "coupling_keys" in state:
            couplings = dict(zip(self.coupling_keys,
                                 self.coupling_values.tolist()))
            state["couplings"] = couplings
            return couplings
        if name == "coupling_keys" and "couplings" in state:
            return tuple(self.couplings)
        if name == "coupling_values" and "couplings" in state:
            return np.fromiter(self.couplings.values(), dtype=np.float64,
                               count=len(self.couplings))
        raise AttributeError(name)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(cls, num_variables: int, linear: np.ndarray,
                    keys: Tuple[Coupling, ...], values: np.ndarray,
                    offset: float = 0.0) -> "IsingModel":
        """Trusted fast construction from already-canonical arrays.

        Skips the per-key validation of ``__post_init__`` for internal hot
        paths that construct models per job (the ML reduction, coefficient
        scaling, hardware embedding, ICE perturbations): the caller
        guarantees *linear* is a float array of the right shape, every key
        of the tuple *keys* is a canonical ``(i, j)`` with ``i < j`` in
        range, and *values* is the float vector of their couplings.  The
        keys are kept as given, exact-zero values included: a row of an
        :class:`IsingPack` is a problem of the pack's structure.
        """
        model = cls.__new__(cls)
        model.num_variables = num_variables
        model.linear = linear
        model.coupling_keys = keys
        model.coupling_values = values
        model.offset = offset
        return model

    @classmethod
    def from_dense(cls, linear, coupling_matrix, offset: float = 0.0) -> "IsingModel":
        """Build from a dense upper-triangular coupling matrix.

        Only the strictly upper triangle of *coupling_matrix* is read; the
        diagonal and lower triangle are ignored.
        """
        linear = np.asarray(linear, dtype=float)
        matrix = np.asarray(coupling_matrix, dtype=float)
        n = linear.size
        if matrix.shape != (n, n):
            raise ConfigurationError(
                f"coupling matrix must be {n} x {n}, got {matrix.shape}"
            )
        couplings: Dict[Coupling, float] = {}
        for i in range(n):
            for j in range(i + 1, n):
                value = float(matrix[i, j])
                if value != 0.0:
                    couplings[(i, j)] = value
        return cls(num_variables=n, linear=linear, couplings=couplings, offset=offset)

    def to_dense(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(linear, coupling_matrix)`` with an upper-triangular matrix."""
        matrix = np.zeros((self.num_variables, self.num_variables))
        for (i, j), value in self.couplings.items():
            matrix[i, j] = value
        return self.linear.copy(), matrix

    def coupling_operator(self) -> sparse.csr_matrix:
        """Symmetric sparse CSR coupling matrix (zero diagonal).

        Build it once and pass it back into :meth:`energies` (or
        :func:`repro.ising.solver.aggregate_samples`) to evaluate many sample
        batches of one problem without densifying the couplings per call; the
        empty-couplings case returns the same canonical ``float64`` CSR dtype
        as the populated one.
        """
        from scipy import sparse

        n = self.num_variables
        matrix = sparse.csr_matrix((n, n), dtype=np.float64)
        keys = self.coupling_keys
        if keys:
            template = symmetric_csr_template(n, keys)
            matrix.indices, matrix.indptr = template.indices, template.indptr
            matrix.data = self.coupling_values[template.edges]
        return matrix

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def energy(self, spins) -> float:
        """Ising energy of a spin configuration (including the offset)."""
        spins = np.asarray(spins, dtype=float)
        if spins.shape != (self.num_variables,):
            raise ConfigurationError(
                f"spins must have shape ({self.num_variables},), got {spins.shape}"
            )
        total = float(self.linear @ spins) + self.offset
        for (i, j), value in self.couplings.items():
            total += value * spins[i] * spins[j]
        return total

    def energies(self, spin_matrix,
                 operator: Optional[sparse.spmatrix] = None,
                 product: Optional[np.ndarray] = None) -> np.ndarray:
        """Vectorised energy evaluation for a ``(num_samples, N)`` spin matrix.

        Parameters
        ----------
        spin_matrix:
            Samples as rows (a single 1-D configuration is promoted).
        operator:
            Optional prebuilt symmetric coupling operator from
            :meth:`coupling_operator`.  When provided, the quadratic term is
            evaluated through the sparse operator and the couplings are
            *not* densified — the point of caching the operator across the
            repeated aggregations of a batch cycle.
        product:
            Optional ``operator @ spin_matrix.T`` somebody already computed:
            the C-contiguous ``(N, num_samples)`` matrix scipy's CSR product
            returns, every element accumulated from ``0.0`` in CSR entry
            order (a pack's read-out,
            :class:`repro.annealer.backends.PackReadOut`, writes a whole
            pack's at once).  The layout is part of the contract —
            the contraction below sums in an order that depends on it — so
            another shape or memory order is refused, as is passing both
            *operator* and *product*.
        """
        spin_matrix = np.asarray(spin_matrix, dtype=float)
        if spin_matrix.ndim == 1:
            spin_matrix = spin_matrix[None, :]
        n = self.num_variables
        if operator is not None:
            if product is not None:
                raise ConfigurationError(
                    "pass the operator or its product, not both")
            if operator.shape != (n, n):
                raise ConfigurationError(
                    f"operator must have shape ({n}, {n}), "
                    f"got {operator.shape}"
                )
            product = operator @ spin_matrix.T
        elif product is not None and not (
                isinstance(product, np.ndarray)
                and product.shape == (n, len(spin_matrix))
                and product.flags.c_contiguous):
            raise ConfigurationError(
                f"product must be a C-contiguous ({n}, {len(spin_matrix)}) "
                "array")
        if product is not None:
            return product_energies(spin_matrix, product, self.linear,
                                    self.offset)
        _, matrix = self.to_dense()
        quadratic = np.einsum("ki,ij,kj->k", spin_matrix, matrix, spin_matrix)
        return quadratic + spin_matrix @ self.linear + self.offset

    @property
    def max_abs_coefficient(self) -> float:
        """Largest absolute coefficient (used for hardware-range normalisation)."""
        largest = float(np.max(np.abs(self.linear))) if self.linear.size else 0.0
        values = self.coupling_values
        if values.size:
            largest = max(largest, float(np.abs(values).max()))
        return largest

    def scaled(self, factor: float) -> "IsingModel":
        """Return a copy with every coefficient (and offset) multiplied by *factor*."""
        # Keys stay canonical under scaling, so the trusted constructor
        # applies (a coupling a tiny factor underflows to 0 keeps its key).
        return IsingModel.from_arrays(
            self.num_variables, self.linear * factor, self.coupling_keys,
            self.coupling_values * factor, self.offset * factor)

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_qubo(self) -> "QUBOModel":
        """Convert to the equivalent QUBO form (energies preserved exactly)."""
        quadratic: Dict[Coupling, float] = {}
        diagonal = 2.0 * self.linear.copy()
        offset = self.offset - float(np.sum(self.linear))
        for (i, j), value in self.couplings.items():
            quadratic[(i, j)] = 4.0 * value
            diagonal[i] -= 2.0 * value
            diagonal[j] -= 2.0 * value
            offset += value
        terms = dict(quadratic)
        for i, value in enumerate(diagonal):
            if value != 0.0:
                terms[(i, i)] = terms.get((i, i), 0.0) + value
        return QUBOModel(num_variables=self.num_variables, terms=terms, offset=offset)

    def __repr__(self) -> str:
        return (f"IsingModel(num_variables={self.num_variables}, "
                f"couplings={len(self.couplings)}, offset={self.offset:.3g})")


@dataclass(frozen=True, eq=False)
class IsingPack(SequenceABC):
    """Same-structure Ising problems held as arrays, one row per problem.

    The unit the annealer layer works on: one shared key tuple, a
    ``(problems, N)`` field matrix and a ``(problems, E)`` coupling-value
    matrix whose column *e* is the coupling of ``keys[e]``.  It is also a
    read-only ``Sequence[IsingModel]`` — problem *b* is materialised (from
    row views, no dict) when first indexed — so anything that takes a
    sequence of problems takes a pack, and the stages that understand the
    arrays skip the per-problem objects altogether.  The direct constructor
    is trusted like :meth:`IsingModel.from_arrays`: canonical keys, float64
    C-ordered matrices.  The keys are the structure: a zero in ``values`` is
    a coupling programmed to ``0.0``, and every row keeps every key.
    """

    num_variables: int
    keys: Tuple[Coupling, ...]
    linear: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    #: The problems' own objects when the pack was stacked from them
    #: (indexing then hands those back instead of building row views).
    models: Optional[Tuple[IsingModel, ...]] = None

    def __len__(self) -> int:
        return self.linear.shape[0]

    @cached_property
    def _rows(self) -> list:
        """Problem *b*'s object once it exists: indexing twice hands back
        the same one."""
        return list(self.models or [None] * len(self))

    def __getitem__(self, index: int) -> IsingModel:
        if not -len(self) <= index < len(self):
            raise IndexError(index)
        model = self._rows[index]
        if model is None:
            model = self._rows[index] = IsingModel.from_arrays(
                self.num_variables, self.linear[index], self.keys,
                self.values[index], float(self.offsets[index]))
        return model

    @classmethod
    def stack(cls, isings: Sequence[IsingModel],
              keys: Optional[Tuple[Coupling, ...]] = None
              ) -> Optional["IsingPack"]:
        """Stack *isings* with columns in *keys* order (default: the first
        problem's own); ``None`` when they do not share one size and one
        coupling key set (or there are none to stack).  A pack already in
        that order is returned as is.
        """
        if isinstance(isings, cls) and (keys is None or isings.keys == keys):
            return isings
        isings = list(isings)
        if not isings:
            return None
        if keys is None:
            keys = isings[0].coupling_keys
        rows = []
        for ising in isings:
            if ising.num_variables != isings[0].num_variables:
                return None
            if ising.coupling_keys == keys:
                rows.append(ising.coupling_values)
            elif ising.couplings.keys() == set(keys):
                rows.append([ising.couplings[key] for key in keys])
            else:
                return None
        return cls(
            isings[0].num_variables, keys,
            np.array([ising.linear for ising in isings], dtype=np.float64),
            np.array(rows, dtype=np.float64).reshape(len(isings), len(keys)),
            np.array([ising.offset for ising in isings], dtype=np.float64),
            tuple(isings))


@dataclass
class QUBOModel:
    """QUBO objective ``sum_{i<=j} Q_ij q_i q_j + offset`` over binary variables."""

    num_variables: int
    terms: Dict[Coupling, float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self) -> None:
        self.num_variables = check_integer_in_range(
            "num_variables", self.num_variables, minimum=1)
        self.terms = _normalise_couplings(self.num_variables, self.terms,
                                          allow_diagonal=True)
        self.offset = float(self.offset)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_matrix(cls, matrix, offset: float = 0.0) -> "QUBOModel":
        """Build from a dense upper-triangular (or symmetric) Q matrix."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError(f"Q must be square, got shape {matrix.shape}")
        n = matrix.shape[0]
        terms: Dict[Coupling, float] = {}
        for i in range(n):
            if matrix[i, i] != 0.0:
                terms[(i, i)] = float(matrix[i, i])
            for j in range(i + 1, n):
                value = float(matrix[i, j] + matrix[j, i])
                if value != 0.0:
                    terms[(i, j)] = value
        return cls(num_variables=n, terms=terms, offset=offset)

    def to_matrix(self) -> np.ndarray:
        """Dense upper-triangular Q matrix."""
        matrix = np.zeros((self.num_variables, self.num_variables))
        for (i, j), value in self.terms.items():
            matrix[i, j] = value
        return matrix

    # ------------------------------------------------------------------ #
    def energy(self, bits) -> float:
        """QUBO energy of a bit configuration (including the offset)."""
        bits = np.asarray(bits, dtype=float)
        if bits.shape != (self.num_variables,):
            raise ConfigurationError(
                f"bits must have shape ({self.num_variables},), got {bits.shape}"
            )
        total = self.offset
        for (i, j), value in self.terms.items():
            total += value * bits[i] * bits[j]
        return float(total)

    def to_ising(self) -> IsingModel:
        """Convert to the equivalent Ising form (energies preserved exactly)."""
        linear = np.zeros(self.num_variables)
        couplings: Dict[Coupling, float] = {}
        offset = self.offset
        for (i, j), value in self.terms.items():
            if i == j:
                linear[i] += value / 2.0
                offset += value / 2.0
            else:
                couplings[(i, j)] = couplings.get((i, j), 0.0) + value / 4.0
                linear[i] += value / 4.0
                linear[j] += value / 4.0
                offset += value / 4.0
        return IsingModel(num_variables=self.num_variables, linear=linear,
                          couplings=couplings, offset=offset)

    def __repr__(self) -> str:
        return (f"QUBOModel(num_variables={self.num_variables}, "
                f"terms={len(self.terms)}, offset={self.offset:.3g})")
