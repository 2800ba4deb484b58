"""Exact Fock-space realization of the pairing constructions on tiny momentum grids.

Everything here is desk scale by design: a lattice of a handful of momenta, an
occupation basis of at most a few million states, and operators assembled term
by term as sparse matrices. The point is not scale but exactness. Canonical
anticommutation relations, the particle-hole transformation, the correlation
Hamiltonian split and the quasi-bosonic generators all hold as matrix
identities that tests can check to near machine precision.

Momenta are integer triples n standing for k = (2*pi/L) n. All interaction
coefficients used here are real (radial potentials), so every matrix is real
and Hermitian conjugation is plain transposition.

The trial states never see the full space. B - B* maps each weakly connected
component of B's sparsity graph to itself, so an exponential acting on a
vector only touches the components that meet its support, and the energy
only needs the operator rows of the states the vector occupies. Under the
22-mode cap the only lattices with nonzero generators have 7 momenta and
one particle per spin, and the vacuum reaches 7 states there; one particle
per spin on 19 momenta would give at most 1 + 18^2 = 325. So the
exponentials are dense matrix exponentials of the reached block, with no
size switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components

from .potentials import fourier_V

SPIN_UP = 0
SPIN_DOWN = 1

# dense linear algebra above this dimension is off the table
_DENSE_LIMIT = 4096
# 2^22 states is already ~34 MB per vector; beyond that nothing finishes
_MAX_MODES = 22

_SHELL_TOL = 1e-9

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class LatticeConfig:
    """Finite symmetric momentum grid with completely filled Fermi balls."""

    L: float
    momenta: tuple[Triple, ...]
    kF_up: float
    kF_down: float
    N_up: int
    N_down: int

    @property
    def unit(self) -> float:
        return 2.0 * math.pi / self.L

    @cached_property
    def index(self) -> dict[Triple, int]:
        return {n: i for i, n in enumerate(self.momenta)}

    def k_norm(self, n: Triple) -> float:
        return self.unit * math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])

    def k_vec(self, n: Triple) -> np.ndarray:
        return self.unit * np.array(n, dtype=float)

    def kF(self, spin: int) -> float:
        return self.kF_up if spin == SPIN_UP else self.kF_down

    def in_ball(self, n: Triple, spin: int) -> bool:
        # boundary modes count as occupied
        return self.k_norm(n) <= self.kF(spin)

    @cached_property
    def _balls(self) -> tuple[tuple[Triple, ...], tuple[Triple, ...]]:
        return tuple(
            tuple(n for n in self.momenta if self.in_ball(n, s)) for s in (SPIN_UP, SPIN_DOWN)
        )

    def ball(self, spin: int) -> tuple[Triple, ...]:
        return self._balls[spin]


def _neg(n: Triple) -> Triple:
    return (-n[0], -n[1], -n[2])


def _add(a: Triple, b: Triple) -> Triple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub(a: Triple, b: Triple) -> Triple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def build_lattice(L: float, K_max: float, shell_up: float, shell_down: float) -> LatticeConfig:
    """Enumerate the symmetric grid |k| <= K_max and fill closed Fermi shells.

    Shell radii must fall strictly between realized momentum magnitudes, so
    that each Fermi ball is a union of complete degenerate shells. A radius
    that lands on a shell is refused, naming the two nearest safe radii.
    """
    if L <= 0.0 or K_max <= 0.0:
        raise ValueError("box side and momentum cutoff must be positive")
    unit = 2.0 * math.pi / L
    nmax = int(K_max / unit + 1e-12)
    momenta = []
    for i in range(-nmax, nmax + 1):
        for j in range(-nmax, nmax + 1):
            for l in range(-nmax, nmax + 1):
                if unit * math.sqrt(i * i + j * j + l * l) <= K_max:
                    momenta.append((i, j, l))
    momenta.sort()
    mags = sorted({unit * math.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2) for n in momenta})

    def check_shell(radius, label):
        if radius < 0.0:
            raise ValueError(f"{label} shell radius must be nonnegative")
        for i, m in enumerate(mags):
            if abs(radius - m) < _SHELL_TOL:
                below = 0.5 * (mags[i - 1] + m) if i > 0 else 0.5 * (m + mags[i + 1])
                if i + 1 < len(mags):
                    above = 0.5 * (m + mags[i + 1])
                else:
                    above = m + 0.5 * (m - mags[i - 1]) if i > 0 else m + 0.5 * unit
                raise ValueError(
                    f"{label} shell radius {radius} splits the degenerate shell at "
                    f"|k| = {m}; nearest closed-shell radii: {below} and {above}"
                )

    check_shell(shell_up, "up")
    check_shell(shell_down, "down")
    n_up = sum(1 for n in momenta if unit * math.sqrt(sum(c * c for c in n)) <= shell_up)
    n_down = sum(1 for n in momenta if unit * math.sqrt(sum(c * c for c in n)) <= shell_down)
    return LatticeConfig(
        L=L,
        momenta=tuple(momenta),
        kF_up=shell_up,
        kF_down=shell_down,
        N_up=n_up,
        N_down=n_down,
    )


@dataclass(frozen=True)
class FockBasis:
    """Occupation basis over (momentum, spin) modes in one fixed total order.

    Mode j occupies bit j of the basis-state integer; all fermionic signs are
    parities of occupied lower bits. The order is momentum-major with spin up
    before spin down, and the vacuum is index 0.
    """

    mode_order: tuple[tuple[Triple, int], ...]
    dimension: int

    @cached_property
    def mode_index(self) -> dict[tuple[Triple, int], int]:
        return {m: j for j, m in enumerate(self.mode_order)}

    @property
    def n_modes(self) -> int:
        return len(self.mode_order)

    def mode(self, momentum: Triple, spin: int) -> int:
        key = (tuple(int(c) for c in momentum), spin)
        if key not in self.mode_index:
            raise ValueError(f"unknown mode {key}")
        return self.mode_index[key]


def build_basis(lattice: LatticeConfig) -> FockBasis:
    modes = tuple((n, s) for n in lattice.momenta for s in (SPIN_UP, SPIN_DOWN))
    if len(modes) > _MAX_MODES:
        raise ValueError(
            f"{len(modes)} modes would need a state space of 2^{len(modes)}; "
            f"the practical limit is {_MAX_MODES} modes"
        )
    return FockBasis(mode_order=modes, dimension=1 << len(modes))


@dataclass(frozen=True)
class FockOperator:
    """Sparse operator on a FockBasis with verified structural flags."""

    basis: FockBasis
    matrix: sp.csr_matrix
    hermitian: bool = False
    antihermitian: bool = False
    number_conserving: bool = False

    def dagger(self) -> "FockOperator":
        return FockOperator(
            basis=self.basis,
            matrix=self.matrix.T.conj().tocsr(),
            hermitian=self.hermitian,
            antihermitian=self.antihermitian,
            number_conserving=self.number_conserving,
        )

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def expectation(self, vec: np.ndarray) -> float:
        """<vec, M vec>, summed over the stored entries of vec's nonzero rows."""
        rows = np.flatnonzero(vec != 0.0)
        at, cols, vals = _gather_rows(self.matrix, rows)
        return float(np.real(np.sum(np.conj(vec[rows])[at] * vals * vec[cols])))

    @cached_property
    def blocks(self) -> np.ndarray:
        """Weakly connected component label of every basis state.

        Each component is closed under the matrix and its transpose, so
        these are the invariant blocks of M - M* and of M + M*.
        """
        return connected_components(self.matrix, directed=True, connection="weak")[1]

    @cached_property
    def _block_members(self) -> tuple[np.ndarray, np.ndarray]:
        # component c holds states order[indptr[c]:indptr[c + 1]], as in CSR
        order = np.argsort(self.blocks, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(self.blocks))))
        return order, indptr

    def reach(self, states: np.ndarray) -> np.ndarray:
        """Sorted union of the blocks that hold any of the given states."""
        order, indptr = self._block_members
        _, pos = _row_positions(indptr, np.unique(self.blocks[states]))
        return np.sort(order[pos])


def _row_positions(indptr: np.ndarray, rows: np.ndarray):
    """Entries of `rows` in a CSR index: which of `rows` each is, and where."""
    start = indptr[rows]
    counts = indptr[rows + 1] - start
    at = np.repeat(np.arange(rows.size), counts)
    return at, start[at] + np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _gather_rows(m: sp.csr_matrix, rows: np.ndarray):
    """Stored entries of the CSR rows `rows`: (position in rows, column, value)."""
    at, pos = _row_positions(m.indptr, rows)
    return at, m.indices[pos], m.data[pos]


def _abs_max(m) -> float:
    return float(np.abs(m.data).max()) if m.nnz else 0.0


def make_operator(basis, matrix, hermitian=False, antihermitian=False,
                  number_conserving=False) -> FockOperator:
    """Wrap a sparse matrix, checking every structural flag that is claimed."""
    matrix = matrix.tocsr()
    scale = 1.0 + _abs_max(matrix)
    if hermitian and _abs_max((matrix - matrix.T.conj()).tocoo()) > 1e-12 * scale:
        raise ValueError("operator claimed Hermitian is not")
    if antihermitian and _abs_max((matrix + matrix.T.conj()).tocoo()) > 1e-12 * scale:
        raise ValueError("operator claimed anti-Hermitian is not")
    if number_conserving and matrix.nnz:
        coo = matrix.tocoo()
        rows = np.bitwise_count(coo.row.astype(np.uint64))
        cols = np.bitwise_count(coo.col.astype(np.uint64))
        if np.any(rows != cols):
            raise ValueError("operator claimed number conserving is not")
    return FockOperator(
        basis=basis,
        matrix=matrix,
        hermitian=hermitian,
        antihermitian=antihermitian,
        number_conserving=number_conserving,
    )


# entries generated per assembly block: large enough to amortize the sparse
# addition, small enough that no block dominates peak memory
_BLOCK = 1 << 16


def _reduce(ops):
    """Symbolic right-to-left pass over one product of ladder operators.

    ops lists (mode, dagger) factors in written order; the rightmost factor
    acts first. A string touching the modes in `fixed` maps a basis state x
    to a nonzero image only if x carries the bits `need` on them; the image
    then carries `final` there, agrees with x elsewhere, and comes with the
    factor sign * (-1)^popcount(x & flip), where flip collects the untouched
    modes lying below an odd number of factors. Returns
    ((fixed, need, final, flip), sign), or None when the string vanishes on
    every state.
    """
    fixed = need = cur = 0
    for mode, dag in reversed(ops):
        bit = 1 << mode
        if not fixed & bit:
            fixed |= bit
            if not dag:
                need |= bit
                cur |= bit
        elif bool(cur & bit) == dag:
            return None
        cur ^= bit
    # second pass: with every required bit known, collect the sign pieces
    cur, odd, flip = need, 0, 0
    for mode, _ in reversed(ops):
        bit = 1 << mode
        odd ^= (cur & (bit - 1)).bit_count() & 1
        flip ^= bit - 1
        cur ^= bit
    return (fixed, need, cur, flip & ~fixed), -1.0 if odd else 1.0


def _assemble(basis: FockBasis, terms) -> sp.csr_matrix:
    """Sum coefficient * opstring over a term list into one sparse matrix.

    Each string is reduced symbolically first, and strings with the same
    reduced form are merged. Only the source states that satisfy a string's
    fixed bits are generated, by inserting zero bits at the fixed positions
    into a counter over the free ones. Strings with equally many fixed modes
    share one vectorized pass, in blocks of about _BLOCK entries that are
    added into the result as soon as they exist. Strings that leave every
    state in place (number-like ones) sum into a dense diagonal instead.
    """
    dim, n_modes = basis.dimension, basis.n_modes
    merged: dict[tuple[int, int, int, int], float] = {}
    for coef, ops in terms:
        if coef == 0.0:
            continue
        red = _reduce(ops)
        if red is not None:
            form, sign = red
            merged[form] = merged.get(form, 0.0) + sign * coef
    groups: dict[tuple[int, bool], list] = {}
    for (fixed, need, final, flip), coef in merged.items():
        if coef != 0.0:
            groups.setdefault((fixed.bit_count(), need == final), []).append(
                (coef, fixed, need, final, flip))
    diag = np.zeros(dim)
    acc = sp.csr_matrix((dim, dim), dtype=np.float64)
    for (m, diagonal), group in groups.items():
        free = np.arange(1 << (n_modes - m), dtype=np.int64)
        per_block = max(1, _BLOCK >> (n_modes - m))
        for lo in range(0, len(group), per_block):
            coef, fixed, need, final, flip = (
                np.array(col) for col in zip(*group[lo:lo + per_block])
            )
            x = np.broadcast_to(free, (coef.size, free.size))
            for p in _fixed_positions(fixed, m, n_modes).T:
                p = p[:, None]
                x = ((x >> p) << (p + 1)) | (x & ((1 << p) - 1))
            parity = np.bitwise_count(x & flip[:, None]) & 1
            vals = (coef[:, None] * (1.0 - 2.0 * parity)).ravel()
            src = (x | need[:, None]).ravel()
            if diagonal:
                diag += np.bincount(src, weights=vals, minlength=dim)
            else:
                dst = (x | final[:, None]).ravel()
                acc = acc + sp.csr_matrix((vals, (dst, src)), shape=(dim, dim))
    if diag.any():
        acc = acc + sp.diags(diag, format="csr")
    acc.eliminate_zeros()
    return acc


def _fixed_positions(fixed: np.ndarray, m: int, n_modes: int) -> np.ndarray:
    """Set-bit positions of each mask, ascending, as a (len(fixed), m) array."""
    bits = (fixed[:, None] >> np.arange(n_modes)) & 1
    return np.nonzero(bits)[1].reshape(fixed.size, m)


def _diagonal(basis: FockBasis, per_mode: np.ndarray) -> sp.csr_matrix:
    states = np.arange(basis.dimension, dtype=np.int64)
    d = np.zeros(basis.dimension)
    for j in range(basis.n_modes):
        d += per_mode[j] * ((states >> j) & 1)
    return sp.diags(d).tocsr()


def mode_operator(basis: FockBasis, momentum, spin: int, kind: str) -> FockOperator:
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    j = basis.mode(momentum, spin)
    m = _assemble(basis, [(1.0, [(j, kind == "create")])])
    return make_operator(basis, m)


def number_operator(basis: FockBasis, spin=None) -> FockOperator:
    per_mode = np.array(
        [1.0 if spin is None or s == spin else 0.0 for _, s in basis.mode_order]
    )
    return make_operator(basis, _diagonal(basis, per_mode), hermitian=True,
                         number_conserving=True)


def vhat_from_potential(lattice: LatticeConfig, potential) -> dict[Triple, float]:
    """Interaction coefficients V^(k) on the full grid difference set."""
    diffs = {_sub(a, b) for a in lattice.momenta for b in lattice.momenta}
    norms = sorted({n[0] ** 2 + n[1] ** 2 + n[2] ** 2 for n in diffs})
    by_norm = {m: float(fourier_V(potential, lattice.unit * math.sqrt(m))) for m in norms}
    return {n: by_norm[n[0] ** 2 + n[1] ** 2 + n[2] ** 2] for n in diffs}


def _validate_vhat(vhat) -> None:
    for n, val in vhat.items():
        v = complex(val)
        if v.imag != 0.0:
            raise ValueError(f"V^({n}) must be real")
        m = _neg(n)
        if m not in vhat:
            raise ValueError(f"V^ missing the reflected transfer {m}")
        if abs(vhat[m] - val) > 1e-12 * (1.0 + abs(val)):
            raise ValueError(f"V^({n}) != V^({m}) breaks reflection symmetry")


def _uv_tables(lattice: LatticeConfig):
    """Sharp particle/hole indicator per momentum and spin (holes keep the boundary)."""
    u = [np.empty(len(lattice.momenta)), np.empty(len(lattice.momenta))]
    for s in (SPIN_UP, SPIN_DOWN):
        for i, n in enumerate(lattice.momenta):
            u[s][i] = 0.0 if lattice.in_ball(n, s) else 1.0
    return u[0], 1.0 - u[0], u[1], 1.0 - u[1]


def build_hamiltonian(lattice: LatticeConfig, basis: FockBasis, vhat) -> FockOperator:
    """Kinetic term plus the two-body sum over all transfers that stay on the grid.

    Transfers pushing a momentum off the grid are dropped; that hard
    truncation keeps the operator Hermitian and number conserving, and is the
    finite model all identity checks refer to.
    """
    _validate_vhat(vhat)
    per_mode = np.array([lattice.k_norm(n) ** 2 for n, _ in basis.mode_order])
    kin = _diagonal(basis, per_mode)
    idx = lattice.index
    pref = 1.0 / (2.0 * lattice.L ** 3)
    terms = []
    for nk, val in vhat.items():
        if val == 0.0:
            continue
        for p in lattice.momenta:
            pk = _add(p, nk)
            if pk not in idx:
                continue
            for q in lattice.momenta:
                qk = _sub(q, nk)
                if qk not in idx:
                    continue
                for s1 in (SPIN_UP, SPIN_DOWN):
                    for s2 in (SPIN_UP, SPIN_DOWN):
                        ops = [
                            (basis.mode(pk, s1), True),
                            (basis.mode(qk, s2), True),
                            (basis.mode(q, s2), False),
                            (basis.mode(p, s1), False),
                        ]
                        terms.append((pref * val, ops))
    m = kin + _assemble(basis, terms)
    return make_operator(basis, m, hermitian=True, number_conserving=True)


def ffg_index(lattice: LatticeConfig, basis: FockBasis) -> int:
    """Basis index of the filled-Fermi-ball determinant."""
    x = 0
    for j, (n, s) in enumerate(basis.mode_order):
        if lattice.in_ball(n, s):
            x |= 1 << j
    return x


# bounded, so that a process sweeping lattices does not grow without limit
@lru_cache(maxsize=4)
def ph_transform(lattice: LatticeConfig, basis: FockBasis) -> FockOperator:
    """Unitary R with R* a_k R = a_k outside the Fermi ball and a*_{-k} inside.

    Built as a product of commuting two-mode factors, one per +-k hole pair,
    with a parity-dressed factor for each k = 0 hole mode. The result is a
    real signed permutation; the sign is fixed by making the overlap of R
    applied to the vacuum with the filled-determinant state positive. Every
    per-mode image and unitarity itself are verified before the matrix is
    returned, so a cached transform can be trusted blindly.
    """
    dim = basis.dimension
    eye = sp.identity(dim, format="csr", dtype=np.float64)
    states = np.arange(dim, dtype=np.int64)

    def ladder(j, dag):
        m = _assemble(basis, [(1.0, [(j, dag)])])
        return m

    r = eye
    for spin in (SPIN_UP, SPIN_DOWN):
        done = set()
        for n in lattice.ball(spin):
            if n == (0, 0, 0) or n in done:
                continue
            done.add(n)
            done.add(_neg(n))
            jh = basis.mode(n, spin)
            jb = basis.mode(_neg(n), spin)
            a_h = ladder(jh, False)
            a_b = ladder(jb, False)
            g = a_h.T @ a_b.T - a_b @ a_h
            u = eye + g + g @ g
            flip = sp.diags(1.0 - 2.0 * ((states >> jh) & 1)).tocsr()
            r = r @ (u @ flip)
    for spin in (SPIN_UP, SPIN_DOWN):
        if (0, 0, 0) in lattice.index and lattice.in_ball((0, 0, 0), spin):
            j0 = basis.mode((0, 0, 0), spin)
            a0 = ladder(j0, False)
            parity = sp.diags(1.0 - 2.0 * (np.bitwise_count(states.astype(np.uint64)) & 1)).tocsr()
            flip = sp.diags(1.0 - 2.0 * ((states >> j0) & 1)).tocsr()
            r = r @ ((a0 + a0.T) @ parity @ flip)

    col = r.getcol(0).toarray().ravel()
    if col[ffg_index(lattice, basis)] < 0.0:
        r = -r

    if _abs_max((r.T @ r - eye).tocoo()) > 1e-12:
        raise RuntimeError("particle-hole transform failed the unitarity check")
    for j, (n, spin) in enumerate(basis.mode_order):
        a_j = ladder(j, False)
        img = (r.T @ a_j @ r).tocoo()
        want = ladder(basis.mode(_neg(n), spin), True) if lattice.in_ball(n, spin) else a_j
        if _abs_max((img - want).tocoo()) > 1e-12:
            raise RuntimeError(f"particle-hole transform maps mode {j} incorrectly")
    return make_operator(basis, r)


def particle_hole_conjugate(basis: FockBasis, lattice: LatticeConfig,
                            o: FockOperator) -> FockOperator:
    r = ph_transform(lattice, basis).matrix
    return make_operator(basis, (r.T @ o.matrix @ r).tocsr(), hermitian=o.hermitian)


def ffg_energy(lattice: LatticeConfig, basis: FockBasis, h: FockOperator) -> float:
    """Energy of the filled-determinant state, straight from the matrices."""
    v = ph_transform(lattice, basis).matrix.getcol(0).toarray().ravel()
    return float(v @ (h.matrix @ v))


def ffg_energy_wick(lattice: LatticeConfig, vhat) -> float:
    """Same energy from the pair-contraction closed form, no matrices involved.

    Exact on the truncated model too: every contributing transfer connects two
    Fermi-ball momenta, so nothing is lost to the grid cutoff.
    """
    kin = sum(
        lattice.k_norm(n) ** 2
        for s in (SPIN_UP, SPIN_DOWN)
        for n in lattice.ball(s)
    )
    n_tot = lattice.N_up + lattice.N_down
    exch = 0.0
    for s in (SPIN_UP, SPIN_DOWN):
        ball = lattice.ball(s)
        for p in ball:
            for l in ball:
                exch += vhat[_sub(p, l)]
    return kin + (vhat[(0, 0, 0)] * n_tot * n_tot - exch) / (2.0 * lattice.L ** 3)


def build_corr_terms(lattice: LatticeConfig, basis: FockBasis, vhat) -> dict:
    """Correlation Hamiltonian pieces in momentum form, term by term.

    Conjugating the Hamiltonian by the particle-hole transform and normal
    ordering sorts it into a constant (the determinant energy), a quadratic
    part (H0 and X) and quartic blocks Q1..Q4 classified by how many
    excitations they create. The identity holds exactly on the subspace where
    particle and hole numbers balance within each spin; the leftover on the
    rest is the diagonal kF^2-weighted imbalance that corr_identity_report
    measures.
    """
    _validate_vhat(vhat)
    idx = lattice.index
    mom = lattice.momenta
    u_up, v_up, u_dn, v_dn = _uv_tables(lattice)
    u = {SPIN_UP: u_up, SPIN_DOWN: u_dn}
    v = {SPIN_UP: v_up, SPIN_DOWN: v_dn}
    vol = lattice.L ** 3

    per_mode_h0 = np.array(
        [abs(lattice.k_norm(n) ** 2 - lattice.kF(s) ** 2) for n, s in basis.mode_order]
    )
    h0 = make_operator(basis, _diagonal(basis, per_mode_h0), hermitian=True,
                       number_conserving=True)

    # X dresses each mode with the mean field of the filled balls: direct
    # coupling to the total density minus the same-spin exchange fold. The
    # direct piece is proportional to the particle-hole imbalance and so is
    # invisible in any fixed-number expectation, but the operator identity
    # needs it.
    what = {}
    for s in (SPIN_UP, SPIN_DOWN):
        ball = lattice.ball(s)
        what[s] = {t: sum(vhat[_sub(t, m)] for m in ball) / vol for t in mom}
    hartree = (lattice.N_up + lattice.N_down) * vhat[(0, 0, 0)] / vol
    per_mode_x = np.array(
        [
            (hartree - what[s][n]) * (u[s][idx[n]] - v[s][idx[n]])
            for n, s in basis.mode_order
        ]
    )
    x = make_operator(basis, _diagonal(basis, per_mode_x), hermitian=True,
                      number_conserving=True)

    spins = (SPIN_UP, SPIN_DOWN)

    q1_terms = []
    for s1 in spins:
        for s2 in spins:
            for k1 in mom:
                if u[s1][idx[k1]] == 0.0:
                    continue
                for k2 in mom:
                    # one particle and one hole created at x, a hole pair eaten at y
                    if v[s1][idx[k2]] == 0.0:
                        continue
                    for k3 in mom:
                        if v[s2][idx[k3]] == 0.0:
                            continue
                        k4 = _sub(_add(k1, k2), k3)
                        if k4 not in idx or u[s2][idx[k4]] == 0.0:
                            continue
                        ops = [
                            (basis.mode(k1, s1), True),
                            (basis.mode(k2, s1), True),
                            (basis.mode(k3, s2), False),
                            (basis.mode(k4, s2), False),
                        ]
                        q1_terms.append((vhat[_add(k1, k2)] / vol, ops))
    for s1 in spins:
        for s2 in spins:
            for k1 in mom:
                for k2 in mom:
                    if v[s2][idx[k2]] == 0.0:
                        continue
                    for k4 in mom:
                        k3 = _sub(_add(k1, k2), k4)
                        if k3 not in idx or v[s2][idx[k3]] == 0.0:
                            continue
                        coef = 0.0
                        if v[s1][idx[k1]] != 0.0 and v[s1][idx[k4]] != 0.0:
                            coef += 0.5
                        if u[s1][idx[k1]] != 0.0 and u[s1][idx[k4]] != 0.0:
                            coef -= 1.0
                        if coef == 0.0:
                            continue
                        ops = [
                            (basis.mode(k1, s1), True),
                            (basis.mode(k2, s2), True),
                            (basis.mode(k3, s2), False),
                            (basis.mode(k4, s1), False),
                        ]
                        q1_terms.append((coef * vhat[_sub(k1, k4)] / vol, ops))
    q1 = make_operator(basis, _assemble(basis, q1_terms), hermitian=True,
                       number_conserving=True)

    q2_terms = {True: [], False: []}
    for s1 in spins:
        for s2 in spins:
            for k1 in mom:
                if u[s1][idx[k1]] == 0.0:
                    continue
                for k2 in mom:
                    if u[s2][idx[k2]] == 0.0:
                        continue
                    for k3 in mom:
                        if v[s2][idx[k3]] == 0.0:
                            continue
                        k4 = _neg(_add(_add(k1, k2), k3))
                        if k4 not in idx or v[s1][idx[k4]] == 0.0:
                            continue
                        ops = [
                            (basis.mode(k1, s1), True),
                            (basis.mode(k2, s2), True),
                            (basis.mode(k3, s2), True),
                            (basis.mode(k4, s1), True),
                        ]
                        q2_terms[s1 == s2].append((0.5 * vhat[_add(k1, k4)] / vol, ops))
    half_par = _assemble(basis, q2_terms[True])
    half_ud = _assemble(basis, q2_terms[False])
    q2_par = make_operator(basis, half_par + half_par.T, hermitian=True)
    q2_ud = make_operator(basis, half_ud + half_ud.T, hermitian=True)

    q3_terms = []
    for s1 in spins:
        for s2 in spins:
            for k1 in mom:
                if u[s1][idx[k1]] == 0.0:
                    continue
                for k2 in mom:
                    for k3 in mom:
                        if v[s1][idx[k3]] == 0.0:
                            continue
                        k4 = _add(_add(k1, k2), k3)
                        if k4 not in idx:
                            continue
                        coef = 0.0
                        if v[s2][idx[k2]] != 0.0 and v[s2][idx[k4]] != 0.0:
                            coef += 1.0
                        if u[s2][idx[k2]] != 0.0 and u[s2][idx[k4]] != 0.0:
                            coef -= 1.0
                        if coef == 0.0:
                            continue
                        ops = [
                            (basis.mode(k1, s1), True),
                            (basis.mode(k2, s2), True),
                            (basis.mode(k3, s1), True),
                            (basis.mode(k4, s2), False),
                        ]
                        q3_terms.append((coef * vhat[_add(k1, k3)] / vol, ops))
    half_q3 = _assemble(basis, q3_terms)
    q3 = make_operator(basis, half_q3 + half_q3.T, hermitian=True)

    q4_terms = []
    for s1 in spins:
        for s2 in spins:
            for k1 in mom:
                if u[s1][idx[k1]] == 0.0:
                    continue
                for k2 in mom:
                    if u[s2][idx[k2]] == 0.0:
                        continue
                    for k4 in mom:
                        if u[s1][idx[k4]] == 0.0:
                            continue
                        k3 = _sub(_add(k1, k2), k4)
                        if k3 not in idx or u[s2][idx[k3]] == 0.0:
                            continue
                        ops = [
                            (basis.mode(k1, s1), True),
                            (basis.mode(k2, s2), True),
                            (basis.mode(k3, s2), False),
                            (basis.mode(k4, s1), False),
                        ]
                        q4_terms.append((0.5 * vhat[_sub(k1, k4)] / vol, ops))
    q4 = make_operator(basis, _assemble(basis, q4_terms), hermitian=True,
                       number_conserving=True)

    return {
        "H0": h0,
        "X": x,
        "Q1": q1,
        "Q2_par": q2_par,
        "Q2_ud": q2_ud,
        "Q3": q3,
        "Q4": q4,
    }


def corr_hamiltonian(terms: dict) -> FockOperator:
    basis = next(iter(terms.values())).basis
    total = sum(t.matrix for t in terms.values())
    return make_operator(basis, total, hermitian=True)


def excitation_counts(lattice: LatticeConfig, basis: FockBasis):
    """Per basis state: particles and holes of each spin, as four arrays."""
    states = np.arange(basis.dimension, dtype=np.uint64)
    masks = {(s, inside): 0 for s in (SPIN_UP, SPIN_DOWN) for inside in (False, True)}
    for j, (n, s) in enumerate(basis.mode_order):
        masks[(s, lattice.in_ball(n, s))] |= 1 << j
    count = lambda m: np.bitwise_count(states & np.uint64(m)).astype(np.int64)
    return (
        count(masks[(SPIN_UP, False)]),
        count(masks[(SPIN_UP, True)]),
        count(masks[(SPIN_DOWN, False)]),
        count(masks[(SPIN_DOWN, True)]),
    )


def balanced_mask(lattice: LatticeConfig, basis: FockBasis) -> np.ndarray:
    pu, hu, pd, hd = excitation_counts(lattice, basis)
    return (pu == hu) & (pd == hd)


def corr_identity_report(lattice: LatticeConfig, basis: FockBasis,
                         h: FockOperator, terms: dict) -> dict:
    """Residuals of R*HR = E_ffg + correlation terms, split by subspace.

    The difference is diagonal; on spin-balanced states it vanishes, and on
    the rest it equals sum_sigma kF_sigma^2 (particles - holes). The report
    carries the off-diagonal maximum, the balanced-diagonal maximum and the
    worst deviation from that imbalance formula.
    """
    r = ph_transform(lattice, basis).matrix
    conj = (r.T @ h.matrix @ r).tocsr()
    e_ffg = ffg_energy(lattice, basis, h)
    total = corr_hamiltonian(terms).matrix
    dim = basis.dimension
    diff = (conj - total - sp.identity(dim, format="csr") * e_ffg).tocsr()
    diag = diff.diagonal()
    off = diff - sp.diags(diag)
    pu, hu, pd, hd = excitation_counts(lattice, basis)
    expected = lattice.kF_up ** 2 * (pu - hu) + lattice.kF_down ** 2 * (pd - hd)
    balanced = balanced_mask(lattice, basis)
    return {
        "offdiagonal": _abs_max(off.tocoo()),
        "balanced_diagonal": float(np.abs(diag[balanced]).max()),
        "imbalance_fit": float(np.abs(diag - expected).max()),
    }


def pair_annihilator(lattice: LatticeConfig, basis: FockBasis, p: Triple,
                     spin: int) -> FockOperator:
    """Quasi-bosonic operator b_{p,sigma}: all particle-hole pair removals at transfer p."""
    idx = lattice.index
    terms = []
    for k in lattice.ball(spin):
        pk = _add(p, k)
        if pk not in idx or lattice.in_ball(pk, spin):
            continue
        ops = [(basis.mode(pk, spin), False), (basis.mode(_neg(k), spin), False)]
        terms.append((1.0, ops))
    return make_operator(basis, _assemble(basis, terms))


def q2_ud_from_pairs(lattice: LatticeConfig, basis: FockBasis, vhat) -> FockOperator:
    """Opposite-spin Q2 rebuilt from pair operators, for cross-checking."""
    _validate_vhat(vhat)
    vol = lattice.L ** 3
    dim = basis.dimension
    acc = sp.csr_matrix((dim, dim), dtype=np.float64)
    for p, val in vhat.items():
        if val == 0.0:
            continue
        bu = pair_annihilator(lattice, basis, p, SPIN_UP).matrix
        if bu.nnz == 0:
            continue
        bd = pair_annihilator(lattice, basis, _neg(p), SPIN_DOWN).matrix
        if bd.nnz == 0:
            continue
        acc = acc + (val / vol) * (bu @ bd)
    return make_operator(basis, acc + acc.T, hermitian=True)


def build_generator(lattice: LatticeConfig, basis: FockBasis, which: str, *,
                    phi=None, eta=None, cutoff=None) -> FockOperator:
    """Quasi-bosonic generator B1 or B2 (the annihilation half; take B - B* yourself).

    B1 wants a periodized scattering function carrying the high-pass factor;
    B2 wants the pair kernel plus the cutoff config whose low-pass window and
    epsilon it should use. Terms whose momenta leave the grid or hit Pauli
    blocking are simply absent.
    """
    idx = lattice.index
    vol = lattice.L ** 3
    terms = []
    if which == "B1":
        if phi is None:
            raise ValueError("B1 needs the periodized scattering coefficients")
        if hasattr(phi, "L") and abs(phi.L - lattice.L) > 1e-12 * lattice.L:
            raise ValueError("scattering function was periodized for a different box")
        up, down = lattice.ball(SPIN_UP), lattice.ball(SPIN_DOWN)
        out_up = set(lattice.momenta) - set(up)
        out_down = set(lattice.momenta) - set(down)
        # only transfers lifting an up momentum out of its ball can contribute
        transfers = sorted({_sub(m, k) for m in out_up for k in up})
        if hasattr(phi, "coeffs"):
            coeffs = phi.coeffs(transfers).tolist()
        else:
            coeffs = [phi.get(p, 0.0) for p in transfers]
        for p, c in zip(transfers, coeffs):
            if c == 0.0:
                continue
            for k in up:
                pk = _add(p, k)
                if pk not in out_up:
                    continue
                for kp in down:
                    pkp = _sub(kp, p)
                    if pkp not in out_down:
                        continue
                    ops = [
                        (basis.mode(pk, SPIN_UP), False),
                        (basis.mode(_neg(k), SPIN_UP), False),
                        (basis.mode(pkp, SPIN_DOWN), False),
                        (basis.mode(_neg(kp), SPIN_DOWN), False),
                    ]
                    terms.append((c / vol, ops))
    elif which == "B2":
        if eta is None or cutoff is None:
            raise ValueError("B2 needs the pair kernel and a cutoff config")
        for r in lattice.ball(SPIN_UP):
            for m in lattice.momenta:
                if lattice.in_ball(m, SPIN_UP):
                    continue
                p = _sub(m, r)
                w = float(cutoff.chi_less(lattice.k_norm(p)))
                if w == 0.0:
                    continue
                for rp in lattice.ball(SPIN_DOWN):
                    mp = _add(_neg(p), rp)
                    if mp not in idx or lattice.in_ball(mp, SPIN_DOWN):
                        continue
                    val = float(
                        eta.value(lattice.k_vec(r), lattice.k_vec(rp), lattice.k_vec(p))
                    )
                    ops = [
                        (basis.mode(m, SPIN_UP), False),
                        (basis.mode(_neg(r), SPIN_UP), False),
                        (basis.mode(mp, SPIN_DOWN), False),
                        (basis.mode(_neg(rp), SPIN_DOWN), False),
                    ]
                    terms.append((w * val / vol, ops))
    else:
        raise ValueError(f"which must be 'B1' or 'B2', got {which!r}")
    return make_operator(basis, _assemble(basis, terms))


def trial_state(basis: FockBasis, b1: FockOperator, b2: FockOperator,
                lambda1: float, lambda2: float) -> np.ndarray:
    """exp(l1 (B1 - B1*)) exp(l2 (B2 - B2*)) applied to the vacuum.

    Each exponential acts only on the blocks of its generator that hold the
    current vector (FockOperator.reach), as a dense scipy.linalg.expm of
    that block. The block is tiny: 7 states on every lattice the mode cap
    admits with nonzero generators, and at most 1 + 18^2 = 325 states with
    one particle per spin on 19 momenta. A dense exponential of that size
    costs well under a millisecond, so no switch to a sparse method is
    needed.
    """
    sel = np.zeros(1, dtype=np.int64)
    amp = np.ones(1)
    for b, lam in ((b2, lambda2), (b1, lambda1)):
        if lam == 0.0:
            continue
        if b.basis is not basis and b.basis != basis:
            raise ValueError("generator built on a different basis")
        grown = b.reach(sel)
        # the block is closed, so every stored column of its rows lies in it
        at, cols, vals = _gather_rows(b.matrix, grown)
        blk = np.zeros((grown.size, grown.size))
        np.add.at(blk, (at, np.searchsorted(grown, cols)), vals)
        start = np.zeros(grown.size)
        start[np.searchsorted(grown, sel)] = amp
        sel, amp = grown, scipy.linalg.expm(lam * (blk - blk.T)) @ start
    vec = np.zeros(basis.dimension)
    vec[sel] = amp
    return vec


def trial_block(b1: FockOperator, b2: FockOperator) -> np.ndarray:
    """The states trial_state's exponentials can act on: the blocks of B1
    meeting the block of B2 that holds the vacuum."""
    return b1.reach(b2.reach(np.zeros(1, dtype=np.int64)))


def trial_energy(lattice: LatticeConfig, basis: FockBasis, corr_terms: dict,
                 b1: FockOperator, b2: FockOperator,
                 lambda1: float, lambda2: float) -> float:
    """Correlation energy of the trial state: the sum of the terms'
    expectations, each taken over the rows of the state's support only
    (the trial block, 7 rows on the demo lattice, out of 2^14)."""
    # every term was checked Hermitian when built, so their sum needs no recheck
    vec = trial_state(basis, b1, b2, lambda1, lambda2)
    return sum(t.expectation(vec) for t in corr_terms.values())


def _spin_counts(basis: FockBasis):
    states = np.arange(basis.dimension, dtype=np.uint64)
    up_mask = 0
    down_mask = 0
    for j, (_, s) in enumerate(basis.mode_order):
        if s == SPIN_UP:
            up_mask |= 1 << j
        else:
            down_mask |= 1 << j
    n_up = np.bitwise_count(states & np.uint64(up_mask)).astype(np.int64)
    n_down = np.bitwise_count(states & np.uint64(down_mask)).astype(np.int64)
    return n_up, n_down


def ground_energy(lattice: LatticeConfig, basis: FockBasis, h: FockOperator,
                  n_up: int, n_down: int) -> float:
    """Lowest eigenvalue of h in the fixed (n_up, n_down) occupation block."""
    cu, cd = _spin_counts(basis)
    sel = np.flatnonzero((cu == n_up) & (cd == n_down))
    if sel.size == 0:
        raise ValueError(f"no basis states carry ({n_up}, {n_down}) occupation")
    block = h.matrix[sel][:, sel]
    if sel.size <= _DENSE_LIMIT:
        return float(
            scipy.linalg.eigh(block.toarray(), eigvals_only=True,
                              subset_by_index=[0, 0])[0]
        )
    try:
        vals = scipy.sparse.linalg.eigsh(
            block, k=1, which="SA", maxiter=5000,
            v0=np.full(sel.size, 1.0 / math.sqrt(sel.size)),
        )[0]
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise RuntimeError(
            f"eigensolver stagnated; partial eigenvalues {exc.eigenvalues!r}"
        ) from exc
    return float(vals[0])
