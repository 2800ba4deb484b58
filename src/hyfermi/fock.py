"""Exact Fock-space realization of the pairing constructions on tiny momentum grids.

Everything here is desk scale by design: a lattice of a handful of momenta,
operators kept as sums of reduced ladder strings, and each operator
materialized as a small dense matrix on the few basis states a computation
needs. The point is not scale but exactness. Canonical anticommutation
relations, the particle-hole transformation, the correlation Hamiltonian
split and the quasi-bosonic generators all hold as matrix identities that
tests can check to near machine precision.

H, the quartic correlation blocks Q1..Q4 and the generators B1, B2 are
momentum-conserving sums of four ladder operators, written as arrays of
ladder strings from one enumeration of the momentum quartets
(_quartets): per block an occupation mask over the four slots, a
coefficient array and a spin pattern. Each build call (build_hamiltonian,
build_corr_terms with all seven terms, build_generator, make_operator)
makes one reduce-and-merge pass (_assemble): one batched symbolic _reduce
over its strings, number terms written as forms directly, and one merge
of equal forms keyed by operator label, on which every claimed flag is
checked operator by operator.

Momenta are integer triples n standing for k = (2*pi/L) n, and mode 2i + s
is momentum i with spin s. Every builder reads the Fermi-ball geometry from
the lattice's read-only arrays over the momentum indices: the triples n,
their norms k, inside[s] (k <= kF_s, so the boundary counts as occupied),
reflect, the index of -n, and d2, the squared transfers |n_i - n_j|^2.
The potential is radial, so V^ is a real radial table: entry m is V^ at
|n|^2 = m, and V^(n_i - n_j) is V^[d2[i, j]]. Every matrix is real and
Hermitian conjugation is plain transposition.

A basis state is an int64 whose bit j is the occupation of mode j. Nothing
is built on all 2^n of them. H conserves the particle number of each spin;
the correlation terms and the generators conserve, per spin, the
particle-hole charge (particles outside the Fermi ball) - (holes inside).
A sector is the sorted array of the states with fixed per-spin charges, and
the particle-hole transform is a signed permutation, in closed form, from a
particle-hole sector onto an occupation sector. Sizes are refused before
anything is enumerated: more than 62 modes (the bits of an int64 below its
sign) or a sector above C(7, 3)^2 = 1225 states, the largest sector of a
7-momentum lattice. One particle per spin on 19 momenta gives 361 states.

The trial states act on less still. B - B* maps each connected component of
B's graph to itself, so each exponential acts on the component that holds
the current vector: 7 states on the demo lattice. There B - B* is real
antisymmetric, so i(B - B*) is Hermitian, and one eigendecomposition of it
gives exp(lam (B - B*)) for every lam.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .potentials import fourier_V

SPIN_UP = 0
SPIN_DOWN = 1

# mode j is bit j of an int64 state; bit 63 is the sign, and numpy's
# bitwise_count counts the bits of |x|
_STATE_BITS = 62
# (i, 0, 0) and its five images lie inside the grid for 0 < i < nmax: from
# nmax = 7 on they alone are 37 momenta, 74 modes
_AXIS_NMAX = 7
# dense sector matrices stay below ~12 MB
_MAX_SECTOR = 1225

_SHELL_TOL = 1e-9

Triple = tuple[int, int, int]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _norms(unit: float, n: np.ndarray) -> np.ndarray:
    """|k| = unit * |n| for the integer triples in the rows of n."""
    return unit * np.sqrt(np.sum(n * n, axis=1))


@dataclass(frozen=True)
class LatticeConfig:
    """Finite symmetric momentum grid with completely filled Fermi balls,
    its geometry held in the read-only arrays n, k, inside, reflect and d2."""

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

    @cached_property
    def n(self) -> np.ndarray:
        return _read_only(np.array(self.momenta, dtype=np.int64).reshape(-1, 3))

    @cached_property
    def k(self) -> np.ndarray:
        return _read_only(_norms(self.unit, self.n))

    @cached_property
    def inside(self) -> np.ndarray:
        return _read_only(np.stack((self.k <= self.kF_up, self.k <= self.kF_down)))

    @cached_property
    def reflect(self) -> np.ndarray:
        return _read_only(np.array([self.index[tuple(m)] for m in (-self.n).tolist()]))

    @cached_property
    def d2(self) -> np.ndarray:
        return _read_only(np.sum(np.square(self.n[:, None] - self.n[None]), axis=2))


def build_lattice(L: float, K_max: float, shell_up: float, shell_down: float) -> LatticeConfig:
    """Enumerate the symmetric grid |k| <= K_max and fill closed Fermi shells.

    Shell radii must fall strictly between realized momentum magnitudes, so
    that each Fermi ball is a union of complete degenerate shells. A radius
    that lands on a shell is refused, naming the nearest safe radii.
    A grid whose axes alone hold more modes than fit a basis state is
    refused from nmax, before any triple is enumerated.
    """
    for name, value in (("L", L), ("K_max", K_max), ("shell_up", shell_up),
                        ("shell_down", shell_down)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if L <= 0.0 or K_max <= 0.0:
        raise ValueError("box side and momentum cutoff must be positive")
    unit = 2.0 * math.pi / L
    reach = K_max / unit + 1e-12
    if not reach < _AXIS_NMAX:
        raise ValueError(
            f"K_max L / 2pi = {reach:.6g} >= {_AXIS_NMAX}: the momenta on the axes "
            f"alone give more modes than the {_STATE_BITS} bits of an int64 basis "
            f"state hold"
        )
    nmax = int(reach)
    # rows in lexicographic order, as the sorted triples
    n = np.indices((2 * nmax + 1,) * 3).reshape(3, -1).T - nmax
    k = _norms(unit, n)
    keep = k <= K_max
    n, k = n[keep], k[keep]
    mags = np.unique(k).tolist()

    def check_shell(radius, label):
        if radius < 0.0:
            raise ValueError(f"{label} shell radius must be nonnegative")
        for i, m in enumerate(mags):
            if abs(radius - m) < _SHELL_TOL:
                above = (0.5 * (m + mags[i + 1]) if i + 1 < len(mags)
                         else m + 0.5 * (m - mags[i - 1] if i > 0 else unit))
                # the innermost shell is the origin, with no radius below it
                safe = (f"radii: {0.5 * (mags[i - 1] + m)} and {above}" if i > 0
                        else f"radius: {above}")
                raise ValueError(f"{label} shell radius {radius} splits the degenerate "
                                 f"shell at |k| = {m}; nearest closed-shell {safe}")

    check_shell(shell_up, "up")
    check_shell(shell_down, "down")
    return LatticeConfig(
        L=L,
        momenta=tuple(map(tuple, n.tolist())),
        kF_up=shell_up,
        kF_down=shell_down,
        N_up=int(np.count_nonzero(k <= shell_up)),
        N_down=int(np.count_nonzero(k <= shell_down)),
    )


@dataclass(frozen=True)
class FockBasis:
    """Occupation basis over (momentum, spin) modes in one fixed total order.

    Mode j occupies bit j of the basis-state integer; all fermionic signs are
    parities of occupied lower bits. The order is momentum-major with spin up
    before spin down, so the mode of momentum n and spin s is
    2 * lattice.index[n] + s, and the vacuum is the state 0.
    """

    mode_order: tuple[tuple[Triple, int], ...]

    @property
    def dimension(self) -> int:
        return 1 << self.n_modes

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
    """The basis of the lattice's modes, refused by size before anything is
    enumerated: more than 62 modes, or a physics sector (N_up, N_down)
    above 1225 states."""
    modes = tuple((n, s) for n in lattice.momenta for s in (SPIN_UP, SPIN_DOWN))
    if len(modes) > _STATE_BITS:
        raise ValueError(
            f"{len(modes)} modes do not fit the {_STATE_BITS} bits of an int64 basis state"
        )
    basis = FockBasis(mode_order=modes)
    _sector_size(basis, (lattice.N_up, lattice.N_down), (0, 0))
    return basis


def _spin_bits(basis: FockBasis, spin: int) -> list[int]:
    return [1 << j for j in range(spin, basis.n_modes, 2)]


def _ball_masks(lattice: LatticeConfig) -> tuple[int, int]:
    """Per spin, the bits of the modes inside the Fermi ball."""
    return tuple(sum(1 << 2 * i + s for i, hit in enumerate(ins) if hit)
                 for s, ins in enumerate(lattice.inside.tolist()))


def _sector_size(basis: FockBasis, charges, minus) -> int:
    """Size of _sector(basis, charges, minus), counted without enumerating
    it (Vandermonde: sum_h C(in, h) C(out, h + q) = C(in + out, in + q));
    an empty or oversized sector raises."""
    size = 1
    for spin, q in enumerate(charges):
        n = len(_spin_bits(basis, spin))
        k = minus[spin].bit_count() + q
        size *= math.comb(n, k) if 0 <= k <= n else 0
    if size == 0:
        raise ValueError(f"no basis states carry per-spin charges {tuple(charges)}")
    if size > _MAX_SECTOR:
        raise ValueError(
            f"the sector of per-spin charges {tuple(charges)} holds {size} states; "
            f"the limit is {_MAX_SECTOR} (C(7, 3)^2)"
        )
    return size


def _sector(basis: FockBasis, charges, minus) -> np.ndarray:
    """Sorted basis states whose charge in each spin, the set bits outside
    minus[spin] less the set bits inside it, equals charges[spin]."""
    _sector_size(basis, charges, minus)
    per_spin = []
    for spin, q in enumerate(charges):
        bits = _spin_bits(basis, spin)
        inside = [b for b in bits if b & minus[spin]]
        outside = [b for b in bits if not b & minus[spin]]
        per_spin.append(np.array(
            [sum(h) + sum(p)
             for r in range(max(0, -q), min(len(inside), len(outside) - q) + 1)
             for h in itertools.combinations(inside, r)
             for p in itertools.combinations(outside, r + q)],
            dtype=np.int64))
    return np.sort((per_spin[0][:, None] | per_spin[1][None, :]).ravel())


def sector(basis: FockBasis, n_up: int, n_down: int) -> np.ndarray:
    """Sorted basis states holding n_up spin-up and n_down spin-down particles."""
    return _sector(basis, (n_up, n_down), (0, 0))


def ph_sector(lattice: LatticeConfig, basis: FockBasis, q_up: int, q_down: int) -> np.ndarray:
    """Sorted particle-hole-frame basis states whose charge (particles outside
    the ball) - (holes inside) is q_up and q_down. ph_transform maps them
    onto sector(basis, N_up + q_up, N_down + q_down)."""
    return _sector(basis, (q_up, q_down), _ball_masks(lattice))


# (form, state) pairs tested per pass of FockOperator._images: large enough
# to amortize numpy's per-call cost, small enough for a few MB of temporaries
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Sum of reduced ladder strings on a FockBasis, with verified structural flags.

    Column f of `forms` is one merged string (fixed, need, final, flip) as
    _reduce returns it, and coef[f] its coefficient. `on` materializes the
    operator as a dense matrix between any two lists of basis states.
    """

    basis: FockBasis
    coef: np.ndarray
    forms: np.ndarray
    hermitian: bool = False
    number_conserving: bool = False
    # _component's results, by the bytes of the states they start from
    _memo: dict = field(default_factory=dict, repr=False)

    def _images(self, src: np.ndarray):
        """Every nonzero action on the states src: (position in src, image
        state, value, column of the acting form), form-major."""
        fixed, need, final, flip = self.forms
        step = max(1, _CHUNK // max(src.size, 1))
        forms, cols = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for lo in range(0, self.coef.size, step):
            f, j = np.nonzero((src & fixed[lo:lo + step, None]) == need[lo:lo + step, None])
            f += lo
            forms.append(f)
            cols.append(j)
        f, j = np.concatenate(forms), np.concatenate(cols)
        x = src[j]
        parity = np.bitwise_count(x & flip[f]) & 1
        return j, x ^ need[f] ^ final[f], self.coef[f] * (1.0 - 2.0 * parity), f

    def on(self, src, dst=None) -> np.ndarray:
        """Dense matrix [i, j] = <dst_i| M |src_j> between int64 state arrays;
        dst (default src) must be sorted, and images outside it are dropped."""
        src = np.asarray(src, dtype=np.int64)
        dst = src if dst is None else np.asarray(dst, dtype=np.int64)
        j, y, val, _ = self._images(src)
        i = np.minimum(np.searchsorted(dst, y), dst.size - 1)
        keep = dst[i] == y
        flat = np.bincount(i[keep] * src.size + j[keep], weights=val[keep],
                           minlength=dst.size * src.size)
        return flat.reshape(dst.size, src.size)

    def _component(self, states: np.ndarray):
        """The sorted union of the connected components of M's graph that
        hold `states`, with the eigenvalues w and eigenvectors v of
        i(M - M*) on it; remembered, because every trial state asks for the
        same few. The block grows by one pass over the forms of M and M*
        together, whose adjoint swaps each form's need and final bits."""
        key = states.tobytes()
        if key not in self._memo:
            both = FockOperator(basis=self.basis, coef=np.concatenate((self.coef, self.coef)),
                                forms=np.concatenate((self.forms, self.forms[_ADJOINT]), axis=1))
            block = states
            while True:
                grown = np.union1d(block, both._images(block)[1])
                if grown.size == block.size:
                    break
                block = grown
            m = self.on(block)
            w, v = np.linalg.eigh(1j * (m - m.T))
            self._memo[key] = block, w, v
        return self._memo[key]


# rows of a form's adjoint: need and final swap
_ADJOINT = [0, 2, 1, 3]


def _reduce(modes, dag):
    """Symbolic right-to-left pass over T products of n ladder operators.

    modes is a (T, n) int64 array of each product's factors in written
    order, and dag, broadcast to its shape, marks the creators; the
    rightmost factor acts first. A string touching the modes in `fixed`
    maps a basis state x to a nonzero image only if x carries the bits
    `need` on them; the image then carries `final` there, agrees with x
    elsewhere, and comes with the factor sign * (-1)^popcount(x & flip),
    where flip collects the untouched modes lying below an odd number of
    factors. Returns the 4 x T forms (fixed, need, final, flip) and the T
    signs, 0 where a string vanishes on every state. A form's adjoint is
    form[_ADJOINT] with the same sign.
    """
    modes = np.asarray(modes, dtype=np.int64)
    dag = np.broadcast_to(dag, modes.shape).T[::-1]
    bits = np.left_shift(1, modes).T[::-1]
    fixed, need, cur = (np.zeros(modes.shape[0], dtype=np.int64) for _ in range(3))
    alive = np.ones(modes.shape[0], dtype=bool)
    for bit, d in zip(bits, dag):
        seen = fixed & bit != 0
        # a repeated mode must be occupied for a_j and empty for a*_j
        alive &= ~seen | ((cur & bit != 0) != d)
        fresh = np.where(~seen & ~d, bit, 0)
        need |= fresh
        fixed |= bit
        cur = (cur | fresh) ^ bit
    # second pass: with every required bit known, collect the sign pieces
    cur, odd, flip = need, np.zeros(modes.shape[0], dtype=np.uint8), 0
    for bit in bits:
        odd ^= np.bitwise_count(cur & (bit - 1)) & 1
        flip ^= bit - 1
        cur = cur ^ bit
    sign = np.where(alive, 1.0 - 2.0 * odd, 0.0)
    return np.stack((fixed, need, cur, flip & ~fixed)), sign


def _sum_equal(forms, coef):
    """One column per distinct form, carrying the sum of its coefficients."""
    order = np.lexsort(forms)
    forms, coef = forms[:, order], coef[order]
    first = np.ones(forms.shape[1], dtype=bool)
    first[1:] = np.any(forms[:, 1:] != forms[:, :-1], axis=0)
    return forms[:, first], np.bincount(np.cumsum(first) - 1, weights=coef,
                                        minlength=np.count_nonzero(first))


class _Sum(NamedTuple):
    """One operator for _assemble: blocks (modes, dag, coef) of ladder
    strings, modes (T, n) and dag broadcasting to it; number[j], the
    coefficient of a*_j a_j; its claimed flags; and plus_adjoint, which
    adds every string's adjoint, so the strings of M give M + M*."""

    strings: tuple = ()
    number: np.ndarray | None = None
    hermitian: bool = False
    number_conserving: bool = False
    plus_adjoint: bool = False


def _assemble(basis: FockBasis, sums) -> list[FockOperator]:
    """The operators of the _Sum list `sums`, in one reduce-and-merge pass.

    Strings of one length share one _reduce call; number terms are written
    as forms directly (fixed = need = final = bit j, flip = 0, sign +1).
    One _sum_equal merges equal forms under a row of operator labels, the
    primary key. Each operator keeps its own order (number terms, strings,
    adjoints) and lexsort is stable, so its columns, their order and its
    sums are those it would get alone. Exact zeros are dropped, and each
    claimed flag is checked per label: M is Hermitian when M - M* leaves
    no coefficient above 1e-12 (1 + max |coef of M|).
    """
    forms, coef, by_length = [np.zeros((5, 0), dtype=np.int64)], [np.zeros(0)], {}
    for op, s in enumerate(sums):
        if s.number is not None:
            bit = np.left_shift(1, np.arange(len(s.number)))
            forms.append(np.stack((bit, bit, bit, 0 * bit, np.full(bit.size, op))))
            coef.append(np.asarray(s.number, dtype=np.float64))
        for modes, dag, c in s.strings:
            by_length.setdefault(modes.shape[1], []).append((op, modes, dag, c))
    for group in by_length.values():
        ops, modes, dag, c = zip(*group)
        if len(group) > 1:
            dag = [np.broadcast_to(d, m.shape) for m, d in zip(modes, dag)]
        f, sign = _reduce(np.concatenate(modes), np.concatenate(dag))
        # a vanishing string's form is not meaningful: drop it, whatever its coefficient
        live = sign != 0.0
        forms.append(np.concatenate((f, np.repeat(ops, [len(x) for x in c])[None]))[:, live])
        coef.append(sign[live] * np.concatenate(c)[live])
    forms, coef = np.concatenate(forms, axis=1), np.concatenate(coef)
    adjoint, hermitian, conserving = np.array(
        [(s.plus_adjoint, s.hermitian, s.number_conserving) for s in sums]).reshape(-1, 3).T
    if adjoint.any():
        mine = adjoint[forms[4]]
        forms = np.concatenate((forms, forms[:, mine][_ADJOINT + [4]]), axis=1)
        coef = np.concatenate((coef, coef[mine]))
    forms, coef = _sum_equal(forms, coef)
    keep = coef != 0.0
    forms, coef = forms[:, keep], coef[keep]
    label = forms[4]
    if hermitian.any():
        scale = np.zeros(len(sums))
        np.maximum.at(scale, label, np.abs(coef))
        mine, c = forms[:, hermitian[label]], coef[hermitian[label]]
        at, diff = _sum_equal(np.concatenate((mine, mine[_ADJOINT + [4]]), axis=1),
                              np.concatenate((c, -c)))
        if np.any(np.abs(diff) > 1e-12 * (1.0 + scale[at[4]])):
            raise ValueError("operator claimed Hermitian is not")
    if conserving.any() and np.any(conserving[label] & (np.bitwise_count(forms[1])
                                                        != np.bitwise_count(forms[2]))):
        raise ValueError("operator claimed number conserving is not")
    ends = np.searchsorted(label, np.arange(len(sums) + 1))
    return [FockOperator(basis=basis, coef=coef[a:b], forms=forms[:4, a:b],
                         hermitian=s.hermitian, number_conserving=s.number_conserving)
            for s, a, b in zip(sums, ends[:-1], ends[1:])]


def make_operator(basis, terms, hermitian=False,
                  number_conserving=False) -> FockOperator:
    """Sum (coefficient, ops) ladder strings, checking every claimed flag."""
    strings = [(np.array([j for j, _ in ops], dtype=np.int64).reshape(1, -1),
                np.array([d for _, d in ops], dtype=bool), np.array([coef], dtype=np.float64))
               for coef, ops in terms]
    return _assemble(basis, [_Sum(strings, hermitian=hermitian,
                                  number_conserving=number_conserving)])[0]


def _quartets(lattice: LatticeConfig, dag) -> np.ndarray:
    """Every momentum-index quadruple (k1, k2, k3, k4), as a 4 x T array,
    whose creator momenta (dag[slot] true) less its annihilator momenta
    sum to zero. k1, k2, k3 run over the grid; k4 is solved for and looked
    up by its integer coordinates, and the quadruple is dropped when k4
    leaves the grid."""
    n = lattice.n
    # n -> n . (B^2, B, 1) is linear, and one to one on coordinates within
    # +-3r, the most that k4 can reach
    base = 6 * int(np.abs(n).max()) + 1
    code = n @ np.array([base * base, base, 1])
    table = np.full(base ** 3, -1, dtype=np.int64)
    table[code + base ** 3 // 2] = np.arange(len(n))
    sign = np.where(dag, 1, -1)
    k4 = table[base ** 3 // 2 - sign[3] * (sign[0] * code[:, None, None]
                                          + sign[1] * code[None, :, None]
                                          + sign[2] * code[None, None, :])]
    quads = np.vstack((np.indices(k4.shape).reshape(3, -1), k4.ravel()))
    return quads[:, quads[3] >= 0]


def _quartic(quads, dag, spins, coef):
    """The strings a#_{k1 s1} a#_{k2 s2} a#_{k3 s3} a#_{k4 s4} over the
    quartets (k1, k2, k3, k4), a# = a* where dag holds, as a _Sum block.
    The spins (s1, s2, s3, s4) and the coefficient per quartet broadcast
    together, so a spin array of shape (S, 1) gives S strings per quartet;
    zero coefficients are skipped."""
    modes = np.stack(np.broadcast_arrays(*(2 * k + s for k, s in zip(quads, spins))), axis=-1)
    coef = np.broadcast_to(coef, modes.shape[:-1])
    keep = coef != 0.0
    return modes[keep], dag, coef[keep]


def mode_operator(basis: FockBasis, momentum, spin: int, kind: str) -> FockOperator:
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    j = basis.mode(momentum, spin)
    return make_operator(basis, [(1.0, [(j, kind == "create")])])


def number_operator(basis: FockBasis, spin=None) -> FockOperator:
    per_mode = [1.0 if spin is None or s == spin else 0.0 for _, s in basis.mode_order]
    return _assemble(basis, [_Sum(number=per_mode, hermitian=True, number_conserving=True)])[0]


def vhat_from_potential(lattice: LatticeConfig, potential) -> np.ndarray:
    """V^ as a read-only radial table over the grid's transfers: entry m is
    V^ at |n|^2 = m, for m up to the largest |n_i - n_j|^2. Each realized
    square is transformed once; a square the grid never realizes holds 0."""
    m = np.unique(lattice.d2)
    table = np.zeros(m[-1] + 1)
    table[m] = fourier_V(potential, lattice.unit * np.sqrt(m))
    return _read_only(table)


def _vhat_table(lattice: LatticeConfig, vhat) -> np.ndarray:
    """V^(n_i - n_j) over pairs of momentum indices, read from the radial
    table vhat; a table that is not 1-D and real, is too short for the
    grid's transfers or holds a non-finite entry is refused."""
    vhat = np.asarray(vhat)
    if np.iscomplexobj(vhat):
        raise ValueError("V^ must be real")
    if vhat.ndim != 1 or vhat.size <= lattice.d2.max():
        raise ValueError(f"V^ must be a 1-D table of at least {lattice.d2.max() + 1} "
                         f"entries, one per |n|^2; got shape {vhat.shape}")
    if not np.isfinite(vhat).all():
        raise ValueError(f"V^ must be finite, got {vhat[~np.isfinite(vhat)][0]}")
    return vhat.astype(np.float64)[lattice.d2]


# the four spin pairs (s, t), as (4, 1) columns that broadcast against the
# quartets: _quartic then writes one string per pair and quartet
_S, _T = np.array(list(itertools.product((SPIN_UP, SPIN_DOWN), repeat=2))).T[:, :, None]
_NUMBER_LIKE = (True, True, False, False)


def build_hamiltonian(lattice: LatticeConfig, basis: FockBasis, vhat) -> FockOperator:
    """Kinetic term plus the two-body sum over all transfers that stay on the grid.

    Transfers pushing a momentum off the grid are dropped; that hard
    truncation keeps the operator Hermitian and number conserving, and is the
    finite model all identity checks refer to.
    """
    vd = _vhat_table(lattice, vhat)
    quads = k1, _, _, k4 = _quartets(lattice, _NUMBER_LIKE)
    # a*_{k1 s} a*_{k2 t} a_{k3 t} a_{k4 s} V^(k1 - k4) / (2 L^3)
    coef = 1.0 / (2.0 * lattice.L ** 3) * vd[k1, k4]
    # mode 2 i + s has momentum n_i
    return _assemble(basis, [_Sum([_quartic(quads, _NUMBER_LIKE, (_S, _T, _T, _S), coef)],
                                  number=np.repeat(np.square(lattice.k), 2),
                                  hermitian=True, number_conserving=True)])[0]


def ffg_index(lattice: LatticeConfig, basis: FockBasis) -> int:
    """Basis state of the filled-Fermi-ball determinant."""
    up, down = _ball_masks(lattice)
    return up | down


def ph_transform(lattice: LatticeConfig, basis: FockBasis, states):
    """The unitary R with R* a_k R = a_k outside the Fermi ball and a*_{-k}
    inside, on particle-hole-frame basis states: R|x> = sign |image>,
    returned as the arrays (image, sign).

    |x> = a*_{j1} ... a*_{jm} |0> with j1 < ... < jm, so R|x> is
    c_{j1} ... c_{jm} applied to R|0> = |FFG>, where c_j = a*_j outside the
    ball and a_{-j} inside. The factors touch distinct modes that the
    determinant leaves empty (outside) or filled (inside), so R is a signed
    permutation from ph_sector(q) onto sector(N + q), with the overlap of
    R|0> and the determinant +1.

    In closed form: let t_j be the mode c_j flips (2 reflect[i] + s inside
    the ball, j outside) and hit_j bit j of x. t is a permutation, so
    image = FFG ^ sum_j hit_j 2^{t_j}, and the sign is (-1) to the power
    sum_j hit_j parity(FFG & (2^{t_j} - 1)) + #{j < j' : both hit,
    t_{j'} < t_j}: each c_j, applied after the higher factors, passes the
    determinant's modes below t_j and the higher hit targets below it.
    Integer products over the occupation bits, so exact and loop free.
    """
    states = np.asarray(states, dtype=np.int64)
    j = np.arange(basis.n_modes)
    i, s = np.divmod(j, 2)
    t = np.where(lattice.inside[s, i], 2 * lattice.reflect[i] + s, j)
    ffg = ffg_index(lattice, basis)
    below = np.bitwise_count(ffg & (np.left_shift(1, t) - 1)) & 1
    # per mode j, the higher modes whose targets lie below t_j
    crossed = np.where((j > j[:, None]) & (t < t[:, None]), np.left_shift(1, j), 0).sum(axis=1)
    hit = (states[:, None] >> j) & 1
    image = ffg ^ np.sum(hit << t, axis=1)
    odd = (np.bitwise_count(states & np.sum(below << j))
           + np.sum(hit * np.bitwise_count(states[:, None] & crossed), axis=1))
    return image, np.where(odd & 1 == 1, -1.0, 1.0)


def ffg_energy(lattice: LatticeConfig, basis: FockBasis, h: FockOperator) -> float:
    """Energy of the filled-determinant state R|0>, straight from the forms."""
    image, _ = ph_transform(lattice, basis, np.zeros(1, dtype=np.int64))
    return float(h.on(image)[0, 0])


def ffg_energy_wick(lattice: LatticeConfig, vhat) -> float:
    """Same energy from the pair-contraction closed form, no matrices involved.

    Exact on the truncated model too: every contributing transfer connects two
    Fermi-ball momenta, so nothing is lost to the grid cutoff.
    """
    table = _vhat_table(lattice, vhat)
    kin = exch = 0.0
    for ins in lattice.inside:
        kin += float(np.sum(np.square(lattice.k[ins])))
        # same-spin exchange: V^(p - l) over pairs p, l of one ball
        exch += sum(table[np.ix_(ins, ins)].ravel().tolist())
    n_tot = lattice.N_up + lattice.N_down
    return kin + (table[0, 0] * n_tot * n_tot - exch) / (2.0 * lattice.L ** 3)


def build_corr_terms(lattice: LatticeConfig, basis: FockBasis, vhat) -> dict:
    """Correlation Hamiltonian pieces in momentum form, term by term.

    Conjugating the Hamiltonian by the particle-hole transform and normal
    ordering sorts it into a constant (the determinant energy), a quadratic
    part (H0 and X) and quartic blocks Q1..Q4 classified by how many
    excitations they create. The identity holds exactly on the sector where
    particle and hole numbers balance within each spin; the leftover on the
    other sectors is the kF^2-weighted imbalance that corr_identity_report
    measures.
    """
    vol = lattice.L ** 3
    table = _vhat_table(lattice, vhat)
    vd = table / vol
    # V^(k + k') = vd[k, neg[k']], with neg the index of the reflected momentum
    ins, neg = lattice.inside, lattice.reflect
    out = ~ins

    # an [i, s] array ravels in mode order 2 i + s; inside and X are [s, i]
    conserving = dict(hermitian=True, number_conserving=True)
    h0 = _Sum(number=np.abs(np.square(lattice.k)[:, None]
                            - np.square([lattice.kF_up, lattice.kF_down])).ravel(),
              **conserving)

    # X dresses each mode with the mean field of the filled balls: direct
    # coupling to the total density minus the same-spin exchange fold. The
    # direct piece is proportional to the particle-hole imbalance and so is
    # invisible in any fixed-number expectation, but the operator identity
    # needs it.
    exchange = ins @ table / vol
    hartree = (lattice.N_up + lattice.N_down) * table[0, 0] / vol
    x = _Sum(number=((hartree - exchange) * np.where(ins, -1.0, 1.0)).T.ravel(), **conserving)

    # each block is a*_{k1} a*_{k2} a_{k3} a_{k4} (or with more creators)
    # over the momentum quartets: V^ at its transfer, an occupation mask on
    # the four slots and the spins (s, t), which run over all four pairs
    s, t = _S, _T
    dag = _NUMBER_LIKE
    quads = k1, k2, k3, k4 = _quartets(lattice, dag)
    # one particle and one hole created at k1 + k2, a hole pair eaten
    q1 = [_quartic(quads, dag, (s, s, t, t), vd[k1, neg[k2]]
                   * (out[s, k1] & ins[s, k2] & ins[t, k3] & out[t, k4]))]
    # a hole pair (k2, k3) of spin t scattered against a spin-s pair
    # (k1, k4): +1/2 when both are holes, -1 when both are particles
    pair = 0.5 * (ins[s, k1] & ins[s, k4]) - 1.0 * (out[s, k1] & out[s, k4])
    q1.append(_quartic(quads, dag, (s, t, t, s), pair * vd[k1, k4] * (ins[t, k2] & ins[t, k3])))
    # particle-particle scattering
    q4 = [_quartic(quads, dag, (s, t, t, s), 0.5 * vd[k1, k4]
                   * (out[s, k1] & out[t, k2] & out[t, k3] & out[s, k4]))]

    # particles k1, k2 and holes k3, k4 created, plus the adjoint; split
    # into equal and opposite spins
    dag = (True, True, True, True)
    quads = k1, k2, k3, k4 = _quartets(lattice, dag)
    q2 = 0.5 * vd[k1, neg[k4]] * (out[s, k1] & out[t, k2] & ins[t, k3] & ins[s, k4])
    q2_par = [_quartic(quads, dag, (s, t, t, s), q2 * (s == t))]
    q2_ud = [_quartic(quads, dag, (s, t, t, s), q2 * (s != t))]

    # a particle-hole pair (k1, k3) created while a spin-t mode moves from
    # k4 to k2: +1 between holes, -1 between particles, plus the adjoint
    dag = (True, True, True, False)
    quads = k1, k2, k3, k4 = _quartets(lattice, dag)
    moved = 1.0 * (ins[t, k2] & ins[t, k4]) - 1.0 * (out[t, k2] & out[t, k4])
    q3 = [_quartic(quads, dag, (s, t, s, t), moved * vd[k1, neg[k3]] * (out[s, k1] & ins[s, k3]))]

    paired = dict(hermitian=True, plus_adjoint=True)
    sums = {"H0": h0, "X": x, "Q1": _Sum(q1, **conserving), "Q2_par": _Sum(q2_par, **paired),
            "Q2_ud": _Sum(q2_ud, **paired), "Q3": _Sum(q3, **paired), "Q4": _Sum(q4, **conserving)}
    return dict(zip(sums, _assemble(basis, list(sums.values()))))


def corr_hamiltonian(terms: dict) -> FockOperator:
    """The sum of the correlation terms; each was checked Hermitian when built."""
    ops = list(terms.values())
    return FockOperator(basis=ops[0].basis,
                        coef=np.concatenate([t.coef for t in ops]),
                        forms=np.concatenate([t.forms for t in ops], axis=1),
                        hermitian=True)


def nonzero_entries(ops, src) -> int:
    """The nonzero entries of the operators' matrices on the sorted states
    src, summed over the operators, as np.count_nonzero(op.on(src)) counts
    them: one _images pass over their joined forms, each image keyed by
    its operator, row and column, and each entry summed in on's order."""
    joined = FockOperator(basis=ops[0].basis, coef=np.concatenate([o.coef for o in ops]),
                          forms=np.concatenate([o.forms for o in ops], axis=1))
    j, y, val, f = joined._images(src)
    i = np.minimum(np.searchsorted(src, y), src.size - 1)
    keep = src[i] == y
    label = np.repeat(np.arange(len(ops)), [o.coef.size for o in ops])[f[keep]]
    _, entries = _sum_equal(((label * src.size + i[keep]) * src.size + j[keep])[None],
                            val[keep])
    return int(np.count_nonzero(entries))


def excitation_counts(lattice: LatticeConfig, basis: FockBasis, states):
    """Per particle-hole-frame state: particles and holes of each spin, as
    four arrays (up particles, up holes, down particles, down holes)."""
    states = np.asarray(states, dtype=np.int64)
    out = []
    for spin, ball in enumerate(_ball_masks(lattice)):
        every = sum(_spin_bits(basis, spin))
        out.append(np.bitwise_count(states & (every & ~ball)).astype(np.int64))
        out.append(np.bitwise_count(states & ball).astype(np.int64))
    return tuple(out)


def _identity_residuals(lattice: LatticeConfig, basis: FockBasis, h: FockOperator,
                        terms: dict, charges) -> dict:
    """Residuals of R*HR = E_ffg + sum of the terms + sum_s kF_s^2 q_s on the
    particle-hole sectors of the given distinct per-spin charges q.

    The sectors are transformed in one call, and h and the summed terms
    are each materialized once, densely, on their union: both conserve the
    per-spin charge, so the union matrix is block diagonal and each entry
    is the one its sector alone gives. Four sectors hold at most 784
    states (27 momenta: 729 + 27 + 27 + 1); every sector of the 14-mode
    demo lattice together would be 2^14, so pass few at a time.
    """
    total = corr_hamiltonian(terms)
    src = np.sort(np.concatenate([ph_sector(lattice, basis, *q) for q in charges]))
    up, up_holes, down, down_holes = excitation_counts(lattice, basis, src)
    q_up, q_down = up - up_holes, down - down_holes
    image, sign = ph_transform(lattice, basis, src)
    by_image = np.argsort(image)
    pos = np.empty_like(by_image)
    pos[by_image] = np.arange(by_image.size)
    conj = np.outer(sign, sign) * h.on(image[by_image])[np.ix_(pos, pos)]
    # R maps the vacuum, state 0, onto the determinant: E_ffg on the diagonal
    e_ffg = conj[0, 0] if src[0] == 0 else ffg_energy(lattice, basis, h)
    diff = conj - total.on(src)
    diag = diff.diagonal() - e_ffg
    np.fill_diagonal(diff, 0.0)
    expected = lattice.kF_up ** 2 * q_up + lattice.kF_down ** 2 * q_down
    # max keeps a NaN, where Python's max(0.0, nan) would drop it
    return {"offdiagonal": float(np.abs(diff).max(initial=0.0)),
            "balanced_diagonal": float(np.abs(diag[(q_up == 0) & (q_down == 0)]).max(initial=0.0)),
            "imbalance_fit": float(np.abs(diag - expected).max(initial=0.0))}


def corr_identity_report(lattice: LatticeConfig, basis: FockBasis,
                         h: FockOperator, terms: dict) -> dict:
    """Residuals of R*HR = E_ffg + correlation terms, split by sector.

    The difference is diagonal; on the spin-balanced sector (the image of
    the physics sector) it vanishes, and on a sector of per-spin charges q
    it equals sum_sigma kF_sigma^2 q_sigma. The report carries the
    off-diagonal maximum, the balanced-diagonal maximum and the worst
    deviation from that imbalance formula, over the physics sector and the
    three sectors with one particle fewer in either spin or both.
    """
    return _identity_residuals(lattice, basis, h, terms,
                               ((0, 0), (-1, 0), (0, -1), (-1, -1)))


def _pair_terms(lattice: LatticeConfig, p, spin: int) -> list:
    """The strings of the quasi-bosonic b_{p,sigma}: all particle-hole pair
    removals at transfer p (an integer triple)."""
    ins, reflect = lattice.inside[spin].tolist(), lattice.reflect.tolist()
    # the index of n_i + p, None off the grid
    moved = [lattice.index.get(tuple(m)) for m in (lattice.n + p).tolist()]
    return [(1.0, [(2 * j + spin, False), (2 * reflect[i] + spin, False)])
            for i, j in enumerate(moved) if ins[i] and j is not None and not ins[j]]


def q2_ud_from_pairs(lattice: LatticeConfig, basis: FockBasis, vhat) -> FockOperator:
    """Opposite-spin Q2 rebuilt from products of pair operators, for cross-checking."""
    vol = lattice.L ** 3
    # each distinct transfer p = n_i - n_j once, V^(p) read at its first pair
    transfers, first = np.unique((lattice.n[:, None] - lattice.n[None]).reshape(-1, 3),
                                 axis=0, return_index=True)
    terms = []
    for p, val in zip(transfers, _vhat_table(lattice, vhat).ravel()[first].tolist()):
        if val == 0.0:
            continue
        up = _pair_terms(lattice, p, SPIN_UP)
        down = _pair_terms(lattice, np.negative(p), SPIN_DOWN) if up else []
        terms += [(val / vol, ou + od) for _, ou in up for _, od in down]
    # plus the adjoint: the factors reversed, each one's dagger flipped
    terms += [(c, [(j, not d) for j, d in reversed(ops)]) for c, ops in terms]
    return make_operator(basis, terms, hermitian=True)


def build_generator(lattice: LatticeConfig, basis: FockBasis, which: str, *,
                    phi=None, eta=None, cutoff=None) -> FockOperator:
    """Quasi-bosonic generator B1 or B2 (the annihilation half; take B - B* yourself).

    B1 wants a periodized scattering function (its `coeffs(ns)` and box side
    `L`) carrying the high-pass factor; B2 wants the pair kernel plus the
    cutoff config whose low-pass window and epsilon it should use. Terms
    whose momenta leave the grid or hit Pauli blocking are simply absent.
    """
    if which == "B1":
        if phi is None:
            raise ValueError("B1 needs the periodized scattering coefficients")
        if abs(phi.L - lattice.L) > 1e-12 * lattice.L:
            raise ValueError("scattering function was periodized for a different box")
    elif which == "B2":
        if eta is None or cutoff is None:
            raise ValueError("B2 needs the pair kernel and a cutoff config")
    else:
        raise ValueError(f"which must be 'B1' or 'B2', got {which!r}")
    n, ins = lattice.n, lattice.inside
    # b_{p,up} b_{-p,down} terms: a_{k1 up} a_{k2 up} a_{k3 down} a_{k4 down}
    # with particles k1, k3, holes -k2, -k4 and transfer p = k1 + k2
    dag = (False, False, False, False)
    quads = k1, k2, k3, k4 = _quartets(lattice, dag)
    keep = ~ins[SPIN_UP, k1] & ins[SPIN_UP, k2] & ~ins[SPIN_DOWN, k3] & ins[SPIN_DOWN, k4]
    p = n[k1] + n[k2]
    coef = np.zeros(keep.shape)
    if which == "B1":
        coef[keep] = phi.coeffs(p[keep]) / lattice.L ** 3
    else:
        unit = lattice.unit
        w = cutoff.chi_less(unit * np.sqrt(np.sum(p * p, axis=1)))
        keep &= w != 0.0
        val = eta.value(-unit * n[k2[keep]], -unit * n[k4[keep]], unit * p[keep])
        coef[keep] = w[keep] * val / lattice.L ** 3
    return _assemble(basis, [_Sum([_quartic(quads, dag, (SPIN_UP, SPIN_UP, SPIN_DOWN, SPIN_DOWN),
                                            coef)])])[0]


_VACUUM = np.zeros(1, dtype=np.int64)


def trial_state(basis: FockBasis, b1: FockOperator, b2: FockOperator,
                lambda1: float, lambda2: float):
    """exp(l1 (B1 - B1*)) exp(l2 (B2 - B2*)) applied to the vacuum of the
    particle-hole frame, as (states, amplitudes): the sorted basis states
    the vector may occupy and its amplitudes on them.

    Each exponential acts on the connected component of its generator's
    graph that holds the current vector, found once per generator and start
    together with the eigendecomposition i(B - B*) = v diag(w) v*, so that
    exp(lam (B - B*)) = v diag(exp(-i lam w)) v*. The component is tiny:
    7 states on the demo lattice, and at most 1 + 18^2 = 325 with one
    particle per spin on 19 momenta.
    """
    sel = _VACUUM
    amp = np.ones(1)
    for b, lam in ((b2, lambda2), (b1, lambda1)):
        if lam == 0.0:
            continue
        if b.basis is not basis and b.basis != basis:
            raise ValueError("generator built on a different basis")
        grown, w, v = b._component(sel)
        start = np.zeros(grown.size)
        start[np.searchsorted(grown, sel)] = amp
        sel, amp = grown, (v @ (np.exp(-1j * lam * w) * (v.conj().T @ start))).real
    return sel, amp


def trial_block(b1: FockOperator, b2: FockOperator) -> np.ndarray:
    """The states trial_state's exponentials can act on: the components of
    B1 meeting the component of B2 that holds the vacuum."""
    return b1._component(b2._component(_VACUUM)[0])[0]


def trial_energy(lattice: LatticeConfig, basis: FockBasis, corr_terms: dict,
                 b1: FockOperator, b2: FockOperator,
                 lambda1: float, lambda2: float) -> float:
    """Correlation energy of the trial state: the expectation of the sum of
    the terms, on the states the trial state may occupy (the trial block,
    7 states on the demo lattice).

    The terms' own expectations can cancel: on the demo lattice with a
    V0 = 0.4 square well at lambda1 = lambda2 = 2, two of them are +-4.4e-4
    and the energy is -1.2e-6. Summing the matrices first cancels in their
    entries, before any rounded product.
    """
    states, amp = trial_state(basis, b1, b2, lambda1, lambda2)
    return float(amp @ sum(t.on(states) for t in corr_terms.values()) @ amp)


def ground_energy(lattice: LatticeConfig, basis: FockBasis, h: FockOperator,
                  n_up: int, n_down: int) -> float:
    """Lowest eigenvalue of h in the (n_up, n_down) occupation sector, by
    dense eigvalsh: sectors hold at most 1225 states."""
    return float(np.linalg.eigvalsh(h.on(sector(basis, n_up, n_down)))[0])
