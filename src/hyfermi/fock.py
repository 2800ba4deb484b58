"""Exact Fock-space realization of the pairing constructions on tiny momentum grids.

Everything here is desk scale by design: a lattice of a handful of momenta,
operators kept as sums of reduced ladder strings, and each operator
materialized as a small dense matrix on the few basis states a computation
needs. The point is not scale but exactness. Canonical anticommutation
relations, the particle-hole transformation, the correlation Hamiltonian
split and the quasi-bosonic generators all hold as matrix identities that
tests can check to near machine precision.

Momenta are integer triples n standing for k = (2*pi/L) n. All interaction
coefficients used here are real (radial potentials), so every matrix is real
and Hermitian conjugation is plain transposition.

A basis state is an int64 whose bit j is the occupation of mode j. Nothing
is built on all 2^n of them. H conserves the particle number of each spin;
the correlation terms and the generators conserve, per spin, the
particle-hole charge (particles outside the Fermi ball) - (holes inside).
A sector is the sorted array of the states with fixed per-spin charges, and
the particle-hole transform is a signed permutation from a particle-hole
sector onto an occupation sector. Sizes are refused before anything is
enumerated: more than 62 modes (the bits of an int64 below its sign) or a
sector above C(7, 3)^2 = 1225 states, the largest sector of a 7-momentum
lattice. One particle per spin on 19 momenta gives 361 states.

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

import numpy as np

from .potentials import fourier_V

SPIN_UP = 0
SPIN_DOWN = 1

# mode j is bit j of an int64 state; bit 63 is the sign, and numpy's
# bitwise_count counts the bits of |x|
_STATE_BITS = 62
# dense sector matrices stay below ~12 MB
_MAX_SECTOR = 1225

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
    before spin down, so the mode of momentum n and spin s is
    2 * lattice.index[n] + s, and the vacuum is the state 0.
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
    """The basis of the lattice's modes, refused by size before anything is
    enumerated: more than 62 modes, or a physics sector (N_up, N_down)
    above 1225 states."""
    modes = tuple((n, s) for n in lattice.momenta for s in (SPIN_UP, SPIN_DOWN))
    if len(modes) > _STATE_BITS:
        raise ValueError(
            f"{len(modes)} modes do not fit the {_STATE_BITS} bits of an int64 basis state"
        )
    basis = FockBasis(mode_order=modes, dimension=1 << len(modes))
    _sector_size(basis, (lattice.N_up, lattice.N_down), (0, 0))
    return basis


def _spin_bits(basis: FockBasis, spin: int) -> list[int]:
    return [1 << j for j, (_, s) in enumerate(basis.mode_order) if s == spin]


def _ball_masks(lattice: LatticeConfig, basis: FockBasis) -> tuple[int, int]:
    """Per spin, the bits of the modes inside the Fermi ball."""
    masks = [0, 0]
    for j, (n, s) in enumerate(basis.mode_order):
        if lattice.in_ball(n, s):
            masks[s] |= 1 << j
    return masks[0], masks[1]


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
    return _sector(basis, (q_up, q_down), _ball_masks(lattice, basis))


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

    def _images(self, src: np.ndarray, adjoint: bool = False):
        """Every nonzero action on the states src: (position in src, image
        state, value). The adjoint swaps each string's need and final bits."""
        fixed, need, final, flip = self.forms
        if adjoint:
            need, final = final, need
        step = max(1, _CHUNK // max(src.size, 1))
        cols, images, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
        for lo in range(0, self.coef.size, step):
            f, j = np.nonzero((src & fixed[lo:lo + step, None]) == need[lo:lo + step, None])
            f += lo
            x = src[j]
            parity = np.bitwise_count(x & flip[f]) & 1
            cols.append(j)
            images.append(x ^ need[f] ^ final[f])
            vals.append(self.coef[f] * (1.0 - 2.0 * parity))
        return np.concatenate(cols), np.concatenate(images), np.concatenate(vals)

    def on(self, src, dst=None) -> np.ndarray:
        """Dense matrix [i, j] = <dst_i| M |src_j> between int64 state arrays;
        dst (default src) must be sorted, and images outside it are dropped."""
        src = np.asarray(src, dtype=np.int64)
        dst = src if dst is None else np.asarray(dst, dtype=np.int64)
        j, y, val = self._images(src)
        i = np.minimum(np.searchsorted(dst, y), dst.size - 1)
        keep = dst[i] == y
        flat = np.bincount(i[keep] * src.size + j[keep], weights=val[keep],
                           minlength=dst.size * src.size)
        return flat.reshape(dst.size, src.size)

    def _component(self, states: np.ndarray):
        """The sorted union of the connected components of M's graph that
        hold `states`, with the eigenvalues w and eigenvectors v of
        i(M - M*) on it; remembered, because every trial state asks for the
        same few."""
        key = states.tobytes()
        if key not in self._memo:
            block = states
            while True:
                _, down, _ = self._images(block)
                _, up, _ = self._images(block, adjoint=True)
                grown = np.union1d(block, np.concatenate((down, up)))
                if grown.size == block.size:
                    break
                block = grown
            m = self.on(block)
            w, v = np.linalg.eigh(1j * (m - m.T))
            self._memo[key] = block, w, v
        return self._memo[key]


def _reduce(ops):
    """Symbolic right-to-left pass over one product of ladder operators.

    ops lists (mode, dagger) factors in written order; the rightmost factor
    acts first. A string touching the modes in `fixed` maps a basis state x
    to a nonzero image only if x carries the bits `need` on them; the image
    then carries `final` there, agrees with x elsewhere, and comes with the
    factor sign * (-1)^popcount(x & flip), where flip collects the untouched
    modes lying below an odd number of factors. Returns
    ((fixed, need, final, flip), sign), or None when the string vanishes on
    every state. Its adjoint is (fixed, final, need, flip) with the same sign.
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


def _merge(terms) -> dict:
    """Reduce every (coefficient, ops) term and sum the equal forms."""
    merged: dict[tuple[int, int, int, int], float] = {}
    for coef, ops in terms:
        if coef == 0.0:
            continue
        red = _reduce(ops)
        if red is not None:
            form, sign = red
            merged[form] = merged.get(form, 0.0) + sign * coef
    return merged


def _plus_adjoint(merged: dict) -> dict:
    """The forms of M + M*."""
    out = dict(merged)
    for (fixed, need, final, flip), coef in merged.items():
        key = (fixed, final, need, flip)
        out[key] = out.get(key, 0.0) + coef
    return out


def _operator(basis, merged: dict, hermitian=False, number_conserving=False) -> FockOperator:
    """Wrap merged forms, checking every structural flag that is claimed."""
    merged = {form: c for form, c in merged.items() if c != 0.0}
    forms = np.array(list(merged), dtype=np.int64).reshape(-1, 4).T
    coef = np.array(list(merged.values()), dtype=np.float64)
    scale = 1.0 + (float(np.abs(coef).max()) if coef.size else 0.0)
    if hermitian:
        for (fixed, need, final, flip), c in merged.items():
            if abs(merged.get((fixed, final, need, flip), 0.0) - c) > 1e-12 * scale:
                raise ValueError("operator claimed Hermitian is not")
    if number_conserving and np.any(np.bitwise_count(forms[1]) != np.bitwise_count(forms[2])):
        raise ValueError("operator claimed number conserving is not")
    return FockOperator(basis=basis, coef=coef, forms=forms, hermitian=hermitian,
                        number_conserving=number_conserving)


def make_operator(basis, terms, hermitian=False,
                  number_conserving=False) -> FockOperator:
    """Sum (coefficient, ops) ladder strings, checking every claimed flag."""
    return _operator(basis, _merge(terms), hermitian, number_conserving)


def _number_terms(per_mode) -> list:
    return [(c, [(j, True), (j, False)]) for j, c in enumerate(per_mode)]


def mode_operator(basis: FockBasis, momentum, spin: int, kind: str) -> FockOperator:
    if kind not in ("create", "annihilate"):
        raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")
    j = basis.mode(momentum, spin)
    return make_operator(basis, [(1.0, [(j, kind == "create")])])


def number_operator(basis: FockBasis, spin=None) -> FockOperator:
    per_mode = [1.0 if spin is None or s == spin else 0.0 for _, s in basis.mode_order]
    return make_operator(basis, _number_terms(per_mode), hermitian=True,
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
    idx = lattice.index
    pref = 1.0 / (2.0 * lattice.L ** 3)
    terms = _number_terms([lattice.k_norm(n) ** 2 for n, _ in basis.mode_order])
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
                            (2 * idx[pk] + s1, True),
                            (2 * idx[qk] + s2, True),
                            (2 * idx[q] + s2, False),
                            (2 * idx[p] + s1, False),
                        ]
                        terms.append((pref * val, ops))
    return make_operator(basis, terms, hermitian=True, number_conserving=True)


def ffg_index(lattice: LatticeConfig, basis: FockBasis) -> int:
    """Basis state of the filled-Fermi-ball determinant."""
    up, down = _ball_masks(lattice, basis)
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
    """
    states = np.asarray(states, dtype=np.int64)
    idx = lattice.index
    image = np.full(states.shape, ffg_index(lattice, basis), dtype=np.int64)
    negative = np.zeros(states.shape, dtype=bool)
    for j in reversed(range(basis.n_modes)):
        n, s = basis.mode_order[j]
        t = 2 * idx[_neg(n)] + s if lattice.in_ball(n, s) else j
        hit = (states >> j) & 1 == 1
        negative ^= hit & (np.bitwise_count(image & ((1 << t) - 1)) & 1 == 1)
        image = np.where(hit, image ^ (1 << t), image)
    return image, np.where(negative, -1.0, 1.0)


def ffg_energy(lattice: LatticeConfig, basis: FockBasis, h: FockOperator) -> float:
    """Energy of the filled-determinant state R|0>, straight from the forms."""
    image, _ = ph_transform(lattice, basis, np.zeros(1, dtype=np.int64))
    return float(h.on(image)[0, 0])


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
    excitations they create. The identity holds exactly on the sector where
    particle and hole numbers balance within each spin; the leftover on the
    other sectors is the kF^2-weighted imbalance that corr_identity_report
    measures.
    """
    _validate_vhat(vhat)
    idx = lattice.index
    mom = lattice.momenta
    u_up, v_up, u_dn, v_dn = _uv_tables(lattice)
    u = {SPIN_UP: u_up, SPIN_DOWN: u_dn}
    v = {SPIN_UP: v_up, SPIN_DOWN: v_dn}
    vol = lattice.L ** 3

    h0 = make_operator(
        basis,
        _number_terms([abs(lattice.k_norm(n) ** 2 - lattice.kF(s) ** 2)
                       for n, s in basis.mode_order]),
        hermitian=True, number_conserving=True)

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
    x = make_operator(
        basis,
        _number_terms([(hartree - what[s][n]) * (u[s][idx[n]] - v[s][idx[n]])
                       for n, s in basis.mode_order]),
        hermitian=True, number_conserving=True)

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
                            (2 * idx[k1] + s1, True),
                            (2 * idx[k2] + s1, True),
                            (2 * idx[k3] + s2, False),
                            (2 * idx[k4] + s2, False),
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
                            (2 * idx[k1] + s1, True),
                            (2 * idx[k2] + s2, True),
                            (2 * idx[k3] + s2, False),
                            (2 * idx[k4] + s1, False),
                        ]
                        q1_terms.append((coef * vhat[_sub(k1, k4)] / vol, ops))
    q1 = make_operator(basis, q1_terms, hermitian=True, number_conserving=True)

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
                            (2 * idx[k1] + s1, True),
                            (2 * idx[k2] + s2, True),
                            (2 * idx[k3] + s2, True),
                            (2 * idx[k4] + s1, True),
                        ]
                        q2_terms[s1 == s2].append((0.5 * vhat[_add(k1, k4)] / vol, ops))
    q2_par = _operator(basis, _plus_adjoint(_merge(q2_terms[True])), hermitian=True)
    q2_ud = _operator(basis, _plus_adjoint(_merge(q2_terms[False])), hermitian=True)

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
                            (2 * idx[k1] + s1, True),
                            (2 * idx[k2] + s2, True),
                            (2 * idx[k3] + s1, True),
                            (2 * idx[k4] + s2, False),
                        ]
                        q3_terms.append((coef * vhat[_add(k1, k3)] / vol, ops))
    q3 = _operator(basis, _plus_adjoint(_merge(q3_terms)), hermitian=True)

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
                            (2 * idx[k1] + s1, True),
                            (2 * idx[k2] + s2, True),
                            (2 * idx[k3] + s2, False),
                            (2 * idx[k4] + s1, False),
                        ]
                        q4_terms.append((0.5 * vhat[_sub(k1, k4)] / vol, ops))
    q4 = make_operator(basis, q4_terms, hermitian=True, number_conserving=True)

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
    """The sum of the correlation terms; each was checked Hermitian when built."""
    ops = list(terms.values())
    return FockOperator(basis=ops[0].basis,
                        coef=np.concatenate([t.coef for t in ops]),
                        forms=np.concatenate([t.forms for t in ops], axis=1),
                        hermitian=True)


def excitation_counts(lattice: LatticeConfig, basis: FockBasis, states):
    """Per particle-hole-frame state: particles and holes of each spin, as
    four arrays (up particles, up holes, down particles, down holes)."""
    states = np.asarray(states, dtype=np.int64)
    out = []
    for spin, ball in enumerate(_ball_masks(lattice, basis)):
        every = sum(_spin_bits(basis, spin))
        out.append(np.bitwise_count(states & (every & ~ball)).astype(np.int64))
        out.append(np.bitwise_count(states & ball).astype(np.int64))
    return tuple(out)


def _identity_residuals(lattice: LatticeConfig, basis: FockBasis, h: FockOperator,
                        terms: dict, charges) -> dict:
    """Residuals of R*HR = E_ffg + sum of the terms + sum_s kF_s^2 q_s on the
    particle-hole sectors of the given per-spin charges q."""
    total = corr_hamiltonian(terms)
    e_ffg = ffg_energy(lattice, basis, h)
    off = balanced = fit = 0.0
    for q in charges:
        src = ph_sector(lattice, basis, *q)
        image, sign = ph_transform(lattice, basis, src)
        order = np.argsort(image)
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        conj = np.outer(sign, sign) * h.on(image[order])[np.ix_(pos, pos)]
        diff = conj - total.on(src)
        diag = diff.diagonal() - e_ffg
        np.fill_diagonal(diff, 0.0)
        off = max(off, float(np.abs(diff).max()))
        if q[0] == q[1] == 0:
            balanced = max(balanced, float(np.abs(diag).max()))
        expected = lattice.kF_up ** 2 * q[0] + lattice.kF_down ** 2 * q[1]
        fit = max(fit, float(np.abs(diag - expected).max()))
    return {"offdiagonal": off, "balanced_diagonal": balanced, "imbalance_fit": fit}


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


def _pair_terms(lattice: LatticeConfig, p: Triple, spin: int) -> list:
    """The strings of the quasi-bosonic b_{p,sigma}: all particle-hole pair
    removals at transfer p."""
    idx = lattice.index
    terms = []
    for k in lattice.ball(spin):
        pk = _add(p, k)
        if pk not in idx or lattice.in_ball(pk, spin):
            continue
        terms.append((1.0, [(2 * idx[pk] + spin, False), (2 * idx[_neg(k)] + spin, False)]))
    return terms


def q2_ud_from_pairs(lattice: LatticeConfig, basis: FockBasis, vhat) -> FockOperator:
    """Opposite-spin Q2 rebuilt from products of pair operators, for cross-checking."""
    _validate_vhat(vhat)
    vol = lattice.L ** 3
    terms = []
    for p, val in vhat.items():
        if val == 0.0:
            continue
        up = _pair_terms(lattice, p, SPIN_UP)
        down = _pair_terms(lattice, _neg(p), SPIN_DOWN) if up else []
        terms += [(val / vol, ou + od) for _, ou in up for _, od in down]
    return _operator(basis, _plus_adjoint(_merge(terms)), hermitian=True)


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
                        (2 * idx[pk] + SPIN_UP, False),
                        (2 * idx[_neg(k)] + SPIN_UP, False),
                        (2 * idx[pkp] + SPIN_DOWN, False),
                        (2 * idx[_neg(kp)] + SPIN_DOWN, False),
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
                        (2 * idx[m] + SPIN_UP, False),
                        (2 * idx[_neg(r)] + SPIN_UP, False),
                        (2 * idx[mp] + SPIN_DOWN, False),
                        (2 * idx[_neg(rp)] + SPIN_DOWN, False),
                    ]
                    terms.append((w * val / vol, ops))
    else:
        raise ValueError(f"which must be 'B1' or 'B2', got {which!r}")
    return make_operator(basis, terms)


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
    """Correlation energy of the trial state: the sum of the terms'
    expectations, each on the states the trial state may occupy (the trial
    block, 7 states on the demo lattice)."""
    states, amp = trial_state(basis, b1, b2, lambda1, lambda2)
    return sum(float(amp @ t.on(states) @ amp) for t in corr_terms.values())


def ground_energy(lattice: LatticeConfig, basis: FockBasis, h: FockOperator,
                  n_up: int, n_down: int) -> float:
    """Lowest eigenvalue of h in the (n_up, n_down) occupation sector, by
    dense eigvalsh: sectors hold at most 1225 states."""
    return float(np.linalg.eigvalsh(h.on(sector(basis, n_up, n_down)))[0])
