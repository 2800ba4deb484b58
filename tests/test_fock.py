"""Exact lattice checks: CAR algebra, the particle-hole frame, the
correlation decomposition, quasi-bosonic generators, and variational
energies. Everything here is assertable to near machine precision.

The demo lattice has 14 modes, so its 2^14 states split into 64 sectors of
fixed per-spin particle number (at most C(7, 3)^2 = 1225 states each). The
operator identities are checked on every one of them, which covers the
whole Fock space."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyfermi import fock
from hyfermi.cutoffs import CutoffConfig
from hyfermi.potentials import (
    EtaFunction,
    RadialPotential,
    fourier_V,
    fourier_Vf,
    periodize_phi,
    solve_scattering,
)

L = 2.0 * math.pi
POT = RadialPotential(kind="square-well", V0=0.4, R=1.0)


def absmax(matrix):
    return float(np.abs(matrix).max()) if matrix.size else 0.0


def all_counts(lat):
    """(n_up, n_down) of every occupation sector of the lattice."""
    m = len(lat.momenta)
    return list(itertools.product(range(m + 1), repeat=2))


def all_charges(lat):
    """Per-spin particle-hole charges of every particle-hole sector."""
    return [(a - lat.N_up, b - lat.N_down) for a, b in all_counts(lat)]


def shifted(counts, spin, by):
    out = list(counts)
    out[spin] += by
    return tuple(out)


@pytest.fixture(scope="module")
def demo():
    lat = fock.build_lattice(L, 1.01, 0.5, 0.5)
    basis = fock.build_basis(lat)
    vhat = fock.vhat_from_potential(lat, POT)
    h = fock.build_hamiltonian(lat, basis, vhat)
    terms = fock.build_corr_terms(lat, basis, vhat)
    return lat, basis, vhat, h, terms


@pytest.fixture(scope="module")
def asym():
    lat = fock.build_lattice(L, 1.01, 0.5, 1.2)
    basis = fock.build_basis(lat)
    vhat = fock.vhat_from_potential(lat, POT)
    h = fock.build_hamiltonian(lat, basis, vhat)
    terms = fock.build_corr_terms(lat, basis, vhat)
    return lat, basis, vhat, h, terms


@pytest.fixture(scope="module")
def generators(demo):
    lat, basis, _, _, _ = demo
    sol = solve_scattering(POT)
    # place the chi crossover across the first shell so both windows act
    cut = CutoffConfig(rho=0.225 ** 4.5)
    psf = periodize_phi(sol, L, cutoff=cut)
    eta = EtaFunction(a=sol.a, epsilon=cut.epsilon, kF_up=lat.kF_up,
                      kF_down=lat.kF_down)
    b1 = fock.build_generator(lat, basis, "B1", phi=psf)
    b2 = fock.build_generator(lat, basis, "B2", eta=eta, cutoff=cut)
    return b1, b2


@pytest.fixture(scope="module")
def ph_zero(demo):
    """The particle-hole image of the demo's physics sector: 49 states."""
    lat, basis, _, _, _ = demo
    return fock.ph_sector(lat, basis, 0, 0)


# ----------------------------------------------------------------- lattice


def test_lattice_counts_and_symmetry():
    lat = fock.build_lattice(L, 1.01, 0.5, 0.5)
    assert len(lat.momenta) == 7
    assert lat.N_up == 1 and lat.N_down == 1
    for n in lat.momenta:
        assert (-n[0], -n[1], -n[2]) in lat.index


def test_lattice_shell_refusal_names_neighbours():
    with pytest.raises(ValueError) as err:
        fock.build_lattice(L, 1.01, 1.0, 0.5)
    msg = str(err.value)
    assert "0.5" in msg and "1.5" in msg


def test_lattice_tiny_ball():
    lat = fock.build_lattice(L, 0.01, 0.005, 0.005)
    assert len(lat.momenta) == 1 and lat.N_up == 1


@pytest.mark.parametrize("args, name", [
    ((L, 1.01, math.nan, 0.5), "shell_up"),
    ((L, 1.01, 0.5, math.inf), "shell_down"),
    ((L, 1.01, -math.inf, 0.5), "shell_up"),
    ((math.nan, 1.01, 0.5, 0.5), "L"),
    ((math.inf, 1.01, 0.5, 0.5), "L"),
    ((L, math.nan, 0.5, 0.5), "K_max"),
    ((L, math.inf, 0.5, 0.5), "K_max"),
])
def test_lattice_refuses_non_finite_input(args, name):
    with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
        fock.build_lattice(*args)


def _per_triple_lattice(L, K_max, shell_up, shell_down):
    """The lattice geometry as build_lattice and LatticeConfig used to list
    it, one triple at a time: (momenta, k, inside, reflect, N_up, N_down)."""
    unit = 2.0 * math.pi / L
    nmax = int(K_max / unit + 1e-12)
    r = range(-nmax, nmax + 1)
    momenta = sorted(n for n in itertools.product(r, r, r)
                     if unit * math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]) <= K_max)
    k = [unit * math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]) for n in momenta]
    inside = [[kn <= kf for kn in k] for kf in (shell_up, shell_down)]
    reflect = [momenta.index((-n[0], -n[1], -n[2])) for n in momenta]
    return momenta, k, inside, reflect, sum(inside[0]), sum(inside[1])


# a radius between the shells |n|^2 = m and m + 1 of a unit grid
_between_shells = st.tuples(st.integers(0, 3), st.floats(0.01, 0.99))


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 20.0), st.floats(0.01, 1.99), _between_shells, _between_shells)
def test_lattice_arrays_match_per_triple_reference(L_box, reach, up, down):
    """n, k, inside, reflect and the particle numbers equal the per-triple
    code they replace, bit for bit, on closed-shell grids of 1 to 27
    momenta; the arrays are read-only."""
    unit = 2.0 * math.pi / L_box
    shells = [unit * (math.sqrt(m) + f * (math.sqrt(m + 1) - math.sqrt(m))) for m, f in (up, down)]
    lat = fock.build_lattice(L_box, unit * reach, *shells)
    momenta, k, inside, reflect, n_up, n_down = _per_triple_lattice(L_box, unit * reach, *shells)
    assert len(momenta) in (1, 7, 19, 27)
    assert lat.momenta == tuple(momenta)
    assert lat.n.tolist() == [list(n) for n in momenta]
    assert lat.k.tolist() == k
    assert lat.inside.tolist() == inside
    assert lat.reflect.tolist() == reflect
    assert (lat.N_up, lat.N_down) == (n_up, n_down)
    for name in ("n", "k", "inside", "reflect"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(lat, name)[0] = 0


def test_basis_mode_lookup(demo):
    lat, basis, _, _, _ = demo
    assert basis.dimension == 16384
    for n in lat.momenta:
        for spin in (fock.SPIN_UP, fock.SPIN_DOWN):
            assert basis.mode(n, spin) == 2 * lat.index[n] + spin
    with pytest.raises(ValueError):
        basis.mode((9, 9, 9), fock.SPIN_UP)


def test_basis_refuses_oversized_lattice():
    # 19 momenta with one particle per spin: a 361-state physics sector
    lat = fock.build_lattice(L, 1.42, 0.5, 0.5)
    assert len(lat.momenta) == 19
    basis = fock.build_basis(lat)
    assert fock.sector(basis, 1, 1).size == 361
    # seven per spin: C(19, 7)^2 ~ 2.5e9 states, refused by count alone
    with pytest.raises(ValueError, match="1225"):
        fock.build_basis(fock.build_lattice(L, 1.42, 1.2, 1.2))
    # |n|^2 <= 4 holds 33 momenta, 66 modes: beyond the bits of an int64
    with pytest.raises(ValueError, match="66 modes"):
        fock.build_basis(fock.build_lattice(L, 2.01, 0.5, 0.5))
    with pytest.raises(ValueError, match="1225"):
        fock.sector(basis, 2, 2)


def test_lattice_refuses_long_axes_before_enumeration():
    # from |n| = 7 on the axes alone hold 37 momenta, 74 modes; at 1e300
    # the triple loop would overflow int -> float, at 60 it would build
    # 1.8 million momenta
    for K_max in (7.0, 60.0, 1e300):
        with pytest.raises(ValueError, match="62 bits"):
            fock.build_lattice(L, K_max, 0.5, 0.5)
    # just below, the grid is built and the basis refuses it by count
    lat = fock.build_lattice(L, 6.99, 0.5, 0.5)
    with pytest.raises(ValueError, match="2730 modes"):
        fock.build_basis(lat)


def test_sectors_partition_the_space(demo):
    """Both frames' sectors are sorted, disjoint, of the Vandermonde size,
    and together hold every one of the 2^14 states."""
    lat, basis, _, _, _ = demo
    m = len(lat.momenta)
    for make, labels in ((lambda c: fock.sector(basis, *c), all_counts(lat)),
                         (lambda c: fock.ph_sector(lat, basis, *c), all_charges(lat))):
        seen = []
        for c, (a, b) in zip(labels, all_counts(lat)):
            states = make(c)
            assert states.dtype == np.int64 and np.all(np.diff(states) > 0)
            assert states.size == math.comb(m, a) * math.comb(m, b)
            seen.append(states)
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(basis.dimension))
    up, hu, pd, hd = fock.excitation_counts(lat, basis, fock.ph_sector(lat, basis, 2, -1))
    assert np.all(up - hu == 2) and np.all(pd - hd == -1)


# --------------------------------------------------------------------- CAR


def _full_space(op, basis, counts, spin, shift):
    """A test-only 2^n reference: op assembled from its matrices between
    every occupation sector c and c + shift * e_spin."""
    rows, cols, vals = [], [], []
    for c in counts:
        target = shifted(c, spin, shift)
        if target in counts:
            src, dst = fock.sector(basis, *c), fock.sector(basis, *target)
            m = op.on(src, dst)
            i, j = np.nonzero(m)
            rows.append(dst[i])
            cols.append(src[j])
            vals.append(m[i, j])
    dim = basis.dimension
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim))


def test_car_identities(demo):
    """{a_j, a*_k} = delta_jk and {a_j, a_k} = 0 on every sector, so on the
    whole space, with a*_j the transpose of a_j."""
    lat, basis, _, _, _ = demo
    counts = all_counts(lat)
    a, ad = [], []
    for n, spin in basis.mode_order:
        a.append(_full_space(fock.mode_operator(basis, n, spin, "annihilate"),
                             basis, counts, spin, -1))
        ad.append(_full_space(fock.mode_operator(basis, n, spin, "create"),
                              basis, counts, spin, 1))
    eye = sp.identity(basis.dimension, format="csr")
    for k in range(basis.n_modes):
        assert abs(ad[k] - a[k].T).max() == 0.0
    for j, k in itertools.product(range(basis.n_modes), repeat=2):
        assert abs(a[j] @ ad[k] + ad[k] @ a[j] - (eye if j == k else 0 * eye)).max() == 0.0
        assert abs(a[j] @ a[k] + a[k] @ a[j]).max() == 0.0
    # each a_j lowers exactly the states that hold mode j
    assert all(m.nnz == basis.dimension // 2 for m in a)


def test_vacuum_action(demo):
    _, basis, _, _, _ = demo
    vac = np.zeros(1, dtype=np.int64)
    a = fock.mode_operator(basis, (0, 0, 0), fock.SPIN_UP, "annihilate")
    ad = fock.mode_operator(basis, (0, 0, 0), fock.SPIN_UP, "create")
    assert not a.on(vac, np.arange(basis.dimension)).any()
    one = ad.on(vac, fock.sector(basis, 1, 0))
    assert np.count_nonzero(one) == 1


def test_flag_claims_are_verified(demo):
    """A false claim raises naming the flag: a lone a_j, a sum claimed
    Hermitian that is not, a lone a*_j claimed number conserving. A true
    claim passes."""
    _, basis, _, _, _ = demo
    i, j = basis.mode((0, 0, 0), fock.SPIN_UP), basis.mode((1, 0, 0), fock.SPIN_UP)
    hop, back = [(i, True), (j, False)], [(j, True), (i, False)]
    with pytest.raises(ValueError, match="claimed Hermitian is not"):
        fock.make_operator(basis, [(1.0, [(j, False)])], hermitian=True)
    with pytest.raises(ValueError, match="claimed Hermitian is not"):
        fock.make_operator(basis, [(1.0, hop), (0.5, back)], hermitian=True)
    for ops in ([(j, False)], [(j, True)]):
        with pytest.raises(ValueError, match="claimed number conserving is not"):
            fock.make_operator(basis, [(1.0, ops)], number_conserving=True)
    op = fock.make_operator(basis, [(1.0, hop), (1.0, back)], hermitian=True,
                            number_conserving=True)
    assert op.hermitian and op.number_conserving and op.coef.size == 2


def _hop(a, b, coef=1.0):
    """a*_a a_b as a one-string block of fock._Sum."""
    return np.array([[a, b]]), (True, False), np.array([coef])


def test_assembly_checks_each_operator_on_its_own(demo):
    """Operators assembled together are checked one by one: a*_i a_j and
    a*_j a_i sum to a Hermitian operator but neither is one, so a claim on
    either raises, also when both claim it; a lone creator claimed number
    conserving raises beside a number operator, in either order."""
    _, basis, _, _, _ = demo
    i, j = basis.mode((1, 0, 0), fock.SPIN_UP), basis.mode((0, 0, 0), fock.SPIN_UP)
    for first, second in ((True, True), (True, False), (False, True)):
        with pytest.raises(ValueError, match="claimed Hermitian is not"):
            fock._assemble(basis, [fock._Sum([_hop(i, j)], hermitian=first),
                                   fock._Sum([_hop(j, i)], hermitian=second)])
    create = (np.array([[j]]), (True,), np.array([1.0]))
    number = fock._Sum(number=np.ones(basis.n_modes), number_conserving=True)
    for sums in ([fock._Sum([create], number_conserving=True), number],
                 [number, fock._Sum([create], number_conserving=True)]):
        with pytest.raises(ValueError, match="claimed number conserving is not"):
            fock._assemble(basis, sums)


def test_assembly_together_equals_apart(demo):
    """True claims on every operator pass, and each operator assembled
    with others has the forms and coefficients it has alone, bit for
    bit: M + M* written out, M with plus_adjoint, and number terms."""
    _, basis, _, _, _ = demo
    i, j = basis.mode((1, 0, 0), fock.SPIN_UP), basis.mode((0, 0, 0), fock.SPIN_DOWN)
    flags = dict(hermitian=True, number_conserving=True)
    sums = [fock._Sum([_hop(i, j, 0.3), _hop(j, i, 0.3)], **flags),
            fock._Sum([_hop(i, j, 0.3)], plus_adjoint=True, **flags),
            fock._Sum([_hop(i, i, 2.0)], number=np.linspace(-1.0, 1.0, basis.n_modes), **flags)]
    together = fock._assemble(basis, sums)
    for s, op in zip(sums, together):
        alone, = fock._assemble(basis, [s])
        assert op.hermitian and op.number_conserving
        assert np.array_equal(op.forms, alone.forms) and np.array_equal(op.coef, alone.coef)
    assert np.array_equal(together[0].forms, together[1].forms)


def test_vanishing_strings_leave_no_forms(demo):
    """A string that is zero on every state contributes no form, even when
    its coefficient is not finite."""
    _, basis, _, _, _ = demo
    j = basis.mode((1, 0, 0), fock.SPIN_UP)
    for coef in (1.0, math.inf, math.nan):
        op = fock.make_operator(basis, [(coef, [(j, True), (j, True)]),
                                        (coef, [(j, False), (j, True), (j, True)])])
        assert op.coef.size == 0 and op.forms.shape == (4, 0)


# ------------------------------------------------------------- Hamiltonian


def test_hamiltonian_flags_and_commutators(demo):
    """H is Hermitian and maps every occupation sector into itself, so it
    commutes with both spin numbers."""
    lat, basis, _, h, _ = demo
    assert h.hermitian and h.number_conserving
    for c in all_counts(lat):
        src = fock.sector(basis, *c)
        _, image, _, _ = h._images(src)
        assert np.isin(image, src).all()
        m = h.on(src)
        assert absmax(m - m.T) <= 1e-12 * absmax(m)


# every reader of a V^ table, called as reader(lattice, basis, vhat)
_VHAT_READERS = (fock.build_hamiltonian, fock.build_corr_terms, fock.q2_ud_from_pairs,
                 lambda lat, basis, vhat: fock.ffg_energy_wick(lat, vhat))


def test_vhat_table_must_be_real_1d_and_cover_the_grid(demo):
    """A 2-D, too short or complex table is refused by every reader of V^."""
    lat, basis, vhat, _, _ = demo
    # the demo's largest squared transfer is |(1, 0, 0) - (-1, 0, 0)|^2 = 4
    bad = {r"got shape \(1, 5\)": vhat[None], "at least 5 entries": vhat[:-1],
           "must be real": vhat + 0j}
    for match, table in bad.items():
        for read in _VHAT_READERS:
            with pytest.raises(ValueError, match=match):
                read(lat, basis, table)


def test_vhat_must_be_finite(demo):
    lat, basis, vhat, _, _ = demo
    bad = vhat.copy()
    bad[1] = math.nan
    for read in _VHAT_READERS:
        with pytest.raises(ValueError, match="must be finite"):
            read(lat, basis, bad)


@pytest.mark.parametrize("pot", [POT, RadialPotential(kind="truncated-gaussian", V0=30.0, R=1.0)],
                         ids=["square-well", "truncated-gaussian"])
@pytest.mark.parametrize("shells, kmax", [((0.5, 0.5), 1.01), ((0.5, 1.2), 1.01),
                                          ((0.5, 0.5), 1.42)], ids=["demo", "asym", "19"])
def test_vhat_table_holds_fourier_v_bit_for_bit(pot, shells, kmax):
    """Entry m of the table is fourier_V at |k| = unit sqrt(m), to the
    bit, for every square |n_i - n_j|^2 the grid realizes; the rest hold 0."""
    lat = fock.build_lattice(L, kmax, *shells)
    table = fock.vhat_from_potential(lat, pot)
    realized = sorted({sum((a - b) ** 2 for a, b in zip(n, m))
                       for n in lat.momenta for m in lat.momenta})
    assert not table.flags.writeable and table.size == realized[-1] + 1
    want = fourier_V(pot, lat.unit * np.sqrt(realized))
    assert all(table[m] == w for m, w in zip(realized, want.tolist()))
    assert not np.delete(table, realized).any()


def test_identity_report_keeps_a_nan(demo):
    """A NaN entry in a correlation term reads NaN in the report, not 0."""
    lat, basis, _, h, terms = demo
    q4 = terms["Q4"]
    nan_terms = {**terms, "Q4": dataclasses.replace(q4, coef=q4.coef * math.nan, _memo={})}
    rep = fock.corr_identity_report(lat, basis, h, nan_terms)
    assert all(math.isnan(v) for v in rep.values())


def test_free_ground_state_is_filled_shell(demo, asym):
    lat, basis, vhat, _, _ = demo
    h0 = fock.build_hamiltonian(lat, basis, np.zeros_like(vhat))
    assert fock.ground_energy(lat, basis, h0, 1, 1) == pytest.approx(0.0,
                                                                     abs=1e-14)
    lat2, basis2, vhat2, _, _ = asym
    h2 = fock.build_hamiltonian(lat2, basis2, np.zeros_like(vhat2))
    # filling all seven down modes costs the six unit-shell energies
    assert fock.ground_energy(lat2, basis2, h2, 1, 7) == pytest.approx(6.0)


def test_ground_energy_unknown_block(demo):
    lat, basis, _, h, _ = demo
    with pytest.raises(ValueError):
        fock.ground_energy(lat, basis, h, 8, 0)


# ---------------------------------------------------- operator assembly


def _dense_string(n_modes, ops):
    """Product of dense ladder matrices; the rightmost factor acts first."""
    dim = 1 << n_modes
    out = np.eye(dim)
    for mode, dag in reversed(ops):
        create = np.zeros((dim, dim))
        for x in range(dim):
            if not x & (1 << mode):
                create[x | (1 << mode), x] = (-1) ** bin(x & ((1 << mode) - 1)).count("1")
        out = (create if dag else create.T) @ out
    return out


@st.composite
def _string_sums(draw):
    n_modes = draw(st.integers(4, 6))
    factor = st.tuples(st.integers(0, n_modes - 1), st.booleans())
    term = st.tuples(st.floats(-2.0, 2.0, allow_nan=False),
                     st.lists(factor, max_size=6))
    return n_modes, draw(st.lists(term, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_string_sums())
# a*_1 a*_1: repeated creation, identically zero
@example((4, [(1.0, [(1, True), (1, True)])]))
# a_2 a*_2 a_2: repeated modes that survive
@example((5, [(0.5, [(2, False), (2, True), (2, False)])]))
# number-like strings and a sum that cancels exactly
@example((6, [(1.5, [(4, True), (1, True), (1, False), (4, False)]),
              (-0.25, [(3, True), (3, False)]),
              (1.5, [(1, True), (4, True), (4, False), (1, False)]),
              (0.7, [(0, True), (5, False)]), (-0.7, [(0, True), (5, False)])]))
def test_opstring_against_dense_reference(case):
    """Operator strings materialized on all states, on a scattered subset,
    and as their adjoint, equal products of dense ladder matrices."""
    n_modes, terms = case
    basis = fock.FockBasis(mode_order=tuple(((j, 0, 0), 0) for j in range(n_modes)))
    op = fock.make_operator(basis, terms)
    ref = sum(coef * _dense_string(n_modes, ops) for coef, ops in terms)
    every = np.arange(basis.dimension)
    assert np.abs(op.on(every) - ref).max() <= 1e-12
    some = every[::3]
    assert np.abs(op.on(some[::-1], some) - ref[np.ix_(some, some[::-1])]).max() <= 1e-12
    # the adjoint of a form swaps its need and final rows
    adj = fock.FockOperator(basis=basis, coef=op.coef, forms=op.forms[[0, 2, 1, 3]])
    assert np.abs(adj.on(every) - ref.T).max() <= 1e-12


# --------------------------------------------- particle-hole frame and FFG


def test_ph_transform_unitary(demo):
    """R maps each particle-hole sector one to one onto the occupation
    sector it names, with signs +-1: a signed permutation, so unitary."""
    lat, basis, _, _, _ = demo
    for q in all_charges(lat):
        image, sign = fock.ph_transform(lat, basis, fock.ph_sector(lat, basis, *q))
        assert np.array_equal(np.sort(image),
                              fock.sector(basis, lat.N_up + q[0], lat.N_down + q[1]))
        assert np.all(np.abs(sign) == 1.0)


def test_ph_mode_images(demo):
    """R* a_j R = a_j outside the Fermi ball and a*_{-j} inside, on every
    particle-hole sector: the full-space check of the transform."""
    lat, basis, _, _, _ = demo
    charges = all_charges(lat)
    for j, (n, spin) in enumerate(basis.mode_order):
        a_j = fock.mode_operator(basis, n, spin, "annihilate")
        # the rule itself, not the lattice's arrays: boundary modes are inside
        inside = lat.unit * math.sqrt(sum(c * c for c in n)) <= (lat.kF_up, lat.kF_down)[spin]
        neg = (-n[0], -n[1], -n[2])
        want = fock.mode_operator(basis, neg, spin, "create") if inside else a_j
        for q in charges:
            target = shifted(q, spin, -1)
            if target not in charges:
                continue
            src = fock.ph_sector(lat, basis, *q)
            dst = fock.ph_sector(lat, basis, *target)
            y_src, s_src = fock.ph_transform(lat, basis, src)
            y_dst, s_dst = fock.ph_transform(lat, basis, dst)
            order = np.argsort(y_dst)
            m = a_j.on(y_src, y_dst[order])
            pos = np.empty_like(order)
            pos[order] = np.arange(order.size)
            conj = s_dst[:, None] * m[pos] * s_src[None, :]
            assert np.array_equal(conj, want.on(src, dst)), (j, q)


def test_ph_vacuum_is_determinant(demo):
    lat, basis, _, _, _ = demo
    image, sign = fock.ph_transform(lat, basis, np.zeros(1, dtype=np.int64))
    assert image[0] == fock.ffg_index(lat, basis) and sign[0] == 1.0
    n_tot = fock.number_operator(basis)
    assert float(n_tot.on(image)[0, 0]) == pytest.approx(2.0)


def test_ffg_energy_against_wick(demo, asym):
    for lat, basis, vhat, h, _ in (demo, asym):
        e_matrix = fock.ffg_energy(lat, basis, h)
        e_wick = fock.ffg_energy_wick(lat, vhat)
        assert abs(e_matrix - e_wick) <= 1e-12 * max(1.0, abs(e_wick))


# --------------------------------------------------- correlation structure


def every_sector_residuals(lat, basis, h, terms):
    """_identity_residuals over every sector of the lattice, taken sector
    by sector: all 64 of the demo lattice as one dense block would hold
    2^14 states."""
    per = [fock._identity_residuals(lat, basis, h, terms, [q]) for q in all_charges(lat)]
    return {k: max(r[k] for r in per) for k in per[0]}


def test_correlation_identity(demo, asym):
    """Conjugated Hamiltonian minus the correlation decomposition: zero
    off the diagonal, zero on the balanced diagonal, and exactly the
    kinetic imbalance term elsewhere, on the four sectors the report
    covers and on every sector of the lattice."""
    for lat, basis, _, h, terms in (demo, asym):
        for rep in (fock.corr_identity_report(lat, basis, h, terms),
                    every_sector_residuals(lat, basis, h, terms)):
            assert set(rep) == {"offdiagonal", "balanced_diagonal", "imbalance_fit"}
            assert rep["offdiagonal"] <= 1e-10
            assert rep["balanced_diagonal"] <= 1e-10
            assert rep["imbalance_fit"] <= 1e-10


def test_one_body_terms_match_per_triple_reference(demo, asym):
    """The kinetic term of H, H0 and X per mode equal the per-triple sums
    they replace; summed as arrays, they may differ in the last bit. The
    asymmetric lattice's down ball holds 7 momenta, so X folds 7 terms."""
    for lat, basis, vhat, h, terms in (demo, asym):
        vol = lat.L ** 3
        kf = (lat.kF_up, lat.kF_down)
        k = {n: lat.unit * math.sqrt(sum(c * c for c in n)) for n in lat.momenta}
        ball = [[n for n in lat.momenta if k[n] <= kf[s]] for s in (0, 1)]
        hartree = (lat.N_up + lat.N_down) * vhat[0] / vol
        kin, h0, x = [], [], []
        for n, s in basis.mode_order:
            fold = sum(vhat[d @ d] for d in np.subtract(n, ball[s])) / vol
            kin.append(k[n] ** 2)
            h0.append(abs(k[n] ** 2 - kf[s] ** 2))
            x.append((hartree - fold) * (-1.0 if n in ball[s] else 1.0))
        # one particle: the two-body part of H vanishes
        single = np.left_shift(1, np.arange(basis.n_modes))
        for op, want in ((h, kin), (terms["H0"], h0), (terms["X"], x)):
            got = np.diagonal(op.on(single))
            assert np.allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)


# SHA-256 of the bytes of forms (int64) and coef (float64) of every
# operator, recorded before one reduce-and-merge pass built them all: the
# pass must leave each column, its order and each coefficient sum as it was
_DIGESTS = {
    "demo": {
        "H": ("cd3711566769fb09697591878968dcda38d15e374a15d0de03b2b4efde5da56f",
              "37058600c1906dd4daedf247f199ad3201eeaa4a54ee888eeccf47695ae8c19e"),
        "H0": ("928e59774eb7eee5c4e0a5d78f0ceea6155fb651b58741c43a42bcae541d8a4f",
               "94e18822f65eaa6318e835b45448478dfea063cf377a5981b138420edc92e561"),
        "X": ("928e59774eb7eee5c4e0a5d78f0ceea6155fb651b58741c43a42bcae541d8a4f",
              "764ac3c32fa287d00429e5f30386e284e06048face8df2d05043b713656e2e71"),
        "Q1": ("cc3e3e8df72e40cd07b04900d20169ffe9c0baf50fb46c9d938a1732bb371a97",
               "43079cb7dc3c80ae146589a7972b451a927c6da4c9fa9b91671531761d913b7f"),
        "Q2_par": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "Q2_ud": ("d4a27c51e0290e87eb290318c0899ecb884257707356ba7855f4ad648fc3972e",
                  "9a483a867b778140a5ae68c9da326f7f848b14d36ef311222dbc0be4bed684f1"),
        "Q3": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "Q4": ("043f779b2115b447540bd57c7ea4d1358c7221cf18e635f6ad6fefb2d3571fd9",
               "52aece5f8b156338f0a430892d3a47b410d14f7873289b05de9bc31892faba17"),
        "B1": ("4c5681d3dd1da48a23996246c0348263c9d45b185c77188de3c6ec2c7d2ae79a",
               "02597055364f8059694714a0a988c5bf052a9d4ae08282bd95eff145526566cb"),
        "B2": ("4c5681d3dd1da48a23996246c0348263c9d45b185c77188de3c6ec2c7d2ae79a",
               "46071183dea9abf950c3a462a66e07de8c58f9d0f753663d221f4df5ae100ee0"),
    },
    "asym": {
        "H": ("cd3711566769fb09697591878968dcda38d15e374a15d0de03b2b4efde5da56f",
              "37058600c1906dd4daedf247f199ad3201eeaa4a54ee888eeccf47695ae8c19e"),
        "H0": ("928e59774eb7eee5c4e0a5d78f0ceea6155fb651b58741c43a42bcae541d8a4f",
               "4ed3113a0d436ce55aca13df4f525f4e1614a56db358a65ffdf7392dff8d7611"),
        "X": ("928e59774eb7eee5c4e0a5d78f0ceea6155fb651b58741c43a42bcae541d8a4f",
              "090fc9379e6b7a3a6a29d398841d4d17d11b109b28b2e3274a8bd6105c1dfde5"),
        "Q1": ("cbb9ca84cfdd5473073010e3605790b951c9afa6503ef96879e2b16b89a91901",
               "a2cb28007be128faab9c50f8627e096eef3336621fc3957b95f1bda840d05293"),
        "Q2_par": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "Q2_ud": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "Q3": ("7003b007a86db7b015c7c285f30effcd40435128a93bea40002cbca3fd51a1a0",
               "02a47916bd9b880fbfb3a6bf09044ecd4007a48d5f7bbeb52cbf19f090714030"),
        "Q4": ("fbc6bc0bb384274f6d87ad9ac92ea35613e59b66aca5ec060a7318ae754b3e6b",
               "62bc8b7f8f26d0a15b22b8f1b351da089ce2f97c0e37b2c1ad073cb8c36f1a27"),
        # the down ball fills the lattice: no particle-hole pair to remove
        "B1": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "B2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
}


def _sha(a, dtype):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


def test_operator_digests(demo, asym):
    sol = solve_scattering(POT)
    cut = CutoffConfig(rho=0.225 ** 4.5)
    psf = periodize_phi(sol, L, cutoff=cut)
    for name, (lat, basis, _, h, terms) in (("demo", demo), ("asym", asym)):
        eta = EtaFunction(a=sol.a, epsilon=cut.epsilon, kF_up=lat.kF_up, kF_down=lat.kF_down)
        ops = {"H": h, **terms,
               "B1": fock.build_generator(lat, basis, "B1", phi=psf),
               "B2": fock.build_generator(lat, basis, "B2", eta=eta, cutoff=cut)}
        got = {k: (_sha(op.forms, np.int64), _sha(op.coef, np.float64)) for k, op in ops.items()}
        assert got == _DIGESTS[name]


# the residuals recorded before the sectors were checked on one block
_RESIDUALS = {
    "demo": ({"offdiagonal": "0x1p-60", "balanced_diagonal": "0x1p-60",
              "imbalance_fit": "0x1p-60"},
             {"offdiagonal": "0x1p-60", "balanced_diagonal": "0x1p-60",
              "imbalance_fit": "0x1.ap-48"}),
    "asym": ({"offdiagonal": "0x1p-60", "balanced_diagonal": "0x1p-49",
              "imbalance_fit": "0x1.4p-49"},
             {"offdiagonal": "0x1p-60", "balanced_diagonal": "0x1p-49",
              "imbalance_fit": "0x1.a8p-46"}),
}


def test_identity_residuals_unchanged(demo, asym):
    """The report's four sectors on one block, and every sector of the
    lattice, give the residuals the sector-by-sector check gave, exactly."""
    for name, (lat, basis, _, h, terms) in (("demo", demo), ("asym", asym)):
        report, every = ({k: float.fromhex(v) for k, v in want.items()}
                         for want in _RESIDUALS[name])
        assert fock.corr_identity_report(lat, basis, h, terms) == report
        assert every_sector_residuals(lat, basis, h, terms) == every


def _ph_by_mode(lat, basis, states):
    """ph_transform as a loop over modes, highest first: each hit mode j
    flips its target t_j in the image, passing the image's lower bits."""
    ins, reflect = lat.inside.tolist(), lat.reflect.tolist()
    image = np.full(states.shape, fock.ffg_index(lat, basis), dtype=np.int64)
    negative = np.zeros(states.shape, dtype=bool)
    for j in reversed(range(basis.n_modes)):
        i, s = divmod(j, 2)
        t = 2 * reflect[i] + s if ins[s][i] else j
        hit = (states >> j) & 1 == 1
        negative ^= hit & (np.bitwise_count(image & ((1 << t) - 1)) & 1 == 1)
        image = np.where(hit, image ^ (1 << t), image)
    return image, np.where(negative, -1.0, 1.0)


def test_ph_transform_matches_mode_loop(demo, asym):
    """The closed form equals the loop over modes on all 2^14 states, and
    on a concatenation of sectors equals the sectors one by one."""
    for lat, basis, _, _, _ in (demo, asym):
        every = np.arange(basis.dimension, dtype=np.int64)
        image, sign = fock.ph_transform(lat, basis, every)
        want_image, want_sign = _ph_by_mode(lat, basis, every)
        assert np.array_equal(image, want_image) and np.array_equal(sign, want_sign)
        sectors = [fock.ph_sector(lat, basis, *q) for q in all_charges(lat)[::7]]
        image, sign = fock.ph_transform(lat, basis, np.concatenate(sectors))
        apart = [fock.ph_transform(lat, basis, x) for x in sectors]
        assert np.array_equal(image, np.concatenate([y for y, _ in apart]))
        assert np.array_equal(sign, np.concatenate([z for _, z in apart]))


def test_identity_report_sees_the_imbalance(demo):
    """A wrong kF in the imbalance term shows in imbalance_fit, so the
    report's sectors with one particle fewer do test it."""
    lat, basis, _, h, terms = demo
    lat_bad = fock.LatticeConfig(L=lat.L, momenta=lat.momenta, kF_up=lat.kF_up * 1.5,
                                 kF_down=lat.kF_down, N_up=lat.N_up, N_down=lat.N_down)
    rep = fock.corr_identity_report(lat_bad, basis, h, terms)
    assert rep["imbalance_fit"] > 0.1
    assert rep["balanced_diagonal"] <= 1e-10


def test_q2_ud_dual_route(demo, asym):
    for lat, basis, vhat, _, terms in (demo, asym):
        alt = fock.q2_ud_from_pairs(lat, basis, vhat)
        for q in all_charges(lat):
            src = fock.ph_sector(lat, basis, *q)
            assert absmax(alt.on(src) - terms["Q2_ud"].on(src)) < 1e-12


def test_h0_and_q4_nonnegative(demo):
    lat, basis, _, _, terms = demo
    for q in all_charges(lat):
        src = fock.ph_sector(lat, basis, *q)
        for key in ("H0", "Q4"):
            # Cholesky succeeds iff the lowest eigenvalue is above -1e-12
            np.linalg.cholesky(terms[key].on(src) + 1e-12 * np.eye(src.size))


def test_corr_terms_flags(demo):
    _, _, _, _, terms = demo
    for key in ("H0", "X", "Q1", "Q2_par", "Q2_ud", "Q3", "Q4"):
        assert terms[key].hermitian


# -------------------------------------------------- generators and trials


def test_generators_annihilate_vacuum(demo, generators, ph_zero):
    _, basis, _, _, _ = demo
    vac = np.zeros(1, dtype=np.int64)
    for b in generators:
        assert not b.on(vac, np.arange(basis.dimension)).any()
        assert np.count_nonzero(b.on(ph_zero)) > 0


def test_generator_number_commutator(demo, generators, ph_zero):
    # [N, B - B*] = -4 (B + B*): each term moves four particles
    _, basis, _, _, _ = demo
    n_tot = fock.number_operator(basis).on(ph_zero)
    for b in generators:
        m = b.on(ph_zero)
        k = m - m.T
        assert absmax(n_tot @ k - k @ n_tot + 4.0 * (m + m.T)) < 1e-10


def test_generator_needs_matching_box(demo):
    lat, basis, _, _, _ = demo
    sol = solve_scattering(POT)
    psf = periodize_phi(sol, 2.0 * L)
    with pytest.raises(ValueError):
        fock.build_generator(lat, basis, "B1", phi=psf)


def _embed(sub, amp, states):
    vec = np.zeros(states.size)
    vec[np.searchsorted(states, sub)] = amp
    return vec


_LAMBDA = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(_LAMBDA, _LAMBDA)
@example(0.0, 0.0)
@example(0.0, 1.0)
@example(1.0, 0.0)
@example(0.7, 0.0)
@example(0.0, -1.3)
@example(1.5, 0.9)
def test_exponential_is_unitary(demo, generators, ph_zero, l1, l2):
    """trial_state acts on the block the vacuum reaches; it must agree with
    the dense exponential of the generators on the whole sector and keep
    the norm."""
    _, basis, _, _, _ = demo
    b1, b2 = generators
    sub, amp = fock.trial_state(basis, b1, b2, l1, l2)
    assert abs(np.linalg.norm(amp) - 1.0) <= 1e-12
    ref = _embed(np.zeros(1, dtype=np.int64), np.ones(1), ph_zero)
    for b, lam in ((b2, l2), (b1, l1)):
        m = b.on(ph_zero)
        ref = scipy.linalg.expm(lam * (m - m.T)) @ ref
    assert np.abs(_embed(sub, amp, ph_zero) - ref).max() <= 1e-12


def test_invariant_support_is_closed(demo, generators, ph_zero):
    """The component a generator finds from some start states holds them
    and is closed under B and B*, and its cached eigendecomposition is
    that of i(B - B*) there."""
    _, basis, _, _, _ = demo
    rng = np.random.default_rng(7)
    for b in generators:
        m = b.on(ph_zero)
        excited = ph_zero[np.flatnonzero(m[0] != 0.0)[0]]
        for start in ([0], [excited], rng.choice(ph_zero, 5, replace=False)):
            start = np.sort(np.asarray(start, dtype=np.int64))
            block, w, v = b._component(start)
            assert np.all(np.diff(block) > 0)
            inside = np.isin(ph_zero, block)
            assert np.isin(start, block).all()
            assert not m[~inside][:, inside].any()
            assert not m[inside][:, ~inside].any()
            sub = m[np.ix_(inside, inside)]
            assert np.abs(v.conj().T @ v - np.eye(block.size)).max() <= 1e-13
            scale = 1.0 + np.abs(sub).max()
            assert np.abs((v * w) @ v.conj().T - 1j * (sub - sub.T)).max() <= 1e-13 * scale


def test_trial_block_is_seven_states(demo, generators):
    """On the demo lattice the exponentials act on 7 basis states: the
    vacuum and the six states one generator term reaches from it."""
    _, basis, _, _, _ = demo
    b1, b2 = generators
    block = fock.trial_block(b1, b2)
    assert block.size == 7 and block[0] == 0
    sub, amp = fock.trial_state(basis, b1, b2, 0.8, -0.6)
    assert set(sub[amp != 0.0].tolist()) <= set(block.tolist())


@pytest.mark.parametrize("support", ["dense", "scattered"])
def test_expectation_matches_full_matvec(demo, generators, ph_zero, support):
    """An operator restricted to a vector's support gives the same
    expectation as its whole-sector matrix."""
    lat, basis, _, h, terms = demo
    rng = np.random.default_rng(11)
    b1, _ = generators
    for op, states in ((h, fock.sector(basis, 1, 1)), *((t, ph_zero) for t in terms.values()),
                       (b1, ph_zero)):
        vec = rng.standard_normal(states.size)
        keep = np.arange(states.size)
        if support == "scattered":
            keep = np.sort(rng.choice(states.size, 12, replace=False))
        full = np.zeros(states.size)
        full[keep] = vec[keep]
        m = op.on(states)
        ref = float(full @ m @ full)
        got = float(vec[keep] @ op.on(states[keep]) @ vec[keep])
        scale = float(np.abs(full) @ np.abs(m) @ np.abs(full))
        assert abs(got - ref) <= 1e-13 * max(scale, 1e-300)


@settings(max_examples=60, deadline=None)
@given(_LAMBDA, _LAMBDA)
@example(0.0, 0.0)
@example(0.0, 1.0)
@example(1.0, 0.0)
@example(5e-324, -1e-300)
@example(2.0, 2.0)
def test_trial_energy_matches_full_space(demo, generators, ph_zero, l1, l2):
    """The block energy equals the whole-sector expectation sum.

    Both sides round at the size of the terms, not of their sum, which
    cancels (at (2, 2) terms of +-4.4e-4 sum to -1.2e-6), so the tolerance
    scales with the sum of |vec|^T |T_t| |vec| over the terms."""
    lat, basis, _, _, terms = demo
    b1, b2 = generators
    vec = _embed(*fock.trial_state(basis, b1, b2, l1, l2), ph_zero)
    energy = fock.trial_energy(lat, basis, terms, b1, b2, l1, l2)
    mats = [t.on(ph_zero) for t in terms.values()]
    full = sum(float(vec @ m @ vec) for m in mats)
    scale = sum(float(np.abs(vec) @ np.abs(m) @ np.abs(vec)) for m in mats)
    # the floor only matters where subnormal amplitudes leave no digits
    assert abs(energy - full) <= 1e-13 * scale + 1e-300


def test_b1_lazy_coefficients_match_explicit_table(demo, ph_zero):
    lat, basis, _, _, _ = demo
    sol = solve_scattering(POT)
    cut = CutoffConfig(rho=0.225 ** 4.5)
    lazy = fock.build_generator(lat, basis, "B1", phi=periodize_phi(sol, L, cutoff=cut))

    class Table:
        """The two members build_generator reads, with phi-hat straight from
        fourier_Vf / (2 s^2) * chi_greater, zero at the origin and off the
        default cube |n_i| <= 24."""
        L = lat.L

        @staticmethod
        def coeffs(ns):
            n = np.asarray(ns)
            s = lat.unit * np.sqrt(np.sum(n * n, axis=1))
            on = (s > 0.0) & np.all(np.abs(n) <= 24, axis=1)
            out = np.zeros(len(n))
            out[on] = fourier_Vf(sol, s[on]) / (2.0 * s[on] ** 2) * cut.chi_greater(s[on])
            return out

    explicit = fock.build_generator(lat, basis, "B1", phi=Table())
    m_lazy, m_explicit = lazy.on(ph_zero), explicit.on(ph_zero)
    assert np.count_nonzero(m_lazy) == np.count_nonzero(m_explicit) > 0
    assert absmax(m_lazy - m_explicit) <= 1e-14 * absmax(m_explicit)


def test_trial_state_sector_support(demo, generators):
    """Each generator moves one up pair and one down pair, so the trial
    state lives on per-spin balanced states with total excitation a
    multiple of four."""
    lat, basis, _, _, _ = demo
    b1, b2 = generators
    sub, amp = fock.trial_state(basis, b1, b2, 0.4, 0.3)
    assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-10)
    pu, hu, pd, hd = fock.excitation_counts(lat, basis, sub[np.abs(amp) > 1e-14])
    assert np.all((pu + hu + pd + hd) % 4 == 0)
    assert np.all(pu == hu)
    assert np.all(pd == hd)


def test_sector_orthogonal_terms_vanish_on_trials(demo, generators):
    _, basis, _, _, terms = demo
    b1, b2 = generators
    sub, amp = fock.trial_state(basis, b1, b2, 0.4, 0.3)
    for key in ("Q2_par", "Q3"):
        assert abs(float(amp @ terms[key].on(sub) @ amp)) <= 1e-12


def test_trial_energy_zero_at_origin(demo, generators):
    lat, basis, _, _, terms = demo
    b1, b2 = generators
    assert abs(fock.trial_energy(lat, basis, terms, b1, b2, 0.0, 0.0)) \
        < 1e-14


def test_variational_bound_on_grid(demo, generators):
    lat, basis, _, h, terms = demo
    b1, b2 = generators
    e_ffg = fock.ffg_energy(lat, basis, h)
    e_ground = fock.ground_energy(lat, basis, h, lat.N_up, lat.N_down)
    best = math.inf
    for l1 in np.linspace(-0.5, 0.5, 5):
        for l2 in np.linspace(-0.5, 0.5, 5):
            e = e_ffg + fock.trial_energy(lat, basis, terms, b1, b2,
                                          float(l1), float(l2))
            assert e >= e_ground - 1e-10
            best = min(best, e)
    # correlations must beat the bare determinant somewhere on the grid
    assert best < e_ffg


def test_excitation_counts_on_determinant(demo):
    lat, basis, _, _, _ = demo
    up_zero = basis.mode((0, 0, 0), fock.SPIN_UP)
    counts = fock.excitation_counts(lat, basis, [0, 1 << up_zero])
    for arr in counts:
        assert arr[0] == 0  # vacuum of the correlation frame
    assert tuple(int(arr[1]) for arr in counts) == (0, 1, 0, 0)
