"""Exact lattice checks: CAR algebra, the particle-hole frame, the
correlation decomposition, quasi-bosonic generators, and variational
energies. Everything here is assertable to near machine precision."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh, expm_multiply

from hyfermi import fock
from hyfermi.cutoffs import CutoffConfig
from hyfermi.potentials import (
    EtaFunction,
    RadialPotential,
    periodize_phi,
    solve_scattering,
)

L = 2.0 * math.pi
POT = RadialPotential(kind="square-well", V0=0.4, R=1.0)


def absmax(matrix):
    return fock._abs_max(matrix.tocoo())


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


def test_basis_mode_lookup(demo):
    _, basis, _, _, _ = demo
    assert basis.dimension == 16384
    with pytest.raises(ValueError):
        basis.mode((9, 9, 9), fock.SPIN_UP)


def test_basis_refuses_oversized_lattice():
    lat = fock.build_lattice(L, 1.5, 0.5, 0.5)
    assert len(lat.momenta) == 19
    with pytest.raises(ValueError):
        fock.build_basis(lat)


# --------------------------------------------------------------------- CAR


def test_car_identities(demo):
    _, basis, _, _, _ = demo
    a = fock.mode_operator(basis, (1, 0, 0), fock.SPIN_UP, "annihilate")
    ad = fock.mode_operator(basis, (1, 0, 0), fock.SPIN_UP, "create")
    b = fock.mode_operator(basis, (0, 1, 0), fock.SPIN_DOWN, "annihilate")
    eye = sp.identity(basis.dimension, format="csr")
    assert absmax(a.matrix @ ad.matrix + ad.matrix @ a.matrix - eye) == 0.0
    assert absmax(a.matrix @ b.matrix + b.matrix @ a.matrix) == 0.0
    assert (ad.matrix @ ad.matrix).nnz == 0


def test_vacuum_action(demo):
    _, basis, _, _, _ = demo
    vac = np.zeros(basis.dimension)
    vac[0] = 1.0
    a = fock.mode_operator(basis, (0, 0, 0), fock.SPIN_UP, "annihilate")
    ad = fock.mode_operator(basis, (0, 0, 0), fock.SPIN_UP, "create")
    assert np.all(a.matrix @ vac == 0.0)
    one = ad.matrix @ vac
    assert np.count_nonzero(one) == 1


def test_flag_claims_are_verified(demo):
    _, basis, _, _, _ = demo
    a = fock.mode_operator(basis, (1, 0, 0), fock.SPIN_UP, "annihilate")
    with pytest.raises(ValueError):
        fock.make_operator(basis, a.matrix, hermitian=True)
    with pytest.raises(ValueError):
        fock.make_operator(basis, a.matrix, number_conserving=True)


# ------------------------------------------------------------- Hamiltonian


def test_hamiltonian_flags_and_commutators(demo):
    _, basis, _, h, _ = demo
    assert h.hermitian and h.number_conserving
    for spin in (fock.SPIN_UP, fock.SPIN_DOWN):
        n_s = fock.number_operator(basis, spin)
        assert absmax(h.matrix @ n_s.matrix - n_s.matrix @ h.matrix) < 1e-12


def test_vhat_must_be_reflection_symmetric(demo):
    lat, basis, vhat, _, _ = demo
    bad = dict(vhat)
    key = next(k for k in bad if k != (0, 0, 0))
    bad[key] = bad[key] + 0.1
    with pytest.raises(ValueError):
        fock.build_hamiltonian(lat, basis, bad)


def test_free_ground_state_is_filled_shell(demo, asym):
    lat, basis, vhat, _, _ = demo
    zero = {k: 0.0 for k in vhat}
    h0 = fock.build_hamiltonian(lat, basis, zero)
    assert fock.ground_energy(lat, basis, h0, 1, 1) == pytest.approx(0.0,
                                                                     abs=1e-14)
    lat2, basis2, vhat2, _, _ = asym
    h2 = fock.build_hamiltonian(lat2, basis2, {k: 0.0 for k in vhat2})
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
    """Assembled operator strings equal products of dense ladder matrices."""
    n_modes, terms = case
    basis = fock.FockBasis(mode_order=tuple(((j, 0, 0), 0) for j in range(n_modes)),
                           dimension=1 << n_modes)
    got = fock._assemble(basis, terms).toarray()
    ref = sum(coef * _dense_string(n_modes, ops) for coef, ops in terms)
    assert np.abs(got - ref).max() <= 1e-12


# --------------------------------------------- particle-hole frame and FFG


def test_ph_transform_unitary(demo):
    lat, basis, _, _, _ = demo
    r = fock.ph_transform(lat, basis)
    eye = sp.identity(basis.dimension, format="csr")
    assert absmax(r.matrix.T @ r.matrix - eye) < 1e-12


def test_ph_vacuum_is_determinant(demo):
    lat, basis, _, _, _ = demo
    r = fock.ph_transform(lat, basis)
    v_ffg = r.matrix.getcol(0).toarray().ravel()
    n_tot = fock.number_operator(basis)
    assert float(v_ffg @ (n_tot.matrix @ v_ffg)) == pytest.approx(2.0)
    assert float(v_ffg[fock.ffg_index(lat, basis)]) > 0.0


def test_ph_cache_stays_bounded():
    """A process sweeping lattices keeps only a few transforms alive."""
    for box in np.linspace(2.0, 12.0, 20):
        lat = fock.build_lattice(float(box), 0.01, 0.005, 0.005)
        basis = fock.build_basis(lat)
        r = fock.ph_transform(lat, basis)
        assert fock.ph_transform(lat, basis) is r
        info = fock.ph_transform.cache_info()
        assert info.currsize <= info.maxsize <= 4


def test_ffg_energy_against_wick(demo, asym):
    for lat, basis, vhat, h, _ in (demo, asym):
        e_matrix = fock.ffg_energy(lat, basis, h)
        e_wick = fock.ffg_energy_wick(lat, vhat)
        assert abs(e_matrix - e_wick) <= 1e-12 * max(1.0, abs(e_wick))


# --------------------------------------------------- correlation structure


def test_correlation_identity(demo, asym):
    """Conjugated Hamiltonian minus the correlation decomposition: zero
    off the diagonal, zero on the balanced diagonal, and exactly the
    kinetic imbalance term elsewhere."""
    for lat, basis, _, h, terms in (demo, asym):
        rep = fock.corr_identity_report(lat, basis, h, terms)
        assert rep["offdiagonal"] <= 1e-10
        assert rep["balanced_diagonal"] <= 1e-10
        assert rep["imbalance_fit"] <= 1e-10


def test_q2_ud_dual_route(demo):
    lat, basis, vhat, _, terms = demo
    alt = fock.q2_ud_from_pairs(lat, basis, vhat)
    assert absmax(alt.matrix - terms["Q2_ud"].matrix) < 1e-12


def test_h0_and_q4_nonnegative(demo):
    _, _, _, _, terms = demo
    for key in ("H0", "Q4"):
        m = terms[key].matrix
        lo = eigsh(m, k=1, which="SA", return_eigenvectors=False)[0]
        assert lo > -1e-12


def test_corr_terms_flags(demo):
    _, _, _, _, terms = demo
    for key in ("H0", "X", "Q1", "Q2_par", "Q2_ud", "Q3", "Q4"):
        assert terms[key].hermitian


# -------------------------------------------------- generators and trials


def test_generators_annihilate_vacuum(demo, generators):
    _, basis, _, _, _ = demo
    b1, b2 = generators
    vac = np.zeros(basis.dimension)
    vac[0] = 1.0
    assert np.all(b1.matrix @ vac == 0.0)
    assert np.all(b2.matrix @ vac == 0.0)
    assert b1.matrix.nnz > 0 and b2.matrix.nnz > 0


def test_generator_number_commutator(demo, generators):
    # [N, B - B*] = -4 (B + B*): each term moves four particles
    _, basis, _, _, _ = demo
    n_tot = fock.number_operator(basis)
    for b in generators:
        k = b.matrix - b.matrix.T
        lhs = n_tot.matrix @ k - k @ n_tot.matrix
        rhs = -4.0 * (b.matrix + b.matrix.T)
        assert absmax(lhs - rhs) < 1e-10


def test_generator_needs_matching_box(demo):
    lat, basis, _, _, _ = demo
    sol = solve_scattering(POT)
    psf = periodize_phi(sol, 2.0 * L)
    with pytest.raises(ValueError):
        fock.build_generator(lat, basis, "B1", phi=psf)


_LAMBDA = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(_LAMBDA, _LAMBDA)
@example(0.0, 0.0)
@example(0.0, 1.0)
@example(1.0, 0.0)
@example(0.7, 0.0)
@example(0.0, -1.3)
@example(1.5, 0.9)
def test_exponential_is_unitary(demo, generators, l1, l2):
    """trial_state acts on the block the vacuum reaches; it must agree with
    the exponential of the full generators and keep the norm."""
    _, basis, _, _, _ = demo
    b1, b2 = generators
    vec = fock.trial_state(basis, b1, b2, l1, l2)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    ref = np.zeros(basis.dimension)
    ref[0] = 1.0
    for b, lam in ((b2, l2), (b1, l1)):
        ref = expm_multiply(((b.matrix - b.matrix.T) * lam).tocsr(), ref)
    assert np.abs(vec - ref).max() <= 1e-12


def test_invariant_support_is_closed(demo, generators):
    """The block FockOperator.reach returns holds the start states and is
    closed under B and B*."""
    _, basis, _, _, _ = demo
    vac = np.zeros(basis.dimension)
    vac[0] = 1.0
    rng = np.random.default_rng(7)
    for b in generators:
        excited = np.flatnonzero(b.matrix.T @ vac)[0]
        for start in ([excited], rng.choice(basis.dimension, 5, replace=False)):
            start = np.sort(np.asarray(start))
            block = b.reach(start)
            assert np.all(np.diff(block) > 0)
            inside = np.zeros(basis.dimension, dtype=bool)
            inside[block] = True
            assert inside[start].all()
            for m in (b.matrix, b.matrix.T.tocsr()):
                assert m[~inside][:, inside].nnz == 0
                assert m[inside][:, ~inside].nnz == 0


def test_trial_block_is_seven_states(demo, generators):
    """On the demo lattice the exponentials act on 7 basis states: the
    vacuum and the six states one generator term reaches from it."""
    _, basis, _, _, _ = demo
    b1, b2 = generators
    block = fock.trial_block(b1, b2)
    assert block.size == 7 and block[0] == 0
    vec = fock.trial_state(basis, b1, b2, 0.8, -0.6)
    assert set(np.flatnonzero(vec)) <= set(block.tolist())


@pytest.mark.parametrize("support", ["dense", "scattered"])
def test_expectation_matches_full_matvec(demo, generators, support):
    _, basis, _, h, terms = demo
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(basis.dimension)
    if support == "scattered":
        keep = rng.choice(basis.dimension, 40, replace=False)
        vec[np.setdiff1d(np.arange(basis.dimension), keep)] = 0.0
    b1, _ = generators
    for op in (h, *terms.values(), b1):
        ref = float(np.vdot(vec, op.matrix @ vec))
        scale = float(np.abs(vec) @ (abs(op.matrix) @ np.abs(vec)))
        assert abs(op.expectation(vec) - ref) <= 1e-13 * max(scale, 1e-300)


@settings(max_examples=60, deadline=None)
@given(_LAMBDA, _LAMBDA)
@example(0.0, 0.0)
@example(0.0, 1.0)
@example(1.0, 0.0)
@example(5e-324, -1e-300)
def test_trial_energy_matches_full_space(demo, generators, l1, l2):
    """The row-gathered energy equals the full-space expectation sum."""
    lat, basis, _, _, terms = demo
    b1, b2 = generators
    vec = fock.trial_state(basis, b1, b2, l1, l2)
    energy = fock.trial_energy(lat, basis, terms, b1, b2, l1, l2)
    full = sum(float(np.vdot(vec, t.matrix @ vec)) for t in terms.values())
    # the floor only matters where subnormal amplitudes leave no digits
    assert abs(energy - full) <= 1e-13 * abs(full) + 1e-300


def test_b1_lazy_coefficients_match_explicit_table(demo):
    lat, basis, _, _, _ = demo
    sol = solve_scattering(POT)
    cut = CutoffConfig(rho=0.225 ** 4.5)
    lazy = fock.build_generator(lat, basis, "B1", phi=periodize_phi(sol, L, cutoff=cut))
    table = dict(periodize_phi(sol, L, cutoff=cut, n_max=24).coefficients)
    assert len(table) == 49 ** 3
    explicit = fock.build_generator(lat, basis, "B1", phi=table)
    assert lazy.matrix.nnz == explicit.matrix.nnz > 0
    assert absmax(lazy.matrix - explicit.matrix) <= 1e-14 * absmax(explicit.matrix)


def test_trial_state_sector_support(demo, generators):
    """Each generator moves one up pair and one down pair, so the trial
    state lives on per-spin balanced states with total excitation a
    multiple of four."""
    lat, basis, _, _, _ = demo
    b1, b2 = generators
    vec = fock.trial_state(basis, b1, b2, 0.4, 0.3)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)
    pu, hu, pd, hd = fock.excitation_counts(lat, basis)
    support = np.abs(vec) > 1e-14
    assert np.all((pu + hu + pd + hd)[support] % 4 == 0)
    assert np.all((pu == hu)[support])
    assert np.all((pd == hd)[support])


def test_sector_orthogonal_terms_vanish_on_trials(demo, generators):
    _, basis, _, _, terms = demo
    b1, b2 = generators
    vec = fock.trial_state(basis, b1, b2, 0.4, 0.3)
    for key in ("Q2_par", "Q3"):
        val = float(vec @ (terms[key].matrix @ vec))
        assert abs(val) <= 1e-12


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
    counts = fock.excitation_counts(lat, basis)
    for arr in counts:
        assert arr[0] == 0  # vacuum of the correlation frame
    up_zero = basis.mode((0, 0, 0), fock.SPIN_UP)
    hole_state = 1 << up_zero
    pu, hu, pd, hd = (arr[hole_state] for arr in counts)
    assert (pu, hu, pd, hd) == (0, 1, 0, 0)
