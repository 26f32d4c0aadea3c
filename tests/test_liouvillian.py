"""Operator algebra, rotating-frame Hamiltonian, and Lindblad generator checks.

The generator tests pin the two conventions everything downstream relies on:
column-stacking vectorization and the sqrt(2*kappa)*a cavity jump (amplitude
decays at kappa, populations at 2*kappa).
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import expm_multiply

from vitats import (
    CoherentPump,
    DimensionMismatch,
    HilbertSpec,
    ParameterError,
    SystemParams,
    ThermalPump,
    assemble_liouvillian,
    build_operators,
    liouvillian_at,
    manifold,
    unvec,
    vec,
)
from vitats import solver
from vitats.liouvillian import (
    _dense_hamiltonian,
    _dense_jumps,
    factors_at,
    trace_indices,
)


def _dense(op):
    return np.asarray(op.todense())


def test_hilbert_spec_indexing():
    spec = HilbertSpec(n_max=4)
    assert spec.dim == 15
    assert spec.index(0, "g") == 0
    assert spec.index(0, "e") == 2
    assert spec.index(3, "f") == 10
    with pytest.raises(ParameterError):
        spec.index(5, "g")
    with pytest.raises(ParameterError):
        HilbertSpec(n_max=0)


def test_operator_algebra():
    spec = HilbertSpec(n_max=7)
    ops = build_operators(spec)
    comm = _dense(ops.a @ ops.a_dag - ops.a_dag @ ops.a)
    # canonical commutator holds strictly below the truncation edge
    below = np.arange(3 * spec.n_max)
    assert np.allclose(comm[np.ix_(below, below)], np.eye(3 * spec.n_max),
                       atol=1e-14)
    # the top photon block absorbs the truncation defect: 1 - (n_max+1)
    top = 3 * spec.n_max
    assert comm[top, top] == pytest.approx(-spec.n_max)
    assert np.allclose(_dense(ops.n_op), _dense(ops.a_dag @ ops.a), atol=0)
    sig = ops.sigma
    assert np.allclose(_dense(sig[("e", "g")] @ sig[("g", "e")]),
                       _dense(sig[("e", "e")]), atol=0)
    assert np.allclose(_dense(sig[("g", "e")] @ sig[("e", "g")]),
                       _dense(sig[("g", "g")]), atol=0)
    # atomic and photonic factors commute
    assert (ops.a @ sig[("e", "f")] - sig[("e", "f")] @ ops.a).nnz == 0
    evals = np.sort(np.linalg.eigvalsh(_dense(ops.n_op)))
    assert np.allclose(evals, np.repeat(np.arange(spec.n_max + 1), 3), atol=1e-12)



def test_operators_match_kronecker_products():
    # photon-major joint basis: a = lower (x) 1_atom, sigma_ij = 1_ph (x) |i><j|
    spec = HilbertSpec(n_max=4)
    ops = build_operators(spec)
    n_ph = spec.n_max + 1
    lower = np.diag(np.sqrt(np.arange(1.0, n_ph)), k=1)
    assert np.array_equal(_dense(ops.a), np.kron(lower, np.eye(3)))
    assert np.array_equal(_dense(ops.a_dag), np.kron(lower.T, np.eye(3)))
    for i, upper in enumerate(("g", "f", "e")):
        for j, lower_level in enumerate(("g", "f", "e")):
            atom = np.zeros((3, 3))
            atom[i, j] = 1.0
            assert np.array_equal(_dense(ops.sigma[(upper, lower_level)]),
                                  np.kron(np.eye(n_ph), atom))

def test_hamiltonian_matrix_elements():
    p = SystemParams.from_effective(5.0, 1.0, eta=3.0, kappa=0.2, delta=1.4,
                                    pump=CoherentPump(Omega=0.7), epsilon=0.05)
    spec = HilbertSpec(n_max=5)
    h = _dense_hamiltonian(p, 2.0, spec, None)
    idx = spec.index
    for n in range(spec.n_max):
        assert h[idx(n + 1, "f"), idx(n, "e")] == pytest.approx(
            3.0 * math.sqrt(n + 1), rel=1e-14)
        assert h[idx(n + 1, "g"), idx(n, "g")] == pytest.approx(
            0.7 * math.sqrt(n + 1), rel=1e-14)
    for n in range(spec.n_max + 1):
        assert h[idx(n, "e"), idx(n, "g")] == pytest.approx(0.05, rel=1e-14)
        assert h[idx(n, "e"), idx(n, "e")] == pytest.approx(2.0 - 0.7, rel=1e-14)
        assert h[idx(n, "f"), idx(n, "f")] == pytest.approx(2.0 + 0.7, rel=1e-14)
    assert np.allclose(h, h.conj().T, atol=0)


def test_hamiltonian_hermitian_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        ge, gf = rng.uniform(0.0, 8.0, size=2)
        p = SystemParams.from_effective(
            ge, gf, eta=rng.uniform(0, 20), kappa=rng.uniform(0, 5),
            delta=rng.uniform(-10, 10),
            pump=CoherentPump(Omega=rng.uniform(0, 2),
                              pump_detuning=rng.uniform(-3, 3)),
            epsilon=rng.uniform(0, 0.5))
        h = _dense_hamiltonian(p, float(rng.uniform(-30, 30)), HilbertSpec(n_max=3), None)
        assert np.abs(h - h.conj().T).max() < 1e-12


def test_hamiltonian_eigenvalues_match_dressed_manifolds():
    # probe- and pump-free resonant Hamiltonian: zeros on all |n,g>, the
    # decoupled edge states, and +-eta*sqrt(n+1) for each coupled doublet
    p = SystemParams.from_effective(5.0, 1.0, eta=2.3, kappa=0.5)
    n_max = 6
    spec = HilbertSpec(n_max=n_max)
    h = _dense_hamiltonian(p, 0.0, spec, epsilon=0.0)
    got = np.sort(np.linalg.eigvalsh(h))
    expected = [0.0] * (n_max + 3)
    for n in range(n_max):
        m = manifold(n, p)
        expected.extend([m.omega_minus, m.omega_plus])
        assert m.splitting == pytest.approx(2 * 2.3 * math.sqrt(n + 1), rel=1e-12)
    assert np.allclose(got, np.sort(expected), atol=1e-12)


def test_hamiltonian_eigenvalues_match_dressed_manifolds_detuned():
    p = SystemParams.from_effective(5.0, 1.0, eta=2.3, kappa=0.5, delta=3.1)
    n_max = 5
    spec = HilbertSpec(n_max=n_max)
    # Delta = delta/2 zeroes the e level; each doublet then sits at
    # delta/2 + omega_-+ relative to |n,g>
    h = _dense_hamiltonian(p, 3.1 / 2, spec, epsilon=0.0)
    idx = spec.index
    for n in range(n_max):
        block = np.array([[h[idx(n, "e"), idx(n, "e")],
                           h[idx(n, "e"), idx(n + 1, "f")]],
                          [h[idx(n + 1, "f"), idx(n, "e")],
                           h[idx(n + 1, "f"), idx(n + 1, "f")]]])
        m = manifold(n, p)
        evals = np.sort(np.linalg.eigvalsh(block))
        assert evals[0] == pytest.approx(3.1 / 2 + m.omega_minus, rel=1e-12)
        assert evals[1] == pytest.approx(3.1 / 2 + m.omega_plus, rel=1e-12)


def test_collapse_set_contents():
    p = SystemParams(gamma={("e", "g"): 4.0, ("f", "g"): 1.0, ("e", "e"): 0.5},
                     eta=2.0, kappa=0.8)
    spec = HilbertSpec(n_max=2)
    ops = build_operators(spec)
    cs = _dense_jumps(p, spec)
    # n_th = 0: no raising jump; order is cavity, then sorted gamma pairs
    assert len(cs) == 4
    assert np.array_equal(cs[0], _dense(math.sqrt(1.6) * ops.a))
    assert np.array_equal(cs[1], _dense(math.sqrt(0.5) * ops.sigma[("e", "e")]))
    assert np.array_equal(cs[2], _dense(math.sqrt(4.0) * ops.sigma[("g", "e")]))
    assert np.array_equal(cs[3], _dense(math.sqrt(1.0) * ops.sigma[("g", "f")]))

    thermal = SystemParams(gamma={("e", "g"): 4.0}, kappa=0.8,
                           pump=ThermalPump(n_th=0.25))
    cs = _dense_jumps(thermal, spec)
    assert len(cs) == 3
    assert np.array_equal(cs[0], _dense(math.sqrt(2 * 0.8 * 1.25) * ops.a))
    assert np.array_equal(cs[1], _dense(math.sqrt(2 * 0.8 * 0.25) * ops.a_dag))

    # kappa = 0 with no thermal pump contributes no cavity jump at all
    lossless = SystemParams(gamma={("e", "g"): 4.0}, kappa=0.0)
    assert len(_dense_jumps(lossless, spec)) == 1


def test_vec_convention_and_trace_indices():
    rng = np.random.default_rng(29)
    d = 6
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert np.allclose(np.kron(b.T, a) @ vec(rho), vec(a @ rho @ b), atol=1e-12)
    assert np.allclose(unvec(vec(rho), d), rho, atol=0)
    assert vec(rho)[1] == rho[1, 0]
    assert np.allclose(vec(rho)[trace_indices(d)], np.diag(rho), atol=0)


def test_cavity_amplitude_decays_at_kappa():
    # undriven g-sector: <a>(t) = <a>(0) exp(-kappa t) exactly, even with
    # the coupling on, since sigma_fe has no support in the g sector
    kappa = 0.7
    p = SystemParams(gamma={}, eta=3.0, kappa=kappa)
    spec = HilbertSpec(n_max=3)
    sop = liouvillian_at(p, 0.0, spec, epsilon=0.0)
    psi = np.zeros(spec.dim)
    psi[spec.index(0, "g")] = 1 / math.sqrt(2)
    psi[spec.index(1, "g")] = 1 / math.sqrt(2)
    rho0 = np.outer(psi, psi).astype(complex)
    ops = build_operators(spec)
    a = _dense(ops.a)
    assert np.trace(a @ rho0) == pytest.approx(0.5, rel=1e-14)
    for t in (0.3, 1.0, 2.5):
        rho_t = unvec(expm_multiply(sop.matrix * t, vec(rho0)), spec.dim)
        got = np.trace(a @ rho_t)
        assert got.real == pytest.approx(0.5 * math.exp(-kappa * t), rel=1e-9)
        assert abs(got.imag) < 1e-12


def test_fock_decay_rates_from_generator_action():
    # population |1,g><1,g| drains at 2*kappa into |0,g><0,g|; the
    # photon coherence |1,g><0,g| is an eigenvector with eigenvalue -kappa
    kappa = 0.9
    p = SystemParams(gamma={}, eta=0.0, kappa=kappa)
    spec = HilbertSpec(n_max=2)
    sop = liouvillian_at(p, 0.0, spec, epsilon=0.0)
    d = spec.dim
    pop1 = np.zeros((d, d), dtype=complex)
    pop1[spec.index(1, "g"), spec.index(1, "g")] = 1.0
    pop0 = np.zeros((d, d), dtype=complex)
    pop0[spec.index(0, "g"), spec.index(0, "g")] = 1.0
    deriv = unvec(sop.matrix @ vec(pop1), d)
    assert np.allclose(deriv, 2 * kappa * (pop0 - pop1), atol=1e-14)

    coh = np.zeros((d, d), dtype=complex)
    coh[spec.index(1, "g"), spec.index(0, "g")] = 1.0
    deriv = unvec(sop.matrix @ vec(coh), d)
    assert np.allclose(deriv, -kappa * coh, atol=1e-14)


def test_trace_and_hermiticity_preserved():
    rng = np.random.default_rng(33)
    spec = HilbertSpec(n_max=2)
    d = spec.dim
    tr_idx = trace_indices(d)
    for k in range(100):
        pump = (ThermalPump(n_th=float(rng.uniform(0, 0.5))) if k % 2
                else CoherentPump(Omega=float(rng.uniform(0, 1)),
                                  pump_detuning=float(rng.uniform(-2, 2))))
        p = SystemParams(
            gamma={("e", "g"): float(rng.uniform(0, 6)),
                   ("e", "f"): float(rng.uniform(0, 2)),
                   ("f", "g"): float(rng.uniform(0, 2)),
                   ("e", "e"): float(rng.uniform(0, 1)),
                   ("f", "f"): float(rng.uniform(0, 1))},
            eta=float(rng.uniform(0, 8)), kappa=float(rng.uniform(0.01, 3)),
            delta=float(rng.uniform(-4, 4)), pump=pump,
            epsilon=float(rng.uniform(0, 0.3)))
        sop = liouvillian_at(p, float(rng.uniform(-20, 20)), spec)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = x + x.conj().T
        deriv = unvec(sop.matrix @ vec(rho), d)
        scale = max(1.0, float(np.abs(deriv).max()))
        assert abs(vec(deriv)[tr_idx].sum()) <= 1e-10 * scale
        assert np.abs(deriv - deriv.conj().T).max() <= 1e-10 * scale



def test_generator_matches_dense_lindblad_action():
    # L vec(rho) = vec(-i[H, rho] + sum_c (c rho c^dag - {c^dag c, rho}/2)),
    # also for a non-Hermitian H and sparse random jumps
    rng = np.random.default_rng(41)
    spec = HilbertSpec(n_max=2)
    d = spec.dim

    def random_matrix(density=1.0):
        mask = rng.random((d, d)) < density
        return (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * mask

    for _ in range(20):
        h = random_matrix()
        jumps = [random_matrix(0.3) for _ in range(3)]
        rho = random_matrix()
        want = -1j * (h @ rho - rho @ h)
        for c in jumps:
            cdc = c.conj().T @ c
            want += c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)
        sop = assemble_liouvillian(sp.csr_matrix(h),
                                   [sp.csr_matrix(c) for c in jumps], spec)
        got = unvec(sop.matrix @ vec(rho), d)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

def test_vacuum_ground_state_is_stationary():
    p = SystemParams.from_effective(5.0, 1.0, eta=4.0, kappa=1.0)
    spec = HilbertSpec(n_max=4)
    sop = liouvillian_at(p, 7.3, spec, epsilon=0.0)
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho[0, 0] = 1.0
    assert np.abs(sop.matrix @ vec(rho)).max() == 0.0


def test_delta_dependence_is_affine():
    # dL/dDelta = -i(I kron P - P^T kron I) with P = |e><e| + |f><f|: the
    # read-out block meets Delta only as +i Delta through this slope
    p = SystemParams.from_effective(5.0, 1.0, eta=4.0, kappa=1.0, delta=2.0,
                                    pump=ThermalPump(n_th=0.1))
    spec = HilbertSpec(n_max=3)
    ops = build_operators(spec)
    proj = (ops.sigma[("e", "e")] + ops.sigma[("f", "f")]).tocsr()
    eye = sp.identity(spec.dim, format="csr", dtype=complex)
    slope = -1j * (sp.kron(eye, proj, format="csr")
                   - sp.kron(proj.T, eye, format="csr"))
    l1 = liouvillian_at(p, -3.0, spec).matrix
    l2 = liouvillian_at(p, 11.0, spec).matrix
    diff = (l2 - l1) - 14.0 * slope
    assert diff.nnz == 0 or np.abs(diff.data).max() < 1e-12


def test_superoperator_metadata_and_shapes():
    p = SystemParams.from_effective(5.0, 1.0, eta=4.0, kappa=1.0,
                                    pump=CoherentPump(Omega=0.4,
                                                      pump_detuning=1.5))
    spec = HilbertSpec(n_max=2)
    sop = liouvillian_at(p, 6.0, spec)
    assert sop.spec == spec
    assert sop.matrix.shape == (spec.dim ** 2, spec.dim ** 2)
    assert sop.matrix.dtype == complex


def test_dimension_mismatch_raised():
    spec = HilbertSpec(n_max=2)
    bad = sp.identity(4, format="csr", dtype=complex)
    with pytest.raises(DimensionMismatch):
        assemble_liouvillian(bad, [], spec)
    good = sp.identity(spec.dim, format="csr", dtype=complex)
    with pytest.raises(DimensionMismatch):
        assemble_liouvillian(good, [bad], spec)


# --- independent reference: operator products and sp.kron ------------------

def _kron_reference(h, jumps):
    """L = -i(I kron H - H^T kron I)
    + sum_c [conj(c) kron c - (I kron c^dag c + (c^dag c)^T kron I)/2],
    term by term with sp.kron on sparse H and jumps."""
    eye = sp.identity(h.shape[0], format="csr", dtype=complex)
    lind = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
    for c in jumps:
        cdc = c.conj().T @ c
        lind = lind + sp.kron(c.conj(), c) - 0.5 * (sp.kron(eye, cdc)
                                                    + sp.kron(cdc.T, eye))
    lind = lind.tocsr()
    lind.eliminate_zeros()
    return lind


def _operator_hamiltonian(params, Delta, ops, epsilon=None):
    """The rotating-frame H of the liouvillian module docstring, summed from
    build_operators products."""
    sig = ops.sigma
    eps = params.epsilon if epsilon is None else epsilon
    de = Delta - params.delta / 2.0
    df = de + params.delta - params.pump_detuning
    return (params.pump_detuning * ops.n_op + de * sig[("e", "e")]
            + df * sig[("f", "f")]
            + params.eta * (sig[("e", "f")] @ ops.a + ops.a_dag @ sig[("f", "e")])
            + eps * (sig[("e", "g")] + sig[("g", "e")])
            + params.Omega * (ops.a_dag + ops.a)).tocsr()


def _operator_jumps(params, ops):
    """sqrt(2 kappa (n_th+1)) a, sqrt(2 kappa n_th) a_dag and
    sqrt(gamma_ij) sigma_ji from build_operators."""
    cavity = [(2 * params.kappa * (params.n_th + 1), ops.a),
              (2 * params.kappa * params.n_th, ops.a_dag)]
    atom = [(rate, ops.sigma[(j, i)]) for (i, j), rate in sorted(params.gamma.items())]
    return [math.sqrt(rate) * op for rate, op in cavity + atom if rate > 0]


def _assert_matches_reference(got, want):
    got, want = got.tocsr(), want.tocsr()
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()


def _zero_or(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi))


_FULL_GAMMA = {("e", "g"): 6.0, ("e", "f"): 1.5, ("e", "e"): 0.8,
               ("f", "g"): 1.2, ("f", "f"): 0.4}
_GAMMA_MAP = st.fixed_dictionaries({
    pair: _zero_or(0.1, 8.0)
    for pair in (("e", "g"), ("e", "f"), ("e", "e"), ("f", "g"), ("f", "f"))})
_PUMPS = st.one_of(st.builds(ThermalPump, _zero_or(0.01, 2.0)),
                   st.builds(CoherentPump, _zero_or(0.05, 2.0),
                             _zero_or(-3.0, 3.0)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_max=st.integers(1, 6), gamma=_GAMMA_MAP, eta=_zero_or(0.1, 20.0),
       kappa=_zero_or(0.1, 3.0), delta=_zero_or(-5.0, 5.0), pump=_PUMPS,
       epsilon=st.floats(1e-4, 0.5), Delta=st.floats(-30.0, 30.0))
@example(n_max=5, gamma=_FULL_GAMMA, eta=4.0, kappa=1.0, delta=-0.4,
         pump=ThermalPump(0.4), epsilon=0.05, Delta=2.5)
@example(n_max=5, gamma=_FULL_GAMMA, eta=4.0, kappa=1.0, delta=-0.4,
         pump=CoherentPump(0.5, -0.6), epsilon=0.05, Delta=-7.0)
def test_liouvillian_matches_kron_reference(n_max, gamma, eta, kappa, delta, pump,
                                            epsilon, Delta):
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta, pump=pump,
                          epsilon=epsilon)
    spec = HilbertSpec(n_max)
    ops = build_operators(spec)
    want = _kron_reference(_operator_hamiltonian(params, Delta, ops),
                           _operator_jumps(params, ops))
    _assert_matches_reference(liouvillian_at(params, Delta, spec).matrix, want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_max=st.integers(1, 6), gamma=_GAMMA_MAP, eta=_zero_or(0.1, 20.0),
       kappa=st.floats(0.1, 3.0), delta=_zero_or(-5.0, 5.0),
       Omega=st.floats(0.05, 2.0), pump_detuning=_zero_or(-3.0, 3.0))
def test_displaced_generator_matches_kron_reference(n_max, gamma, eta, kappa, delta,
                                                    Omega, pump_detuning):
    # lab-frame L0 plus the commutator of the displacement's Hamiltonian shift
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta,
                          pump=CoherentPump(Omega, pump_detuning))
    spec = HilbertSpec(n_max)
    ops = build_operators(spec)
    alpha = -1j * Omega / (kappa + 1j * pump_detuning)
    shift = (eta * (alpha * ops.sigma[("e", "f")]
                    + np.conj(alpha) * ops.sigma[("f", "e")])
             - Omega * (ops.a_dag + ops.a))
    want = _kron_reference(_operator_hamiltonian(params, 0.0, ops, 0.0) + shift,
                           _operator_jumps(params, ops))
    lab = factors_at(params, 0.0, spec, epsilon=0.0)
    _assert_matches_reference(solver._displaced_generator(params, lab)
                              .superoperator().matrix, want)


# --- product blocks: exact slices of the full generator ----------------------

def _product_block(rows, cols, dim):
    """Sorted vec indices {i + dim*j : i in rows, j in cols}."""
    return (rows[None, :] + dim * cols[:, None]).ravel()


def _assert_exact_slice(got, full, block):
    want = full[block][:, block].tocsr()
    want.sort_indices()
    assert got.has_sorted_indices
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_max=st.integers(1, 6), gamma=_GAMMA_MAP, eta=_zero_or(0.1, 20.0),
       kappa=st.floats(0.1, 3.0), delta=_zero_or(-5.0, 5.0), pump=_PUMPS,
       Delta=_zero_or(-30.0, 30.0))
@example(n_max=5, gamma=_FULL_GAMMA, eta=4.0, kappa=1.0, delta=-0.4,
         pump=ThermalPump(0.4), Delta=0.0)
@example(n_max=5, gamma=_FULL_GAMMA, eta=4.0, kappa=1.0, delta=-0.4,
         pump=CoherentPump(0.5, -0.6), Delta=0.0)
def test_product_blocks_are_exact_slices_of_the_liouvillian(n_max, gamma, eta, kappa,
                                                            delta, pump, Delta):
    # the |g><g|, |g><{f,e}| and |{f,e}><{f,e}| blocks of the probe-free L0,
    # and |g,0><{f,e}| of the displaced one, bit for bit
    params = SystemParams(gamma=gamma, eta=eta, kappa=kappa, delta=delta, pump=pump)
    spec = HilbertSpec(n_max)
    photons = np.arange(n_max + 1)
    ground = 3 * photons
    excited = (3 * photons[:, None] + np.array([1, 2])).ravel()
    factors = factors_at(params, Delta, spec, epsilon=0.0)
    full = liouvillian_at(params, Delta, spec, epsilon=0.0).matrix
    for rows, cols in ((ground, ground), (ground, excited), (excited, excited)):
        _assert_exact_slice(factors.block(rows, cols), full,
                            _product_block(rows, cols, spec.dim))
    if params.Omega > 0.0:
        displaced = solver._displaced_generator(
            params, factors_at(params, 0.0, spec, epsilon=0.0))
        _assert_exact_slice(displaced.block(ground[:1], excited),
                            displaced.superoperator().matrix,
                            _product_block(ground[:1], excited, spec.dim))


@pytest.mark.parametrize("n_max", [1, 3, 6])
def test_hamiltonian_part_superops_match_kron_reference(n_max):
    spec = HilbertSpec(n_max)
    ops = build_operators(spec)
    k_plus, k_minus = solver._probe_superops(spec)
    _assert_matches_reference(k_plus, _kron_reference(ops.sigma[("e", "g")], []))
    _assert_matches_reference(k_minus, _kron_reference(ops.sigma[("g", "e")], []))


def test_dense_and_sparse_inputs_assemble_identically():
    rng = np.random.default_rng(43)
    spec = HilbertSpec(n_max=3)
    d = spec.dim

    def random_matrix(density):
        mask = rng.random((d, d)) < density
        return (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * mask

    for _ in range(5):
        h = random_matrix(0.5)
        jumps = [random_matrix(0.2) for _ in range(3)]
        dense = assemble_liouvillian(h, jumps, spec).matrix
        sparse = assemble_liouvillian(sp.csr_matrix(h),
                                      [sp.csr_matrix(c) for c in jumps], spec).matrix
        assert np.array_equal(dense.indptr, sparse.indptr)
        assert np.array_equal(dense.indices, sparse.indices)
        assert dense.data.tobytes() == sparse.data.tobytes()
