"""Tests for the composite-space core: embeddings, ladder operators,
partial trace and fidelity metrics."""

import numpy as np
import pytest

from cavityphase.errors import DimensionMismatchError
from cavityphase.hilbert import (
    HADAMARD,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    OperatorMatrix,
    StateVector,
    basis_bits,
    cavity_ops,
    channel_fidelity,
    embed_qubit_op,
    gate_fidelity,
    identity,
    make_space,
    partial_trace_cavity,
    product_state,
    qubit_basis_state,
    fock_state,
    qubit_space,
    sign_matrix,
    x_basis_product_states,
    x_basis_transform,
)


def random_state(space, rng):
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return StateVector.normalized(space, amps)


def random_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


class TestSpace:
    @pytest.mark.parametrize(
        "nq, cutoff, dim", [(1, 1, 4), (3, 5, 48), (2, 5, 24), (1, 9, 20)]
    )
    def test_dimensions(self, nq, cutoff, dim):
        assert make_space(nq, cutoff).dim == dim

    @pytest.mark.parametrize("nq, cutoff", [(2, 0), (0, 3), (-1, 5), (1, -2)])
    def test_invalid_arguments(self, nq, cutoff):
        with pytest.raises(ValueError):
            make_space(nq, cutoff)

    def test_qubit_subspace(self):
        space = make_space(2, 5)
        sub = space.qubit_subspace()
        assert sub.dim == 4 and not sub.has_cavity


class TestEmbedding:
    def test_identity_embeds_to_identity(self):
        space = make_space(2, 3)
        op = embed_qubit_op(space, 1, np.eye(2))
        assert np.allclose(op.entries, np.eye(space.dim))

    def test_sigma_x_flips_first_qubit(self):
        space = make_space(2, 1)
        psi = product_state(qubit_basis_state(space, [0, 0]), fock_state(1, 0))
        flipped = embed_qubit_op(space, 1, SIGMA_X).apply(psi)
        expected = product_state(qubit_basis_state(space, [1, 0]), fock_state(1, 0))
        assert np.allclose(flipped.amplitudes, expected.amplitudes)

    def test_out_of_range_index(self):
        space = make_space(2, 1)
        with pytest.raises(ValueError):
            embed_qubit_op(space, 3, SIGMA_X)
        with pytest.raises(ValueError):
            embed_qubit_op(space, 0, SIGMA_X)

    def test_disjoint_embeddings_commute(self):
        space = make_space(3, 2)
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            i, j = rng.choice([1, 2, 3], size=2, replace=False)
            ai = embed_qubit_op(space, int(i), a).entries
            bj = embed_qubit_op(space, int(j), b).entries
            assert np.max(np.abs(ai @ bj - bj @ ai)) < 1e-12


class TestCavityOps:
    def test_annihilates_vacuum(self):
        space = make_space(1, 4)
        a, _ = cavity_ops(space)
        psi = product_state(qubit_basis_state(space, [0]), fock_state(4, 0))
        assert np.allclose(a.apply(psi).amplitudes, 0)

    def test_number_operator_spectrum(self):
        space = make_space(1, 5)
        a, a_dag = cavity_ops(space)
        n_op = a_dag.entries @ a.entries
        vals = np.sort(np.unique(np.round(np.linalg.eigvalsh(n_op), 12)))
        assert np.allclose(vals, np.arange(6))

    def test_number_operator_eigenstates(self):
        space = make_space(1, 5)
        a, a_dag = cavity_ops(space)
        n_op = a_dag.entries @ a.entries
        for m in range(6):
            psi = product_state(qubit_basis_state(space, [0]), fock_state(5, m))
            assert np.allclose(n_op @ psi.amplitudes, m * psi.amplitudes)

    def test_commutator_truncation_confined_to_top(self):
        space = make_space(1, 5)
        a, a_dag = cavity_ops(space)
        comm = a.entries @ a_dag.entries - a_dag.entries @ a.entries
        dev = comm - np.eye(space.dim)
        # deviation only where the cavity index is the cutoff
        cd = space.cavity_dim
        top = (np.arange(space.dim) % cd) == cd - 1
        assert np.max(np.abs(dev[np.ix_(~top, ~top)])) < 1e-14
        assert np.max(np.abs(dev[np.ix_(top, top)])) > 1

    def test_top_level_annihilated_by_creation(self):
        space = make_space(1, 3)
        _, a_dag = cavity_ops(space)
        psi = product_state(qubit_basis_state(space, [0]), fock_state(3, 3))
        assert np.allclose(a_dag.apply(psi).amplitudes, 0)


class TestPartialTrace:
    def test_product_state(self):
        space = make_space(2, 3)
        rng = np.random.default_rng(3)
        psi_q = random_state(qubit_space(2), rng)
        psi_c = random_state(fock_state(3, 0).space, rng)
        rho = product_state(psi_q, psi_c).density_matrix()
        reduced = partial_trace_cavity(rho)
        assert np.allclose(reduced.entries, psi_q.density_matrix().entries, atol=1e-12)

    def test_maximally_mixed(self):
        space = make_space(2, 2)
        rho = DensityMatrix(space, np.eye(space.dim, dtype=complex) / space.dim)
        reduced = partial_trace_cavity(rho)
        assert np.allclose(reduced.entries, np.eye(4) / 4, atol=1e-12)

    def test_trace_preserved_and_linear(self):
        space = make_space(1, 4)
        rng = np.random.default_rng(5)
        rhos = []
        for _ in range(2):
            m = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(
                size=(space.dim, space.dim)
            )
            m = m @ m.conj().T
            rhos.append(DensityMatrix(space, m / np.trace(m)))
        for rho in rhos:
            out = partial_trace_cavity(rho)
            assert abs(np.trace(out.entries) - np.trace(rho.entries)) < 1e-12
        mix = DensityMatrix(
            space, 0.3 * rhos[0].entries + 0.7 * rhos[1].entries, validate=False
        )
        lhs = partial_trace_cavity(mix).entries
        rhs = 0.3 * partial_trace_cavity(rhos[0]).entries + 0.7 * partial_trace_cavity(
            rhos[1]
        ).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_cavity(
                DensityMatrix(qubit_space(2), np.eye(4, dtype=complex) / 4)
            )


class TestGateFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(9)
        u = OperatorMatrix(qubit_space(2), random_unitary(4, rng))
        assert gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(10)
        u = random_unitary(4, rng)
        space = qubit_space(2)
        for theta in (0.3, 1.7, -2.2):
            f = gate_fidelity(
                OperatorMatrix(space, np.exp(1j * theta) * u), OperatorMatrix(space, u)
            )
            assert f == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gates(self):
        space = qubit_space(1)
        f = gate_fidelity(OperatorMatrix(space, SIGMA_X), identity(space))
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        space = qubit_space(2)
        u = OperatorMatrix(space, random_unitary(4, rng))
        v = OperatorMatrix(space, random_unitary(4, rng))
        assert gate_fidelity(u, v) == pytest.approx(gate_fidelity(v, u), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gate_fidelity(identity(qubit_space(1)), identity(qubit_space(2)))


class TestChannelFidelity:
    def test_ideal_channel_scores_one(self):
        rng = np.random.default_rng(21)
        space = make_space(2, 3)
        u_q = random_unitary(4, rng)
        full = np.kron(u_q, np.eye(space.cavity_dim))
        chi = fock_state(3, 1)

        def channel(psi_q):
            out = full @ np.kron(psi_q.amplitudes, chi.amplitudes)
            m = out.reshape(4, space.cavity_dim)
            return DensityMatrix(qubit_space(2), m @ m.conj().T, validate=False)

        f = channel_fidelity(channel, OperatorMatrix(qubit_space(2), u_q))
        assert f == pytest.approx(1.0, abs=1e-10)

    def test_removed_branch_lowers_fidelity(self):
        # Channel that implements the ideal two-qubit phase gate but kills
        # the |--> component.  Expected score derived by hand: the three
        # unaffected sigma-x product probes score 1, the |--> probe maps to
        # the zero matrix and scores 0, so the mean is 3/4.
        w = x_basis_transform(2)
        minus_minus = w[:, 3]
        ideal = np.eye(4) - 2.0 * np.outer(minus_minus, minus_minus.conj())
        killer = np.eye(4) - np.outer(minus_minus, minus_minus.conj())

        def channel(psi_q):
            out = ideal @ killer @ psi_q.amplitudes
            return DensityMatrix(
                qubit_space(2), np.outer(out, out.conj()), validate=False
            )

        f = channel_fidelity(channel, OperatorMatrix(qubit_space(2), ideal))
        assert f == pytest.approx(0.75, abs=1e-12)

    def test_single_probe(self):
        space = qubit_space(1)
        probe = StateVector(space, np.array([1.0, 0.0], dtype=complex))

        def channel(psi_q):
            return psi_q.density_matrix()

        f = channel_fidelity(channel, OperatorMatrix(space, SIGMA_X), [probe])
        # |<1| X |0>|^2 against rho = |0><0| gives exactly 0
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_empty_probe_set(self):
        with pytest.raises(ValueError):
            channel_fidelity(lambda p: p.density_matrix(), identity(qubit_space(1)), [])


class TestBasics:
    def test_x_basis_states_are_orthonormal(self):
        states = x_basis_product_states(2)
        overlaps = np.array(
            [[abs(np.vdot(a.amplitudes, b.amplitudes)) for b in states] for a in states]
        )
        assert np.allclose(overlaps, np.eye(4), atol=1e-12)

    def test_hadamard_maps_z_to_x(self):
        plus = HADAMARD @ np.array([1, 0])
        assert np.allclose(plus, np.array([1, 1]) / np.sqrt(2))

    def test_sigma_z_convention(self):
        # ground state |0> carries eigenvalue +1
        assert SIGMA_Z[0, 0] == 1 and SIGMA_Z[1, 1] == -1

    def test_normalized_constructor(self):
        rng = np.random.default_rng(2)
        psi = StateVector.normalized(qubit_space(2), rng.normal(size=4))
        assert abs(psi.norm - 1.0) < 1e-10

    def test_hermitian_flag_enforced(self):
        with pytest.raises(ValueError):
            OperatorMatrix(qubit_space(1), np.array([[0, 1], [0, 0]]), hermitian=True)

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(qubit_space(1), np.eye(2, dtype=complex))  # trace 2


def kron_embed(space, qubit_index, local):
    """Reference embedding by a kron chain, one factor per qubit."""
    out = np.array([[1.0 + 0j]])
    for j in range(1, space.num_qubits + 1):
        out = np.kron(out, local if j == qubit_index else np.eye(2))
    if space.has_cavity:
        out = np.kron(out, np.eye(space.cavity_dim))
    return out


class TestTensorShapeBuilds:
    """The embeddings write their nonzeros into the tensor shape; they
    must equal the kron chains exactly."""

    @pytest.mark.parametrize("nq, cutoff", [(1, None), (3, None), (1, 4), (2, 1), (3, 5)])
    def test_embed_matches_kron_exactly(self, nq, cutoff):
        space = qubit_space(nq) if cutoff is None else make_space(nq, cutoff)
        rng = np.random.default_rng(nq * 10 + (cutoff or 0))
        locals_ = [SIGMA_X, SIGMA_Z, HADAMARD]
        locals_.append(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        for local in locals_:
            for j in range(1, nq + 1):
                got = embed_qubit_op(space, j, local).entries
                assert np.array_equal(got, kron_embed(space, j, local))

    @pytest.mark.parametrize("nq, cutoff", [(1, 1), (2, 5), (3, 3)])
    def test_cavity_ops_match_kron_exactly(self, nq, cutoff):
        space = make_space(nq, cutoff)
        a_local = np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1).astype(complex)
        a_ref = np.kron(np.eye(2**nq), a_local)
        a, a_dag = cavity_ops(space)
        assert np.array_equal(a.entries, a_ref)
        assert np.array_equal(a_dag.entries, a_ref.conj().T)

    @pytest.mark.parametrize("nq", range(1, 7))
    def test_x_basis_transform_is_the_hadamard_chain(self, nq):
        chain = np.array([[1.0 + 0j]])
        for _ in range(nq):
            chain = np.kron(chain, HADAMARD)
        w = x_basis_transform(nq)
        assert np.max(np.abs(w - chain)) < 1e-15
        assert np.max(np.abs(w @ w - np.eye(2**nq))) < 1e-15

    @pytest.mark.parametrize("nq", range(0, 6))
    def test_sign_matrix_is_popcount_parity(self, nq):
        idx = np.arange(2**nq)
        parity = np.array(
            [[bin(int(i) & int(k)).count("1") % 2 for k in idx] for i in idx]
        ).reshape(2**nq, 2**nq)
        s = sign_matrix(nq)
        assert np.array_equal(s, 1.0 - 2.0 * parity)
        # cached per qubit count and shared, so read-only
        assert sign_matrix(nq) is s and not s.flags.writeable
        with pytest.raises(ValueError):
            s[0, 0] = -1.0

    def test_basis_bits_put_qubit_one_first(self):
        assert basis_bits(3, 1).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert basis_bits(3, 3).tolist() == [0, 1, 0, 1, 0, 1, 0, 1]
        with pytest.raises(ValueError):
            basis_bits(3, 4)

    def test_gate_fidelity_matches_trace_formula(self):
        rng = np.random.default_rng(5)
        space = qubit_space(3)
        for _ in range(5):
            u, v = random_unitary(8, rng), random_unitary(8, rng)
            expected = abs(np.trace(v.conj().T @ u)) / 8
            got = gate_fidelity(OperatorMatrix(space, u), OperatorMatrix(space, v))
            assert got == pytest.approx(expected, abs=1e-14)


class TestCachedTables:
    """Tables shared by every caller through a per-argument cache must be
    read-only; ``sign_matrix`` is checked in ``TestTensorShapeBuilds``."""

    @pytest.mark.parametrize("nq", range(1, 6))
    def test_basis_bits_are_cached_and_read_only(self, nq):
        for j in range(1, nq + 1):
            bits = basis_bits(nq, j)
            assert basis_bits(nq, j) is bits
            assert not bits.flags.writeable
            with pytest.raises(ValueError):
                bits[0] = 1
            # the bit of qubit j is the popcount parity of i & (its mask)
            mask = 1 << (nq - j)
            assert bits.tolist() == [bin(i & mask).count("1") % 2 for i in range(2**nq)]

    def test_x_basis_transform_returns_a_fresh_array(self):
        w = x_basis_transform(3)
        assert w.flags.writeable and x_basis_transform(3) is not w
        w[0, 0] = 7.0
        assert x_basis_transform(3)[0, 0] == pytest.approx(2.0**-1.5)
