"""The cache-blocked element kernel against an unblocked oracle, bit for
bit.

The kernel gathers, multiplies and scatters one element block at a
time.  Its claim is that the blocking moves no bit: every row of the
GEMM sums over the same ``k`` whatever the block's height, and every
node adds its (element, matrix, corner) terms in ascending slot order,
block after block.  The oracle below is that claim written out with no
blocks at all — one ``np.take``, one ``np.dot``, then a sequential
per-node sum in ascending slot order — and every comparison is
``np.array_equal``, at block sizes from one element to more than the
mesh, with and without a phase cut, and with two bound materials
alternating through one kernel.
"""

import numpy as np
import pytest

import repro.backend.numpy_backend as numpy_backend
from repro.backend import get_backend
from repro.fem.hex_element import hex_elastic_reference
from repro.fem.scalar_element import scalar_stiffness_reference
from repro.mesh import uniform_hex_mesh
from repro.solver import RegularGridScalarWave


def _problem(ncomp, empty=False):
    """(conn, nnode, mats, two coefficient tuples): a 2D scalar grid
    with two reference matrices, or a 64-element elastic hex mesh."""
    rng = np.random.default_rng(ncomp)
    if ncomp == 1:
        grid = RegularGridScalarWave((6, 5), 1.0, rho=1.0)
        conn, nnode = grid.conn, grid.nnode
        mats = (scalar_stiffness_reference(2), rng.standard_normal((4, 4)))
    else:
        mesh = uniform_hex_mesh(4, L=1.0)
        conn, nnode = mesh.conn, mesh.nnode
        mats = hex_elastic_reference()
    if empty:
        conn = conn[:0]
    coefs = [
        tuple(rng.random(len(conn)) + 1.0 for _ in mats) for _ in range(2)
    ]
    return conn, nnode, mats, coefs


STACK = 2  # rows per row stack: matrows of 5 rows runs stacks 2, 2, 1


def _kernel(monkeypatch, ncomp, block, split=None, empty=False):
    """A handle-taking kernel whose blocks hold ``block`` elements and
    whose row stacks hold ``STACK`` rows."""
    conn, nnode, mats, coefs = _problem(ncomp, empty)
    nldof = conn.shape[1] * ncomp
    per_elem = 8 * nldof * (1 + len(mats))
    monkeypatch.setattr(numpy_backend, "BLOCK_BYTES", block * per_elem)
    monkeypatch.setattr(
        numpy_backend, "ROW_BLOCK_BYTES", STACK * per_elem * len(conn)
    )
    kern = get_backend().element_kernel(
        conn, mats, nnode, ncomp=ncomp, split_elems=split
    )
    return kern, conn, nnode, mats, coefs


# ---------------------------------------------------------------- oracle


def _slots(conn, mats, ncomp, coefs):
    """Per (element, matrix, corner) slot, element-major: its node,
    its coefficient, and the element dof map."""
    nelem, ncorner = conn.shape
    node = np.tile(conn, (1, len(mats))).ravel()
    coef = np.repeat(np.stack(coefs, axis=1), ncorner, axis=1).ravel()
    dof = (conn[:, :, None] * ncomp + np.arange(ncomp)).reshape(
        nelem, ncorner * ncomp
    )
    return node, coef, dof


def _products(conn, mats, ncomp, rows):
    """One take and one dot over the whole mesh and every row:
    ``(T, nslot, ncomp)`` element products."""
    _, _, dof = _slots(conn, mats, ncomp, [np.zeros(len(conn))] * len(mats))
    nldof = dof.shape[1]
    U = np.take(rows, dof.ravel(), axis=1).reshape(-1, nldof)
    MT = np.concatenate([np.asarray(M, float).T for M in mats], axis=1)
    return np.dot(U, MT).reshape(len(rows), -1, ncomp)


def _scatter(node, coef, Y, nnode, ncomp):
    """``out[t, node[s]] += coef[s] * Y[t, s]``, one slot at a time in
    ascending slot order."""
    out = np.zeros((len(Y), nnode, ncomp))
    for s in range(len(node)):
        out[:, node[s]] += coef[s] * Y[:, s]
    return out.reshape(len(Y), -1)


def oracle_rows(conn, nnode, mats, ncomp, coefs, rows):
    node, coef, _ = _slots(conn, mats, ncomp, coefs)
    Y = _products(conn, mats, ncomp, rows)
    return _scatter(node, coef, Y, nnode, ncomp)


def oracle_diagonal(conn, nnode, mats, ncomp, coefs):
    node, coef, _ = _slots(conn, mats, ncomp, coefs)
    ref = np.concatenate([np.diag(np.asarray(M, float)) for M in mats])
    Y = np.tile(ref.reshape(-1, ncomp), (len(conn), 1))[None]
    return _scatter(node, coef, Y, nnode, ncomp)[0]


def oracle_coef_gradient(conn, mats, ncomp, rows, adj_rows):
    """The contraction summed over each stack of ``STACK`` rows, the
    stack sums added into ``g`` in order."""
    _, _, dof = _slots(conn, mats, ncomp, [np.zeros(len(conn))] * len(mats))
    T, (nelem, nldof) = len(rows), dof.shape
    A = np.take(adj_rows, dof.ravel(), axis=1).reshape(T, nelem, nldof)
    Y = _products(conn, mats, ncomp, rows).reshape(T, nelem, len(mats), nldof)
    g = np.zeros((len(mats), nelem))
    for i in range(len(mats)):
        for t0 in range(0, T, STACK):
            g[i] += np.einsum(
                "tei,tei->e", A[t0 : t0 + STACK], Y[t0 : t0 + STACK, :, i]
            )
    return g


# ------------------------------------------------------------------ tests


#: elements per block, from the mesh's element count
BLOCKS = {
    "1": lambda n: 1,
    "7": lambda n: 7,
    "nelem-1": lambda n: n - 1,
    "nelem": lambda n: n,
    "nelem+5": lambda n: n + 5,
}


@pytest.mark.parametrize("ncomp", [1, 3])
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("split", [None, "0", "mid", "nelem"])
def test_blocked_kernel_equals_oracle(monkeypatch, ncomp, block, split):
    conn, *_ = _problem(ncomp)
    nelem = len(conn)
    k = {None: None, "0": 0, "mid": nelem // 2, "nelem": nelem}[split]
    kern, conn, nnode, mats, (ca, cb) = _kernel(
        monkeypatch, ncomp, BLOCKS[block](nelem), split=k
    )
    ha, hb = kern.bind(ca), kern.bind(cb)
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((5, kern.ndof))
    out = np.full(kern.ndof, np.nan)
    for c, h in [(ca, ha), (cb, hb), (ca, ha)]:  # materials alternate
        want = oracle_rows(conn, nnode, mats, ncomp, c, rows)
        assert np.array_equal(kern.matvec(rows[0], out, h), want[0])
        for T in (1, 2, 5):
            got = kern.matrows(rows[:T], np.full((T, kern.ndof), np.nan), h)
            assert np.array_equal(got, want[:T])
        cols = np.ascontiguousarray(rows.T)
        got = kern.matmat(cols, np.full_like(cols, np.nan), h)
        assert np.array_equal(got, want.T)
        assert np.array_equal(
            kern.diagonal(out, h),
            oracle_diagonal(conn, nnode, mats, ncomp, c),
        )
        if k is not None:
            # phase 1 alone is the oracle over the interface elements,
            # and phase 2 completes the whole sum in the same order
            lo = oracle_rows(
                conn[:k], nnode, mats, ncomp, tuple(x[:k] for x in c), rows
            )
            got = kern.matvec_interface(rows[1], out, h)
            assert np.array_equal(got, lo[1])
            got = kern.matvec_interior(rows[1], out, h)
            assert np.array_equal(got, want[1])
    adj = rng.standard_normal(rows.shape)
    assert np.array_equal(
        kern.coef_gradient(rows, adj),
        oracle_coef_gradient(conn, mats, ncomp, rows, adj),
    )


def test_fixed_coefficients_phased_pair_equals_matvec(monkeypatch):
    """A kernel bound at construction (the distributed rank's operator)
    runs the phased pair with no handle, bit for bit its matvec."""
    conn, nnode, mats, (ca, _) = _problem(3)
    monkeypatch.setattr(numpy_backend, "BLOCK_BYTES", 7 * 8 * 24 * 3)
    kern = get_backend().element_kernel(
        conn, mats, nnode, ncomp=3, coefs=ca, split_elems=10
    )
    u = np.random.default_rng(2).standard_normal(kern.ndof)
    want = oracle_rows(conn, nnode, mats, 3, ca, u[None])[0]
    out = np.empty(kern.ndof)
    assert np.array_equal(kern.matvec(u, out), want)
    kern.matvec_interface(u, out)
    assert np.array_equal(kern.matvec_interior(u, out), want)
    plain = get_backend().element_kernel(conn, mats, nnode, ncomp=3, coefs=ca)
    with pytest.raises(ValueError):
        plain.matvec_interface(u, out)
    with pytest.raises(ValueError):
        get_backend().element_kernel(
            conn, mats, nnode, ncomp=3, coefs=ca, split_elems=len(conn) + 1
        )


@pytest.mark.parametrize("ncomp", [1, 3])
def test_empty_mesh(monkeypatch, ncomp):
    kern, conn, nnode, mats, (ca, _) = _kernel(
        monkeypatch, ncomp, 7, split=0, empty=True
    )
    h = kern.bind(ca)
    rows = np.ones((3, kern.ndof))
    out = np.full(kern.ndof, np.nan)
    zero = np.zeros(kern.ndof)
    assert np.array_equal(kern.matvec(rows[0], out, h), zero)
    assert np.array_equal(kern.matvec_interface(rows[0], out, h), zero)
    assert np.array_equal(kern.matvec_interior(rows[0], out, h), zero)
    got = kern.matrows(rows, np.full_like(rows, np.nan), h)
    assert np.array_equal(got, np.zeros_like(rows))
    assert np.array_equal(kern.diagonal(out, h), zero)
    assert kern.coef_gradient(rows, rows).shape == (len(mats), 0)


def test_workspace_is_one_block(monkeypatch):
    """The gather and product workspace is one block of one row, and
    grows to one block of a row stack once ``matrows`` runs, whatever
    the mesh size; ``workspace_bytes`` counts the windowed plan."""
    kern, conn, _, _, (ca, _) = _kernel(monkeypatch, 3, 7)
    per_elem = 8 * kern.nldof * (1 + kern.nmat)
    assert len(kern.plan.blocks) == -(-len(conn) // 7)
    windows = sum(r1 - r0 + 1 for _, _, r0, r1, _ in kern.plan.blocks)
    plan_bytes = kern.plan.workspace_bytes()
    assert plan_bytes == kern.plan.indices.nbytes + 4 * windows
    held = kern.dof.nbytes + kern.conn.nbytes + kern._diag_ref.nbytes
    assert kern.workspace_bytes() == held + 7 * per_elem + plan_bytes
    rows = np.ones((5, kern.ndof))
    kern.matrows(rows, np.empty_like(rows), kern.bind(ca))
    assert kern.workspace_bytes() == held + STACK * 7 * per_elem + plan_bytes
