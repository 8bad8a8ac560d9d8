"""Assembly-free element-based operators (paper Section 2).

:class:`ElasticOperator` implements the hexahedral stiffness action the
way the paper's solver does: gather nodal values per element (the only
indirect addressing), apply the dense 24x24 reference matrices to *all*
elements at once as two large matrix-matrix products, scale by the
per-element material coefficients, and scatter-add.  No global matrix is
ever formed; memory is ~2 floats per element plus the connectivity.

:func:`assemble_csr` builds the equivalent scipy CSR matrix — the
baseline for the cache-friendliness ablation benchmark.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.backend import get_backend
from repro.fem.hex_element import hex_elastic_reference, hex_lumped_mass_factor


class ElasticOperator:
    """Matrix-free stiffness operator ``K u`` on a hexahedral mesh.

    Parameters
    ----------
    conn:
        ``(nelem, 8)`` connectivity in Morton corner order.
    h:
        ``(nelem,)`` physical element edge lengths (meters).
    lam, mu:
        ``(nelem,)`` Lamé moduli (Pa).
    nnode:
        Number of grid points; displacement vectors have shape
        ``(nnode, 3)``.
    """

    def __init__(
        self,
        conn: np.ndarray,
        h: np.ndarray,
        lam: np.ndarray,
        mu: np.ndarray,
        nnode: int,
        split_elems: int | None = None,
    ):
        self.conn = np.ascontiguousarray(conn, dtype=np.int64)
        self.nnode = int(nnode)
        self.nelem = len(conn)
        h = np.asarray(h, dtype=float)
        self.c_lam = np.asarray(lam, dtype=float) * h
        self.c_mu = np.asarray(mu, dtype=float) * h
        self._ndof = 3 * self.nnode
        # fused gather/apply/scatter kernel (it owns the element dof
        # map); the material coefficients are fixed, so they fold into
        # the scatter, and the phase cut is one of its block bounds
        self._kernel = get_backend().element_kernel(
            self.conn, hex_elastic_reference(), self.nnode, ncomp=3,
            coefs=(self.c_lam, self.c_mu), split_elems=split_elems,
        )
        self.split_elems = split_elems

    def _flat(self, u: np.ndarray, what: str) -> np.ndarray:
        """Flat dof view of a ``(nnode, 3)`` field.  The kernels index
        the flat vector, so the input must be C-contiguous — asserted
        here rather than silently copied (the old
        ``np.ascontiguousarray`` hid a full-field copy on every call
        for strided inputs; all solver hot loops own contiguous
        buffers, so a strided input is a caller bug, not a tax)."""
        if u.shape != (self.nnode, 3):
            raise ValueError(
                f"{what} must be ({self.nnode}, 3), got {u.shape}"
            )
        if not u.flags.c_contiguous:
            raise ValueError(
                f"{what} must be C-contiguous (got a strided view; copy "
                "it once outside the time loop instead)"
            )
        return u.reshape(-1)

    def matvec(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply the stiffness: ``u`` is ``(nnode, 3)``; returns same.

        Pass a preallocated C-contiguous ``out`` to make the call
        allocation-free (the solvers' hot loops do)."""
        if out is None:
            out = np.empty((self.nnode, 3))
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        self._kernel.matvec(self._flat(u, "u"), out.reshape(-1))
        return out

    def matmat(self, U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched stiffness: ``U`` is ``(nnode, 3, B)`` — ``B``
        scenario columns advanced by one level-3 kernel application.
        Column ``b`` equals ``matvec(U[:, :, b])`` bit for bit."""
        if U.ndim != 3 or U.shape[:2] != (self.nnode, 3):
            raise ValueError(
                f"U must be ({self.nnode}, 3, B), got {U.shape}"
            )
        if not U.flags.c_contiguous:
            raise ValueError("U must be C-contiguous")
        if out is None:
            out = np.empty(U.shape)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        B = U.shape[2]
        self._kernel.matmat(
            U.reshape(self._ndof, B), out.reshape(self._ndof, B)
        )
        return out

    def matvec_interface(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Phase 1 of the overlapped stiffness application (requires
        ``split_elems``): zero ``out`` and apply only the leading
        interface elements, so boundary partial sums are complete and
        can be shipped while :meth:`matvec_interior_acc` runs."""
        self._kernel.matvec_interface(self._flat(u, "u"), out.reshape(-1))
        return out

    def matvec_interior_acc(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Phase 2: accumulate the interior elements into ``out``.
        ``matvec_interface`` + ``matvec_interior_acc`` equals a single
        :meth:`matvec` bit for bit."""
        self._kernel.matvec_interior(self._flat(u, "u"), out.reshape(-1))
        return out

    def diagonal(self, out: np.ndarray | None = None) -> np.ndarray:
        """Diagonal of the assembled stiffness, shape ``(nnode, 3)``."""
        if out is None:
            out = np.empty((self.nnode, 3))
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        self._kernel.diagonal(out.reshape(-1))
        return out

    def workspace_bytes(self) -> int:
        """Bytes held by the kernel's precomputed plan and buffers."""
        return self._kernel.workspace_bytes()

    @property
    def flops_per_matvec(self) -> int:
        """Floating point operations per stiffness application, the
        count the scalability benchmark feeds the machine model.
        Delegated to the kernel (two dense ``(nelem, 24) @ (24, 24)``
        products + coefficient scalings + scatter:
        ``nelem * element_flops(2, 24)``, see
        :func:`repro.backend.numpy_backend.element_flops`)."""
        return self._kernel.flops_per_matvec

    def flops_per_matmat(self, width: int) -> int:
        """Flop count of one batched (``width``-column) application —
        the kernel's own accounting, so it cannot drift from the
        1-RHS count."""
        return self._kernel.flops_per_matmat(width)


def lumped_mass(
    conn: np.ndarray, h: np.ndarray, rho: np.ndarray, nnode: int
) -> np.ndarray:
    """Lumped (row-sum) mass vector: each hex deposits ``rho h^3 / 8``
    at each corner.  Returns shape ``(nnode,)``."""
    m = np.asarray(rho, dtype=float) * np.asarray(h, dtype=float) ** 3
    m = m * hex_lumped_mass_factor()
    out = np.bincount(
        np.asarray(conn).ravel(), weights=np.repeat(m, 8), minlength=nnode
    )
    return out


def assemble_csr(
    conn: np.ndarray, h: np.ndarray, lam: np.ndarray, mu: np.ndarray, nnode: int
) -> sp.csr_matrix:
    """Explicitly assembled global stiffness (ablation baseline).

    Memory scales with the number of stored nonzeros (~81 * 9 per row),
    roughly an order of magnitude above the matrix-free operator —
    reproducing the paper's motivation for the element-based design.
    """
    K_l, K_m = hex_elastic_reference()
    nelem = len(conn)
    h = np.asarray(h, dtype=float)
    Ke = (
        (np.asarray(lam) * h)[:, None, None] * K_l[None]
        + (np.asarray(mu) * h)[:, None, None] * K_m[None]
    )
    dof = (np.asarray(conn)[:, :, None] * 3 + np.arange(3)[None, None, :]).reshape(
        nelem, 24
    )
    rows = np.repeat(dof, 24, axis=1).ravel()
    cols = np.tile(dof, (1, 24)).ravel()
    A = sp.coo_matrix(
        (Ke.ravel(), (rows, cols)), shape=(3 * nnode, 3 * nnode)
    ).tocsr()
    A.sum_duplicates()
    return A
