"""Primal active-set solver for the transcribed convex QPs.

Standard form:  min 0.5 z'Hz + g'z  s.t.  A_eq z = b_eq,  A_in z >= b_in.
SuperLU factors the sparse KKT matrix of H and A_eq; a dense H or
constraint block is converted to CSR once, on entry.
The caller supplies a start that already satisfies every constraint; the
helper :func:`make_feasible` repairs a candidate with a slack subproblem when
it does not.  All tie-breaks are by lowest row index so repeated solves are
bit-identical.

Cost per iteration: no KKT backsolve.  The step is the equality-constrained
minimizer, fixed per factorization, minus the current point, corrected
through a dense Schur complement of the k working rows (one k-by-k solve);
the ratio test is one product ``A_in @ p``.  KKT backsolves happen once per
factorization and once per row added to the working set (:class:`_BaseKkt`).

A row blocks the step only when ``a_j.p < -_DIR_TOL |a_j| |p|``.  Rows that
are linear combinations of the working set show ``a_j.p`` of roundoff size
along the step; an absolute threshold let them enter, which made the Schur
complement near-singular, failed the KKT residual check and sent the solve
up the regularization ladder.  The relative test ignores them.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm
from scipy.sparse.linalg import splu

_STEP_TOL = 1e-9   # relative to 1 + |z|, to ride out KKT solve noise
_DIR_TOL = 1e-10   # relative to |a_j| |p|, so roundoff never blocks a step
_REG_LADDER = (0.0, 1e-12, 1e-10, 1e-8)


@dataclass
class QpResult:
    z: np.ndarray
    status: str            # optimal | max_iters | singular
    iterations: int
    working_set: tuple


class _BaseKkt:
    """Factorization of K0 = [[H, A_eq'], [A_eq, 0]] and the working set
    applied to it through a Schur complement.

    Working-set rows never enter the factorization.  Slot i of the working
    arrays holds the dense row ``C[i] = a_j`` of inequality row ``rows[i]``
    and its solve ``Y[i] = K0^{-1} [a_j; 0]``; ``S = C Y[:, :nz]'`` is the
    Schur complement.  An add does one backsolve and grows S by one row and
    one column; a drop moves the last slot into the freed one.  The arrays
    double their capacity when full.  ``x_eq = K0^{-1} [-g; b_eq]`` holds the
    minimizer under A_eq alone, so at a point z with A_eq z = b_eq the
    step without working rows is ``x_eq - [z; 0]``.  Each regularization
    step refactors and recomputes x_eq, Y and S from the cached rows.
    """

    def __init__(self, H, g, A_eq, b_eq):
        self.H = H
        self.g = g
        self.A_eq = A_eq
        self.nz = H.shape[0]
        self.m_eq = 0 if A_eq is None else A_eq.shape[0]
        self.dim = self.nz + self.m_eq
        self._rhs_eq = np.concatenate([-g, [] if b_eq is None else b_eq])
        self.k = 0
        self.rows = np.zeros(32, dtype=int)
        self.C = np.zeros((32, self.nz))
        self.Y = np.zeros((32, self.dim))
        self.S = np.zeros((32, 32))
        self._pos = -1
        self._lu = None
        self._K = None
        self._advance()

    def _advance(self) -> bool:
        """Factor at the next regularization level; False when exhausted."""
        while self._pos + 1 < len(_REG_LADDER):
            self._pos += 1
            reg = _REG_LADDER[self._pos]
            try:
                self._factor(reg)
            except RuntimeError:  # SuperLU: exactly singular
                continue
            self.x_eq = self.solve(self._rhs_eq)
            k = self.k
            if k:
                rhs = np.zeros((self.dim, k))
                rhs[:self.nz] = self.C[:k].T
                self.Y[:k] = self.solve(rhs).T
                self.S[:k, :k] = self.C[:k] @ self.Y[:k, :self.nz].T
            return True
        return False

    def _factor(self, reg):
        nz, m = self.nz, self.m_eq
        Hr = self.H + reg * sp.identity(nz, format="csr") if reg else self.H
        if m:
            lr = -reg * sp.identity(m, format="csr") if reg else None
            K = sp.bmat([[Hr, self.A_eq.T], [self.A_eq, lr]], format="csc")
        else:
            K = sp.csc_matrix(Hr)
        self._lu = splu(K)
        self._K = K

    def solve(self, rhs):
        return self._lu.solve(rhs)

    def add(self, row: int, a):
        k = self.k
        if k == len(self.rows):  # full: double the capacity
            self.rows, self.C, self.Y = (
                np.resize(arr, (2 * k,) + arr.shape[1:])
                for arr in (self.rows, self.C, self.Y))
            self.S = np.pad(self.S, (0, k))
        rhs = np.zeros(self.dim)
        rhs[:self.nz] = a
        y = self.solve(rhs)
        self.rows[k] = row
        self.C[k] = a
        self.Y[k] = y
        self.S[:k, k] = self.C[:k] @ y[:self.nz]
        self.S[k, :k] = self.Y[:k, :self.nz] @ a
        self.S[k, k] = a @ y[:self.nz]
        self.k = k + 1

    def drop(self, slot: int):
        last = self.k - 1
        for arr in (self.rows, self.C, self.Y, self.S):
            arr[slot] = arr[last]
        self.S[:, slot] = self.S[:, last]
        self.k = last

    def step(self, z):
        """Solve the equality-constrained subproblem for the working set.

        Returns (p, lam) where lam[i] is the multiplier of slot i in the
        convention that optimal rows need lam >= 0, or None when the system
        stays inconsistent through the whole regularization ladder.
        """
        nz = self.nz
        b = np.concatenate([-(self.H @ z + self.g), np.zeros(self.m_eq)])
        bound = 1e-6 * (1.0 + float(np.linalg.norm(b, np.inf)))
        while True:
            k = self.k
            C, Y = self.C[:k], self.Y[:k]
            x = self.x_eq.copy()
            x[:nz] -= z
            ok = np.all(np.isfinite(x))
            lam = np.zeros(0)
            if ok and k:
                try:
                    lam = np.linalg.solve(self.S[:k, :k], C @ x[:nz])
                    ok = np.all(np.isfinite(lam))
                except np.linalg.LinAlgError:
                    ok = False
                if ok:
                    x -= Y.T @ lam
            if ok:
                top = self._K @ x
                top[:nz] += C.T @ lam
                resid = float(np.linalg.norm(top - b, np.inf))
                cres = float(np.abs(C @ x[:nz]).max(initial=0.0))
                if resid <= bound and cres <= bound:
                    return x[:nz], -lam
            if not self._advance():
                return None


def _csr(A):
    """A as CSR; a dense array is converted, None stays None."""
    if A is None:
        return None
    return A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)


def _dense_row(A, j: int, n: int):
    a = np.zeros(n)
    lo, hi = A.indptr[j], A.indptr[j + 1]
    np.add.at(a, A.indices[lo:hi], A.data[lo:hi])
    return a


def feasibility_error(A_eq, b_eq, A_in, b_in, z):
    """(max equality residual, max inequality violation) at z."""
    eq_err = 0.0
    in_err = 0.0
    if A_eq is not None and A_eq.shape[0]:
        eq_err = float(np.abs(A_eq @ z - b_eq).max())
    if A_in is not None and A_in.shape[0]:
        in_err = float(np.maximum(b_in - A_in @ z, 0.0).max())
    return eq_err, in_err


def solve_qp(H, g, A_eq, b_eq, A_in, b_in, z0,
             max_iters: int = 200, tol: float = 1e-8) -> QpResult:
    H, A_eq, A_in = _csr(H), _csr(A_eq), _csr(A_in)
    z = np.array(z0, dtype=float)
    n_in = 0 if A_in is None else A_in.shape[0]
    if n_in:
        row_norm = sparse_norm(A_in, axis=1)
        Az = A_in @ z
    in_working = np.zeros(n_in, dtype=bool)
    status = "max_iters"
    it = 0
    stall = 0
    bland = False  # anti-cycling fallback for degenerate active sets
    base = _BaseKkt(H, np.asarray(g, dtype=float), A_eq, b_eq)
    if base._lu is None:
        return QpResult(z=z, status="singular", iterations=0, working_set=())
    while it < max_iters:
        it += 1
        sol = base.step(z)
        if sol is None:
            status = "singular"
            break
        p, lam = sol
        step_tol = _STEP_TOL * (1.0 + np.linalg.norm(z, np.inf))
        if np.linalg.norm(p, np.inf) <= step_tol:
            if lam.size and lam.min() < -tol:
                # Bland: lowest row with a negative multiplier; otherwise
                # the lowest row at the most negative one
                hit = (lam < -tol) if bland else (lam == lam.min())
                slot = int(np.flatnonzero(hit)[
                    np.argmin(base.rows[:base.k][hit])])
                in_working[base.rows[slot]] = False
                base.drop(slot)
                stall += 1
                if stall >= 50:
                    bland = True
                continue
            status = "optimal"
            break
        alpha = 1.0
        block = -1
        if n_in:
            Ap = A_in @ p
            mask = (~in_working) & (
                Ap < -_DIR_TOL * row_norm * np.linalg.norm(p))
            if np.any(mask):
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(mask, (b_in - Az) / Ap, np.inf)
                ratio = np.maximum(ratio, 0.0)
                a_min = float(ratio.min())
                if a_min < alpha:
                    alpha = a_min
                    block = int(np.argmin(ratio))  # lowest index at the min
            Az += alpha * Ap
        z = z + alpha * p
        if alpha > _STEP_TOL:
            stall = 0
        else:
            stall += 1
            if stall >= 50:
                bland = True
        if block >= 0:
            base.add(block, _dense_row(A_in, block, z.size))
            in_working[block] = True
    return QpResult(z=z, status=status, iterations=it,
                    working_set=tuple(sorted(base.rows[:base.k].tolist())))


def make_feasible(A_eq, b_eq, A_in, b_in, z0, slack_rows,
                  max_iters: int = 400, slack_tol: float = 1e-7):
    """Repair z0 into the constraint set by minimizing squared slacks on the
    rows listed in ``slack_rows`` (all other rows must already hold at z0).

    Returns the repaired point or None when the minimum slack stays positive
    (genuinely infeasible constraint set).
    """
    A_eq, A_in = _csr(A_eq), _csr(A_in)
    z0 = np.asarray(z0, dtype=float)
    nz = z0.size
    n_in = 0 if A_in is None else A_in.shape[0]
    slack_rows = sorted(set(int(j) for j in slack_rows))
    viol = np.zeros(n_in)
    if n_in:
        viol = np.maximum(b_in - A_in @ z0, 0.0)
    bad = [j for j in range(n_in) if viol[j] > 0.0 and j not in set(slack_rows)]
    if bad:
        return None  # violated rows we are not allowed to relax
    if not slack_rows:
        return z0
    ns = len(slack_rows)
    eps = 1e-8
    H = sp.block_diag((2 * eps * sp.identity(nz),
                       2 * sp.identity(ns)), format="csr")
    sel = sp.csr_matrix(
        (np.ones(ns), (slack_rows, np.arange(ns))), shape=(n_in, ns))
    A_in_aug = sp.bmat([[A_in, sel]], format="csr")
    s_rows = sp.bmat([[sp.csr_matrix((ns, nz)), sp.identity(ns)]],
                     format="csr")
    A_in_full = sp.vstack([A_in_aug, s_rows], format="csr")
    A_eq_aug = None
    if A_eq is not None and A_eq.shape[0]:
        A_eq_aug = sp.bmat([[A_eq, sp.csr_matrix((A_eq.shape[0], ns))]],
                           format="csr")
    g = np.concatenate([-2 * eps * z0, np.zeros(ns)])
    b_in_full = np.concatenate([b_in, np.zeros(ns)])
    s0 = viol[slack_rows] + 1e-12
    z_aug0 = np.concatenate([z0, s0])
    res = solve_qp(H, g, A_eq_aug,
                   None if A_eq_aug is None else np.asarray(b_eq, dtype=float),
                   A_in_full, b_in_full, z_aug0, max_iters=max_iters,
                   tol=1e-10)
    s_final = res.z[nz:]
    if res.status in ("optimal", "max_iters") and float(np.abs(s_final).max(initial=0.0)) <= slack_tol:
        return res.z[:nz]
    return None
