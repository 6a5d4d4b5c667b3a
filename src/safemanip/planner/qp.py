"""Primal active-set solver for the transcribed convex QPs.

Standard form:  min 0.5 z'Hz + g'z  s.t.  A_eq z = b_eq,  A_in z >= b_in.
The caller supplies a start that already satisfies every constraint; the
helper :func:`make_feasible` repairs a candidate with a slack subproblem when
it does not.  All tie-breaks are by lowest row index so repeated solves are
bit-identical.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

_STEP_TOL = 1e-9   # relative to 1 + |z|, to ride out KKT solve noise
_DIR_TOL = 1e-12
_REG_LADDER = (0.0, 1e-12, 1e-10, 1e-8)


@dataclass
class QpResult:
    z: np.ndarray
    status: str            # optimal | max_iters | singular
    iterations: int
    working_set: tuple


class _BaseKkt:
    """Factorization of [[H, A_eq'], [A_eq, 0]], reused across active-set
    iterations.

    Working-set rows never enter the factorization; they are applied through
    a Schur complement built from cached solves ``K0^{-1} [a_j; 0]``, one per
    inequality row ever activated.  This keeps the per-iteration cost at a
    couple of backsolves instead of a fresh factorization.
    """

    def __init__(self, H, A_eq, sparse):
        self.H = H
        self.A_eq = A_eq
        self.sparse = sparse
        self.nz = H.shape[0]
        self.m_eq = 0 if A_eq is None else A_eq.shape[0]
        self.dim = self.nz + self.m_eq
        self._pos = -1
        self._lu = None
        self._K = None
        self._cols = {}
        self._advance()

    def _advance(self) -> bool:
        """Factor at the next regularization level; False when exhausted."""
        while self._pos + 1 < len(_REG_LADDER):
            self._pos += 1
            reg = _REG_LADDER[self._pos]
            try:
                self._factor(reg)
            except (RuntimeError, np.linalg.LinAlgError):
                continue
            self._cols.clear()
            return True
        return False

    def _factor(self, reg):
        nz, m = self.nz, self.m_eq
        if self.sparse:
            Hr = self.H + reg * sp.identity(nz, format="csr") if reg else self.H
            if m:
                lr = -reg * sp.identity(m, format="csr") if reg else None
                K = sp.bmat([[Hr, self.A_eq.T], [self.A_eq, lr]], format="csc")
            else:
                K = sp.csc_matrix(Hr)
            self._lu = splu(K)
            self._K = K
        else:
            if m:
                K = np.zeros((self.dim, self.dim))
                K[:nz, :nz] = self.H
                K[:nz, nz:] = self.A_eq.T
                K[nz:, :nz] = self.A_eq
                if reg:
                    K[:nz, :nz] += reg * np.eye(nz)
                    K[nz:, nz:] = -reg * np.eye(m)
            else:
                K = np.array(self.H, dtype=float)
                if reg:
                    K = K + reg * np.eye(nz)
            self._lu = scipy.linalg.lu_factor(K)
            self._K = K
        self._reg = reg

    def solve(self, rhs):
        if self.sparse:
            return self._lu.solve(rhs)
        return scipy.linalg.lu_solve(self._lu, rhs)

    def col(self, A_in, j: int):
        y = self._cols.get(j)
        if y is None:
            a = A_in[j]
            if sp.issparse(a):
                a = a.toarray().ravel()
            rhs = np.zeros(self.dim)
            rhs[:self.nz] = a
            y = self.solve(rhs)
            self._cols[j] = y
        return y


def _schur_solve(S, rhs):
    """Small dense solve with a deterministic fallback for degenerate
    working sets (nearly parallel rows)."""
    scale = float(np.abs(np.diag(S)).max()) if S.size else 1.0
    if scale == 0.0:
        scale = 1.0
    for reg in (0.0, 1e-12, 1e-8):
        try:
            lam = np.linalg.solve(S + reg * scale * np.eye(S.shape[0]), rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(lam)):
            return lam
    return None


def _kkt_step(base: _BaseKkt, A_in, r, working):
    """Solve the equality-constrained subproblem for the current working set.

    Returns (p, lam) where lam are the working-row multipliers in the
    convention that optimal rows need lam >= 0, or None when the system
    stays inconsistent through the whole regularization ladder.
    """
    nz = base.nz
    b = np.concatenate([-r, np.zeros(base.m_eq)])
    while True:
        x0 = base.solve(b)
        ok = np.all(np.isfinite(x0))
        lam_hat = np.zeros(0)
        x = x0
        if ok and working:
            Y = np.column_stack([base.col(A_in, j) for j in working])
            C = A_in[working]
            S = C @ Y[:nz]
            rhs_s = C @ x0[:nz]
            if sp.issparse(S):
                S = S.toarray()
            lam_hat = _schur_solve(np.asarray(S), np.asarray(rhs_s).ravel())
            ok = lam_hat is not None
            if ok:
                x = x0 - Y @ lam_hat
        if ok:
            top = base._K @ x
            if working:
                ct = A_in[working].T @ lam_hat
                top = top + np.concatenate([np.asarray(ct).ravel(),
                                            np.zeros(base.m_eq)])
            resid = float(np.linalg.norm(top - b, np.inf))
            cres = 0.0
            if working:
                cres = float(np.abs(A_in[working] @ x[:nz]).max())
            bound = 1e-6 * (1.0 + float(np.linalg.norm(b, np.inf)))
            if resid <= bound and cres <= bound:
                return x[:nz], -lam_hat
        if not base._advance():
            return None


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
    sparse = sp.issparse(H)
    z = np.array(z0, dtype=float)
    n_in = 0 if A_in is None else A_in.shape[0]
    m_eq = 0 if A_eq is None else A_eq.shape[0]
    working: list = []
    in_working = np.zeros(n_in, dtype=bool)
    status = "max_iters"
    it = 0
    stall = 0
    bland = False  # anti-cycling fallback for degenerate active sets
    base = _BaseKkt(H, A_eq, sparse)
    if base._lu is None:
        return QpResult(z=z, status="singular", iterations=0, working_set=())
    while it < max_iters:
        it += 1
        r = H @ z + g
        sol = _kkt_step(base, A_in, r, working)
        if sol is None:
            status = "singular"
            break
        p, lam = sol
        step_tol = _STEP_TOL * (1.0 + np.linalg.norm(z, np.inf))
        if np.linalg.norm(p, np.inf) <= step_tol:
            if working:
                j_min = -1
                if bland:
                    # lowest row index with a negative multiplier (working
                    # list is sorted, so the first hit is the lowest row)
                    for j in range(len(lam)):
                        if lam[j] < -tol:
                            j_min = j
                            break
                else:
                    j = int(np.argmin(lam))  # first occurrence = lowest row
                    if lam[j] < -tol:
                        j_min = j
                if j_min >= 0:
                    row = working.pop(j_min)
                    in_working[row] = False
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
            mask = (~in_working) & (Ap < -_DIR_TOL)
            if np.any(mask):
                slack = A_in @ z - b_in
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(mask, -slack / Ap, np.inf)
                ratio = np.maximum(ratio, 0.0)
                a_min = float(ratio.min())
                if a_min < alpha:
                    alpha = a_min
                    block = int(np.argmin(ratio))  # lowest index at the min
        z = z + alpha * p
        if alpha > _STEP_TOL:
            stall = 0
        else:
            stall += 1
            if stall >= 50:
                bland = True
        if block >= 0:
            # keep the working list sorted so multiplier ties are by row index
            lo = int(np.searchsorted(np.asarray(working, dtype=int), block))
            working.insert(lo, block)
            in_working[block] = True
    return QpResult(z=z, status=status, iterations=it,
                    working_set=tuple(working))


def make_feasible(A_eq, b_eq, A_in, b_in, z0, slack_rows,
                  max_iters: int = 400, slack_tol: float = 1e-7):
    """Repair z0 into the constraint set by minimizing squared slacks on the
    rows listed in ``slack_rows`` (all other rows must already hold at z0).

    Returns the repaired point or None when the minimum slack stays positive
    (genuinely infeasible constraint set).
    """
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
    A_in_aug = sp.bmat([[sp.csr_matrix(A_in), sel]], format="csr")
    s_rows = sp.bmat([[sp.csr_matrix((ns, nz)), sp.identity(ns)]],
                     format="csr")
    A_in_full = sp.vstack([A_in_aug, s_rows], format="csr")
    A_eq_aug = None
    if A_eq is not None and A_eq.shape[0]:
        A_eq_aug = sp.bmat([[sp.csr_matrix(A_eq),
                             sp.csr_matrix((A_eq.shape[0], ns))]], format="csr")
    if not sp.issparse(A_in):
        # dense inputs keep solve_qp on its dense path
        H, A_in_full = H.toarray(), A_in_full.toarray()
        if A_eq_aug is not None:
            A_eq_aug = A_eq_aug.toarray()

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
