"""Dual active-set solver for the transcribed convex QPs.

Standard form:  min 0.5 z'Hz + g'z  s.t.  A_eq z = b_eq,  A_in z >= b_in.
SuperLU factors the sparse KKT matrix of H and A_eq; a dense H or
constraint block is converted to CSR once, on entry.

Method: the dual active-set method of Goldfarb & Idnani (Math. Programming
1983) in the Schur-complement form of QPSchur (Bartlett & Biegler, Optim.
Eng. 2006).  It starts from ``x_eq``, the minimizer under A_eq alone, so it
needs no feasible start.  Each outer step picks the violated row with the
largest violation per unit row norm (lowest index on ties) and raises its
multiplier until the row holds; on the way, a working row whose multiplier
reaches zero is dropped (a partial step).  Every iterate minimizes the
objective on the face of its working rows with multipliers >= 0, so the
first iterate that violates no row is the optimum, and a violated row that
neither step can move proves the QP infeasible.  Iterates are not primal
feasible before the last: a solve stopped at ``max_iters`` violates rows.
All tie-breaks are by lowest index, so repeated solves are bit-identical.

Cost per step: one KKT backsolve per outer step, ``y = K0^{-1} [a; 0]`` of
the chosen row, which the add then reuses.  Each add or drop costs one dense
k-by-k solve with the Schur complement S of the k working rows
(:class:`_BaseKkt`); each outer step one product ``A_in @ z``.  The solve
ends with one certificate, :meth:`_BaseKkt.step` from the final point with
its KKT residual check and regularization ladder: its step must vanish and
its multipliers must be >= -tol, or the status is ``singular``.

A row enters on a full step only when ``a.dz > _DIR_TOL |a| |y|``.  A row
that is a linear combination of the working set leaves ``a.dz`` at roundoff
size; letting it enter would make S near-singular.  Such a row is met by
partial steps alone, or proves infeasibility.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm
from scipy.sparse.linalg import splu

_STEP_TOL = 1e-9   # relative to 1 + |z|, to ride out KKT solve noise
_DIR_TOL = 1e-10   # relative to |a| |y|, so a dependent row never enters
_VIOL_TOL = 1e-9   # relative to 1 + |b_j|: a row violated by less holds
_REG_LADDER = (0.0, 1e-12, 1e-10, 1e-8)


@dataclass
class QpResult:
    z: np.ndarray
    status: str            # optimal | infeasible | max_iters | singular
    iterations: int        # rows added plus rows dropped
    working_set: tuple


class _BaseKkt:
    """Factorization of K0 = [[H, A_eq'], [A_eq, 0]] and the working set
    applied to it through a Schur complement.

    Working-set rows never enter the factorization.  Slot i of the working
    arrays holds the dense row ``C[i] = a_j`` of inequality row ``rows[i]``,
    its solve ``Y[i] = K0^{-1} [a_j; 0]`` and its multiplier ``u[i]``;
    ``S = C Y[:, :nz]'`` is the Schur complement.  An add grows S by one row
    and one column; a drop moves the last slot into the freed one.  The
    arrays double their capacity when full.  ``x_eq = K0^{-1} [-g; b_eq]``
    holds the minimizer under A_eq alone, so at a point z with
    A_eq z = b_eq the step without working rows is ``x_eq - [z; 0]``.  Each
    regularization step refactors and recomputes x_eq, Y and S from the
    cached rows.
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
        self.u = np.zeros(32)
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

    def add(self, row: int, a, y, u: float):
        """Append row ``row`` = a with its solve y and multiplier u."""
        k = self.k
        if k == len(self.rows):  # full: double the capacity
            self.rows, self.C, self.Y, self.u = (
                np.resize(arr, (2 * k,) + arr.shape[1:])
                for arr in (self.rows, self.C, self.Y, self.u))
            self.S = np.pad(self.S, (0, k))
        self.rows[k] = row
        self.C[k] = a
        self.Y[k] = y
        self.u[k] = u
        self.S[:k, k] = self.C[:k] @ y[:self.nz]
        self.S[k, :k] = self.Y[:k, :self.nz] @ a
        self.S[k, k] = a @ y[:self.nz]
        self.k = k + 1

    def drop(self, slot: int):
        last = self.k - 1
        for arr in (self.rows, self.C, self.Y, self.u, self.S):
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


def _certify(base: _BaseKkt, z, tol: float) -> str:
    """'optimal' when the working set's KKT step from z vanishes and its
    multipliers are >= -tol, else 'singular'."""
    sol = base.step(z)
    if sol is None:
        return "singular"
    p, lam = sol
    if (np.linalg.norm(p, np.inf) <= _STEP_TOL * (1.0 + np.linalg.norm(z, np.inf))
            and lam.min(initial=0.0) >= -tol):
        return "optimal"
    return "singular"


def _partial_step(u, du):
    """(t, slot): the step at which the first working multiplier falling
    along du reaches zero, and its slot; (inf, -1) when none falls."""
    neg = np.flatnonzero(du < 0.0)
    if not neg.size:
        return np.inf, -1
    ratio = -u[neg] / du[neg]
    i = int(np.argmin(ratio))  # lowest slot at the min
    return float(ratio[i]), int(neg[i])


def _result(base: _BaseKkt, z, status: str, it: int) -> QpResult:
    return QpResult(z=z, status=status, iterations=it,
                    working_set=tuple(sorted(base.rows[:base.k].tolist())))


def solve_qp(H, g, A_eq, b_eq, A_in, b_in,
             max_iters: int = 200, tol: float = 1e-8) -> QpResult:
    H, A_eq, A_in = _csr(H), _csr(A_eq), _csr(A_in)
    base = _BaseKkt(H, np.asarray(g, dtype=float), A_eq, b_eq)
    nz = base.nz
    if base._lu is None:
        return QpResult(z=np.zeros(nz), status="singular", iterations=0,
                        working_set=())
    z = base.x_eq[:nz].copy()
    n_in = 0 if A_in is None else A_in.shape[0]
    if n_in:
        b_in = np.asarray(b_in, dtype=float)
        # an all-zero violated row ranks first and proves infeasibility
        row_norm = np.maximum(sparse_norm(A_in, axis=1), np.finfo(float).tiny)
        viol_tol = -_VIOL_TOL * (1.0 + np.abs(b_in))
        in_working = np.zeros(n_in, dtype=bool)
    it = 0
    while n_in:
        s = A_in @ z - b_in
        viol = np.where(in_working | (s >= viol_tol), 0.0, -s / row_norm)
        j = int(np.argmax(viol))  # lowest index at the max
        if viol[j] <= 0.0:
            break
        if it >= max_iters:
            return _result(base, z, "max_iters", it)
        a = _dense_row(A_in, j, nz)
        rhs = np.zeros(base.dim)
        rhs[:nz] = a
        y = base.solve(rhs)
        yz = y[:nz]
        dir_tol = _DIR_TOL * np.linalg.norm(a) * np.linalg.norm(yz)
        s_j, u_j = float(s[j]), 0.0
        while True:  # partial steps until the full step adds row j
            k = base.k
            dz, du = yz, np.zeros(0)
            if k:
                try:
                    du = -np.linalg.solve(base.S[:k, :k], base.C[:k] @ yz)
                except np.linalg.LinAlgError:
                    return _result(base, z, "singular", it)
                dz = yz + base.Y[:k, :nz].T @ du
            ad = float(a @ dz)
            t_full = -s_j / ad if ad > dir_tol else np.inf
            t_part, slot = _partial_step(base.u[:k], du)
            t = min(t_full, t_part)
            if t == np.inf:
                return _result(base, z, "infeasible", it)
            z = z + t * dz
            base.u[:k] += t * du
            u_j += t
            s_j += t * ad
            it += 1
            if t_full <= t_part:
                base.add(j, a, y, u_j)
                in_working[j] = True
                break
            in_working[base.rows[slot]] = False
            base.drop(slot)
            if it >= max_iters:
                return _result(base, z, "max_iters", it)
    return _result(base, z, _certify(base, z, tol), it)


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
    res = solve_qp(H, g, A_eq_aug,
                   None if A_eq_aug is None else np.asarray(b_eq, dtype=float),
                   A_in_full, b_in_full, max_iters=max_iters, tol=1e-10)
    s_final = res.z[nz:]
    if res.status == "optimal" and float(np.abs(s_final).max(initial=0.0)) <= slack_tol:
        return res.z[:nz]
    return None
