"""Dense log-det barrier kernel behind :func:`pathlyap.sdp.solve_margin`.

The margin program is flattened before it reaches this module: every
constraint becomes one symmetric block ``S_k(z) = C0[k] + sum_a z[a] D[k,a]``
and the solver maximizes ``z[-1]`` (the margin) subject to every block being
positive definite.  The caller folds the ``- t I`` term into ``D`` so the
kernel sees nothing but an affine family of blocks.

All K blocks are handled at once as a ``(K, n, n)`` stack.  Each Newton step
takes one stacked ``eigh``, which gives ``log det S_k``, ``S_k^-1`` and
``S_k^-1/2``.  The barrier gradient is ``-mu tr(S_k^-1 D[k,a])`` summed over
blocks, and the Hessian is ``mu sum_k tr(S_k^-1 D[k,a] S_k^-1 D[k,b])``
(Vandenberghe & Boyd, Semidefinite Programming, SIAM Review 1996).  With
``E[k,a] = S_k^-1/2 D[k,a] S_k^-1/2`` that Hessian is ``mu E E^T`` over the
flattened ``(m1, K n n)`` matrix E, one matrix product.
"""

import numpy as np


def _blocks(c0, dm, z):
    """The stack S_k(z); dm is D as an (m1, K*n*n) matrix."""
    return (c0.reshape(-1) + z @ dm).reshape(c0.shape)


def _point_value(c0, dm, z, mu):
    """Barrier objective at z, or (False, 0.0) if any block leaves the cone.

    Value is -z[-1] - mu * sum_k log det S_k.
    """
    w = np.linalg.eigvalsh(_blocks(c0, dm, z))
    if not np.all(w[:, 0] > 0.0):
        return False, 0.0
    return True, -z[-1] - mu * np.log(w).sum()


def barrier_solve(c0, d, z0, mu0, mu_min, mu_shrink, newton_tol, max_newton,
                  armijo_c, step_shrink, min_step):
    """Damped-Newton path following for max z[-1] s.t. all blocks PD.

    c0 is the (K, n, n) constant stack and d the (K, m1, n, n) directions.
    Returns (z, iterations, status) with status 0 when the final centering
    converged, 1 when it ran out of Newton iterations, and 2 on loss of
    feasibility or a non-finite linear solve.  The caller recomputes the
    reported margin from z independently, so status is advisory.
    """
    count, m1, n, _ = d.shape
    dm = d.transpose(1, 0, 2, 3).reshape(m1, count * n * n)

    z = z0.copy()
    iterations = 0
    ok, _ = _point_value(c0, dm, z, mu0)
    if not ok:
        return z, iterations, 2

    status = 0
    mu = mu0
    while mu >= mu_min:
        converged = False
        for _ in range(max_newton):
            iterations += 1
            w, v = np.linalg.eigh(_blocks(c0, dm, z))
            if not np.all(w[:, 0] > 0.0):
                return z, iterations, 2
            vt = v.transpose(0, 2, 1)
            sinv = (v / w[:, None, :]) @ vt
            root = (v / np.sqrt(w)[:, None, :]) @ vt
            grad = -mu * (dm @ sinv.reshape(-1))
            grad[-1] -= 1.0
            e = (root[:, None] @ d @ root[:, None]).transpose(1, 0, 2, 3)
            e = e.reshape(m1, -1)
            hess = mu * (e @ e.T)
            fval = -z[-1] - mu * np.log(w).sum()
            hess[np.diag_indices(m1)] += 1e-13 * max(1.0, hess.diagonal().max())
            step = np.linalg.solve(hess, -grad)
            if not np.all(np.isfinite(step)):
                return z, iterations, 2
            decrement = -(grad @ step)
            if decrement <= 2.0 * newton_tol:
                converged = True
                break
            alpha = 1.0
            moved = False
            while alpha >= min_step:
                zt = z + alpha * step
                ok, ft = _point_value(c0, dm, zt, mu)
                if ok and ft <= fval - armijo_c * alpha * decrement:
                    z = zt
                    moved = True
                    break
                alpha *= step_shrink
            if not moved:
                # no float-representable step improves f: stationary enough
                converged = True
                break
        status = 0 if converged else 1
        mu *= mu_shrink
    return z, iterations, status
