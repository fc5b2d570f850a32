"""Block-local log-det barrier kernel behind :func:`pathlyap.sdp.solve_margin`.

The margin program is flattened before it reaches this module: every
constraint becomes one symmetric block
``S_k(z) = C0[k] + sum_j z[index[k, j]] local[k, j]`` and the solver
maximizes ``z[-1]`` (the margin) subject to every block being positive
definite.  Each block sees only its own w slots: ``index[k, j]`` names the
unknown that slot j of block k scales, so a block that touches two graph
nodes and the margin carries their directions and nothing else.  The
caller folds the ``- t I`` term into the last slot, so the kernel sees
nothing but an affine family of blocks.

All K blocks are handled at once as a ``(K, n, n)`` stack.  Each Newton step
factors every block once by Cholesky, ``S_k = L_k L_k^T``; a block is
positive definite exactly when its factorization succeeds, and
``log det S_k = 2 sum log diag L_k``.  With ``E[k,j] = L_k^-1 local[k,j]
L_k^-T`` the barrier gradient is ``-mu tr(E[k,j])`` and the Hessian is
``mu sum_k tr(E[k,a] E[k,b])`` (Vandenberghe & Boyd, Semidefinite
Programming, SIAM Review 1996), both scattered from slots to unknowns
through ``index``.  That is K w products for E and K Gram blocks of size
w x w, in place of one dense product over every unknown of every block;
only the final m1 x m1 solve is dense.

The line search backtracks from the full Newton step, halving alpha until
``S + alpha dS`` factors and the Armijo condition holds.  Every block of
``S + alpha dS`` is ``L_k (I + alpha W_k) L_k^T`` with
``W_k = L_k^-1 dS_k L_k^-T``, and no eigenvalue of W_k exceeds its
smallest diagonal entry, ``sum_j step[index[k, j]] diag(E[k, j])``, which
the trace above already slices out of E.  With ``worst`` the smallest
such entry over all blocks, any alpha with ``1 + alpha worst < 0`` leaves
some block indefinite, so a trial past ``1 + alpha worst < -SKIP_SLACK``
is halved without a factorization.  The slack lies far above the rounding
of ``worst``, so no skipped trial is one that Cholesky would accept, and
the first trial that is factorized is the one the plain search would
have reached: the iterates are the same to the last bit.

A caller that needs only the sign of the optimum against a level passes
it as ``decide``, and the solve stops once that sign is certified.  The
feasible exit comes after any accepted Newton step with ``z[-1] > decide``:
the step's Cholesky factorization succeeded, so every block dominates
``z[-1] I`` there.  The infeasible exit comes at the end of a stage whose
Newton decrement converged, with ``z[-1] + N mu < decide``: a centred point
of barrier weight mu is within the duality gap ``N mu`` of the optimum, with
``N = K n`` the total order of the blocks (Vandenberghe & Boyd, Semidefinite
Programming, SIAM Review 1996).  A stage that ends because the line search
stalled is not centred, so it decides nothing; this matters for a solve
that starts off the central path at a small weight.

The solve returns the barrier weight of the stage it stopped in, so a
later solve can resume from its point: for the same blocks that point is
strictly feasible (its Cholesky factorization succeeded), so it needs no
back-off, and starting at its weight skips the stages already walked.
:func:`pathlyap.sdp.solve_margin` also shifts such a point to start a
problem at a nearby rate.

A caller that needs a certificate, not the optimum, passes ``certify``:
the solve then stops at the end of the first centred stage with
``N mu <= z[-1]``, where the optimum is at most ``z[-1] + N mu <= 2 z[-1]``,
so the margin is at least half the optimum.  "Centred" asks there also
that the scale-free Newton decrement, the decrement divided by mu, is at
most :data:`CERTIFY_DECREMENT`: the stage test bounds the decrement itself,
which at a small mu admits points far from the central path.

Every solve walks one schedule: the weight shrinks by :data:`MU_SHRINK`
per stage and its last stage is clamped to exactly :data:`MU_MIN`.  A
caller that passes ``decide`` or ``certify`` walks the same stages with
the early exits above.  Wherever it starts, a solve whose last stage is
centred ends within ``N MU_MIN`` of the optimum.
"""

import numpy as np

# path-following tuning: final barrier weight, its shrink per stage, Newton
# decrement tolerance, Newton iterations per stage, Armijo slope fraction,
# backtracking shrink and smallest line-search step
MU_MIN = 1e-10
MU_SHRINK = 0.05
NEWTON_TOL = 1e-11
MAX_NEWTON = 80
ARMIJO = 0.25
BACKTRACK = 0.5
MIN_STEP = 1e-14
# how far past the diagonal bound a line-search step must lie to be skipped
# without a factorization, far above the bound's rounding error
SKIP_SLACK = 1e-3
# largest scale-free Newton decrement (decrement / mu) of a stage end that
# the certifying stop trusts as centred
CERTIFY_DECREMENT = 1e-3


def _factor(s):
    """(Cholesky factors, sum_k log det S_k) of the stack, or (None, None)
    if any block is not positive definite or not finite."""
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None, None
    # Cholesky returns NaN factors for NaN input without raising
    value = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum()
    if not np.isfinite(value):
        return None, None
    return chol, value


def barrier_solve(c0, local, index, z0, mu0, decide=None, certify=False):
    """Damped-Newton path following for max z[-1] s.t. all blocks PD.

    c0 is the (K, n, n) constant stack, local the (K, w, n, n) directions
    of each block and index the (K, w) unknown of each slot; slots of one
    block that share an unknown add up.  The barrier weight starts at mu0
    and is multiplied by :data:`MU_SHRINK` after each stage, clamped to
    :data:`MU_MIN`, and the stage at MU_MIN is the last, so a solve that
    takes no early exit ends at weight exactly MU_MIN; a mu0 below MU_MIN
    runs no stage.  Returns (z, iterations, status, mu) with status 0 when
    the final centering converged, 1 when it ran out of Newton iterations,
    and 2 when z0 is not strictly feasible (z is then z0 and no iteration
    is counted) or a Newton step is not finite; mu is the barrier weight of
    the stage the solve stopped in (mu0 if it stopped before the first).
    The caller recomputes the reported margin from z independently, so
    status is advisory.

    With `decide` set, the solve stops as soon as the sign of z[-1] - decide
    at the optimum is certified: after an accepted step with z[-1] > decide
    (feasible), or at the end of a stage whose Newton decrement converged
    with z[-1] + K n mu < decide (infeasible); a stage ended by a stalled
    line search decides nothing.  Either exit returns status 0.

    With `certify`, the solve stops with status 0 at the end of the first
    centred stage with K n mu <= z[-1] and decrement / mu at most
    :data:`CERTIFY_DECREMENT`: z[-1] is then at least half the optimum.
    """
    count, width, n, _ = local.shape
    m1 = len(z0)
    index = np.asarray(index, dtype=np.intp)
    flat = local.reshape(count, width, n * n)
    # the slots of each block side by side, (K, n, w n), so that L_k^-1
    # multiplies all of them in one product
    wide = local.transpose(0, 2, 1, 3).reshape(count, n, width * n)
    slots = index.reshape(-1)
    pairs = (index[:, :, None] * m1 + index[:, None, :]).reshape(-1)

    def along(v):
        """The stack sum_j v[index[k, j]] local[k, j]."""
        return (v[index][:, None, :] @ flat).reshape(c0.shape)

    z = z0.copy()
    iterations = 0
    s = c0 + along(z)
    chol, log_det = _factor(s)
    if chol is None:
        return z, iterations, 2, mu0

    # duality gap of a centred point per unit barrier weight
    gap = count * n
    status = 0
    mu = mu0
    while mu >= MU_MIN:
        # converged ends the stage; centred only when the decrement did
        converged = centred = False
        for _ in range(MAX_NEWTON):
            iterations += 1
            # E[k, j] = L_k^-1 local[k, j] L_k^-T, flattened to (K, w, n n)
            inv = np.linalg.inv(chol)
            e = (inv @ wide).reshape(count, n, width, n).transpose(0, 2, 1, 3)
            e = e.reshape(count, width * n, n) @ inv.transpose(0, 2, 1)
            e = e.reshape(count, width, n * n)
            diagonals = e[:, :, ::n + 1]
            traces = diagonals.sum(axis=2)
            grad = -mu * np.bincount(slots, traces.reshape(-1), m1)
            grad[-1] -= 1.0
            gram = e @ e.transpose(0, 2, 1)
            hess = mu * np.bincount(pairs, gram.reshape(-1), m1 * m1)
            hess = hess.reshape(m1, m1)
            fval = -z[-1] - mu * log_det
            hess.flat[::m1 + 1] += 1e-13 * max(1.0, hess.diagonal().max())
            step = np.linalg.solve(hess, -grad)
            if not np.all(np.isfinite(step)):
                return z, iterations, 2, mu
            decrement = -(grad @ step)
            if decrement <= 2.0 * NEWTON_TOL:
                converged = centred = True
                break
            ds = along(step)
            # no eigenvalue of W_k = L_k^-1 dS_k L_k^-T exceeds its smallest
            # diagonal entry, so no step alpha with 1 + alpha worst < 0
            # keeps every block positive definite: halve past those
            worst = (step[index][:, None, :] @ diagonals).min()
            alpha = 1.0
            while alpha * worst < -1.0 - SKIP_SLACK and alpha >= MIN_STEP:
                alpha *= BACKTRACK
            moved = False
            while alpha >= MIN_STEP:
                zt = z + alpha * step
                st = s + alpha * ds
                ct, lt = _factor(st)
                if (ct is not None and -zt[-1] - mu * lt
                        <= fval - ARMIJO * alpha * decrement):
                    z, s, chol, log_det = zt, st, ct, lt
                    moved = True
                    break
                alpha *= BACKTRACK
            if not moved:
                # no float-representable step improves f: stationary
                # enough to end the stage, but not a certified centred point
                converged = True
                break
            if decide is not None and z[-1] > decide:
                return z, iterations, 0, mu
        status = 0 if converged else 1
        if decide is not None and centred and z[-1] + gap * mu < decide:
            return z, iterations, 0, mu
        if (certify and centred and gap * mu <= z[-1]
                and decrement <= CERTIFY_DECREMENT * mu):
            return z, iterations, 0, mu
        if mu == MU_MIN:
            break
        mu = max(mu * MU_SHRINK, MU_MIN)
    return z, iterations, status, mu
