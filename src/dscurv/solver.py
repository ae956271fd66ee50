"""Damped-Newton homotopy continuation for the prescribed-curvature equation.

The discrete residual at a node is

    Phi(u, t) = f(lam[A(u)]) - psi_t(xi, u, tau(u)),

where f is the normalized symmetric root of order k and psi_t the
convex deformation from the solvable reference prescription (t = 0) to
the target (t = 1).  The t = 0 start is the umbilic slice u = lam with
lam cosh^p(lam) = 1, which solves the equation exactly: the slice has
all principal curvatures tanh(lam) and tilt cosh(lam), so the reference
value is cosh^p(lam) * lam * tanh(lam) = tanh(lam).

The Jacobian is the exact derivative of the *discrete* residual: Phi at
a node depends on u only through u and its centered first and second
partials there, so the chain rule with closed-form 2x2 coefficients
times the grid's sparse difference operators gives the matrix.  The
grid builds the union pattern of those operators and a multiple-
minimum-degree ordering of it once (SphereGrid.stencil_pattern); every
Jacobian is one scatter of the coefficients onto that fixed pattern,
and Newton factors it permuted into the ordering, so SuperLU adds no
column ordering of its own and keeps its threshold partial pivoting.

Each Newton trial step must be spacelike, node-wise admissible, and
reduce the residual sup-norm, otherwise the step is backtracked; each
accepted homotopy step must additionally pass the a priori bound
monitors, otherwise the step size is halved.  The residual hands its
geometry and prescription values to the Jacobian at the same iterate,
so each Newton iterate evaluates them once.

A solve is a nested iteration over the grid's refinement chain
(SphereGrid.coarsened): the homotopy runs on the coarsest grid only,
and each finer grid starts Newton at the final t from the prolonged
solution of the grid below (SphereGrid.prolong), then checks the bound
monitors and the Jacobian.  The prolonged start is second-order close
to the fine solution, so a level takes a couple of Newton iterations.
If the coarse homotopy or a level fails, the solve falls back to the
homotopy on the target grid and records why.  Everything on the solve
path is deterministic: same config, grid, and prescription reproduce
bit-identical traces.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (AdmissibilityError, ContinuationError,
                     InternalConsistencyError, NewtonError, SpacelikeError)
from .geometry import induced_geometry_unchecked
from .monitor import check_bounds
from .prescription import (AuditBox, HomotopyPrescription,
                           ReferencePrescription, scan_barriers)
from .symmetric import root_of_sums

# The in-run Jacobian check runs on the first accepted step and then on
# every JACOBIAN_CHECK_INTERVAL-th.
JACOBIAN_CHECK_INTERVAL = 10

# A homotopy step accepted in at most FAST_ITERS Newton iterations grows
# the next step by GROW_FACTOR, up to dt_max.
FAST_ITERS = 4
GROW_FACTOR = 1.5

# The line search halves a rejected Newton step down to BACKTRACK_MIN.
BACKTRACK_FACTOR = 0.5
BACKTRACK_MIN = 1e-4

# Difference step and relative error bound of the Jacobian check.
JACOBIAN_CHECK_EPS = 1e-6
JACOBIAN_CHECK_TOL = 1e-5


@dataclass
class SolverConfig:
    """Tolerances and step controls for the continuation solver."""

    k: int = 2
    p: float = 2.0
    tol_newton: float = 1e-10
    max_newton: int = 30
    dt_init: float = 0.1
    dt_min: float = 1e-3
    dt_max: float = 0.5
    c_tau: float = 50.0
    c_a: float = 50.0

    def __post_init__(self):
        if self.tol_newton <= 0.0:
            raise ValueError("tol_newton must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be >= 1")
        # tau >= cosh(u) >= 1, so a cap at or below 1 rejects every state
        if self.c_tau <= 1.0:
            raise ValueError("c_tau must exceed 1")
        if self.c_a <= 0.0:
            raise ValueError("c_a must be positive")
        if not 0.0 < self.dt_min <= self.dt_init <= self.dt_max <= 1.0:
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max <= 1")
        if self.k < 1:
            raise ValueError("curvature order k must be >= 1")
        if self.p < 1.0:
            raise ValueError("reference power p must be >= 1")


@dataclass
class NewtonResult:
    u: np.ndarray
    iterations: int
    residual_norm: float
    history: list
    geometry: object        # induced geometry of u
    psi: object             # the prescription's PsiEval at u


@dataclass
class StepRecord:
    t: float
    iters: int
    residual: float
    min_u: float
    max_u: float
    max_tau: float
    max_abs_A: float
    level: int = 0          # index of the step's grid in HomotopyState.levels


@dataclass
class LevelRecord:
    """One grid of a run: the homotopy on the coarsest grid, or Newton at
    t_final from the prolonged solution of the level below."""

    resolution: str         # "n" on S^1, "n_latxn_lon" on S^2
    steps: int              # accepted states on this grid
    newton_iters: int
    residual: float
    min_u: float
    max_u: float
    mean_u: float           # area-weighted


@dataclass
class HomotopyState:
    """Solution and full trace of a continuation run."""

    u: np.ndarray
    t: float
    residual_norm: float
    monitor: object
    step_history: list = field(default_factory=list)
    levels: list = field(default_factory=list)      # LevelRecord, coarsest first
    fallback: str = None    # why the nested iteration was abandoned, if it was


def initial_constant(p):
    """The unique lam in (0, 1) with lam * cosh^p(lam) = 1, by bisection.

    Existence bracket: x cosh^p(x) vanishes at 0 and exceeds 1 at x = 1;
    the function is strictly increasing, so the root is unique.
    """
    if p < 1.0:
        raise ValueError("reference power p must be >= 1")

    def phi(x):
        return x * np.cosh(x) ** p - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if phi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    if abs(phi(lam)) > 1e-14:
        raise InternalConsistencyError(
            f"bisection for the start radius stalled at residual {phi(lam):.3e}")
    return lam


def zeroth_coefficient_at_start(p):
    """Zeroth-order coefficient c of the linearization at the t = 0 start.

    Evaluates the closed form at u = initial_constant(p); the start
    identity u cosh^{p-2}(u) = cosh^{-2}(u) makes both surviving terms
    negative, and c < 0 is what makes the start linearization
    invertible.  A non-negative value is a fatal configuration error.
    """
    u = initial_constant(p)
    ch, sh, th = np.cosh(u), np.sinh(u), np.tanh(u)
    c = (ch ** -2.0 - ch ** p * th - u * ch ** (p - 2.0)
         - p * ch ** (p - 1.0) * u * th * sh)
    if c >= 0.0:
        raise InternalConsistencyError(
            f"start linearization coefficient c = {c:.6g} is not negative")
    return float(c)


def curvature_derivative_matrix(geom, k):
    """Newton tensor F = df/dA per node, in closed form: g^-1/n for k = 1
    and (S1 g^-1 - g^-1 A g^-1)/(2f) for k = 2 (where n = 2).  It is the
    second-order coefficient of the linearized operator up to the positive
    factor tau/cosh(u), and positive definite on Gamma_k.  It reads S1 and
    f = sqrt(S2) from geom.sums and makes no cone test of its own: the
    caller passes a geometry inside Gamma_k."""
    g_inv = geom.g_inv
    if k == 1:
        return g_inv / geom.grid.dim
    s1 = geom.sums[..., 0, None, None]
    f = np.sqrt(geom.sums[..., 1, None, None])
    return (s1 * g_inv - g_inv @ geom.A @ g_inv) / (2.0 * f)


def _contract(X, Y):
    """X:Y = X_ij Y_ij per node."""
    return np.einsum("...ij,...ij->...", X, Y)


def _smallest_eigenvalue(F):
    """Smallest eigenvalue over all nodes of the symmetric part of the
    1x1 or 2x2 blocks F, in closed form: the least value of zeta.F.zeta
    over unit covectors zeta."""
    if F.shape[-1] == 1:
        return float(F.min())
    half_trace = 0.5 * (F[..., 0, 0] + F[..., 1, 1])
    half_gap = 0.5 * (F[..., 0, 0] - F[..., 1, 1])
    off = 0.5 * (F[..., 0, 1] + F[..., 1, 0])
    return float(np.min(half_trace - np.hypot(half_gap, off)))


def ellipticity_margin(geom, k):
    """Smallest eigenvalue of F = df/dA over the nodes; raises
    AdmissibilityError outside Gamma_k."""
    root_of_sums(geom.sums, k, geom.grid.dim)
    return _smallest_eigenvalue(curvature_derivative_matrix(geom, k))


class ContinuationSolver:
    """Driver for Newton solves and homotopy continuation on one grid,
    whose run() also solves on the grid's coarsenings.

    Immutable problem data (grid, target prescription, config) are bound
    at construction; per-call state lives on the stack, so instances can
    be shared by concurrent read-only callers.
    """

    def __init__(self, grid, target, config=None, barriers=None):
        self.grid = grid
        self.config = config or SolverConfig()
        if self.config.k > grid.dim:
            raise ValueError(
                f"curvature order k={self.config.k} needs k <= n={grid.dim}")
        self.target = target
        self.homotopy = HomotopyPrescription(target, self.config.p)
        self.barriers = barriers
        self.coords = grid.coords()
        # fail fast if the start linearization is unusable
        self.start_radius = initial_constant(self.config.p)
        zeroth_coefficient_at_start(self.config.p)

    # -- residual -------------------------------------------------------

    def _geometry(self, u):
        u = self.grid.check_field(u)
        if np.any(u <= 0.0):
            raise AdmissibilityError(
                np.flatnonzero((u <= 0.0).ravel()).tolist(),
                "graph value must stay positive")
        return induced_geometry_unchecked(u, self.grid)

    def residual_with_geometry(self, u, t):
        """Phi(u, t) with the two evaluations it rests on, which the
        Jacobian at (u, t) reuses: ``(residual, geometry, psi)``, psi
        being the prescription's PsiEval."""
        geom = self._geometry(u)
        f = root_of_sums(geom.sums, self.config.k, self.grid.dim)
        psi = self.homotopy.evaluate(t, geom.u, self.coords, geom.tau)
        return f - psi.psi, geom, psi

    def residual(self, u, t):
        """Node-wise Phi(u, t); raises SpacelikeError / AdmissibilityError
        with node ids on infeasible input (consumed by the line search)."""
        return self.residual_with_geometry(u, t)[0]

    # -- sparse Jacobian --------------------------------------------------

    def jacobian(self, u, t, geom=None, psi=None):
        """Exact Jacobian of the discrete residual at (u, t), as CSR on the
        grid's fixed stencil pattern; ``geom`` and ``psi`` are the induced
        geometry and PsiEval that residual_with_geometry returned at
        (u, t), when the caller has them; otherwise that call, with its
        cone test, evaluates both here.

        Phi at a node depends on u only through u, p = D_i u and
        H = D_ij u at that node, so J = diag(a_u) + sum_i diag(a_p_i) D_i
        + sum_{i<=j} diag(a_H_ij) D_ij with the grid's difference
        operators D and chain-rule coefficients in closed form.  With
        c = cosh u, s = sinh u, q = sigma^-1 p, m = c^2 - p.q,
        tau = c^2/sqrt(m) and K = H - Gamma^k p_k - 2 tanh(u) p p^T
        + s c sigma (so A = tau/c K), F = df/dA and G = df/dg = -F A g^-1
        (f depends on A and g only through g^-1 A):

            a_H = tau/c F
            a_p = c/m^1.5 (F:K) q - tau/c (F:Gamma + 4 tanh(u) F p)
                  - 2 G p - psi_tau c^2/m^1.5 q
            a_u = (s/sqrt(m) - c^2 s/m^1.5) (F:K) - psi_r
                  + tau/c F:(-2 sech^2(u) p p^T + (c^2 + s^2) sigma)
                  + 2 c s G:sigma - psi_tau (2 c s/sqrt(m) - c^3 s/m^1.5)

        Also runs the ellipticity diagnostic: F must be positive definite
        at every admissible node, otherwise the geometry pipeline is
        broken and an InternalConsistencyError is raised.
        """
        grid = self.grid
        if geom is None or psi is None:
            _, geom, psi = self.residual_with_geometry(u, t)
        F = curvature_derivative_matrix(geom, self.config.k)
        margin = _smallest_eigenvalue(F)
        if margin <= 0.0:
            raise InternalConsistencyError(
                f"non-elliptic second-order block (margin {margin:.3e}) "
                "at an admissible node")
        p, sigma = geom.du, grid.sigma
        c, s, th = np.cosh(geom.u), np.sinh(geom.u), np.tanh(geom.u)
        q = np.einsum("...ij,...j->...i", grid.sigma_inv, p)
        m = c ** 2 - geom.grad_norm2
        rm, m32 = np.sqrt(m), m ** 1.5
        ratio = c / rm                                   # tau / c
        FK = _contract(F, geom.A) / ratio
        F_gamma = np.einsum("...ij,...kij->...k", F, grid.christoffel)
        Fp = np.einsum("...ij,...j->...i", F, p)
        G = -F @ geom.A @ geom.g_inv
        Gp = np.einsum("...ij,...j->...i", G, p)
        dK = ((-2.0 / c ** 2)[..., None, None] * p[..., :, None] * p[..., None, :]
              + (c ** 2 + s ** 2)[..., None, None] * sigma)
        a_p = ((c * FK - psi.psi_tau * c ** 2)[..., None] / m32[..., None] * q
               - ratio[..., None] * (F_gamma + 4.0 * th[..., None] * Fp)
               - 2.0 * Gp)
        a_u = ((s / rm - c ** 2 * s / m32) * FK
               + ratio * _contract(F, dK)
               + 2.0 * c * s * _contract(G, sigma)
               - psi.psi_r
               - psi.psi_tau * (2.0 * c * s / rm - c ** 3 * s / m32))
        a_H = ratio[..., None, None] * F
        _, hessians = grid.difference_operators()
        coefs = [a_u, *np.moveaxis(a_p, -1, 0)] + [
            a_H[..., i, j] if i == j else a_H[..., i, j] + a_H[..., j, i]
            for i, j in hessians]
        return grid.stencil_pattern().assemble(coefs)

    def directional_derivative_check(self, u, t, geom=None, psi=None):
        """Compare the assembled Jacobian against a central difference of
        the residual, step JACOBIAN_CHECK_EPS, along the fixed smooth field
        1 + cos(xi_1)/2; ``geom`` and ``psi`` are passed on to jacobian().

        The error is measured row-relative (against sum_q |J_mq v_q|
        per row, floored by the global scale): rows touching the pole
        rings legitimately carry stencil weights hundreds of times the
        interior scale, and a single global normalization would only
        measure those rows.  Returns the worst relative error; raises
        InternalConsistencyError beyond JACOBIAN_CHECK_TOL.
        """
        u = self.grid.check_field(u)
        v = 1.0 + 0.5 * np.cos(self.coords[0]) * np.ones(self.grid.shape)
        eps = JACOBIAN_CHECK_EPS
        jac = self.jacobian(u, t, geom, psi)
        vflat = v.ravel()
        jv = jac.dot(vflat)
        fd = (self.residual(u + eps * v, t) - self.residual(u - eps * v, t)).ravel()
        fd /= 2.0 * eps
        row_scale = np.abs(jac).dot(np.abs(vflat))
        row_scale = np.maximum(row_scale, max(np.max(np.abs(jv)), 1e-30))
        err = float(np.max(np.abs(jv - fd) / row_scale))
        if err > JACOBIAN_CHECK_TOL:
            raise InternalConsistencyError(
                f"Jacobian directional check failed: relative error {err:.3e}")
        return err

    # -- Newton ----------------------------------------------------------

    def newton_solve(self, u0, t):
        """Damped Newton with backtracking from u0 at fixed t.

        A trial step is accepted only if it is spacelike, node-wise
        admissible, and reduces the residual sup-norm.  Raises
        NewtonError (carrying the best iterate) when the iteration cap
        or the minimal damping is hit.
        """
        cfg = self.config
        u = self.grid.check_field(u0).copy()
        try:
            res, geom, psi = self.residual_with_geometry(u, t)
        except (SpacelikeError, AdmissibilityError) as exc:
            raise NewtonError(f"initial iterate infeasible: {exc}") from exc
        rnorm = float(np.max(np.abs(res)))
        history = [rnorm]
        pattern = self.grid.stencil_pattern()
        for iteration in range(1, cfg.max_newton + 1):
            if rnorm <= cfg.tol_newton:
                return NewtonResult(u, iteration - 1, rnorm, history, geom,
                                    psi)
            jac = pattern.ordered(self.jacobian(u, t, geom, psi))
            delta = np.empty(self.grid.node_count)
            delta[pattern.order] = spla.splu(jac, permc_spec="NATURAL").solve(
                -res.ravel()[pattern.order])
            delta = delta.reshape(self.grid.shape)
            alpha = 1.0
            while True:
                trial = u + alpha * delta
                try:
                    trial_res, trial_geom, trial_psi = self.residual_with_geometry(
                        trial, t)
                    trial_norm = float(np.max(np.abs(trial_res)))
                except (SpacelikeError, AdmissibilityError):
                    trial_norm = None
                if trial_norm is not None and trial_norm < rnorm:
                    break
                alpha *= BACKTRACK_FACTOR
                if alpha < BACKTRACK_MIN:
                    raise NewtonError("line search stalled below minimal step",
                                      best_u=u, residual_norm=rnorm,
                                      iterations=iteration - 1)
            u, res, geom, psi, rnorm = (trial, trial_res, trial_geom,
                                        trial_psi, trial_norm)
            history.append(rnorm)
        if rnorm <= cfg.tol_newton:
            return NewtonResult(u, cfg.max_newton, rnorm, history, geom, psi)
        raise NewtonError(f"no convergence in {cfg.max_newton} iterations",
                          best_u=u, residual_norm=rnorm,
                          iterations=cfg.max_newton)

    # -- homotopy ---------------------------------------------------------

    def run(self, t_final=1.0):
        """Solve at t_final by nested iteration over the grid chain.

        The homotopy runs on the coarsest grid of grid.coarsened() only.
        Each finer grid, up to this one, is one more level: Newton at
        t_final from the prolonged solution of the level below, then the
        bound monitors and the Jacobian directional check on its result.
        If the coarse homotopy or a level fails (a NewtonError, a
        ContinuationError or a failed monitor), the run falls back to the
        homotopy on this grid and names the cause in ``fallback``.  With
        t_final = 0, where the start is exact on every grid, or with no
        coarser grid, the homotopy runs on this grid directly.  Raises
        ValueError for t_final outside [0, 1] before any work.
        """
        if not 0.0 <= t_final <= 1.0:
            raise ValueError(f"t_final = {t_final} must lie in [0, 1]")
        if self.barriers is None:
            raise ValueError("barriers must be set before running the homotopy")
        coarser = self.grid.coarsened()
        if t_final == 0.0 or not coarser:
            return self._homotopy(t_final)
        # coarsest first; a level's grid, with its cached operators, is
        # released once the next level has its start
        level, solver = 0, ContinuationSolver(coarser.pop(), self.target,
                                              self.config, self.barriers)
        try:
            state = solver._homotopy(t_final)
            while solver is not self:
                level += 1
                start = solver.grid.prolong(state.u)
                solver = self if not coarser else ContinuationSolver(
                    coarser.pop(), self.target, self.config, self.barriers)
                result, monitor, record = solver._attempt(start, t_final, level)
                if not monitor.all_ok:
                    raise ContinuationError("bound monitors failed: "
                                            + _monitor_failures(monitor))
                u = result.u
                solver.directional_derivative_check(
                    u, t_final, geom=result.geometry, psi=result.psi)
                state = HomotopyState(
                    u, t_final, record.residual, monitor,
                    state.step_history + [record],
                    state.levels + [_level_record(solver.grid, [record], u)])
            return state
        except (NewtonError, ContinuationError) as exc:
            cause = f"level {level} ({_resolution(solver.grid)}) failed: {exc}"
        state = self._homotopy(t_final)
        state.fallback = cause
        return state

    def _attempt(self, u_start, t, level=0):
        """Newton from u_start at fixed t, then the bound monitors on its
        result: ``(newton_result, monitor, record)``."""
        cfg = self.config
        result = self.newton_solve(u_start, t)
        u, geom = result.u, result.geometry
        monitor = check_bounds(geom, u, self.barriers, cfg.c_tau, cfg.c_a, cfg.k)
        record = StepRecord(
            t=t, iters=result.iterations, residual=result.residual_norm,
            min_u=float(u.min()), max_u=float(u.max()),
            max_tau=float(geom.tau.max()), max_abs_A=float(geom.abs_A.max()),
            level=level)
        return result, monitor, record

    def _homotopy(self, t_final):
        """Follow the homotopy on this grid from the exact start at t = 0
        to t_final.

        Steps adapt: halve on Newton or monitor failure (down to dt_min,
        then ContinuationError carrying the trace and naming the cause
        of the last rejected step), grow on fast convergence up to
        dt_max.  Every accepted state satisfies the residual tolerance
        and all bound monitors.
        """
        cfg = self.config
        history = []
        accepted = 0

        def attempt(u_start, t):
            nonlocal accepted
            result, monitor, record = self._attempt(u_start, t)
            accepted += 1
            if accepted == 1 or accepted % JACOBIAN_CHECK_INTERVAL == 0:
                self.directional_derivative_check(
                    result.u, t, geom=result.geometry, psi=result.psi)
            return result.u, monitor, record

        def state(u, t, monitor, history):
            return HomotopyState(u, t, history[-1].residual, monitor, history)

        u, monitor, record = attempt(np.full(self.grid.shape, self.start_radius),
                                     0.0)
        if not monitor.all_ok:
            raise ContinuationError(
                "bound monitors failed at the homotopy start: "
                + _monitor_failures(monitor),
                state=state(u, 0.0, monitor, [record]))
        history.append(record)
        t = 0.0

        dt = cfg.dt_init
        while t < t_final:
            t_next = t + dt
            # a remainder shorter than dt_min joins this step, so the run
            # ends exactly at t_final despite rounding in the sum
            if t_final - t_next < cfg.dt_min:
                t_next = t_final
            try:
                trial_u, trial_monitor, record = attempt(u, t_next)
            except NewtonError as exc:
                cause = f"Newton failed: {exc}"
                if exc.residual_norm is not None:
                    cause += f" (residual {exc.residual_norm:.3e})"
            else:
                cause = (None if trial_monitor.all_ok else "bound monitors "
                         "failed: " + _monitor_failures(trial_monitor))
            if cause is not None:
                dt *= 0.5
                if dt < cfg.dt_min:
                    raise ContinuationError(
                        f"stalled at t = {t:.6f}: step size fell below "
                        f"dt_min = {cfg.dt_min}; the last step, to "
                        f"t = {t_next:.6f}, was rejected: {cause}",
                        state=state(u, t, monitor, history))
                continue
            u, t, monitor = trial_u, t_next, trial_monitor
            history.append(record)
            if record.iters <= FAST_ITERS:
                dt = min(dt * GROW_FACTOR, cfg.dt_max)
        result = state(u, t, monitor, history)
        result.levels.append(_level_record(self.grid, history, u))
        return result


def _level_record(grid, records, u):
    """LevelRecord of the accepted records on one grid, ending at u."""
    return LevelRecord(
        resolution=_resolution(grid), steps=len(records),
        newton_iters=sum(rec.iters for rec in records),
        residual=records[-1].residual, min_u=float(u.min()),
        max_u=float(u.max()), mean_u=grid.mean(u))


def _resolution(grid):
    return "x".join(map(str, grid.shape))


def _monitor_failures(monitor):
    """The failed monitor flags, each with its first five node ids."""
    return "; ".join(
        f"{flag} at {len(nodes)} node(s) {nodes[:5]}"
        for flag, nodes in monitor.node_violations.items() if nodes)


def combined_barriers(target, p, box):
    """Barrier radii valid along the whole deformation: the scans of the
    target and of the reference prescription on the AuditBox box,
    combined by min/max."""
    scan_t = scan_barriers(target, box)
    scan_r = scan_barriers(ReferencePrescription(p), box)
    if not (scan_t.found and scan_r.found):
        return None, (scan_t, scan_r)
    return (min(scan_t.R1, scan_r.R1), max(scan_t.R2, scan_r.R2)), (scan_t, scan_r)


def run_homotopy(target, grid, config=None, barriers=None, t_final=1.0):
    """One-call continuation: unless barriers are given, find them with
    combined_barriers on AuditBox(dim=grid.dim), the scan the CLI makes
    with default audit keys; then solve at t_final with
    ContinuationSolver.run.  The caller is responsible for auditing the
    target's structural conditions beforehand."""
    config = config or SolverConfig()
    if barriers is None:
        barriers, _ = combined_barriers(target, config.p,
                                        AuditBox(dim=grid.dim))
        if barriers is None:
            raise ValueError("no barrier radii found on the scan range; "
                             "run scan_barriers for the sign pattern")
    solver = ContinuationSolver(grid, target, config, barriers=barriers)
    return solver.run(t_final=t_final)
