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
times the grid's centered stencils gives the matrix.  The grid builds
the stencils' pattern, each node's 3x3 neighbourhood with the antipodal
pole closure, once (SphereGrid.stencil_pattern); every Jacobian is that
pattern's table of the coefficients times the stencil weights
(StencilMatrix), which applies itself to a vector through slices of one
ghost-padded copy of it, with no index arrays.
Each Newton step solves with the pattern's factor (StencilPattern.solve),
on S^1 a cyclic Thomas factor and on S^2 a Fourier-in-theta tridiagonal
factor of the Jacobian's ring average, exact at a zonal state.  Defect
correction against the exact Jacobian, each correction a few GMRES steps
preconditioned by that factor, ends at a row-wise backward error of 16 eps.

Each Newton trial step must be spacelike, node-wise admissible, and
reduce the residual sup-norm, otherwise the step is backtracked.  The
residual hands its geometry and prescription values to the Jacobian at
the same iterate, so each Newton iterate evaluates them once.

One rule accepts every state of a run, the homotopy's start, each of
its steps and each finer level alike (ContinuationSolver._accept):
Newton converges at fixed t, the result passes the a priori bound
monitors, and on the states the cadence picks the Jacobian passes its
directional check.  The homotopy only globalizes Newton; its path does
not change the solution at t = 1.  So its first step tries t = 1 at
once, and each step t > 0 runs Newton on a budget (STEP_NEWTON_CAP
iterations, damping no further than STEP_BACKTRACK_MIN): a step too
long for Newton fails fast and is rejected, which halves the step size.
The start at t = 0 and the finer levels take the full budget,
max_newton iterations and BACKTRACK_MIN.

A solve is a nested iteration over the grid's refinement chain
(SphereGrid.coarsened), down to the smallest valid grid: the homotopy
runs on the coarsest grid only, and each finer grid accepts one state
at t = 1 from the prolonged solution of the grid below
(SphereGrid.prolong).  Every Newton iteration factors the Jacobian at
its iterate: a factor costs less than one residual evaluation, so
reusing one saves nothing.  A failed level, the coarse homotopy included,
fails the solve with a ContinuationError that names the level and
carries the trace accepted before it, none when the homotopy's start
fails.  Everything on the solve path is deterministic: same config,
grid, and prescription reproduce bit-identical traces.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (AdmissibilityError, ContinuationError,
                     InternalConsistencyError, NewtonError, SpacelikeError)
from .geometry import _double_dot, _matrix, _times, induced_geometry_unchecked
from .monitor import check_bounds
from .prescription import (AuditBox, HomotopyPrescription,
                           ReferencePrescription, _check_numbers,
                           scan_barriers)
from .symmetric import root_of_sums

# _accept runs the Jacobian check on every finer level's state and on the
# homotopy's first accepted state, its exact start, and then on every
# JACOBIAN_CHECK_INTERVAL-th; a rejected state is not counted.
JACOBIAN_CHECK_INTERVAL = 10

# A homotopy step accepted in at most FAST_ITERS Newton iterations grows
# the next step by GROW_FACTOR, up to dt_max.
FAST_ITERS = 4
GROW_FACTOR = 1.5

# The line search halves a rejected Newton step down to BACKTRACK_MIN.
BACKTRACK_FACTOR = 0.5
BACKTRACK_MIN = 1e-4

# Newton budget of a homotopy step (t > 0 on the coarsest grid): at most
# STEP_NEWTON_CAP iterations (and no more than max_newton), each damped
# no further than STEP_BACKTRACK_MIN; over budget, the step is rejected.
STEP_NEWTON_CAP = 6
STEP_BACKTRACK_MIN = 0.5

# cosh(u)**2 overflows above U_MAX = arccosh(sqrt(finfo.max)), about 355.58.
U_MAX = float(np.arccosh(np.sqrt(np.finfo(float).max)))

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
    dt_init: float = 1.0
    dt_min: float = 1e-3
    dt_max: float = 1.0
    c_tau: float = 50.0
    c_a: float = 50.0

    def __post_init__(self):
        _check_numbers(self)
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
    """One grid of a run: the homotopy on the coarsest grid, or the one
    state accepted at t = 1 from the prolonged solution of the level
    below."""

    resolution: str         # "n" on S^1, "n_latxn_lon" on S^2
    steps: int              # accepted states on this grid
    newton_iters: int
    residual: float
    min_u: float
    max_u: float
    mean_u: float           # area-weighted
    # the homotopy's rejected attempts, {"t": attempted t, "cause": why};
    # [] on finer levels
    rejected: list = field(default_factory=list)


@dataclass
class HomotopyState:
    """Solution and full trace of a continuation run; t and
    residual_norm are those of the last record in step_history."""

    u: np.ndarray
    monitor: object
    step_history: list = field(default_factory=list)
    levels: list = field(default_factory=list)      # LevelRecord, coarsest first

    t = property(lambda self: self.step_history[-1].t)
    residual_norm = property(lambda self: self.step_history[-1].residual)


def initial_constant(p):
    """The unique lam in (0, 1) with lam * cosh^p(lam) = 1, by bisection.

    Existence bracket: x cosh^p(x) vanishes at 0 and exceeds 1 at x = 1;
    the function is strictly increasing, so the root is unique.
    """
    if not p >= 1.0:
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
    if not abs(phi(lam)) <= 1e-14:
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
    if not c < 0.0:
        raise InternalConsistencyError(
            f"start linearization coefficient c = {c:.6g} is not negative")
    return float(c)


def curvature_derivative_matrix(geom, k):
    """Newton tensor F = df/dA per node, (n, n, ...), in closed form:
    g^-1/n for k = 1 and, for k = 2 (where n = 2), cof(A)/(2 f det g),
    which is (S1 g^-1 - g^-1 A g^-1)/(2f) by Cayley-Hamilton.  It is the
    second-order coefficient of the linearized operator up to the positive
    factor tau/cosh(u), symmetric, and positive definite on Gamma_k.  It
    reads f = sqrt(S2) from geom.sums and makes no cone test of its own:
    the caller passes a geometry inside Gamma_k."""
    if k == 1:
        return _matrix([x / geom.grid.dim for x in geom.g_inv_comp])
    (a00, a01, a11), (g00, g01, g11) = geom.A_comp, geom.g_comp
    scale = 2.0 * np.sqrt(geom.sums[..., 1]) * (g00 * g11 - g01 ** 2)
    return _matrix([a11 / scale, -a01 / scale, a00 / scale])


def _smallest_eigenvalue(F):
    """Smallest eigenvalue over all nodes of the symmetric 1x1 or 2x2
    blocks F, in closed form: the least value of zeta.F.zeta over unit
    covectors zeta."""
    if len(F) == 1:
        return float(F.min())
    half_trace = 0.5 * (F[0, 0] + F[1, 1])
    half_gap = 0.5 * (F[0, 0] - F[1, 1])
    return float(np.min(half_trace - np.hypot(half_gap, F[0, 1])))


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
        if np.any(u >= U_MAX):
            raise AdmissibilityError(
                np.flatnonzero((u >= U_MAX).ravel()).tolist(),
                f"graph value must stay below {U_MAX:.2f}")
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

    # -- stencil Jacobian -------------------------------------------------

    def jacobian(self, u, t, geom=None, psi=None):
        """Exact Jacobian of the discrete residual at (u, t), as the
        StencilMatrix of the grid's fixed stencil pattern; ``geom`` and
        ``psi`` are the induced geometry and PsiEval that
        residual_with_geometry returned at (u, t), when the caller has
        them; otherwise that call, with its cone test, evaluates both here.

        Phi at a node depends on u only through u, p = D_i u and
        H = D_ij u at that node, so J = diag(a_u) + sum_i diag(a_p_i) D_i
        + sum_ij diag(a_H_ij) D_ij with the grid's centered stencils D
        (StencilPattern.assemble) and chain-rule coefficients in closed
        form.  With c = cosh u, s = sinh u, q = sigma^-1 p, m = c^2 - p.q,
        tau = c^2/sqrt(m), K = H - Gamma^k p_k - 2 tanh(u) p p^T + s c sigma
        (so A = tau/c K), its u-derivative dK = (1 + tanh^2 u) g
        + (2 - 3 sech^2 u) p p^T, F = df/dA (curvature_derivative_matrix)
        and w = F A q:

            a_H = tau/c F
            a_p = ((F:A - psi_tau tau) q + 2 w)/m
                  - tau/c (F:Gamma + 4 tanh(u) F p)
            a_u = (tanh(u) - c s/m) F:A - psi_r + tau/c F:dK
                  - 2 tanh(u) (F:A + p.w/m) - psi_tau s (2 tau/c - c tau/m)

        The w terms are those of G = df/dg = -F A g^-1 (f depends on A and
        g only through g^-1 A): G p = -w/m and G:sigma = -(F:A + p.w/m)/c^2,
        as g^-1 p = q/m and g^-1 sigma = (I + q p^T/m)/c^2; for k = 2,
        F A = (f/2) I and G = -(f/2) g^-1.  Each contraction is a sum of
        components, and Gamma^0_11 and Gamma^1_01 are the round metric's
        non-zero symbols.

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
        c, s, m, tau, p, q = (geom.cosh_u, geom.eta, geom.margin, geom.tau,
                              geom.du, geom.q)
        ratio, th, gamma = tau / c, s / c, grid.christoffel
        if grid.dim == 1:
            Fc, F_gamma = (F[0, 0],), [0.0]
        else:
            Fc = (F[0, 0], F[0, 1], F[1, 1])
            F_gamma = [F[1, 1] * gamma[0, 1, 1], 2.0 * F[0, 1] * gamma[1, 0, 1]]
        FA, Fp = _double_dot(Fc, geom.A_comp), _times(Fc, p)
        w = _times(Fc, _times(geom.A_comp, q))
        F_dK = ((1.0 + th ** 2) * _double_dot(Fc, geom.g_comp)
                + (2.0 - 3.0 / c ** 2) * sum(pi * Fpi for pi, Fpi in zip(p, Fp)))
        a_p = [((FA - psi.psi_tau * tau) * qi + 2.0 * wi) / m
               - ratio * (F_gamma_i + 4.0 * th * Fpi)
               for qi, wi, F_gamma_i, Fpi in zip(q, w, F_gamma, Fp)]
        a_u = ((th - c * s / m) * FA - psi.psi_r + ratio * F_dK
               - 2.0 * th * (FA + sum(pi * wi for pi, wi in zip(p, w)) / m)
               - psi.psi_tau * s * (2.0 * ratio - c * tau / m))
        a_H = ratio * F
        return grid.stencil_pattern().assemble(a_u, a_p, a_H)

    def directional_derivative_check(self, u, t, geom=None, psi=None):
        """Compare the assembled Jacobian against a central difference of
        the residual, step JACOBIAN_CHECK_EPS, along the fixed smooth field
        1 + cos(xi_1)/2, plus 0.3 sin(phi) cos(theta) on S^2 so that the
        theta columns (D_theta, D_thth, D_phith) enter too; ``geom`` and
        ``psi`` are passed on to jacobian().

        The error is measured row-relative (against sum_q |J_mq v_q|
        per row, floored by the global scale): rows touching the pole
        rings legitimately carry stencil weights hundreds of times the
        interior scale, and a single global normalization would only
        measure those rows.  Returns the worst relative error; raises
        InternalConsistencyError beyond JACOBIAN_CHECK_TOL.
        """
        u = self.grid.check_field(u)
        v = 1.0 + 0.5 * np.cos(self.coords[0]) * np.ones(self.grid.shape)
        if self.grid.dim == 2:
            phi, theta = self.coords
            v = v + 0.3 * np.sin(phi) * np.cos(theta)
        eps = JACOBIAN_CHECK_EPS
        jac = self.jacobian(u, t, geom, psi)
        vflat = v.ravel()
        jv = jac.dot(vflat)
        fd = (self.residual(u + eps * v, t) - self.residual(u - eps * v, t)).ravel()
        fd /= 2.0 * eps
        row_scale = abs(jac) @ np.abs(vflat)
        row_scale = np.maximum(row_scale, max(np.max(np.abs(jv)), 1e-30))
        err = float(np.max(np.abs(jv - fd) / row_scale))
        if err > JACOBIAN_CHECK_TOL:
            raise InternalConsistencyError(
                f"Jacobian directional check failed: relative error {err:.3e}")
        return err

    # -- Newton ----------------------------------------------------------

    def newton_solve(self, u0, t, max_iters=None, min_damping=BACKTRACK_MIN):
        """Damped Newton with backtracking from u0 at fixed t, within a
        budget of max_iters iterations (default cfg.max_newton) and a
        line search that damps no further than min_damping.

        Each iteration solves with the exact Jacobian at its iterate
        (StencilPattern.solve: the cyclic Thomas factor on S^1, the
        Fourier factor on S^2, and defect correction).  A trial step is
        accepted only if it is spacelike, node-wise admissible, and
        reduces the residual sup-norm.  Raises NewtonError (carrying the
        best iterate) when the budget is spent, or when the Jacobian is
        singular: a zero pivot, a periodic system singular to working
        precision, or defect corrections that stop contracting.
        """
        cfg = self.config
        if max_iters is None:
            max_iters = cfg.max_newton
        u = self.grid.check_field(u0).copy()
        try:
            res, geom, psi = self.residual_with_geometry(u, t)
        except (SpacelikeError, AdmissibilityError) as exc:
            raise NewtonError(f"initial iterate infeasible: {exc}") from exc
        rnorm = float(np.max(np.abs(res)))
        history = [rnorm]
        pattern = self.grid.stencil_pattern()
        # iteration counts the accepted steps so far
        for iteration in range(max_iters + 1):
            if rnorm <= cfg.tol_newton:
                return NewtonResult(u, iteration, rnorm, history, geom, psi)
            if iteration == max_iters:
                break
            try:
                delta = pattern.solve(self.jacobian(u, t, geom, psi),
                                      -res.ravel()).reshape(self.grid.shape)
            except np.linalg.LinAlgError as exc:
                raise NewtonError(f"singular Jacobian at t = {t:.6f}: {exc}",
                                  best_u=u, residual_norm=rnorm,
                                  iterations=iteration) from exc
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
                if alpha < min_damping:
                    raise NewtonError("line search stalled below minimal step",
                                      best_u=u, residual_norm=rnorm,
                                      iterations=iteration)
            u, res, geom, psi, rnorm = (trial, trial_res, trial_geom,
                                        trial_psi, trial_norm)
            history.append(rnorm)
        raise NewtonError(f"no convergence in {max_iters} iterations",
                          best_u=u, residual_norm=rnorm,
                          iterations=max_iters)

    # -- homotopy ---------------------------------------------------------

    def run(self):
        """Solve at t = 1 by nested iteration over the grid chain.

        Level 0 is the homotopy on the coarsest grid of grid.coarsened(),
        or on this grid when it has no coarsening.  Each finer grid, up to
        this one, is one more level: one state accepted at t = 1 from the
        prolonged solution of the level below (_accept).
        A failed level (a NewtonError or a ContinuationError) raises
        ContinuationError("level L (RES) failed: cause"), whose state is
        the trace accepted before the failure: the coarse homotopy's
        partial trace (None when its start fails), or its trace and every
        finished level.
        """
        if self.barriers is None:
            raise ValueError("barriers must be set before running the homotopy")
        R1, R2 = self.barriers
        if not 0.0 < R1 < R2 < np.inf:
            raise ValueError(f"barriers (R1, R2) = {self.barriers!r} must be "
                             "finite with 0 < R1 < R2")
        # coarsest first; every level's grid, with its cached stencil
        # pattern, stays alive until the run returns
        chain = self.grid.coarsened()[::-1] + [self.grid]
        state = None
        for level, grid in enumerate(chain):
            solver = self if grid is self.grid else ContinuationSolver(
                grid, self.target, self.config, self.barriers)
            try:
                if level == 0:
                    state = solver._homotopy()
                    continue
                u, monitor, record = solver._accept(
                    chain[level - 1].prolong(state.u), 1.0, level)
            except (NewtonError, ContinuationError) as exc:
                raise ContinuationError(
                    f"level {level} ({_resolution(grid)}) failed: {exc}",
                    state=getattr(exc, "state", None) if level == 0 else state,
                ) from exc
            state = HomotopyState(
                u, monitor, state.step_history + [record],
                state.levels + [_level_record(grid, [record], u)])
        return state

    def _accept(self, u_start, t, level=0, check=True, max_iters=None,
                min_damping=BACKTRACK_MIN):
        """One accepted state at fixed t: Newton from u_start within the
        budget max_iters, min_damping (newton_solve), then the bound
        monitors on its result, then, when check is set, the Jacobian
        directional check: ``(u, monitor, record)``.  Raises NewtonError,
        or ContinuationError naming the failed monitor flags ("at the
        homotopy start" for the t = 0 state)."""
        cfg = self.config
        result = self.newton_solve(u_start, t, max_iters, min_damping)
        monitor = check_bounds(result.geometry, self.barriers, cfg.c_tau,
                               cfg.c_a, cfg.k)
        if not monitor.all_ok:
            where = " at the homotopy start" if t == 0.0 else ""
            raise ContinuationError(f"bound monitors failed{where}: "
                                    + _monitor_failures(monitor))
        if check:
            self.directional_derivative_check(
                result.u, t, geom=result.geometry, psi=result.psi)
        record = StepRecord(
            t=t, iters=result.iterations, residual=result.residual_norm,
            min_u=monitor.min_u, max_u=monitor.max_u, max_tau=monitor.max_tau,
            max_abs_A=monitor.max_abs_A, level=level)
        return result.u, monitor, record

    def _homotopy(self):
        """Follow the homotopy on this grid from the exact start at t = 0
        to t = 1, accepting each state with _accept.

        The start takes Newton's full budget; each step t > 0 takes the
        step budget, STEP_NEWTON_CAP iterations and STEP_BACKTRACK_MIN
        damping, so that a step too long for Newton fails fast.  The
        first step tries t = 1 at once (dt_init = 1 by default).  A
        rejected step halves dt (below dt_min the homotopy raises
        ContinuationError carrying the trace and naming the cause of the
        last rejected step), and a step accepted in at most FAST_ITERS
        iterations grows it up to dt_max.  Every rejected attempt is
        kept in the level record as ``{"t", "cause"}``.  A failed start
        is raised as it is, with no trace.
        """
        cfg = self.config
        u, monitor, record = self._accept(
            np.full(self.grid.shape, self.start_radius), 0.0)
        history, rejected, t, dt = [record], [], 0.0, cfg.dt_init
        budget = min(cfg.max_newton, STEP_NEWTON_CAP)
        while t < 1.0:
            t_next = t + dt
            # a remainder shorter than dt_min joins this step, so the run
            # ends exactly at t = 1 despite rounding in the sum
            if 1.0 - t_next < cfg.dt_min:
                t_next = 1.0
            check = (len(history) + 1) % JACOBIAN_CHECK_INTERVAL == 0
            try:
                trial, trial_monitor, record = self._accept(
                    u, t_next, check=check, max_iters=budget,
                    min_damping=STEP_BACKTRACK_MIN)
            except (NewtonError, ContinuationError) as exc:
                rejected.append({"t": t_next, "cause": _cause(exc)})
                dt *= 0.5
                if dt < cfg.dt_min:
                    raise ContinuationError(
                        f"stalled at t = {t:.6f}: step size fell below "
                        f"dt_min = {cfg.dt_min}; the last step, to "
                        f"t = {t_next:.6f}, was rejected: {_cause(exc)}",
                        state=HomotopyState(u, monitor, history)) from exc
                continue
            u, t, monitor = trial, t_next, trial_monitor
            history.append(record)
            if record.iters <= FAST_ITERS:
                dt = min(dt * GROW_FACTOR, cfg.dt_max)
        result = HomotopyState(u, monitor, history)
        result.levels.append(_level_record(self.grid, history, u, rejected))
        return result


def _level_record(grid, records, u, rejected=()):
    """LevelRecord of the accepted records on one grid, ending at u, and
    the homotopy attempts it rejected."""
    return LevelRecord(
        resolution=_resolution(grid), steps=len(records),
        newton_iters=sum(rec.iters for rec in records),
        residual=records[-1].residual, min_u=float(u.min()),
        max_u=float(u.max()), mean_u=grid.mean(u), rejected=list(rejected))


def _resolution(grid):
    return "x".join(map(str, grid.shape))


def _cause(exc):
    """Why _accept rejected a homotopy step: the Newton failure with its
    residual, or the failed monitor flags."""
    if not isinstance(exc, NewtonError):
        return str(exc)
    cause = f"Newton failed: {exc}"
    if exc.residual_norm is not None:
        cause += f" (residual {exc.residual_norm:.3e})"
    return cause


def _monitor_failures(monitor):
    """The failed monitor flags, each with its first five node ids."""
    return "; ".join(
        f"{flag} at {len(nodes)} node(s) {nodes[:5]}"
        for flag, nodes in monitor.node_violations.items() if nodes)


def combined_barriers(scan_t, p, box):
    """Barrier radii valid along the whole deformation: scan_t, the
    target's scan_barriers result on the AuditBox box, and the reference
    prescription's scan on the same box, combined by min/max."""
    scan_r = scan_barriers(ReferencePrescription(p), box)
    if not (scan_t.found and scan_r.found):
        return None, (scan_t, scan_r)
    return (min(scan_t.R1, scan_r.R1), max(scan_t.R2, scan_r.R2)), (scan_t, scan_r)


def run_homotopy(target, grid, config=None, barriers=None):
    """One-call continuation: unless barriers are given, find them with
    combined_barriers on AuditBox(dim=grid.dim), the scan the CLI makes
    with default audit keys; then solve at t = 1 with
    ContinuationSolver.run.  The caller is responsible for auditing the
    target's structural conditions beforehand."""
    config = config or SolverConfig()
    if barriers is None:
        box = AuditBox(dim=grid.dim)
        barriers, _ = combined_barriers(scan_barriers(target, box), config.p,
                                        box)
        if barriers is None:
            raise ValueError("no barrier radii found on the scan range; "
                             "run scan_barriers for the sign pattern")
    solver = ContinuationSolver(grid, target, config, barriers=barriers)
    return solver.run()
