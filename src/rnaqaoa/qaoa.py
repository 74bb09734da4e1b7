"""Alternating-layer solver loop: warm starts, level climbing, postselection.

The solver optimizes a level-p schedule (p cost angles, p mixer angles) with
SLSQP, samples the optimized circuit, drops rare outcomes, and either stops
(one outcome dominates) or grows the schedule to level p+1 by barycentric
interpolation on Chebyshev nodes and repeats, up to p_max.  The reported
solution is the lowest-energy bitstring among the retained samples of all
visited levels.

Parameter bounds are beta in [0, pi] (the X rotation has period pi up to a
global phase) and gamma in [-2*pi, 2*pi]; interpolated schedules are clipped
back into the box before re-optimization.

Two runners compute a schedule's final state.  `run_schedule`, the loss
evaluator, works over the mixer's basis (the feasible one-hot basis under
XY) in the mixer's eigenbasis: each layer is a phase multiply per mixer
group and for the cost, joined by precomputed real basis changes, and a
stack of schedules (or of `[betas | gammas]` angle rows) runs in one call
with each row equal to its single run bit for bit.  The optimizer's losses
and the warm-up grid (`warmup_parameters`) run on it.  `reference_state`
runs the layer functions of `simulator` on the dense initial state, one
layer at a time; it is the reference semantics, and each level's sampled
state comes from it, checked against the evaluator.

`optimize` keeps the angles as arrays and hands SLSQP its own gradient:
scipy's 2-point forward differences with the absolute step `fd_step`, its
2p probes scored as one `run_schedule` stack, so each gradient equals
scipy's own one-probe-at-a-time estimate bit for bit.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib.resources import files

import numpy as np
from scipy.optimize import minimize

from .errors import ResourceLimitError
from .qubo import (
    DEGENERACY_ATOL,
    MAX_QUBITS,
    IsingModel,
    QuboModel,
    QuboParams,
    brute_force_solve,
    build_qubo,
    ising_energy,
    to_ising,
)
from .rna import Domain, StemSet, partition_domains
from .simulator import (
    STACK_BYTES,
    CostLayerSpec,
    MixerSpec,
    QuantumState,
    SampleSet,
    apply_cost_layer,
    apply_mixer,
    change_basis,
    cost_layer_ops,
    init_uniform,
    mixer_layer_ops,
    prepare_w_states,
    ring_pairs,
    sample,
    two_qubit_gate_count,
)

BETA_BOUNDS = (0.0, math.pi)
GAMMA_BOUNDS = (-2.0 * math.pi, 2.0 * math.pi)

MIXER_KINDS = ("x", "parity_xy")

#: Largest finite-difference step: half of the narrowest box, so a step
#: forward or backward from any point in the box stays in it.
FD_STEP_MAX = (BETA_BOUNDS[1] - BETA_BOUNDS[0]) / 2


@dataclass(frozen=True)
class QaoaConfig:
    p_start: int = 2
    p_max: int = 8
    shots: int = 1000
    dropoff: float = 0.10
    stop_frequency: float = 0.90
    mixer: str = "x"
    max_evaluations: int = 400
    fd_step: float = 1e-3
    seed: int = 0
    #: "exact" evaluates the optimizer objective on the exact final-state
    #: distribution; "sampled" re-samples `shots` measurements per evaluation.
    loss_mode: str = "exact"
    #: Drop-off applied inside the optimizer objective.  Postselection is a
    #: sample-processing step; baking it into the objective flattens the
    #: landscape (one retained entry makes it locally constant), so the
    #: optimizer defaults to the plain energy expectation.  The reported
    #: per-level losses always use `dropoff`.
    optimizer_dropoff: float = 0.0

    def __post_init__(self):
        if not 1 <= self.p_start <= self.p_max:
            raise ValueError("need 1 <= p_start <= p_max")
        if not 0.0 <= self.dropoff < self.stop_frequency <= 1.0:
            raise ValueError("need 0 <= dropoff < stop_frequency <= 1")
        if not 0.0 <= self.optimizer_dropoff <= 1.0:
            raise ValueError("optimizer_dropoff must be a proportion")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.mixer not in MIXER_KINDS:
            raise ValueError(f"mixer must be one of {MIXER_KINDS}")
        if self.loss_mode not in ("exact", "sampled"):
            raise ValueError("loss_mode must be 'exact' or 'sampled'")
        # a forward step must fit the narrowest box (beta's, pi wide) on one
        # side of every point, and must not round away at any angle in it
        if not math.ulp(GAMMA_BOUNDS[1]) <= self.fd_step <= FD_STEP_MAX:
            raise ValueError(
                "fd_step must lie between the float spacing at 2*pi "
                f"({math.ulp(GAMMA_BOUNDS[1]):.3g}) and pi/2, got {self.fd_step!r}"
            )


@dataclass(frozen=True)
class ParameterSchedule:
    """One (beta, gamma) angle pair per level."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        if len(self.betas) != len(self.gammas):
            raise ValueError("betas and gammas must have equal length")
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))

    @property
    def p(self) -> int:
        return len(self.betas)


# ---------------------------------------------------------------------------
# loss


def retained_entries(samples: SampleSet, dropoff: float) -> tuple[tuple[str, int], ...]:
    """Entries with frequency >= dropoff; all entries if none survive."""
    kept = tuple(e for e in samples.entries if e[1] / samples.shots >= dropoff)
    return kept if kept else samples.entries


def loss(samples: SampleSet, ising: IsingModel, dropoff: float) -> float:
    """Frequency-weighted mean energy over the post-dropoff samples."""
    if not samples.entries:
        raise ValueError("empty sample set")
    kept = retained_entries(samples, dropoff)
    total = sum(c for _, c in kept)
    return sum(c * ising_energy(ising, b) for b, c in kept) / total


def _expected_loss(probs: np.ndarray, energies: np.ndarray, dropoff: float) -> float:
    """Same postselection rule evaluated on the exact distribution."""
    if dropoff <= 0.0:  # probabilities are non-negative: every entry survives
        return float(probs @ energies / probs.sum())
    mask = probs >= dropoff
    if mask.any():
        w = probs[mask]
        return float(w @ energies[mask] / w.sum())
    return float(probs @ energies)


def _expected_losses(probs: np.ndarray, energies: np.ndarray, dropoff: float) -> np.ndarray:
    """`_expected_loss` of every row of a (B, D) stack of distributions, to
    roundoff: a row with no entry at or above `dropoff` keeps them all."""
    if dropoff > 0.0:
        mask = probs >= dropoff
        probs = np.where(mask | ~mask.any(axis=1, keepdims=True), probs, 0.0)
    return probs @ energies / probs.sum(axis=1)


# ---------------------------------------------------------------------------
# schedule interpolation


def chebyshev_nodes(p: int) -> np.ndarray:
    """Abscissae cos(i*pi/p) for i = 1..p (descending, last is -1)."""
    return np.cos(np.arange(1, p + 1) * np.pi / p)


def _barycentric_resample(values: tuple[float, ...], new_nodes: np.ndarray) -> tuple[float, ...]:
    old = chebyshev_nodes(len(values))
    weights = np.array(
        [1.0 / np.prod([old[j] - old[k] for k in range(len(old)) if k != j])
         for j in range(len(old))]
    )
    vals = np.asarray(values, dtype=float)
    out = []
    for t in new_nodes:
        diff = t - old
        exact = np.flatnonzero(diff == 0.0)
        if exact.size:
            out.append(float(vals[exact[0]]))
            continue
        share = weights / diff
        share /= share.sum()
        # anchored form: constants reproduce exactly, not just to roundoff
        out.append(float(vals[0] + share @ (vals - vals[0])))
    return tuple(out)


def resample_schedule(schedule: ParameterSchedule, new_p: int) -> ParameterSchedule:
    """Evaluate the schedule's interpolating polynomial at the new-level nodes."""
    if new_p < 1:
        raise ValueError("levels must be >= 1")
    nodes = chebyshev_nodes(new_p)
    return ParameterSchedule(
        betas=_barycentric_resample(schedule.betas, nodes),
        gammas=_barycentric_resample(schedule.gammas, nodes),
    )


def interpolate_schedule(schedule: ParameterSchedule) -> ParameterSchedule:
    """Grow a level-p schedule to level p+1 (pure interpolation, no clipping)."""
    return resample_schedule(schedule, schedule.p + 1)


def clip_schedule(schedule: ParameterSchedule) -> ParameterSchedule:
    return ParameterSchedule(
        betas=tuple(min(max(b, BETA_BOUNDS[0]), BETA_BOUNDS[1]) for b in schedule.betas),
        gammas=tuple(min(max(g, GAMMA_BOUNDS[0]), GAMMA_BOUNDS[1]) for g in schedule.gammas),
    )


def shipped_warmup(mixer: str) -> ParameterSchedule:
    """Level-2 warm-start schedule shipped with the package.

    Regenerate with scripts/regenerate_warmup.py (or the `warmup` CLI
    subcommand, whose defaults calibrate on the same 20 `regular`
    instances at the same grid) after changing the benchmark set or
    objective defaults.
    """
    raw = json.loads(files("rnaqaoa").joinpath("data/warmup_defaults.json").read_text())
    entry = raw[mixer]
    return ParameterSchedule(betas=tuple(entry["betas"]), gammas=tuple(entry["gammas"]))


# ---------------------------------------------------------------------------
# problem assembly


@dataclass(frozen=True)
class Problem:
    """Everything needed to run circuits for one stem set and mixer.

    phase_scale is half the spread of the energy diagonal; cost layers are
    driven with gamma/phase_scale so that a gamma interval of a few radians
    explores comparable landscapes regardless of the instance's energy
    scale.  Losses and reported energies always use the raw diagonal.

    optimum is the exhaustive oracle's best objective.  The masks index basis
    states: ground_mask marks stem bits among the oracle's degenerate optima
    (dummy bits ignored), infeasible_mask a domain ring without exactly one
    set bit (never under the X mixer).

    The schedule evaluator (`run_schedule`) works over the mixer's basis:
    `mixer.feasible` under XY, all 2^n states under X.  `start` is the
    initial state there and `basis_energies` the energy diagonal there;
    `energy_levels` are its distinct values and `energy_index` the position
    of each entry's value among them.
    """

    stems: StemSet
    params: QuboParams
    mixer: MixerSpec
    qubo: QuboModel
    ising: IsingModel
    cost: CostLayerSpec
    domains: tuple[Domain, ...] | None
    initial: QuantumState
    phase_scale: float
    optimum: float
    ground_mask: np.ndarray
    infeasible_mask: np.ndarray
    start: np.ndarray
    basis_energies: np.ndarray
    energy_levels: np.ndarray
    energy_index: np.ndarray

    @property
    def n_stems(self) -> int:
        return len(self.stems)

    @property
    def n_qubits(self) -> int:
        return self.ising.n

    def effective_gammas(self, schedule: ParameterSchedule) -> tuple[float, ...]:
        """Angles that reproduce the normalized phase layer on raw energies."""
        return tuple(g / self.phase_scale for g in schedule.gammas)


def _encode(
    stems: StemSet, params: QuboParams, mixer_kind: str
) -> tuple[QuboModel, tuple[Domain, ...] | None, IsingModel, MixerSpec]:
    """Objective, domains (parity_xy only), Ising model and mixer of a stem set."""
    if mixer_kind not in MIXER_KINDS:
        raise ValueError(f"mixer must be one of {MIXER_KINDS}")
    domains = tuple(partition_domains(stems)) if mixer_kind == "parity_xy" else None
    n_qubits = len(stems) + (len(domains) if domains else 0)
    if n_qubits > MAX_QUBITS:
        raise ResourceLimitError(
            f"{n_qubits} qubits (stems {len(stems)}"
            + (f" + {len(domains)} dummies" if domains else "")
            + f") exceed the dense limit of {MAX_QUBITS}"
        )
    qubo = build_qubo(stems, params)
    ising = to_ising(qubo, list(domains) if domains else None)
    if mixer_kind == "x":
        mixer = MixerSpec.x_mixer(ising.n)
    else:
        mixer = MixerSpec.parity_xy(list(domains), ising.n)
    return qubo, domains, ising, mixer


def build_problem(stems: StemSet, params: QuboParams, mixer_kind: str) -> Problem:
    qubo, domains, ising, mixer = _encode(stems, params, mixer_kind)
    cost = CostLayerSpec.from_ising(ising)
    spread = float(cost.diagonal.max() - cost.diagonal.min())
    if mixer_kind == "x":
        initial = init_uniform(ising.n)
    else:
        initial = prepare_w_states(list(domains), ising.n)
    winners, optimum = brute_force_solve(qubo)
    index = np.arange(2**ising.n)
    infeasible = np.zeros(index.size, dtype=bool)
    start, energies = initial.amplitudes, cost.diagonal
    if mixer.feasible is not None:
        infeasible[:] = True
        infeasible[mixer.feasible] = False
        start, energies = start[mixer.feasible], energies[mixer.feasible]
    levels, level_index = np.unique(energies, return_inverse=True)
    return Problem(
        stems=stems, params=params, mixer=mixer, qubo=qubo, ising=ising,
        cost=cost, domains=domains, initial=initial,
        phase_scale=spread / 2 if spread > 0 else 1.0,
        optimum=optimum,
        ground_mask=np.isin(index >> (ising.n - qubo.n), [int(b, 2) for b in winners]),
        infeasible_mask=infeasible,
        start=start,
        basis_energies=energies,
        energy_levels=levels,
        energy_index=level_index,
    )


def run_schedule(
    problem: Problem, schedule: ParameterSchedule | Sequence[ParameterSchedule] | np.ndarray
) -> QuantumState:
    """Final state of the schedule, over the mixer's basis: the loss evaluator.

    A sequence of equal-level schedules, or a (B, 2p) array of angle rows
    laid out as the optimizer's `[betas | gammas]`, runs as one stack: row
    k holds the final state of schedule k bit for bit as a single run would
    give it.  The state is a subspace state over `problem.mixer.feasible`
    under XY and a dense one under X, and every row's norm is checked.  It
    agrees with `reference_state` to roundoff (about 1e-14 in probability),
    not bit for bit.
    """
    single = isinstance(schedule, ParameterSchedule)
    if isinstance(schedule, np.ndarray):
        angles = schedule
        if angles.ndim != 2 or 0 in angles.shape or angles.shape[1] % 2:
            raise ValueError(f"an angle array needs shape (B, 2p), got {angles.shape}")
    else:
        schedules = [schedule] if single else list(schedule)
        if len({s.p for s in schedules}) != 1:
            raise ValueError("a stack needs one or more schedules of equal level")
        angles = np.array([s.betas + s.gammas for s in schedules])
    p = angles.shape[1] // 2
    amps = _evolve(problem, angles[:, :p], angles[:, p:] / problem.phase_scale)
    return QuantumState(
        amps[0] if single else amps, basis=problem.mixer.feasible, n_qubits=problem.n_qubits
    )


def _evolve(problem: Problem, betas: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Unchecked (B, D) final amplitudes of (B, p) mixer angles and effective
    cost angles over the mixer's basis, through the mixer's eigenbasis.

    The cost phases of all layers and rows come from one complex exp over
    the distinct energies, the mixer phases from one over the distinct
    eigenvalues; one take gathers the cost phases, and one each mixer
    group's, out to the basis for as many layers as fit `STACK_BYTES`
    (every layer at once unless the states are large).  A layer is then a
    phase multiply for the cost and for each mixer group, joined by the
    eigenbasis's basis changes.
    """
    eigen = problem.mixer.eigenbasis
    # (layer, row, distinct value)
    cost = np.exp((-1j * gammas.T)[..., None] * problem.energy_levels)
    mix = np.exp((1j * betas.T)[..., None] * eigen.eigenvalues)
    amps = np.repeat(problem.start[None, :], len(betas), axis=0)
    span = max(1, STACK_BYTES // (amps.nbytes * (1 + len(eigen.eigen_index))))
    # every phase is a view of a gathered array, never a bare temporary:
    # numpy reuses a large temporary operand as the output and swaps the
    # factors, and complex multiplication is not commutative in the last bit
    for at in range(0, len(cost), span):
        cost_phases = cost[at:at + span].take(problem.energy_index, axis=2)
        mix_phases = [mix[at:at + span].take(index, axis=2) for index in eigen.eigen_index]
        for k in range(len(cost_phases)):
            amps = amps * cost_phases[k]
            for step, phases in zip(eigen.steps, mix_phases):
                amps = change_basis(amps, step, eigen.shapes)
                amps = amps * phases[k]
            amps = change_basis(amps, eigen.steps[-1], eigen.shapes)
    return amps


def evaluation_bytes(problem: Problem, p: int) -> int:
    """Working set of one row of a level-p `run_schedule` stack, in bytes:
    the state and its three temporaries, and its p layers of cost and mixer
    phases over the distinct values.  (The phases gathered out to the basis
    take at most `STACK_BYTES` more, or one layer's worth.)"""
    values = len(problem.energy_levels) + len(problem.mixer.eigenbasis.eigenvalues)
    return 16 * (4 * len(problem.start) + p * values)


#: Largest difference between the evaluator's and the reference layers'
#: expected energy of a level's final schedule.
REFERENCE_ATOL = 1e-9


def reference_state(problem: Problem, schedule: ParameterSchedule) -> QuantumState:
    """Final dense state of one schedule through the layer functions
    (`apply_cost_layer`, `apply_mixer`) on the problem's dense initial
    state: the reference semantics of `run_schedule`, norm-checked."""
    state = problem.initial
    for beta, gamma in zip(schedule.betas, problem.effective_gammas(schedule)):
        state = apply_cost_layer(state, problem.cost, gamma)
        state = apply_mixer(state, problem.mixer, beta)
    return QuantumState(state.amplitudes)


def circuit_for_schedule(problem: Problem, schedule: ParameterSchedule):
    """Gate-level circuit equivalent to run_schedule (up to global phase)."""
    from .simulator import qaoa_circuit_ops

    return qaoa_circuit_ops(
        problem.cost, problem.mixer, schedule.betas, problem.effective_gammas(schedule)
    )


# ---------------------------------------------------------------------------
# classical optimization


class _BudgetExhausted(Exception):
    pass


#: Scale of the Gaussian perturbation used to seed follow-up descents.
_RESTART_JITTER = 0.25


def optimize(
    problem: Problem,
    schedule: ParameterSchedule,
    config: QaoaConfig,
    seed: int = 0,
) -> tuple[ParameterSchedule, QuantumState, float]:
    """SLSQP over the 2p angles, capped at `max_evaluations` loss evaluations.

    The first descent starts from the given schedule; any budget left after
    it converges funds further descents from seeded random starts, which
    keeps one bad warm-start basin from being inherited level after level.
    Angles stay `[betas | gammas]` arrays throughout, and every stack of
    them runs through `run_schedule` (in chunks of at most `STACK_BYTES` of
    working set).  SLSQP gets its gradient from `jac`, scipy's 2-point
    scheme with an absolute step: the 2p forward-difference probes run as
    one stack, each step `fd_step`, flipped backward where the forward step
    leaves the box, against the loss of the last point `fun` evaluated (the
    gradient's point is evaluated first if it is not that one).  Every probe
    counts as one evaluation, in order, so the path is the one scipy's own
    finite differences take one probe at a time.  Losses are scored on the
    mixer's basis.  Returns the best schedule seen (the input counts as
    evaluation zero, so a zero budget returns it unchanged), its final
    dense state from `reference_state` and its loss; raises RuntimeError if
    that state's expected energy differs from the evaluator's by more than
    `REFERENCE_ATOL`.
    """
    p = schedule.p
    clipped = clip_schedule(schedule)
    x0 = np.array(clipped.betas + clipped.gammas)
    bounds = [BETA_BOUNDS] * p + [GAMMA_BOUNDS] * p
    lo, hi = np.array(bounds).T
    rng = np.random.default_rng(seed)
    per_stack = max(1, STACK_BYTES // evaluation_bytes(problem, p))

    def losses_at(xs: np.ndarray) -> list[float]:
        out = []
        for at in range(0, len(xs), per_stack):
            stack = run_schedule(problem, xs[at:at + per_stack])
            if config.loss_mode == "exact":
                out += [
                    _expected_loss(probs, problem.basis_energies, config.optimizer_dropoff)
                    for probs in np.abs(stack.amplitudes) ** 2
                ]
            else:
                for amps in stack.dense().amplitudes:
                    drawn = sample(QuantumState(amps), config.shots, int(rng.integers(2**63)))
                    out.append(loss(drawn, problem.ising, config.optimizer_dropoff))
        return out

    evals: list[tuple[float, np.ndarray]] = [(losses_at(x0[None])[0], x0)]

    def evaluate(xs: np.ndarray) -> list[float]:
        """Record each row's loss in order, stopping at the first row past
        the budget."""
        room = max(config.max_evaluations + 1 - len(evals), 0)
        vals = losses_at(xs[:room])
        evals.extend(zip(vals, xs))
        if len(xs) > room:
            raise _BudgetExhausted
        return vals

    last_x, last_loss = None, 0.0  # the point `fun` last evaluated, and its loss

    def fun(x: np.ndarray) -> float:
        nonlocal last_x, last_loss
        if last_x is None or not np.array_equal(x, last_x):
            last_x = x.copy()
            last_loss = evaluate(last_x[None])[0]
        return last_loss

    def jac(x: np.ndarray) -> np.ndarray:
        f0 = fun(x)
        step = np.where(x + config.fd_step > hi, -config.fd_step, config.fd_step)
        moved = x + step
        probes = np.repeat(x[None], 2 * p, axis=0)
        np.fill_diagonal(probes, moved)
        return (np.array(evaluate(probes)) - f0) / (moved - x)

    start = x0
    while len(evals) <= config.max_evaluations:
        last_x = None  # each descent evaluates its start, as scipy's own would
        try:
            minimize(
                fun, start, method="SLSQP", jac=jac, bounds=bounds,
                options={"maxiter": 500, "ftol": 1e-8},
            )
        except _BudgetExhausted:
            break
        if len(evals) + 2 * p + 2 > config.max_evaluations:
            break  # not enough budget left for another descent to move
        _, anchor = min(evals, key=lambda t: t[0])
        start = np.clip(anchor + rng.normal(0.0, _RESTART_JITTER, 2 * p), lo, hi)
    best_val, best_x = min(evals, key=lambda t: t[0])
    best = ParameterSchedule(tuple(best_x[:p]), tuple(best_x[p:]))
    state = reference_state(problem, best)
    expected = float(state.probabilities() @ problem.cost.diagonal)
    betas, gammas = best_x[None, :p], best_x[None, p:] / problem.phase_scale
    evaluated = float(np.abs(_evolve(problem, betas, gammas)[0]) ** 2 @ problem.basis_energies)
    if not abs(expected - evaluated) <= REFERENCE_ATOL:
        raise RuntimeError(
            f"the schedule evaluator gives expected energy {evaluated!r}, "
            f"the reference layers {expected!r}"
        )
    return best, state, best_val


# ---------------------------------------------------------------------------
# warm-up calibration


def warmup_parameters(
    instances: list[StemSet],
    params: QuboParams,
    mixer_kind: str,
    grid_points: int = 16,
    dropoff: float = 0.0,
) -> ParameterSchedule:
    """Average of per-instance exhaustive level-2 grid optima.

    Near-optimal angles concentrate across instances, so the component-wise
    mean of per-instance grid argmins is a good start for any instance.  The
    gamma grid covers [0, 2*pi] only: the distribution is invariant under
    (beta, gamma) -> (pi - beta, -gamma), so every optimum has a mirror in
    the non-negative half and averaging across mirrors would cancel.  Each
    grid point is one `[b1, b2 | g1, g2]` row, in (g1, b1, g2, b2) order
    with b2 fastest, run through `run_schedule` in chunks of at most
    `STACK_BYTES` of working set and scored on the mixer's basis with
    `_expected_loss`'s postselection.  Many points of a coarse grid tie to
    roundoff, so an instance's optimum is the first grid point whose loss is
    within `DEGENERACY_ATOL` of the minimum.
    """
    if not instances:
        raise ValueError("need at least one calibration instance")
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    betas_axis = np.linspace(BETA_BOUNDS[0], BETA_BOUNDS[1], grid_points)
    gammas_axis = np.linspace(0.0, 2.0 * math.pi, grid_points)
    g1, b1, g2, b2 = np.meshgrid(gammas_axis, betas_axis, gammas_axis, betas_axis, indexing="ij")
    grid = np.stack([b1.ravel(), b2.ravel(), g1.ravel(), g2.ravel()], axis=1)
    optima = []
    for stems in instances:
        problem = build_problem(stems, params, mixer_kind)
        per_stack = max(1, STACK_BYTES // evaluation_bytes(problem, 2))
        losses = np.concatenate([
            _expected_losses(
                np.abs(run_schedule(problem, grid[at:at + per_stack]).amplitudes) ** 2,
                problem.basis_energies, dropoff,
            )
            for at in range(0, len(grid), per_stack)
        ])
        optima.append(grid[np.flatnonzero(losses <= losses.min() + DEGENERACY_ATOL)[0]])
    arr = np.array(optima)
    return ParameterSchedule(
        betas=(float(arr[:, 0].mean()), float(arr[:, 1].mean())),
        gammas=(float(arr[:, 2].mean()), float(arr[:, 3].mean())),
    )


# ---------------------------------------------------------------------------
# full solver loop


@dataclass(frozen=True)
class LevelRecord:
    level: int
    schedule: ParameterSchedule
    samples: SampleSet
    loss: float
    ground_state_frequency: float
    stopped: bool


@dataclass(frozen=True)
class QaoaResult:
    best_bitstrings: tuple[str, ...]
    best_energy: float
    levels: tuple[LevelRecord, ...]
    terminating_level: int
    termination_reason: str
    ground_state_energy: float
    mixer: str
    n_stems: int
    n_qubits: int
    #: The problem that was solved; None for an empty stem set.
    problem: Problem | None = field(default=None, compare=False, repr=False)

    @property
    def best_objective(self) -> float:
        return -self.best_energy


def solve(
    stems: StemSet,
    params: QuboParams = QuboParams(),
    config: QaoaConfig = QaoaConfig(),
    warmup: ParameterSchedule | None = None,
) -> QaoaResult:
    """Run the full level-climbing loop and report the best retained sample.

    Stops early once one sampled outcome exceeds `stop_frequency`, otherwise
    climbs to p_max.  Dummy bits are stripped from reported bitstrings; all
    degenerate lowest-energy solutions are returned.
    """
    if len(stems) == 0:
        return QaoaResult(
            best_bitstrings=("",), best_energy=0.0, levels=(),
            terminating_level=0, termination_reason="empty",
            ground_state_energy=0.0, mixer=config.mixer, n_stems=0, n_qubits=0,
        )
    problem = build_problem(stems, params, config.mixer)
    rng = np.random.default_rng(config.seed)
    if warmup is None:
        warmup = shipped_warmup(config.mixer)
    schedule = clip_schedule(
        warmup if warmup.p == config.p_start else resample_schedule(warmup, config.p_start)
    )

    records: list[LevelRecord] = []
    reason = "p_max"
    p = config.p_start
    while True:
        opt_seed = int(rng.integers(2**63))
        schedule, state, _ = optimize(problem, schedule, config, seed=opt_seed)
        samples = sample(state, config.shots, int(rng.integers(2**63)))
        stopped = samples.max_frequency() > config.stop_frequency
        records.append(
            LevelRecord(
                level=p,
                schedule=schedule,
                samples=samples,
                loss=loss(samples, problem.ising, config.dropoff),
                ground_state_frequency=samples.frequency_in(problem.ground_mask),
                stopped=stopped,
            )
        )
        if stopped:
            reason = "stop_frequency"
            break
        if p >= config.p_max:
            break
        schedule = clip_schedule(interpolate_schedule(schedule))
        p += 1

    pool: dict[str, float] = {}
    for rec in records:
        for bits, _ in retained_entries(rec.samples, config.dropoff):
            pool[bits] = float(problem.cost.diagonal[int(bits, 2)])
    best_energy = min(pool.values())
    winners = sorted(
        {bits[: problem.n_stems] for bits, e in pool.items() if e <= best_energy + DEGENERACY_ATOL}
    )
    return QaoaResult(
        best_bitstrings=tuple(winners),
        best_energy=best_energy,
        levels=tuple(records),
        terminating_level=records[-1].level,
        termination_reason=reason,
        ground_state_energy=-problem.optimum,
        mixer=config.mixer,
        n_stems=problem.n_stems,
        n_qubits=problem.n_qubits,
        problem=problem,
    )


def level_for_pmax(result: QaoaResult, p_max: int) -> LevelRecord:
    """Level record an identical run capped at `p_max` would have ended on.

    Per-level work never looks ahead (seeds are drawn lazily, interpolation
    only uses earlier levels), so truncating the history reproduces a
    smaller-p_max run exactly.
    """
    eligible = [r for r in result.levels if r.level <= p_max]
    if not eligible:
        raise ValueError(f"run started above p_max={p_max}")
    for rec in eligible:
        if rec.stopped:
            return rec
    return eligible[-1]


# ---------------------------------------------------------------------------
# gate-count report


@dataclass(frozen=True)
class DomainGateCount:
    size: int
    cost_two_qubit: int      # same-domain ZZ terms, 2 gates each
    mixer_two_qubit: int     # XX+YY ring sublayers, 4 gates per pair
    state_prep_two_qubit: int


@dataclass(frozen=True)
class GateCountReport:
    mixer: str
    levels: int
    n_qubits: int
    cost_two_qubit_per_level: int
    mixer_two_qubit_per_level: int
    state_prep_two_qubit: int
    domains: tuple[DomainGateCount, ...]

    @property
    def total_two_qubit(self) -> int:
        return self.state_prep_two_qubit + self.levels * (
            self.cost_two_qubit_per_level + self.mixer_two_qubit_per_level
        )


def gate_count_report(
    stems: StemSet, params: QuboParams, mixer_kind: str, levels: int
) -> GateCountReport:
    """Two-qubit gate counts per layer, from the actual circuit structure.

    Every ZZ coupling costs 2 gates, each XX+YY pair rotation costs 4, and
    preparing one domain's weight-1 state costs 2d.  For a domain of size d
    that means d^2-d cost gates per level under the plain mixer versus
    4(d+1) mixer gates (and no same-domain cost gates) under the
    excitation-preserving one; the latter is cheaper per level for d >= 6.
    """
    if len(stems) == 0:
        return GateCountReport(
            mixer=mixer_kind, levels=levels, n_qubits=0,
            cost_two_qubit_per_level=0, mixer_two_qubit_per_level=0,
            state_prep_two_qubit=0, domains=(),
        )
    qubo, _, ising, mixer = _encode(stems, params, mixer_kind)
    all_domains = partition_domains(stems)
    member_sets = [set(d.members) for d in all_domains]

    per_domain = []
    for dom, members in zip(all_domains, member_sets):
        same = sum(
            1 for (i, j) in qubo.quadratic
            if i in members and j in members
        )
        ring = dom.ring()
        per_domain.append(
            DomainGateCount(
                size=dom.size,
                cost_two_qubit=2 * same,
                mixer_two_qubit=4 * len(ring_pairs(ring)),
                state_prep_two_qubit=2 * (len(ring) - 1),
            )
        )

    cost_per_level = 2 * sum(1 for v in ising.J.values() if v)
    if mixer_kind == "x":
        mixer_per_level = 0
        prep = 0
    else:
        mixer_per_level = sum(d.mixer_two_qubit for d in per_domain)
        prep = sum(d.state_prep_two_qubit for d in per_domain)
    report = GateCountReport(
        mixer=mixer_kind,
        levels=levels,
        n_qubits=ising.n,
        cost_two_qubit_per_level=cost_per_level,
        mixer_two_qubit_per_level=mixer_per_level,
        state_prep_two_qubit=prep,
        domains=tuple(per_domain),
    )
    # sanity: counts above must match the emitted circuits
    assert cost_per_level == two_qubit_gate_count(cost_layer_ops(ising, 1.0))
    assert mixer_per_level == two_qubit_gate_count(mixer_layer_ops(mixer, 1.0))
    return report
