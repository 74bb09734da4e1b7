import functools
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize._numdiff import approx_derivative

import rnaqaoa.qaoa as qaoa_mod
import rnaqaoa.simulator as sim_mod
from rnaqaoa.errors import ResourceLimitError
from rnaqaoa.instances import generate_structured_instances, load_benchmark, random_sequence
from rnaqaoa.qaoa import (
    BETA_BOUNDS,
    GAMMA_BOUNDS,
    ParameterSchedule,
    QaoaConfig,
    build_problem,
    chebyshev_nodes,
    circuit_for_schedule,
    clip_schedule,
    gate_count_report,
    interpolate_schedule,
    level_for_pmax,
    loss,
    optimize,
    resample_schedule,
    run_schedule,
    shipped_warmup,
    solve,
    warmup_parameters,
)
from rnaqaoa.qubo import (
    DEGENERACY_ATOL,
    IsingModel,
    QuboParams,
    brute_force_solve,
    build_qubo,
    ising_energy,
)
from rnaqaoa.rna import Sequence, enumerate_stems, structure_from_selection
from rnaqaoa.simulator import (
    QuantumState,
    SampleSet,
    apply_cost_layer,
    apply_mixer,
    apply_parity_xy_mixer,
    sample,
    simulate_circuit,
)


def single_stem_instance():
    return enumerate_stems(Sequence("CUACGAUAG", id="hairpin"))


# ---------------------------------------------------------------------------
# loss


def test_loss_single_sample_is_its_energy():
    ising = IsingModel(n=1, h=(1.0,), constant=0.0)
    samples = SampleSet(entries=(("1", 10),), shots=10)
    assert loss(samples, ising, 0.1) == pytest.approx(-1.0)


def test_loss_even_split_is_mean():
    ising = IsingModel(n=1, h=(-1.0,), constant=-3.0)  # E(0)=-4, E(1)=-2
    samples = SampleSet(entries=(("0", 50), ("1", 50)), shots=100)
    assert loss(samples, ising, 0.1) == pytest.approx(-3.0)


def test_loss_dropoff_removes_rare_entries():
    ising = IsingModel(n=1, h=(2.5,), constant=-2.5)  # E(0)=0, E(1)=-5
    samples = SampleSet(entries=(("1", 91), ("0", 9)), shots=100)
    assert loss(samples, ising, 0.10) == pytest.approx(-5.0)


def test_loss_falls_back_when_everything_is_rare():
    ising = IsingModel(n=2, h=(1.0, 1.0), constant=0.0)
    entries = tuple((format(i, "02b"), 25) for i in range(4))
    samples = SampleSet(entries=entries, shots=100)
    assert loss(samples, ising, 0.5) == pytest.approx(0.0)


def test_expected_loss_keeps_the_masked_values_without_the_mask():
    rng = np.random.default_rng(4)
    probs, energies = rng.dirichlet(np.ones(64)), rng.normal(size=64)
    every = probs >= 0.0  # the drop-off rule at zero keeps every entry
    masked = float(probs[every] @ energies[every] / probs[every].sum())
    assert qaoa_mod._expected_loss(probs, energies, 0.0) == masked
    kept = probs >= 0.02
    assert 0 < kept.sum() < len(probs)
    assert qaoa_mod._expected_loss(probs, energies, 0.02) == pytest.approx(
        probs[kept] @ energies[kept] / probs[kept].sum()
    )
    assert qaoa_mod._expected_loss(probs, energies, 1.0) == float(probs @ energies)


# ---------------------------------------------------------------------------
# interpolation


def test_chebyshev_nodes_values():
    assert np.allclose(chebyshev_nodes(2), [0.0, -1.0])
    assert np.allclose(chebyshev_nodes(3), [0.5, -0.5, -1.0])


def test_interpolation_preserves_constants():
    s = ParameterSchedule((0.5, 0.5), (1.2, 1.2))
    out = interpolate_schedule(s)
    assert np.allclose(out.betas, 0.5) and np.allclose(out.gammas, 1.2)


def test_interpolation_reproduces_linear_functions():
    # values linear in the node coordinate stay on the same line
    for p in (2, 3, 5):
        nodes = chebyshev_nodes(p)
        vals = tuple(0.3 + 0.25 * x for x in nodes)
        out = resample_schedule(ParameterSchedule(vals, vals), p + 1)
        expect = 0.3 + 0.25 * chebyshev_nodes(p + 1)
        assert np.allclose(out.betas, expect, atol=1e-12)


def test_interpolation_two_to_three_worked_example():
    out = interpolate_schedule(ParameterSchedule((0.1, 0.3), (0.0, 0.0)))
    assert np.allclose(out.betas, (0.0, 0.2, 0.3), atol=1e-12)


def test_interpolation_matches_polynomial_oracle():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 9))
        betas = rng.uniform(*BETA_BOUNDS, p)
        gammas = rng.uniform(*GAMMA_BOUNDS, p)
        out = interpolate_schedule(ParameterSchedule(tuple(betas), tuple(gammas)))
        x_old, x_new = chebyshev_nodes(p), chebyshev_nodes(p + 1)
        for vals, mine in ((betas, out.betas), (gammas, out.gammas)):
            if p == 1:
                ref = np.full(p + 1, vals[0])
            else:
                ref = np.polyval(np.polyfit(x_old, vals, p - 1), x_new)
            worst = max(worst, float(np.abs(np.array(mine) - ref).max()))
    assert worst < 1e-9


def test_clip_schedule_enforces_bounds():
    s = ParameterSchedule((-1.0, 4.0), (-10.0, 10.0))
    out = clip_schedule(s)
    assert out.betas == (0.0, math.pi)
    assert out.gammas == (-2 * math.pi, 2 * math.pi)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ParameterSchedule((0.1,), (0.2, 0.3))


@pytest.mark.parametrize(
    "fd_step",
    [0.0, -1e-3, 10.0, math.nextafter(math.pi / 2, 2.0), 1e-17, math.ulp(2 * math.pi) / 2, math.nan],
)
def test_config_rejects_a_step_the_gradient_cannot_take(fd_step):
    # not positive, too wide for a one-sided step in the beta box, or lost
    # to rounding next to the gamma bound
    with pytest.raises(ValueError, match="fd_step"):
        QaoaConfig(fd_step=fd_step)
    for fine in (math.pi / 2, math.ulp(2 * math.pi), 1e-3):
        assert QaoaConfig(fd_step=fine).fd_step == fine


# ---------------------------------------------------------------------------
# warm-up


def test_warmup_single_point_grid_returns_that_point():
    schedule = warmup_parameters(
        [single_stem_instance()], QuboParams(), "x", grid_points=1
    )
    assert schedule.betas == (0.0, 0.0) and schedule.gammas == (0.0, 0.0)


def test_warmup_identical_instances_average_to_each_optimum():
    inst = single_stem_instance()
    one = warmup_parameters([inst], QuboParams(), "x", grid_points=4)
    two = warmup_parameters([inst, inst], QuboParams(), "x", grid_points=4)
    assert one == two


def test_warmup_requires_instances():
    with pytest.raises(ValueError):
        warmup_parameters([], QuboParams(), "x")


def test_warmup_rejects_empty_grid():
    with pytest.raises(ValueError, match="grid_points"):
        warmup_parameters([single_stem_instance()], QuboParams(), "x", grid_points=0)


def _warmup_grid_loop(instances, mixer, grid_points):
    """Slow reference for `warmup_parameters`: every grid point run alone
    through the dense layers; the first point within `DEGENERACY_ATOL` of the
    lowest loss wins."""
    betas = np.linspace(BETA_BOUNDS[0], BETA_BOUNDS[1], grid_points)
    gammas = np.linspace(0.0, 2.0 * math.pi, grid_points)
    optima = []
    for stems in instances:
        problem = build_problem(stems, QuboParams(), mixer)
        scale = problem.phase_scale
        points, losses = [], []
        for g1, b1, g2, b2 in itertools.product(gammas, betas, gammas, betas):
            state = apply_cost_layer(problem.initial, problem.cost, g1 / scale)
            state = apply_mixer(state, problem.mixer, b1)
            state = apply_cost_layer(state, problem.cost, g2 / scale)
            state = apply_mixer(state, problem.mixer, b2)
            points.append((b1, b2, g1, g2))
            losses.append(qaoa_mod._expected_loss(state.probabilities(), problem.cost.diagonal, 0.0))
        low = min(losses)
        optima.append(next(pt for pt, val in zip(points, losses) if val <= low + DEGENERACY_ATOL))
    arr = np.array(optima)
    return ParameterSchedule(
        betas=(float(arr[:, 0].mean()), float(arr[:, 1].mean())),
        gammas=(float(arr[:, 2].mean()), float(arr[:, 3].mean())),
    )


@pytest.mark.parametrize("mixer", ["x", "parity_xy"])
@pytest.mark.parametrize("grid", [3, 4])
def test_warmup_grid_stacks_equal_the_point_by_point_loop(suite, grid, mixer, monkeypatch):
    instances = [suite[0], suite[18]]  # 3 and 7 qubits (x), 5 and 10 (parity_xy)
    expected = _warmup_grid_loop(instances, mixer, grid)
    assert warmup_parameters(instances, QuboParams(), mixer, grid_points=grid) == expected
    # chunks of seven rows on the larger instance: the grid runs in 12 (grid 3)
    # or 37 (grid 4) chunks
    row = max(
        qaoa_mod.evaluation_bytes(build_problem(s, QuboParams(), mixer), 2) for s in instances
    )
    monkeypatch.setattr(qaoa_mod, "STACK_BYTES", 7 * row)
    assert warmup_parameters(instances, QuboParams(), mixer, grid_points=grid) == expected


def test_warmup_takes_the_first_of_tied_grid_points(suite):
    """At grid 3 every mixer angle is 0, pi/2 or pi, a permutation of the
    basis up to phases, so every grid point gives the initial distribution
    and ties to roundoff: the first point, all angles 0, wins everywhere."""
    for mixer in ("x", "parity_xy"):
        schedule = warmup_parameters(list(suite), QuboParams(), mixer, grid_points=3)
        assert schedule == ParameterSchedule((0.0, 0.0), (0.0, 0.0))


def test_shipped_warmup_loads_for_both_mixers():
    for mixer in ("x", "parity_xy"):
        schedule = shipped_warmup(mixer)
        assert schedule.p == 2


def test_warmup_beats_random_start_on_most_heldout_instances(warmups):
    heldout = generate_structured_instances(10, seed=999, id_prefix="held")
    rng = np.random.default_rng(5)
    cfg = QaoaConfig(max_evaluations=60)
    wins = 0
    for stems in heldout:
        problem = build_problem(stems, QuboParams(), "x")
        random_schedule = ParameterSchedule(
            tuple(rng.uniform(*BETA_BOUNDS, 2)), tuple(rng.uniform(*GAMMA_BOUNDS, 2))
        )
        _, _, warm_loss = optimize(problem, warmups["x"], cfg, seed=0)
        _, _, random_loss = optimize(problem, random_schedule, cfg, seed=0)
        wins += warm_loss <= random_loss
    assert wins >= 7


# ---------------------------------------------------------------------------
# problem masks


@pytest.mark.parametrize("mixer", ["x", "parity_xy"])
def test_problem_masks_match_per_state_oracle(suite, mixer):
    for stems in suite:
        problem = build_problem(stems, QuboParams(), mixer)
        n, n_stems = problem.n_qubits, problem.n_stems
        outcomes = [format(i, f"0{n}b") for i in range(2**n)]
        optimum = max(problem.qubo.evaluate(b[:n_stems]) for b in outcomes)
        assert problem.optimum == pytest.approx(optimum, abs=DEGENERACY_ATOL)
        ground = [
            problem.qubo.evaluate(b[:n_stems]) >= optimum - DEGENERACY_ATOL for b in outcomes
        ]
        infeasible = [
            any(sum(int(b[q]) for q in ring) != 1 for ring in problem.mixer.rings)
            for b in outcomes
        ]
        assert problem.ground_mask.tolist() == ground
        assert problem.infeasible_mask.tolist() == infeasible
        assert problem.infeasible_mask.any() == (mixer == "parity_xy")


# ---------------------------------------------------------------------------
# optimize


def test_optimize_zero_budget_returns_input():
    problem = build_problem(single_stem_instance(), QuboParams(), "x")
    start = ParameterSchedule((0.3, 0.2), (0.5, 0.7))
    cfg = QaoaConfig(max_evaluations=0)
    schedule, _, value = optimize(problem, start, cfg, seed=1)
    assert schedule == start
    state = run_schedule(problem, start)
    assert value == pytest.approx(
        float(state.probabilities() @ problem.cost.diagonal)
    )


def test_optimize_never_worse_than_start():
    problem = build_problem(single_stem_instance(), QuboParams(), "x")
    start = ParameterSchedule((0.3,), (0.5,))
    cfg = QaoaConfig(p_start=1, p_max=1, max_evaluations=60)
    schedule, state, value = optimize(problem, start, cfg, seed=2)
    zero_budget = optimize(problem, start, QaoaConfig(p_start=1, p_max=1, max_evaluations=0))
    assert value <= zero_budget[2] + 1e-12
    assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_optimize_sampled_mode_runs_and_is_deterministic():
    problem = build_problem(single_stem_instance(), QuboParams(), "x")
    start = ParameterSchedule((0.3, 0.2), (0.5, 0.7))
    cfg = QaoaConfig(loss_mode="sampled", max_evaluations=30, shots=200)
    a = optimize(problem, start, cfg, seed=3)
    b = optimize(problem, start, cfg, seed=3)
    assert a[0] == b[0] and a[2] == b[2]


# ---------------------------------------------------------------------------
# stacked forward-difference gradients against scipy's own


def _scipy_finite_differences(monkeypatch, fd_step):
    """Make SLSQP take scipy's 2-point gradient with the absolute step
    `fd_step`, every probe run alone through `fun`: the oracle of the `jac`
    that `optimize` passes."""
    def scipy_gradients(*args, jac, options, **kwargs):
        return scipy_minimize(*args, options={**options, "eps": fd_step}, **kwargs)

    monkeypatch.setattr(qaoa_mod, "minimize", scipy_gradients)


def _recording(monkeypatch, name):
    """Replace qaoa.<name> by a wrapper that records every value it returns."""
    seen = []
    fn = getattr(qaoa_mod, name)

    def record(*args):
        seen.append(fn(*args))
        return seen[-1]

    monkeypatch.setattr(qaoa_mod, name, record)
    return seen


def _spy_on_batches(monkeypatch):
    """Record (probes, losses computed) for gradients cut by the budget, and
    the largest stack run."""
    log = {"cut": [], "largest": 0}
    losses = _recording(monkeypatch, "_expected_loss")
    run = qaoa_mod.run_schedule

    def recording_run(problem, schedule):
        if not isinstance(schedule, ParameterSchedule):
            log["largest"] = max(log["largest"], len(schedule))
        return run(problem, schedule)

    def spying(*args, jac, **kwargs):
        def spy(x):
            before = len(losses)
            try:
                return jac(x)
            except qaoa_mod._BudgetExhausted:
                # counts the gradient's own point too when it was evaluated
                log["cut"].append((len(x), len(losses) - before))
                raise

        return scipy_minimize(*args, jac=spy, **kwargs)

    monkeypatch.setattr(qaoa_mod, "run_schedule", recording_run)
    monkeypatch.setattr(qaoa_mod, "minimize", spying)
    return log


@pytest.mark.parametrize("mixer", ["x", "parity_xy"])
def test_batched_gradients_reproduce_sequential_solves(suite, warmups, mixer, monkeypatch):
    cfg = QaoaConfig(mixer=mixer, p_max=4, seed=0)
    instances = suite[::8]  # 4 instances, the largest included
    with monkeypatch.context() as m:
        log = _spy_on_batches(m)
        batched = [solve(stems, QuboParams(), cfg, warmup=warmups[mixer]) for stems in instances]
    # some levels ran out of budget partway through a gradient's probes
    assert any(1 < done < probes for probes, done in log["cut"])
    _scipy_finite_differences(monkeypatch, cfg.fd_step)
    sequential = [solve(stems, QuboParams(), cfg, warmup=warmups[mixer]) for stems in instances]
    assert [repr(r) for r in batched] == [repr(r) for r in sequential]


def test_chunked_gradients_reproduce_whole_stacks(suite, warmups, monkeypatch):
    stems = suite[8]
    cfg = QaoaConfig(mixer="parity_xy", p_max=4, seed=0)
    whole = solve(stems, QuboParams(), cfg, warmup=warmups["parity_xy"])
    row_bytes = qaoa_mod.evaluation_bytes(whole.problem, cfg.p_start)
    monkeypatch.setattr(qaoa_mod, "STACK_BYTES", 3 * row_bytes)
    log = _spy_on_batches(monkeypatch)
    chunked = solve(stems, QuboParams(), cfg, warmup=warmups["parity_xy"])
    assert log["largest"] == 3
    assert repr(chunked) == repr(whole)


def test_batched_sampled_loss_draws_in_evaluation_order(suite, monkeypatch):
    problem = build_problem(suite[8], QuboParams(), "x")
    start = ParameterSchedule((0.3, 0.2), (0.5, 0.7))
    cfg = QaoaConfig(loss_mode="sampled", max_evaluations=60, shots=200)
    runs = []
    for batched in (True, False):
        with monkeypatch.context() as m:
            if not batched:
                _scipy_finite_differences(m, cfg.fd_step)
            losses = _recording(m, "loss")
            runs.append((optimize(problem, start, cfg, seed=3), losses))
    (a, a_losses), (b, b_losses) = runs
    assert len(a_losses) == cfg.max_evaluations + 1
    assert a_losses == b_losses
    assert a[0] == b[0] and a[2] == b[2]
    assert np.array_equal(a[1].amplitudes, b[1].amplitudes)


@functools.cache
def _gradient_problem(mixer):
    return build_problem(load_benchmark("suite")[8], QuboParams(), mixer)


def _optimizer_closures(problem, p, cfg):
    """The `fun` and `jac` that `optimize` hands SLSQP, stopped before its
    first descent runs."""
    seen = {}

    def capture(fun, x0, *, jac, **kwargs):
        seen.update(fun=fun, jac=jac)
        raise qaoa_mod._BudgetExhausted

    start = ParameterSchedule((0.5,) * p, (0.5,) * p)
    original, qaoa_mod.minimize = qaoa_mod.minimize, capture
    try:
        optimize(problem, start, cfg)
    finally:
        qaoa_mod.minimize = original
    return seen["fun"], seen["jac"]


@st.composite
def _box_points(draw):
    """Angles with coordinates on both bounds, just inside them, and between."""
    p = draw(st.integers(1, 4))
    coords = []
    for lo, hi in [BETA_BOUNDS] * p + [GAMMA_BOUNDS] * p:
        near = draw(st.sampled_from([lo, hi, np.nextafter(hi, lo), hi - 1e-4, lo + 1e-4]))
        coords.append(draw(st.one_of(st.just(near), st.floats(lo, hi))))
    return np.array(coords)


@given(
    mixer=st.sampled_from(["x", "parity_xy"]),
    x=_box_points(),
    fd_step=st.sampled_from([1e-3, 1e-7, math.ulp(2 * math.pi), qaoa_mod.FD_STEP_MAX]),
)
@settings(max_examples=60, deadline=None)
def test_jac_equals_scipy_two_point_derivative(mixer, x, fd_step):
    p = len(x) // 2
    cfg = QaoaConfig(fd_step=fd_step, max_evaluations=10**6)
    fun, jac = _optimizer_closures(_gradient_problem(mixer), p, cfg)
    lo, hi = np.array([BETA_BOUNDS] * p + [GAMMA_BOUNDS] * p).T
    gradient = jac(x.copy())
    expected = approx_derivative(
        fun, x, method="2-point", abs_step=fd_step, bounds=(lo, hi), f0=fun(x)
    )
    assert gradient.tobytes() == expected.tobytes()


def test_optimize_runs_one_run_schedule_call_per_stack(monkeypatch):
    """perfbench counts circuit evaluations by the `qaoa.run_schedule`
    binding: every stack `optimize` scores goes through it once."""
    problem = _gradient_problem("parity_xy")
    start = ParameterSchedule((0.3, 0.2), (0.5, 0.7))
    budget, probes = 120, 4
    rows, gradients = [], []
    run = qaoa_mod.run_schedule

    def counted_run(problem, schedule):
        rows.append(len(schedule))
        return run(problem, schedule)

    def counting(*args, jac, **kwargs):
        def counted(x):
            g = jac(x)
            gradients.append(g)
            return g

        return scipy_minimize(*args, jac=counted, **kwargs)

    monkeypatch.setattr(qaoa_mod, "run_schedule", counted_run)
    monkeypatch.setattr(qaoa_mod, "minimize", counting)
    optimize(problem, start, QaoaConfig(max_evaluations=budget), seed=0)
    assert sum(rows) == budget + 1  # every evaluation, each once
    # one call per point and one per whole gradient stack; the last may be cut
    assert set(rows[:-1]) == {1, probes}
    assert rows.count(probes) == len(gradients) > 0


@pytest.mark.parametrize("budget", [0, 1, 7, 40])
def test_budget_counts_every_gradient_probe(budget, monkeypatch):
    problem = build_problem(single_stem_instance(), QuboParams(), "parity_xy")
    start = ParameterSchedule((0.3, 0.2), (0.5, 0.7))
    losses = _recording(monkeypatch, "_expected_loss")
    optimize(problem, start, QaoaConfig(max_evaluations=budget), seed=0)
    assert len(losses) == budget + 1  # the start point, then the budget


def test_run_schedule_stack_rows_equal_single_runs():
    problem = build_problem(single_stem_instance(), QuboParams(), "parity_xy")
    schedules = [ParameterSchedule((0.1 * k, 0.4), (0.3, -0.2 * k)) for k in range(5)]
    stack = run_schedule(problem, schedules)
    for row, schedule in zip(stack.amplitudes, schedules):
        assert np.array_equal(row, run_schedule(problem, schedule).amplitudes)
    with pytest.raises(ValueError, match="equal level"):
        run_schedule(problem, [schedules[0], ParameterSchedule((0.1,), (0.2,))])
    angles = np.array([s.betas + s.gammas for s in schedules])
    assert np.array_equal(run_schedule(problem, angles).amplitudes, stack.amplitudes)
    for bad in (angles[:, :3], angles[:0], angles[0]):
        with pytest.raises(ValueError, match=r"shape \(B, 2p\)"):
            run_schedule(problem, bad)


# ---------------------------------------------------------------------------
# the XY mixer's feasible subspace against the dense layers


@functools.cache
def _suite_xy_problems():
    suite = load_benchmark("suite")
    return tuple(build_problem(stems, QuboParams(), "parity_xy") for stems in suite)


def _ring_violations(problem):
    """Per basis state: some domain ring without exactly one set bit."""
    n = problem.n_qubits
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    return np.any([bits[:, list(ring)].sum(axis=1) != 1 for ring in problem.mixer.rings], axis=0)


def _dense_run(problem, schedules):
    """The schedules through the dense layer kernels, one row each."""
    return QuantumState(
        np.array([qaoa_mod.reference_state(problem, s).amplitudes for s in schedules])
    )


def test_feasible_basis_is_the_product_of_one_hot_choices():
    for problem in _suite_xy_problems():
        n, rings = problem.n_qubits, problem.mixer.rings
        basis = problem.mixer.feasible
        assert len(basis) == math.prod(dom.size + 1 for dom in problem.domains)
        # in tensor order: ring 0's choice is the most significant digit
        choices = [[1 << (n - 1 - q) for q in ring] for ring in rings]
        assert np.array_equal(basis, np.ravel(functools.reduce(np.add.outer, choices)))
        assert not _ring_violations(problem)[basis].any()
        assert np.array_equal(problem.start, problem.initial.amplitudes[basis])
        assert np.array_equal(problem.basis_energies, problem.cost.diagonal[basis])
        levels, index = problem.energy_levels, problem.energy_index
        assert (np.diff(levels) > 0).all() and np.array_equal(levels[index], problem.basis_energies)
    problem = build_problem(single_stem_instance(), QuboParams(), "x")
    assert problem.mixer.feasible is None
    assert problem.start is problem.initial.amplitudes


@given(
    p=st.integers(1, 8),
    rows=st.sampled_from([1, 16]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_run_schedule_subspace_equals_dense_layers(p, rows, seed):
    rng = np.random.default_rng(seed)
    for problem in _suite_xy_problems():
        schedules = [
            ParameterSchedule(
                tuple(rng.uniform(*BETA_BOUNDS, p)), tuple(rng.uniform(*GAMMA_BOUNDS, p))
            )
            for _ in range(rows)
        ]
        fast = run_schedule(problem, schedules[0] if rows == 1 else schedules)
        dense = _dense_run(problem, schedules)
        amps = fast.amplitudes.reshape(rows, -1)
        basis = problem.mixer.feasible
        assert np.abs(amps - dense.amplitudes[:, basis]).max() <= 1e-12
        outside = _ring_violations(problem)
        assert fast.probabilities()[..., outside].sum(axis=-1).max() <= 1e-12
        assert dense.probabilities()[:, outside].sum(axis=-1).max() <= 1e-12


def test_dense_xy_layers_keep_the_w_state_feasible(suite):
    """The dense kernels on the 2^n W state, as the solver ran them before
    the subspace path: the infeasible probability stays at roundoff."""
    rng = np.random.default_rng(77)
    problems = [build_problem(s, QuboParams(), "parity_xy") for s in suite if len(s) >= 3][:10]
    worst = 0.0
    for trial in range(100):
        problem = problems[trial % len(problems)]
        p = int(rng.integers(1, 5))
        schedule = ParameterSchedule(
            tuple(rng.uniform(*BETA_BOUNDS, p)), tuple(rng.uniform(*GAMMA_BOUNDS, p))
        )
        state = problem.initial
        for beta, gamma in zip(schedule.betas, problem.effective_gammas(schedule)):
            state = apply_cost_layer(state, problem.cost, gamma)
            state = apply_parity_xy_mixer(state, problem.mixer, beta)
        worst = max(worst, float(state.probabilities()[_ring_violations(problem)].sum()))
    assert worst < 1e-10


_LAYERS = ("apply_cost_layer", "apply_x_mixer", "apply_parity_xy_mixer")


def _wrap_layer_bindings(monkeypatch, wrap):
    """Replace the three layer functions on every rnaqaoa module binding,
    as the benchmark tracer does, by wrap(name, original)."""
    originals = {name: getattr(sim_mod, name) for name in _LAYERS}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "rnaqaoa" or mod_name.startswith("rnaqaoa.")):
            continue
        for attr, value in list(vars(module).items()):
            for name, fn in originals.items():
                if value is fn:
                    monkeypatch.setattr(module, attr, wrap(name, fn))


def test_traced_layer_bindings_see_every_layer_of_both_solves(suite, warmups, monkeypatch):
    calls = {name: [] for name in _LAYERS}

    def wrap(name, fn):
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name].append(len(result.amplitudes))
            return result
        return traced

    _wrap_layer_bindings(monkeypatch, wrap)
    stems = suite[3]
    solve(stems, QuboParams(), QaoaConfig(mixer="parity_xy", p_max=3), warmup=warmups["parity_xy"])
    assert calls["apply_parity_xy_mixer"] and not calls["apply_x_mixer"]
    assert len(calls["apply_cost_layer"]) == len(calls["apply_parity_xy_mixer"])
    xy_cost_calls = len(calls["apply_cost_layer"])
    solve(stems, QuboParams(), QaoaConfig(mixer="x", p_max=3), warmup=warmups["x"])
    assert calls["apply_x_mixer"]
    assert len(calls["apply_cost_layer"]) - xy_cost_calls == len(calls["apply_x_mixer"])
    assert all(n > 0 for seen in calls.values() for n in seen)


@pytest.mark.parametrize("mixer", ["x", "parity_xy"])
def test_run_schedule_checks_the_state_a_non_unitary_layer_leaves(mixer, monkeypatch):
    problem = build_problem(single_stem_instance(), QuboParams(), mixer)
    schedule = ParameterSchedule((0.4, 0.9), (0.3, 1.1))

    def wrap(name, fn):
        if name != "apply_cost_layer":
            return fn

        def leaky(*args, **kwargs):
            state = fn(*args, **kwargs)
            return QuantumState._unchecked(state.amplitudes * 1.01, state)
        return leaky

    with monkeypatch.context() as m:
        _wrap_layer_bindings(m, wrap)
        with pytest.raises(ValueError, match="not normalized"):
            qaoa_mod.reference_state(problem, schedule)
    change_basis = qaoa_mod.change_basis
    monkeypatch.setattr(
        qaoa_mod, "change_basis", lambda *args: change_basis(*args) * 1.01
    )
    with pytest.raises(ValueError, match="not normalized"):
        run_schedule(problem, schedule)
    with pytest.raises(ValueError, match="not normalized"):
        run_schedule(problem, [schedule, schedule])
    with pytest.raises(ValueError, match="not normalized"):
        run_schedule(problem, np.array([schedule.betas + schedule.gammas] * 2))
    # single points pass, so the first gradient's probe stack is what fails
    monkeypatch.setattr(
        qaoa_mod, "change_basis",
        lambda amps, *rest: change_basis(amps, *rest) * (1.01 if len(amps) > 1 else 1.0),
    )
    with pytest.raises(ValueError, match="not normalized"):
        optimize(problem, schedule, QaoaConfig(), seed=0)


# ---------------------------------------------------------------------------
# solve


def test_solve_empty_stem_set():
    stems = enumerate_stems(Sequence("AAAA"))
    result = solve(stems, QuboParams(), QaoaConfig(seed=0))
    assert result.best_bitstrings == ("",)
    assert result.best_energy == 0.0
    assert result.termination_reason == "empty"


def test_solve_single_stem_instance_x_mixer():
    result = solve(single_stem_instance(), QuboParams(), QaoaConfig(seed=11))
    assert result.best_bitstrings == ("1",)
    assert result.best_energy == pytest.approx(-5.25)
    assert result.termination_reason == "stop_frequency"
    stems = single_stem_instance()
    pairs, conflicts = structure_from_selection(stems, result.best_bitstrings[0])
    assert pairs == ((1, 9), (2, 8), (3, 7)) and conflicts == ()
    # warm-started level 2 concentrates on the optimum
    assert result.levels[0].samples.max_frequency() > 0.9


def test_solve_single_stem_instance_parity_xy():
    cfg = QaoaConfig(seed=11, mixer="parity_xy")
    result = solve(single_stem_instance(), QuboParams(), cfg)
    assert result.best_bitstrings == ("1",)
    assert result.best_energy == pytest.approx(-5.25)
    assert result.n_qubits == 2  # one stem plus its domain dummy


def test_solve_deterministic():
    cfg = QaoaConfig(seed=23)
    stems = generate_structured_instances(1, seed=4, id_prefix="det")[0]
    assert solve(stems, QuboParams(), cfg) == solve(stems, QuboParams(), cfg)


def test_solve_qubit_guard():
    seq = random_sequence(np.random.default_rng(0), 60, id="big")
    stems = enumerate_stems(seq)
    assert len(stems) > 24
    with pytest.raises(ResourceLimitError):
        solve(stems, QuboParams(), QaoaConfig(seed=0))


def test_solve_reported_energy_never_beats_oracle(suite, warmups):
    params = QuboParams()
    for stems in suite[:6]:
        result = solve(stems, params, QaoaConfig(seed=5), warmup=warmups["x"])
        _, best = brute_force_solve(build_qubo(stems, params))
        assert result.best_energy >= -best - 1e-9
        assert result.ground_state_energy == pytest.approx(-best)


def test_solve_solutions_are_conflict_free(suite, warmups):
    params = QuboParams()
    for stems in suite[:6]:
        result = solve(stems, params, QaoaConfig(seed=6, mixer="parity_xy"),
                       warmup=warmups["parity_xy"])
        for bits in result.best_bitstrings:
            _, conflicts = structure_from_selection(stems, bits)
            assert conflicts == ()


def test_level_for_pmax_matches_truncated_run(suite, warmups):
    stems = suite[7]
    params = QuboParams()
    big = solve(stems, params, QaoaConfig(seed=9, p_max=5), warmup=warmups["x"])
    small = solve(stems, params, QaoaConfig(seed=9, p_max=3), warmup=warmups["x"])
    assert small.levels == big.levels[: len(small.levels)]
    assert level_for_pmax(big, 3) == small.levels[-1]


def test_parity_xy_search_space_bound(suite, warmups):
    stems = next(s for s in suite if len(s) >= 4)
    problem = build_problem(stems, QuboParams(), "parity_xy")
    bound = 1
    for dom in problem.domains:
        bound *= dom.size + 1
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = int(rng.integers(1, 4))
        schedule = ParameterSchedule(
            tuple(rng.uniform(*BETA_BOUNDS, p)), tuple(rng.uniform(*GAMMA_BOUNDS, p))
        )
        state = run_schedule(problem, schedule)
        assert int((state.probabilities() > 1e-10).sum()) <= bound


def test_circuit_for_schedule_matches_fast_path():
    stems = single_stem_instance()
    problem = build_problem(stems, QuboParams(), "parity_xy")
    schedule = ParameterSchedule((0.4, 0.9), (0.3, 1.1))
    fast = run_schedule(problem, schedule).dense()
    slow = simulate_circuit(circuit_for_schedule(problem, schedule), problem.n_qubits)
    overlap = abs(np.vdot(fast.amplitudes, slow.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# gate counts


def _fully_connected_domain_instance(d):
    seq = Sequence("CCCAAAA" + "G" * (d + 2), id=f"domain{d}")
    stems = enumerate_stems(seq, maximal_only=True)
    assert len(stems) == d
    return stems


@pytest.mark.parametrize("d", range(3, 11))
def test_gate_count_formulas_single_domain(d):
    stems = _fully_connected_domain_instance(d)
    x_report = gate_count_report(stems, QuboParams(), "x", levels=1)
    assert len(x_report.domains) == 1
    assert x_report.domains[0].cost_two_qubit == d * d - d
    assert x_report.cost_two_qubit_per_level == d * d - d
    assert x_report.mixer_two_qubit_per_level == 0

    xy_report = gate_count_report(stems, QuboParams(), "parity_xy", levels=1)
    assert xy_report.domains[0].mixer_two_qubit == 4 * (d + 1)
    assert xy_report.cost_two_qubit_per_level == 0
    assert xy_report.state_prep_two_qubit == 2 * d
    if d >= 6:
        assert (
            xy_report.cost_two_qubit_per_level + xy_report.mixer_two_qubit_per_level
            < x_report.cost_two_qubit_per_level
        )


def test_gate_count_report_empty_instance():
    stems = enumerate_stems(Sequence("AAAA"))
    report = gate_count_report(stems, QuboParams(), "x", levels=3)
    assert report.total_two_qubit == 0


def test_gate_count_matches_emitted_circuit():
    stems = _fully_connected_domain_instance(4)
    problem = build_problem(stems, QuboParams(), "parity_xy")
    report = gate_count_report(stems, QuboParams(), "parity_xy", levels=2)
    schedule = ParameterSchedule((0.1, 0.2), (0.3, 0.4))
    from rnaqaoa.simulator import two_qubit_gate_count

    ops = circuit_for_schedule(problem, schedule)
    assert two_qubit_gate_count(ops) == report.total_two_qubit
