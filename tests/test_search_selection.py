"""The rules by which optimize_alpha_beta picks its answer and its refine cell.

Each test installs a fake loss surface in place of tuning.q_loss, so the
rules are pinned apart from any real loss:
- the answer is the first evaluation of least loss;
- a nan or inf loss never wins, and the trace's best_loss column is the
  running minimum with nan ignored;
- the refine stage brackets the earliest least coarse cell;
- a box with no finite loss raises DomainError.

The fuzz test compares the search with the tracker loop it was written
from, kept below as the reference, on seeded surfaces that mix ties, nan
and inf.
"""

import math
import random
import re

import pytest

from sbtkit import DomainError, QrParams, SearchConfig, optimize_alpha_beta, tuning
from sbtkit.controllers import sbt_params_straightforward

BOARD = QrParams(59.1, 17.907, 5969.0)
T = 5e-5
SF = sbt_params_straightforward(BOARD, T)
NO_FINITE_LOSS = "no (alpha, beta) in the box gives a finite loss"


def reference_optimize(p, T, loss_cfg=None, search_cfg=None):
    """optimize_alpha_beta as a loop with its own best-pair and best-cell trackers."""
    search_cfg = search_cfg or SearchConfig()
    trace = []
    best_alpha = best_beta = None
    best_loss = math.inf

    def evaluate(stage, a, b):
        nonlocal best_alpha, best_beta, best_loss
        val = tuning.q_loss(a, b, p, T, loss_cfg)
        if val < best_loss:
            best_alpha, best_beta, best_loss = a, b, val
        trace.append(tuning.TraceEntry(stage, a, b, val, best_loss))
        return val

    sf = sbt_params_straightforward(p, T)
    a_lo, a_hi = search_cfg.alpha_range
    b_lo, b_hi = search_cfg.beta_range
    sf_inside = a_lo <= sf.alpha <= a_hi and b_lo <= sf.beta <= b_hi
    sf_loss = evaluate("straightforward", sf.alpha, sf.beta) if sf_inside else None

    alphas = tuning._axis_points(a_lo, a_hi, search_cfg.coarse_points)
    betas = tuning._axis_points(b_lo, b_hi, search_cfg.coarse_points)
    best_cell = (0, 0)
    best_cell_loss = math.inf
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            val = evaluate("coarse", a, b)
            if val < best_cell_loss:
                best_cell_loss = val
                best_cell = (i, j)

    i, j = best_cell
    a_left = alphas[max(i - 1, 0)]
    a_right = alphas[min(i + 1, len(alphas) - 1)]
    b_left = betas[max(j - 1, 0)]
    b_right = betas[min(j + 1, len(betas) - 1)]
    cur_a = alphas[i]
    cur_b = betas[j]
    for _ in range(search_cfg.refine_iters):
        if a_right > a_left:
            a_left, a_right, cur_a = tuning._golden_step(
                a_left, a_right, lambda a: evaluate("refine-alpha", a, cur_b)
            )
        if b_right > b_left:
            b_left, b_right, cur_b = tuning._golden_step(
                b_left, b_right, lambda b: evaluate("refine-beta", cur_a, b)
            )

    if best_alpha is None:
        raise DomainError(NO_FINITE_LOSS)
    return tuning.OptimizeResult(best_alpha, best_beta, best_loss, sf, sf_loss, tuple(trace))


def install(monkeypatch, surface):
    """Make surface(alpha, beta) the loss the search sees."""
    monkeypatch.setattr(tuning, "q_loss", lambda a, b, p, T, cfg=None: surface(a, b))


def first(trace, stage):
    return next(e for e in trace if e.stage == stage)


@pytest.mark.parametrize("beta_range", [(0.9, 1.1), (1.05, 1.1)], ids=["sf-inside", "sf-outside"])
def test_a_constant_surface_returns_the_first_evaluated_pair(monkeypatch, beta_range):
    install(monkeypatch, lambda a, b: 2.5)
    res = optimize_alpha_beta(BOARD, T, search_cfg=SearchConfig(beta_range=beta_range,
                                                                coarse_points=5, refine_iters=3))
    assert (res.alpha, res.beta, res.loss_value) == (res.trace[0].alpha, res.trace[0].beta, 2.5)
    assert res.trace[0].stage == ("straightforward" if beta_range[0] < SF.beta else "coarse")


def test_nan_and_inf_never_become_the_best_loss(monkeypatch):
    rng = random.Random(3)
    values = {}

    def surface(a, b):
        # nan first, then a mix in which most losses are nan or inf
        if not values:
            return values.setdefault((a, b), math.nan)
        return values.setdefault((a, b), rng.choice([math.nan, math.inf, math.nan, rng.uniform(1, 9)]))

    install(monkeypatch, surface)
    res = optimize_alpha_beta(BOARD, T, search_cfg=SearchConfig(coarse_points=9, refine_iters=6))
    running = math.inf
    for e in res.trace:
        if e.loss < running:
            running = e.loss
        assert e.best_loss == running
    assert math.isnan(res.trace[0].loss) and res.trace[0].best_loss == math.inf
    assert any(math.isnan(e.loss) for e in res.trace[1:]) and any(e.loss == math.inf for e in res.trace)
    assert math.isfinite(res.loss_value) and res.loss_value == res.trace[-1].best_loss
    assert (res.alpha, res.beta) == next((e.alpha, e.beta) for e in res.trace if e.loss == res.loss_value)


@pytest.mark.parametrize("sf_loss", [1.0, 0.0], ids=["cells-win", "sf-wins"])
def test_tied_coarse_cells_refine_around_the_earlier_one(monkeypatch, sf_loss):
    search = SearchConfig(coarse_points=9, refine_iters=2)
    alphas = tuning._axis_points(*search.alpha_range, search.coarse_points)
    betas = tuning._axis_points(*search.beta_range, search.coarse_points)
    early, late = (2, 6), (6, 2)  # evaluation order is alpha-major: early comes first
    least = {(alphas[i], betas[j]) for i, j in (early, late)}

    def surface(a, b):
        if (a, b) == (SF.alpha, SF.beta):
            return sf_loss
        return 0.5 if (a, b) in least else 1.0

    install(monkeypatch, surface)
    res = optimize_alpha_beta(BOARD, T, search_cfg=search)
    i, j = early
    ra, rb = first(res.trace, "refine-alpha"), first(res.trace, "refine-beta")
    assert alphas[i - 1] < ra.alpha < alphas[i + 1] and ra.beta == betas[j]
    assert betas[j - 1] < rb.beta < betas[j + 1]
    expected = (SF.alpha, SF.beta) if sf_loss == 0.0 else (alphas[i], betas[j])
    assert (res.alpha, res.beta) == expected


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=repr)
def test_a_surface_without_a_finite_loss_raises_domain_error(monkeypatch, value):
    install(monkeypatch, lambda a, b: value)
    with pytest.raises(DomainError, match=re.escape(NO_FINITE_LOSS)):
        optimize_alpha_beta(BOARD, T, search_cfg=SearchConfig(coarse_points=4, refine_iters=2))


def _axis(rng, lo, hi):
    """A random range in [lo, hi], sometimes a single point."""
    x, y = sorted(rng.uniform(lo, hi) for _ in range(2))
    return rng.choice([(x, y), (x, x), (lo, hi)])


def _surface(seed):
    """A deterministic seeded surface mixing few loss levels (ties), nan and inf."""
    rng = random.Random(seed)
    bad = rng.choice([0.0, 0.2, 0.5, 0.9, 1.0])
    levels = rng.choice([1, 2, 3, 1000])

    def surface(a, b):
        r = random.Random(f"{seed}:{a!r}:{b!r}")
        if r.random() < bad:
            return r.choice([math.nan, math.inf])
        return float(r.randrange(levels))

    return surface


def _outcome(search, fn):
    try:
        return repr(fn(BOARD, T, None, search))
    except DomainError as exc:
        return f"DomainError: {exc}"


def test_selection_equals_the_tracker_loop_on_seeded_surfaces(monkeypatch):
    rng = random.Random(27)
    raised = 0
    for seed in range(1200):
        search = SearchConfig(alpha_range=_axis(rng, 0.5, 1.0), beta_range=_axis(rng, 0.9, 1.1),
                              coarse_points=rng.randint(1, 5), refine_iters=rng.randint(0, 3))
        install(monkeypatch, _surface(seed))
        got = _outcome(search, optimize_alpha_beta)
        assert got == _outcome(search, reference_optimize), (seed, search)
        raised += got.startswith("DomainError")
    assert 10 <= raised <= 600  # both outcomes are exercised
