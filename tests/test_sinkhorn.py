import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkd import sinkhorn
from otkd.errors import InvalidInput
from otkd.geometry import KeypointSet
from otkd.sinkhorn import (_CHUNK, _SCALING_RANGE, SinkhornConfig, _iterate,
                           cost_matrix, default_config, plan_residuals,
                           sinkhorn_unbalanced, sinkhorn_unbalanced_batch)


def lp_transport_cost(cost, a, b):
    """Exact balanced optimum via the LP formulation (independent oracle)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


# `SinkhornConfig`'s iteration cap and tolerance, from a cold start
COLD = dict(max_iters=1000, tol=1e-6, f0=None, g0=None)


def log_domain_batch(costs, alpha_s, alpha_t, epsilon, tau, max_iters=1000,
                     tol=1e-6, f0=None, g0=None):
    """`sinkhorn_unbalanced_batch` run by the log-domain loop, `_iterate`:
    the reference whose iterates the scaling-domain solve must keep."""
    C = np.asarray(costs, dtype=float)
    B, M, N = C.shape
    a = np.asarray(alpha_s, dtype=float).reshape(B, M)
    b = np.asarray(alpha_t, dtype=float).reshape(B, N)
    eps = np.broadcast_to(np.asarray(epsilon, dtype=float).reshape(-1, 1, 1), (B, 1, 1))
    with np.errstate(divide="ignore"):
        la = np.log(a)[:, :, None]
        lb = np.log(b)[:, None, :]
    f = np.where(a > 0, 0.0, -np.inf)[:, :, None] if f0 is None else f0.reshape(B, M, 1)
    g = np.where(b > 0, 0.0, -np.inf)[:, None, :] if g0 is None else g0.reshape(B, 1, N)
    f, g, it, converged = _iterate(C, la, lb, eps, tau, f, g, max_iters, tol)
    return np.exp((f + g - C) / eps), f[:, :, 0], g[:, 0, :], it, converged


def per_update_scaled(C, la, lb, eps, tau, f, g, max_iters, tol):
    """`sinkhorn._iterate_scaled` with the range and the stopping rule checked
    after every update: the reference whose iterates its chunked checks must
    keep bit for bit."""
    fi = 1.0 if math.isinf(tau) else tau / (tau + eps)
    scale = eps / np.min(eps)
    empty_rows = np.isneginf(la).astype(float)
    empty_cols = np.isneginf(lb).astype(float)
    it, converged = 0, False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while not converged and it < max_iters:
            f, g, _, converged = _iterate(C, la, lb, eps, tau, f, g, 1, tol)
            it += 1
            K = np.exp((f + g - C) / eps)
            cu = np.where(empty_rows, 0.0, fi * la + (fi - 1) * f / eps)
            cv = np.where(empty_cols, 0.0, fi * lb + (fi - 1) * g / eps)
            lu, lv = np.zeros_like(f), np.zeros_like(g)
            while not converged and it < max_iters:
                v = np.exp(lv).transpose(0, 2, 1)
                lu_new = cu - fi * np.log(K @ v + empty_rows)
                u = np.exp(lu_new).transpose(0, 2, 1)
                lv_new = cv - fi * np.log(u @ K + empty_cols)
                if not (np.abs(lu_new).max() <= _SCALING_RANGE
                        and np.abs(lv_new).max() <= _SCALING_RANGE):
                    break
                it += 1
                converged = max((np.abs(lu_new - lu) * scale).max(),
                                (np.abs(lv_new - lv) * scale).max()) < tol
                lu, lv = lu_new, lv_new
            f, g = f + eps * lu, g + eps * lv
    return f, g, it, converged


def balanced(cost, a, b, epsilon, **kw):
    cfg = SinkhornConfig(epsilon=epsilon, tau=math.inf, **kw)
    return sinkhorn_unbalanced(cost, a, b, cfg)


class TestBalancedLimit:
    def test_one_by_one_trivial(self):
        plan = balanced(np.array([[3.0]]), [1.0], [1.0], epsilon=0.1)
        np.testing.assert_allclose(plan.entries, [[1.0]], atol=1e-12)

    def test_two_by_two_permutation(self):
        # antidiagonal cost forces the identity coupling at weight 0.5
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = balanced(cost, [0.5, 0.5], [0.5, 0.5], epsilon=5e-4)
        np.testing.assert_allclose(plan.entries, np.eye(2) * 0.5, atol=1e-6)

    def test_three_by_three_matches_assignment(self):
        rng = np.random.default_rng(0)
        cost = rng.uniform(0.1, 1.0, (3, 3))
        a = b = np.full(3, 1 / 3)
        best = min(sum(cost[i, p[i]] for i in range(3)) / 3
                   for p in itertools.permutations(range(3)))
        plan = balanced(cost, a, b, epsilon=2e-3)
        assert plan.transport_cost(cost) == pytest.approx(best, abs=1e-3)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 6), rng.integers(2, 8)
        cost = rng.uniform(0.0, 2.0, (m, n))
        cost /= cost.mean()
        a = rng.uniform(0.2, 1.0, m)
        a /= a.sum()
        b = rng.uniform(0.2, 1.0, n)
        b /= b.sum()
        plan = balanced(cost, a, b, epsilon=2e-3, max_iters=20000)
        assert plan.converged
        assert plan.transport_cost(cost) == pytest.approx(
            lp_transport_cost(cost, a, b), abs=1e-3)
        row_res, col_res = plan_residuals(plan, a, b)
        assert row_res < 1e-4 and col_res < 1e-4

    def test_residuals_shrink_as_tau_grows(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(0.1, 1.0, (4, 5))
        a = np.full(4, 0.25)
        b = np.full(5, 0.2)
        res = []
        for tau in (1.0, 100.0, 1e4):
            plan = sinkhorn_unbalanced(
                cost, a, b, SinkhornConfig(epsilon=0.01, tau=tau))
            res.append(max(plan_residuals(plan, a, b)))
        assert res[0] > res[1] > res[2]
        assert res[2] < 1e-4  # near-balanced at tau = 1e4

    def test_scale_equivariance(self):
        # scaling cost and epsilon together leaves the balanced plan alone
        rng = np.random.default_rng(8)
        cost = rng.uniform(0.1, 1.0, (4, 4))
        a = b = np.full(4, 0.25)
        p1 = balanced(cost, a, b, epsilon=0.01)
        p2 = balanced(cost * 7.3, a, b, epsilon=0.073)
        np.testing.assert_allclose(p1.entries, p2.entries, atol=1e-9)


class TestUnbalanced:
    def test_zero_weight_column_gets_zero_mass(self):
        rng = np.random.default_rng(1)
        cost = rng.uniform(0.1, 1.0, (4, 5))
        a = np.full(4, 0.25)
        b = np.array([0.3, 0.0, 0.3, 0.2, 0.2])
        plan = sinkhorn_unbalanced(cost, a, b,
                                   SinkhornConfig(epsilon=0.01, tau=1e3))
        assert (plan.entries[:, 1] == 0.0).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_downweighted_column_mass_small(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, n = rng.integers(2, 6), rng.integers(3, 8)
        cost = rng.uniform(0.1, 1.0, (m, n))
        a = np.full(m, 1.0 / m)
        b = np.full(n, 1.0 / n)
        b[0] = 0.0
        plan = sinkhorn_unbalanced(cost, a, b,
                                   SinkhornConfig(epsilon=0.02, tau=1e3))
        assert plan.entries[:, 0].sum() < 1e-3

    def test_mass_between_marginal_totals(self):
        # conflicting totals: the KL terms split the difference
        cost = np.ones((3, 3)) * 0.5
        a = np.full(3, 1 / 3)
        plan = sinkhorn_unbalanced(cost, a, a * 2,
                                   SinkhornConfig(epsilon=0.05, tau=1.0))
        total = plan.entries.sum()
        assert 1.0 < total < 2.0

    def test_soft_marginals_track_targets(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(0.1, 0.5, (5, 5))
        a = rng.uniform(0.1, 0.3, 5)
        plan = sinkhorn_unbalanced(cost, a, a, SinkhornConfig(epsilon=0.01,
                                                              tau=50.0))
        np.testing.assert_allclose(plan.entries.sum(axis=1), a, atol=5e-3)
        np.testing.assert_allclose(plan.entries.sum(axis=0), a, atol=5e-3)


class TestMechanics:
    def test_plan_fields_consistent(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(0.1, 1.0, (3, 4))
        a = np.full(3, 1 / 3)
        b = np.full(4, 0.25)
        plan = sinkhorn_unbalanced(cost, a, b)
        assert (plan.entries >= 0).all()
        assert plan.entries.shape == (3, 4)
        assert plan.iterations >= 1

    def test_warm_start_resumes(self):
        # converged potentials are a fixed point: resuming from them through
        # f0/g0, as the training harness does every epoch, stops at once; the
        # zero-weight column's -inf potential stays out of the check
        rng = np.random.default_rng(6)
        costs = rng.uniform(0.1, 1.0, (3, 4, 4))
        a = np.full((3, 4), 0.25)
        b = np.full((3, 4), 0.25)
        b[1, 2] = 0.0
        cold, f, g, iterations, converged = sinkhorn_unbalanced_batch(
            costs, a, b, epsilon=0.01, tau=10.0, tol=1e-5, max_iters=20000,
            f0=None, g0=None)
        assert converged and iterations > 2
        assert np.isneginf(g[1, 2]) and np.isneginf(g).sum() == 1
        warm, _, _, iterations, converged = sinkhorn_unbalanced_batch(
            costs, a, b, epsilon=0.01, tau=10.0, max_iters=1000, tol=1e-5,
            f0=f, g0=g)
        assert converged and iterations <= 2
        np.testing.assert_allclose(warm, cold, atol=1e-4)
        assert (warm[1, :, 2] == 0.0).all()

    def test_annealing_matches_direct_solve(self):
        # both routes end at the same fixed point, up to the stopping tolerance
        rng = np.random.default_rng(7)
        cost = rng.uniform(0.1, 1.0, (5, 6))
        a = np.full(5, 0.2)
        b = np.full(6, 1 / 6)
        direct = sinkhorn_unbalanced(
            cost, a, b, SinkhornConfig(epsilon=0.005, tau=math.inf,
                                       anneal=False, max_iters=50000,
                                       tol=1e-9))
        annealed = sinkhorn_unbalanced(
            cost, a, b, SinkhornConfig(epsilon=0.005, tau=math.inf,
                                       anneal=True, max_iters=20000,
                                       tol=1e-9))
        assert direct.converged and annealed.converged
        np.testing.assert_allclose(annealed.entries, direct.entries, atol=1e-6)

    def test_overflowing_cost_mean_is_solved_unannealed(self):
        # the mean of 1e308 entries gives the schedule no finite start
        cost = np.array([[0.0, 1e308], [1e308, 0.0]])
        a = np.full(2, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            plan = sinkhorn_unbalanced(cost, a, a, SinkhornConfig(epsilon=1.0))
        direct = sinkhorn_unbalanced(cost, a, a,
                                     SinkhornConfig(epsilon=1.0, anneal=False))
        assert plan.converged and plan.iterations == direct.iterations == 59
        assert plan.entries.tobytes() == direct.entries.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 8),
           st.booleans(), st.integers(0, 10_000))
    def test_batch_agrees_with_single(self, B, M, N, balanced, seed):
        # the scaling-domain batch keeps the single solver's log-loop
        # iterates to rounding: a fixed iteration budget from a cold start
        # lands on the same plans, whether zero-weight rows and columns are
        # dropped (single) or carried at -inf (batch)
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.0, 2.0, (B, M, N))
        a = rng.uniform(0.05, 1.0, (B, M))
        b = rng.uniform(0.05, 1.0, (B, N))
        for k in range(B):
            if M > 1 and rng.random() < 0.4:
                a[k, rng.integers(M)] = 0.0
            if N > 1 and rng.random() < 0.4:
                b[k, rng.integers(N)] = 0.0
        eps = rng.uniform(0.02, 0.2, B)
        tau = math.inf if balanced else float(rng.uniform(0.5, 50.0))
        plans, *_ = sinkhorn_unbalanced_batch(costs, a, b, eps, tau,
                                              max_iters=50, tol=1e-300,
                                              f0=None, g0=None)
        for k in range(B):
            single = sinkhorn_unbalanced(
                costs[k], a[k], b[k],
                SinkhornConfig(epsilon=eps[k], tau=tau, max_iters=50,
                               tol=1e-300, anneal=False))
            np.testing.assert_allclose(plans[k], single.entries, rtol=0, atol=1e-12)
            assert (plans[k][a[k] == 0] == 0.0).all()
            assert (plans[k][:, b[k] == 0] == 0.0).all()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 8),
           st.booleans(), st.floats(1.0, 1000.0), st.floats(0.0, 3.0),
           st.booleans(), st.booleans(), st.integers(0, 10_000))
    def test_scaling_domain_keeps_log_domain_iterates(
            self, B, M, N, balanced, span, imbalance, far_row, warm, seed):
        # under the harness's rule (tol 1e-5, cap 200): costs up to `span`
        # epsilons, so exp(-C/eps) underflows; marginal totals up to 1e3
        # apart, so the potentials drift by hundreds of epsilons and the
        # scalings must be absorbed again mid-solve; a row far from every
        # column; zero-weight rows and columns; cold starts, and warm starts
        # from perturbed converged potentials
        rng = np.random.default_rng(seed)
        eps = rng.uniform(0.01, 0.1, B)
        costs = rng.uniform(0.0, span, (B, M, N)) * eps[:, None, None]
        a = rng.uniform(0.05, 1.0, (B, M))
        b = rng.uniform(0.05, 1.0, (B, N)) * 10.0 ** -imbalance
        for k in range(B):
            if far_row:
                costs[k, rng.integers(M)] = rng.uniform(800.0, 1000.0, N) * eps[k]
            if M > 1 and rng.random() < 0.4:
                a[k, rng.integers(M)] = 0.0
            if N > 1 and rng.random() < 0.4:
                b[k, rng.integers(N)] = 0.0
        tau = math.inf if balanced else float(rng.uniform(0.5, 50.0))
        f0 = g0 = None
        if warm:
            _, f, g, _, _ = log_domain_batch(costs, a, b, eps, tau, tol=1e-5)
            f0 = f + eps[:, None] * rng.normal(0.0, 1.0, f.shape)
            g0 = g + eps[:, None] * rng.normal(0.0, 1.0, g.shape)
        ref = log_domain_batch(costs, a, b, eps, tau, max_iters=200, tol=1e-5,
                               f0=f0, g0=g0)
        out = sinkhorn_unbalanced_batch(costs, a, b, eps, tau, max_iters=200,
                                        tol=1e-5, f0=f0, g0=g0)
        assert out[3:] == ref[3:]  # iterations and converged
        np.testing.assert_allclose(out[0], ref[0], rtol=0, atol=1e-12)
        empty_rows, empty_cols = a == 0, b == 0
        assert (out[0][empty_rows] == 0.0).all()
        assert (out[0].transpose(0, 2, 1)[empty_cols] == 0.0).all()
        assert np.array_equal(np.isneginf(out[1]), empty_rows)
        assert np.array_equal(np.isneginf(out[2]), empty_cols)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 2 * _CHUNK + 1), st.floats(0.0, 6.0), st.booleans(),
           st.floats(1.0, 1000.0), st.floats(0.0, 3.0), st.booleans(),
           st.booleans(), st.integers(0, 10_000))
    def test_chunked_checks_keep_every_iterate(
            self, B, M, N, cap, log_tol, balanced, span, imbalance, far_row,
            warm, seed):
        # caps up to two chunks and one update; tolerances from 1 to 1e-6 and
        # tau from 0.003 to 50, so that the solve converges fast or slowly;
        # far rows and marginal imbalance, so that the scalings leave their
        # range mid-solve: the cap, convergence and a range exit each fall
        # at every offset in a chunk.  Zero-weight rows and columns; cold
        # starts, and warm starts near converged potentials
        rng = np.random.default_rng(seed)
        eps = rng.uniform(0.01, 0.1, B)
        costs = rng.uniform(0.0, span, (B, M, N)) * eps[:, None, None]
        a = rng.uniform(0.05, 1.0, (B, M))
        b = rng.uniform(0.05, 1.0, (B, N)) * 10.0 ** -imbalance
        for k in range(B):
            if far_row:
                costs[k, rng.integers(M)] = rng.uniform(800.0, 1000.0, N) * eps[k]
            if M > 1 and rng.random() < 0.4:
                a[k, rng.integers(M)] = 0.0
            if N > 1 and rng.random() < 0.4:
                b[k, rng.integers(N)] = 0.0
        tau = math.inf if balanced else float(10.0 ** rng.uniform(-2.5, 1.7))
        f0 = g0 = None
        if warm:
            _, f, g, _, _ = log_domain_batch(costs, a, b, eps, tau, tol=1e-5)
            noise = eps[:, None] * 10.0 ** -rng.uniform(0.0, 3.0)
            f0 = f + noise * rng.normal(0.0, 1.0, f.shape)
            g0 = g + noise * rng.normal(0.0, 1.0, g.shape)
        args = (costs, a, b, eps, tau, cap, 10.0 ** -log_tol, f0, g0)
        out = sinkhorn_unbalanced_batch(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sinkhorn, "_iterate_scaled", per_update_scaled)
            ref = sinkhorn_unbalanced_batch(*args)
        assert out[3:] == ref[3:]  # iterations and converged
        for got, want in zip(out[:3], ref[:3]):  # plans and potentials
            assert np.array_equal(got, want)

    def test_batch_zero_column_exact(self):
        rng = np.random.default_rng(10)
        costs = rng.uniform(0.1, 1.0, (3, 4, 4))
        a = np.full((3, 4), 0.25)
        b = np.full((3, 4), 0.25)
        b[:, 2] = 0.0
        plans, *_ = sinkhorn_unbalanced_batch(costs, a, b, epsilon=0.02,
                                              tau=10.0, **COLD)
        assert (plans[:, :, 2] == 0.0).all()

    def test_cost_matrix_euclidean(self):
        s = KeypointSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
        t = KeypointSet(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(cost_matrix(s, t), [[5.0], [0.0]])

    def test_default_config_tracks_cost_scale(self):
        cost = np.full((3, 3), 4.0)
        assert default_config(cost).epsilon == pytest.approx(0.04)
        assert default_config(cost, tau=math.inf).tau == math.inf
        zero = np.zeros((3, 3))  # the floor keeps epsilon positive
        assert default_config(zero).epsilon > 0
        assert sinkhorn_unbalanced(zero, np.full(3, 1 / 3), np.full(3, 1 / 3)).converged

    def test_default_config_rejects_overflowing_cost_scale(self):
        huge = np.full((2, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            with pytest.raises(InvalidInput, match="cost's mean overflows"):
                default_config(huge)
            assert default_config(huge, epsilon=1.0).epsilon == 1.0


class TestValidation:
    def test_rejects_negative_cost(self):
        with pytest.raises(InvalidInput, match="cost entries"):
            sinkhorn_unbalanced(np.array([[-1.0]]), [1.0], [1.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidInput, match="marginals of"):
            sinkhorn_unbalanced(np.ones((2, 2)), [1.0], [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput, match="non-empty"):
            sinkhorn_unbalanced(np.zeros((0, 2)), [], [0.5, 0.5])

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidInput, match="finite and >= 0"):
            sinkhorn_unbalanced(np.ones((2, 2)), [0.5, -0.5], [0.5, 0.5])

    def test_rejects_all_zero_marginal(self):
        with pytest.raises(InvalidInput, match="all zero"):
            sinkhorn_unbalanced(np.ones((2, 2)), [0.0, 0.0], [0.5, 0.5])

    @pytest.mark.parametrize("spoil,message", [
        (lambda c, a, b: c.__setitem__((1, 2, 3), np.nan), "cost entries"),
        (lambda c, a, b: c.__setitem__((1, 0, 0), -0.5), "cost entries"),
        (lambda c, a, b: a.__setitem__((1, 2), -0.25), "weights must be finite"),
        (lambda c, a, b: b.__setitem__(1, 0.0), "all zero"),
        (lambda c, a, b: a.__setitem__(1, 0.0), "all zero"),
        (lambda c, a, b: a.__setitem__((1, 3), np.nan), "weights must be finite"),
        (lambda c, a, b: b.__setitem__((1, 0), np.inf), "weights must be finite"),
    ], ids=["nan-cost", "negative-cost", "negative-weight", "zero-teacher",
            "zero-student", "nan-weight", "inf-weight"])
    def test_batch_and_single_reject_alike(self, spoil, message):
        # one bad instance among valid ones: the single solver sees it alone
        rng = np.random.default_rng(11)
        costs = rng.uniform(0.1, 1.0, (3, 4, 5))
        a = np.full((3, 4), 0.25)
        b = np.full((3, 5), 0.2)
        spoil(costs, a, b)
        with pytest.raises(InvalidInput, match=message):
            sinkhorn_unbalanced(costs[1], a[1], b[1])
        with pytest.raises(InvalidInput, match=message):
            sinkhorn_unbalanced_batch(costs, a, b, epsilon=0.02, tau=10.0, **COLD)

    @pytest.mark.parametrize("epsilon", [[0.05, np.inf], [0.05, np.nan]],
                             ids=["inf", "nan"])
    def test_batch_rejects_bad_epsilon_in_any_instance(self, epsilon):
        with pytest.raises(InvalidInput, match="^epsilon must be finite and > 0"):
            sinkhorn_unbalanced_batch(np.ones((2, 3, 3)), np.ones((2, 3)),
                                      np.ones((2, 3)), epsilon=epsilon, tau=10.0,
                                      **COLD)

    @pytest.mark.parametrize("costs,a,b,message", [
        (np.ones((2, 3, 3)), np.ones((2, 3)), np.ones((2, 2)), "marginals of"),
        (np.ones((2, 3, 0)), np.ones((2, 3)), np.ones((2, 0)), "non-empty 3D"),
        (np.ones((3, 3)), np.ones(3), np.ones(3), "non-empty 3D"),
    ], ids=["marginal-sizes", "empty-instance", "missing-batch-axis"])
    def test_batch_rejects_shapes(self, costs, a, b, message):
        with pytest.raises(InvalidInput, match=message):
            sinkhorn_unbalanced_batch(costs, a, b, epsilon=0.02, tau=10.0, **COLD)

    @pytest.mark.parametrize("kw", [dict(epsilon=0.0), dict(epsilon=0.1, tau=0.0),
                                    dict(epsilon=0.1, max_iters=0),
                                    dict(epsilon=0.1, tol=0.0),
                                    dict(epsilon=0.1, tau=-1.0),
                                    dict(epsilon=0.1, tau=math.nan),
                                    dict(epsilon=math.nan),
                                    dict(epsilon=math.inf),
                                    dict(epsilon=0.1, tol=math.inf)])
    def test_config_validation(self, kw):
        # the batched solver takes the same parameters loose, under the same
        # rules; the last key of each case is the bad one
        message = f"^{list(kw)[-1]} must be"
        with pytest.raises(InvalidInput, match=message):
            SinkhornConfig(**kw)
        with pytest.raises(InvalidInput, match=message):
            sinkhorn_unbalanced_batch(np.ones((2, 3, 3)), np.ones((2, 3)),
                                      np.ones((2, 3)), **{"tau": 10.0, **COLD, **kw})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_instances_stay_feasible(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    cost = rng.uniform(0.0, 3.0, (m, n))
    a = rng.uniform(0.05, 1.0, m)
    b = rng.uniform(0.05, 1.0, n)
    plan = sinkhorn_unbalanced(cost, a, b)
    assert (plan.entries >= 0).all()
    assert np.isfinite(plan.entries).all()
    assert plan.entries.sum() <= a.sum() + b.sum()
