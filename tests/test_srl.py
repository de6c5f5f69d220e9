"""Learning-stack tests: GAE, clip math, multiplier, agents, rollouts."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import evgrid
import evgrid.env as env_module
import evgrid.srl as srl
from evgrid.env import CouplingEnv
from evgrid.nn import log_softmax
from evgrid.predictor import OnlinePredictor
from evgrid.scenario import (ScenarioError, TrainConfig, has_control_request,
                             load_scenario)
from evgrid.traffic import TrafficSim
from evgrid.srl import (DQNAgent, EpisodeData, LagrangePPOAgent,
                        PolicyGradientAgent, actor_objective, build_agent,
                        clipped_surrogate, combined_advantage, compute_gae,
                        evaluate, greedy_action, lagrangian_update,
                        load_checkpoint, pad_width, ppo_update, rollout,
                        save_checkpoint, train)

from oracles import gae_double_sum
from test_harness import TINY as HARNESS_TINY

TINY = """\
name: tiny
seed: 11
road_net: nguyen_dupuis
power_net: ieee33
stations:
  - {cs_id: 0, node: 6, bus: 18, piles: 3}
  - {cs_id: 1, node: 10, bus: 30, piles: 3}
demand:
  rate_veh_per_h: 120
  ev_fraction: 0.5
  warmup_s: 600
  control_s: 600
predictor:
  enc_len: 2
  dec_len: 2
  hidden: 8
  layers: 1
training:
  hidden: [16, 16]
"""


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("scn") / "tiny.yaml"
    p.write_text(TINY)
    return load_scenario(p)


def short(cfg, epochs):
    """``cfg`` with a training run of ``epochs`` epochs of two episodes."""
    return replace(cfg, training=replace(cfg.training, epochs=epochs,
                                         episodes_per_epoch=2))


def test_gae_matches_double_sum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        T = 20
        r = rng.normal(size=T)
        v = np.append(rng.normal(size=T), 0.0)
        gamma = rng.uniform(0.5, 0.999)
        lam = rng.uniform(0.0, 1.0)
        np.testing.assert_allclose(compute_gae(r, v, gamma, lam),
                                   gae_double_sum(r, v, gamma, lam),
                                   atol=1e-10, rtol=0)


def test_gae_trivial_cases():
    adv = compute_gae([2.0], [1.0, 0.0], 0.9, 0.95)
    assert adv[0] == pytest.approx(2.0 + 0.0 - 1.0)

    r = np.array([1.0, -1.0, 0.5])
    v = np.array([0.2, 0.1, -0.3, 0.0])
    one_step = compute_gae(r, v, 0.97, 0.0)
    deltas = r + 0.97 * v[1:] - v[:-1]
    np.testing.assert_allclose(one_step, deltas)

    with pytest.raises(ValueError):
        compute_gae([1.0, 2.0], [0.0, 0.0], 0.9, 0.9)


def test_combined_advantage():
    a_r = np.array([2.0, -1.0])
    a_c = np.array([1.0, 1.0])
    np.testing.assert_array_equal(combined_advantage(a_r, a_c, 0.0), a_r)
    np.testing.assert_array_equal(combined_advantage(a_r, a_r, 1.0),
                                  np.zeros(2))
    assert combined_advantage(np.array([2.0]), np.array([1.0]), 0.5)[0] \
        == pytest.approx(1.5)
    with pytest.raises(ValueError):
        combined_advantage(a_r, np.array([1.0]), 0.5)


def test_lagrangian_update():
    assert lagrangian_update(0.5, 1.0, 0.0, 0.035) == pytest.approx(0.535,
                                                                    abs=1e-12)
    assert lagrangian_update(0.7, 0.0, 0.0, 0.035) == 0.7
    assert lagrangian_update(0.01, -5.0, 0.0, 0.035) == 0.0

    lam, seen = 0.2, []
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam = lagrangian_update(lam, rng.normal(), 0.0, 0.035)
        seen.append(lam)
    assert min(seen) >= 0.0

    lam = 0.0
    trail = []
    for _ in range(5):
        lam = lagrangian_update(lam, 0.3, 0.0, 0.035)
        trail.append(lam)
    assert all(b > a for a, b in zip(trail, trail[1:]))


def test_clipped_surrogate_arithmetic_and_bound():
    assert clipped_surrogate(1.5, 1.0, 0.2) == pytest.approx(1.2)
    assert clipped_surrogate(0.5, -1.0, 0.2) == pytest.approx(-0.8)

    rng = np.random.default_rng(2)
    zeta = np.exp(rng.normal(scale=0.5, size=500))
    adv = rng.normal(size=500)
    contrib = clipped_surrogate(zeta, adv, 0.2)
    assert np.all(contrib <= 1.2 * np.abs(adv) + 1e-12)


def test_actor_objective_gradient_matches_fd():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(8, 4))
    actions = rng.integers(0, 4, size=8)
    logp_old = log_softmax(logits)[np.arange(8), actions] \
        + rng.normal(scale=0.05, size=8)
    adv = rng.normal(size=8)

    loss, dlogits, _ = actor_objective(logits, actions, logp_old, adv,
                                       clip=0.2, ent_coef=0.01)
    eps = 1e-6
    for i in range(8):
        for j in range(4):
            up, dn = logits.copy(), logits.copy()
            up[i, j] += eps
            dn[i, j] -= eps
            lu, _, _ = actor_objective(up, actions, logp_old, adv, 0.2, 0.01)
            ld, _, _ = actor_objective(dn, actions, logp_old, adv, 0.2, 0.01)
            fd = (lu - ld) / (2 * eps)
            assert dlogits[i, j] == pytest.approx(fd, abs=1e-7, rel=1e-5)


def episode(states, actions, logps, rewards, costs):
    """An ``EpisodeData`` of the given columns and no env logs."""
    return EpisodeData(states=states, actions=actions, logps=logps,
                       rewards=rewards, costs=costs, metrics=None, seed=0,
                       minute_log=[], droop_log=[], trace=[])


def synth_episode(agent, rng, T, reward_fn, cost_fn, dim, state=None):
    """Roll a synthetic episode through the live policy so stored log-probs
    match the actor exactly. Each state is a copy of ``state``, or a fresh
    normal draw when it is None."""
    S, A, LP, R, C = [], [], [], [], []
    for t in range(T):
        s = rng.normal(size=dim) if state is None else state.copy()
        a, lp = agent.act(s, rng)
        S.append(s)
        A.append(a)
        LP.append(lp)
        R.append(reward_fn(t, a))
        C.append(cost_fn(t, a))
    return episode(np.array(S), np.array(A, dtype=int), np.array(LP),
                   np.array(R), np.array(C))


def test_ratio_identity_at_first_pass():
    tc = TrainConfig(hidden=(8, 8), iters_per_epoch=3)
    agent = LagrangePPOAgent(4, 3, tc, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    eps = [synth_episode(agent, rng, 10, lambda t, a: rng.normal(),
                         lambda t, a: abs(rng.normal()), 4)
           for _ in range(3)]
    stats = ppo_update(agent, eps, np.random.default_rng(6))
    assert stats["ratio_dev_first"] < 1e-6


def test_lambda_climbs_by_alpha_jc_on_constant_cost():
    tc = TrainConfig(hidden=(8, 8), iters_per_epoch=2, lambda_lr=0.035)
    agent = LagrangePPOAgent(3, 2, tc, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    lam_prev = agent.lam
    assert lam_prev == 0.0
    for epoch in range(6):
        eps = [synth_episode(agent, rng, 4, lambda t, a: rng.normal(),
                             lambda t, a: 0.25, 3) for _ in range(3)]
        stats = ppo_update(agent, eps, rng)
        assert stats["j_c"] == pytest.approx(1.0)
        assert agent.lam - lam_prev == pytest.approx(0.035 * 1.0, abs=1e-12)
        assert agent.lam >= 0.0
        lam_prev = agent.lam


def test_discounted_episode_cost_return_matches_a_loop():
    rng = np.random.default_rng(30)
    for T in (1, 2, 7, 60):
        costs = np.abs(rng.normal(size=T))
        ep = episode(None, np.zeros(T, dtype=int), None, np.zeros(T), costs)
        assert srl.episode_cost_return(ep, 0.9, False) == float(costs.sum())
        for gamma in (0.0, 0.5, 0.9, 0.97, 1.0):
            want = 0.0
            for t in range(T):
                want += gamma ** t * costs[t]
            got = srl.episode_cost_return(ep, gamma, True)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_discounted_dual_moves_lambda_by_the_discounted_cost():
    """With ``discounted_dual`` one update moves the multiplier by
    lambda_lr * (J_c^gamma - cost_budget), J_c^gamma the mean discounted
    episode cost, and clamps it at 0."""
    gamma = 0.9
    j_c = 0.25 * sum(gamma ** t for t in range(5))   # 1.0239..., not 1.25
    for lam0, cost_budget in ((0.0, 0.5), (0.01, 2.0)):
        want = lam0 + 0.035 * (j_c - cost_budget)
        tc = TrainConfig(hidden=(8,), iters_per_epoch=1, lambda_lr=0.035,
                         gamma=gamma, cost_budget=cost_budget,
                         discounted_dual=True)
        agent = LagrangePPOAgent(3, 2, tc, np.random.default_rng(31))
        agent.lam = lam0
        rng = np.random.default_rng(32)
        eps = [synth_episode(agent, rng, 5, lambda t, a: rng.normal(),
                             lambda t, a: 0.25, 3) for _ in range(3)]
        stats = ppo_update(agent, eps, rng)
        assert stats["j_c"] == pytest.approx(j_c, rel=1e-12)
        assert agent.lam == pytest.approx(max(0.0, want), rel=1e-12, abs=0.0)
    assert want < 0.0 and agent.lam == 0.0      # the second case clamps


def bandit_reward(a):
    return 1.0 if a == 1 else 0.0


def policy_prob_best(actor_agent):
    logits, _ = actor_agent.actor.forward(np.zeros(1))
    z = logits - logits.max()
    p = np.exp(z) / np.exp(z).sum()
    return p[1]


def test_bandit_reinforce_and_actor_critic():
    tc = TrainConfig(hidden=(8, 8), lr=0.05, gamma=0.1)
    for critic, seed in ((False, 10), (True, 11)):
        agent = PolicyGradientAgent(1, 2, tc, np.random.default_rng(seed),
                                    critic=critic)
        rng = np.random.default_rng(seed + 100)
        for _ in range(200):
            S, A, R = [], [], []
            for _ in range(8):
                a = agent.act(np.zeros(1), rng)
                S.append(np.zeros(1))
                A.append(a)
                R.append(bandit_reward(a))
            agent.update(S, A, R)
        assert policy_prob_best(agent) >= 0.95, f"critic={critic}"


# The two episodic policy-gradient updates as they stood in their own
# classes before the merge (REINFORCE's ``self.opt`` is now ``opt_actor``),
# kept as the bit-identity oracle for ``PolicyGradientAgent.update``.
def reinforce_update_before_merge(self, states, actions, rewards):
    g = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + self.tc.gamma * acc
        g[t] = acc
    if len(g) > 1 and g.std() > 1e-8:
        g = (g - g.mean()) / g.std()
    logits, cache = self.actor.forward(np.asarray(states, dtype=float))
    lp = log_softmax(logits)
    p = np.exp(lp)
    onehot = np.zeros_like(p)
    rows = np.arange(len(actions))
    onehot[rows, actions] = 1.0
    dlogits = -(g[:, None] * (onehot - p)) / len(actions)
    grads, _ = self.actor.backward(cache, dlogits)
    self.opt_actor.step(self.actor.param_dict(), grads)
    return float(-(lp[rows, actions] * g).mean())


def actor_critic_update_before_merge(self, states, actions, rewards):
    s = np.asarray(states, dtype=float)
    r = np.asarray(rewards, dtype=float)
    v, vcache = self.critic.forward(s)
    v = v[:, 0]
    v_next = np.append(v[1:], 0.0)          # terminal bootstrap
    td = r + self.tc.gamma * v_next - v

    logits, cache = self.actor.forward(s)
    lp = log_softmax(logits)
    p = np.exp(lp)
    onehot = np.zeros_like(p)
    onehot[np.arange(len(actions)), actions] = 1.0
    dlogits = -(td[:, None] * (onehot - p)) / len(actions)
    grads, _ = self.actor.backward(cache, dlogits)
    self.opt_actor.step(self.actor.param_dict(), grads)

    vgrads, _ = self.critic.backward(vcache, (-2.0 * td / len(td))[:, None])
    self.opt_critic.step(self.critic.param_dict(), vgrads)
    return float(np.mean(td * td))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("critic", [False, True])
@pytest.mark.parametrize("case", ["one_step", "constant_rewards", "random"])
def test_pg_update_is_bit_identical_to_the_unmerged_updates(critic, case):
    # gamma 0 makes the constant-reward returns constant: REINFORCE's
    # zero-std branch skips the normalisation
    tc = TrainConfig(hidden=(8, 8), lr=0.05,
                     gamma=0.0 if case == "constant_rewards" else 0.97)
    dim, n_act = 5, 3
    new = PolicyGradientAgent(dim, n_act, tc, np.random.default_rng(21),
                              critic=critic)
    old = PolicyGradientAgent(dim, n_act, tc, np.random.default_rng(21),
                              critic=critic)
    old_update = actor_critic_update_before_merge if critic \
        else reinforce_update_before_merge
    rng = np.random.default_rng(22)
    for _ in range(3):
        T = {"one_step": 1, "constant_rewards": 20, "random": 50}[case]
        states = rng.normal(size=(T, dim))
        actions = rng.integers(0, n_act, size=T)
        rewards = np.full(T, -0.25) if case == "constant_rewards" \
            else rng.normal(size=T)
        loss_new = new.update(states, actions, rewards)
        loss_old = old_update(old, states, actions, rewards)
        assert bits(loss_new) == bits(loss_old)
    assert list(new.param_dict()) == list(old.param_dict())
    for k, v in old.param_dict().items():
        np.testing.assert_array_equal(bits(new.param_dict()[k]), bits(v),
                                      err_msg=k)


def test_bandit_ppo_variants():
    tc = TrainConfig(hidden=(8, 8), lr=0.05, gamma=0.1, entropy_coef=0.0,
                     iters_per_epoch=10, batch=16)
    for constrained, seed in ((False, 12), (True, 13)):
        agent = LagrangePPOAgent(1, 2, tc, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 100)
        upd = np.random.default_rng(seed + 200)
        for _ in range(200):
            # bandit states must be identical, not random
            eps = [synth_episode(agent, rng, 1,
                                 lambda t, a: bandit_reward(a),
                                 lambda t, a: 0.0, 1, state=np.zeros(1))
                   for _ in range(16)]
            ppo_update(agent, eps, upd)
        assert policy_prob_best(agent) >= 0.95, f"constrained={constrained}"
        if constrained:
            assert agent.lam == 0.0          # zero cost keeps the dual idle


def test_dqn_uniform_when_fully_exploring_and_target_sync():
    tc = TrainConfig(hidden=(8, 8), batch=8)
    agent = DQNAgent(2, 4, tc, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    counts = np.zeros(4)
    for _ in range(2000):
        counts[agent.act(np.zeros(2), rng, eps=1.0)] += 1
    chi2 = float(((counts - 500.0) ** 2 / 500.0).sum())
    assert chi2 < 16.27       # df=3 at p=0.001

    for i in range(300):
        s = rng.normal(size=2)
        agent.push(s, int(rng.integers(4)), rng.normal(), rng.normal(size=2),
                   False)
    for _ in range(200):
        assert agent.update_step(rng) is not None
    assert agent.updates == 200
    for k, v in agent.q.param_dict().items():
        np.testing.assert_array_equal(agent.target.param_dict()[k], v)


def core_metrics(m):
    return (m.ttt_s, m.ttt_tick_s, m.cvv, m.wct_min, m.n_steps,
            m.n_completed, m.n_ev_completed, m.n_stranded)


def test_rollout_collects_every_policy_kind(tiny_cfg):
    env = CouplingEnv(tiny_cfg)
    ppo, _ = build_agent(tiny_cfg, env, "ppo")
    dqn, _ = build_agent(tiny_cfg, env, "dqn")
    pg, _ = build_agent(tiny_cfg, env, "reinforce")
    rng = np.random.default_rng(0)
    runs = {
        "greedy": (None, None),
        "ppo": (lambda s: ppo.act(s, rng), None),
        "dqn": (lambda s: dqn.act(s, rng, 0.5),
                partial(dqn.learn_step, rng=rng)),
        "reinforce": (lambda s: pg.act(s, rng), None),
    }
    steps = {}
    for kind, (policy, on_step) in runs.items():
        ep = rollout(env, policy, 21, on_step=on_step)
        n = steps[kind] = ep.metrics.n_steps
        assert n > 0
        for col in (ep.actions, ep.rewards, ep.costs):
            assert len(col) == n, kind
        if kind == "greedy":
            assert ep.states is None
        else:
            assert ep.states.shape == (n, env.state_dim)
        if kind == "ppo":
            assert ep.logps.shape == (n,)
        else:
            assert ep.logps is None, kind

    replay = list(dqn.replay)
    n = steps["dqn"]
    assert len(replay) == n
    assert [done for *_, done in replay] == [False] * (n - 1) + [True]
    for (_, _, _, s_next, _), (s, *_) in zip(replay, replay[1:]):
        np.testing.assert_array_equal(s_next, s)
    last_next = replay[-1][3]
    assert last_next.shape == (env.state_dim,) and not last_next.any()


def test_train_rejects_bad_methods(tiny_cfg):
    with pytest.raises(ValueError):
        train(tiny_cfg, "sarsa", 0)
    with pytest.raises(ValueError):
        train(tiny_cfg, "greedy", 0)


def test_ppolag_equals_full_method_with_zeroed_forecasts(tiny_cfg, monkeypatch):
    base = train(short(tiny_cfg, 2), "ppolag", seed=0)

    M = tiny_cfg.n_stations
    dec = tiny_cfg.predictor.dec_len
    monkeypatch.setattr(OnlinePredictor, "predict",
                        lambda self, windows: np.zeros((dec, M)))
    full = train(short(tiny_cfg, 2), "opsrl", seed=0)

    for row_a, row_b in zip(base.curve, full.curve):
        assert row_a["mean_ttt"] == row_b["mean_ttt"]
        assert row_a["mean_cvv"] == row_b["mean_cvv"]
        assert row_a["lam"] == row_b["lam"]
    for k, v in base.agent.param_dict().items():
        np.testing.assert_array_equal(full.agent.param_dict()[k], v)


def test_train_curve_and_eval_roundtrip(tiny_cfg, tmp_path):
    res = train(short(tiny_cfg, 2), "opsrl", seed=1)
    assert len(res.curve) == 2
    for row in res.curve:
        assert row["lam"] >= 0.0
        assert np.isfinite(row["mean_ttt"]) and np.isfinite(row["mean_cvv"])

    path = tmp_path / "ck.bin"
    save_checkpoint(path, res.agent, res.predictor)

    agent2, pred2 = build_agent(tiny_cfg, CouplingEnv(tiny_cfg), "opsrl",
                                seed=77)
    load_checkpoint(path, agent2, pred2)
    assert agent2.lam == res.agent.lam
    assert pred2.model.converged == res.predictor.model.converged
    probe = np.random.default_rng(3).normal(size=res.agent.state_dim)
    assert agent2.act_greedy(probe) == res.agent.act_greedy(probe)
    logits_a, _ = agent2.actor.forward(probe)
    logits_b, _ = res.agent.actor.forward(probe)
    np.testing.assert_array_equal(logits_a, logits_b)

    ev_a = evaluate(tiny_cfg, "opsrl", res.agent, res.predictor,
                    seeds=(5, 6))
    ev_b = evaluate(tiny_cfg, "opsrl", agent2, pred2, seeds=(5, 6))
    for ep_a, ep_b in zip(ev_a, ev_b):
        assert core_metrics(ep_a.metrics) == core_metrics(ep_b.metrics)


def test_eval_compliance_zero_matches_greedy(tiny_cfg):
    greedy = evaluate(tiny_cfg, "greedy", seeds=(5,))

    res = train(short(tiny_cfg, 1), "ppo", seed=2)
    forced = evaluate(replace(tiny_cfg, compliance_rate=0.0), "ppo", res.agent,
                      seeds=(5,))
    assert core_metrics(forced[0].metrics) == core_metrics(greedy[0].metrics)
    applied_a = [row[1] for row in greedy[0].trace]
    applied_b = [row[1] for row in forced[0].trace]
    assert applied_a == applied_b
    assert all(row[6] for row in greedy[0].trace)       # full compliance
    assert not any(row[6] for row in forced[0].trace)   # forced overrides


def test_evaluate_keeps_each_episodes_logs(tiny_cfg):
    """Each record of a multi-seed evaluation keeps its own episode's seed,
    minute, droop and decision logs, as evaluating that seed alone gives:
    the next episode's reset does not clear the lists a record holds."""
    def logs(ep):
        return repr((ep.seed, ep.minute_log, ep.droop_log, ep.trace))

    both = evaluate(tiny_cfg, "greedy", seeds=(5, 6))
    alone = [evaluate(tiny_cfg, "greedy", seeds=(s,))[0] for s in (5, 6)]
    assert [ep.seed for ep in both] == [5, 6]
    assert all(ep.minute_log and ep.trace for ep in both)
    assert [logs(ep) for ep in both] == [logs(ep) for ep in alone]
    assert logs(both[0]) != logs(both[1])


def test_greedy_decisions_go_through_greedy_action(tiny_cfg, monkeypatch):
    """Greedy evaluation looks ``srl.greedy_action`` up by name at each
    decision, so a patch of that name (a tracer's decision span) sees
    every one."""
    vids = []

    def counting(env):
        vids.append(env.pending_vehicle.vid)
        return greedy_action(env)

    monkeypatch.setattr(srl, "greedy_action", counting)
    ev = evaluate(tiny_cfg, "greedy", seeds=(0,))
    assert len(vids) == ev[0].metrics.n_steps > 0
    assert vids == [row[5] for row in ev[0].trace]


def test_greedy_ticks_run_only_the_passes_with_work(monkeypatch):
    """On greedy case_a, seed 0: ``_tick_pre`` runs exactly on the ticks
    with a departure or a droop boundary, the station pass only when a
    station is due (and every tick with a due station runs it), ``_skip``
    reads kept ticks equal to a scan of the vehicles and stations, and
    the ``TrafficSim`` computes each (link, count) figure once."""
    cfg = load_scenario(evgrid.DATA_DIR / "case_a.yaml")
    pre_ticks, envs, figures, times = [], [], [], []
    pre, post = CouplingEnv._tick_pre, CouplingEnv._tick_post
    station_pass, skip = CouplingEnv._station_pass, CouplingEnv._skip
    tick_figures, travel_time = TrafficSim._tick_figures, TrafficSim._travel_time

    def tick_pre(self):
        pre_ticks.append(self._t)
        envs.append(self)
        pre(self)

    def tick_post(self):
        t, self.passed = self._t, False
        post(self)
        assert self.passed or all(cs.due > t for cs in self.stations)

    def pass_(self, t, t_end):
        assert min(cs.due for cs in self.stations) <= t
        self.passed = True
        station_pass(self, t, t_end)

    def skip_(self):
        left = self._vehicles[self._next_dep:]
        assert self._next_dep_t == (int(left[0].depart_s) if left
                                    else math.inf)
        assert self._due == min(cs.due for cs in self.stations)
        skip(self)

    def counted(log, fn):
        def wrapped(self, lid, count):
            log.append((id(self), lid, count))
            return fn(self, lid, count)
        return wrapped

    monkeypatch.setattr(CouplingEnv, "_tick_pre", tick_pre)
    monkeypatch.setattr(CouplingEnv, "_tick_post", tick_post)
    monkeypatch.setattr(CouplingEnv, "_station_pass", pass_)
    monkeypatch.setattr(CouplingEnv, "_skip", skip_)
    monkeypatch.setattr(TrafficSim, "_tick_figures",
                        counted(figures, tick_figures))
    monkeypatch.setattr(TrafficSim, "_travel_time",
                        counted(times, travel_time))
    m = evaluate(cfg, "greedy", seeds=(0,))[0].metrics
    env = envs[0]
    departures = {int(v.depart_s) for v in env._vehicles}
    boundaries = set(range(0, m.ticks, int(cfg.droop.interval_s)))
    assert pre_ticks == sorted(departures | boundaries)
    assert len(pre_ticks) < m.ticks - m.ticks_coasted
    for log in (figures, times):
        assert log and len(set(log)) == len(log)
        assert {sim for sim, _, _ in log} == {id(env.sim)}


def test_train_and_evaluate_check_their_seeds_before_an_episode(
        tmp_path, monkeypatch):
    """Called directly, ``train`` checks every training episode seed, and
    ``evaluate`` every seed, for a control-phase charging request before
    its first episode: with one EV trip in 36, the first seed without one
    fails as a ``ScenarioError`` naming it, and no trips are drawn."""
    p = tmp_path / "tinyharness.yaml"
    p.write_text(HARNESS_TINY)
    base = load_scenario(p)
    cfg = short(replace(base, demand=replace(base.demand, ev_fraction=1 / 36)),
                3)
    draws = []
    generate = env_module.generate_trips
    monkeypatch.setattr(env_module, "generate_trips", lambda cfg, seed: (
        draws.append(seed) or generate(cfg, seed)))
    ep_seeds = srl.train_episode_seeds(cfg, 1)
    bad = [es for es in ep_seeds if not has_control_request(cfg, es)]
    good = [es for es in ep_seeds if has_control_request(cfg, es)]
    assert bad and good[0] < bad[0]
    with pytest.raises(ScenarioError, match=f"episode seed {bad[0]} generates "
                       "no control-phase charging request"):
        train(cfg, "ppo", 1)
    with pytest.raises(ScenarioError, match=f"episode seed {bad[0]} "):
        evaluate(cfg, "greedy", seeds=(good[0], bad[0]))
    assert draws == []


def test_evaluate_leaves_the_predictor_as_it_found_it(tiny_cfg, monkeypatch):
    """``evaluate`` freezes the forecaster for its episodes only: one that
    was still training trains on afterwards, also when evaluation fails."""
    early = replace(tiny_cfg.predictor, batch=8, min_buffer=10,
                    train_every=10)
    res = train(short(replace(tiny_cfg, predictor=early), 1), "opsrl", seed=1)
    model = res.predictor.model
    losses = list(model.losses)
    assert losses and not model.converged
    evaluate(tiny_cfg, "opsrl", res.agent, res.predictor, seeds=(5,))
    assert not model.converged and model.losses == losses

    def failing(*args, **kwargs):
        raise RuntimeError("rollout failed")

    monkeypatch.setattr(srl, "rollout", failing)
    with pytest.raises(RuntimeError, match="rollout failed"):
        evaluate(tiny_cfg, "opsrl", res.agent, res.predictor, seeds=(5,))
    assert not model.converged and model.losses == losses


def test_dqn_and_pg_training_smoke(tiny_cfg):
    for method in ("dqn", "reinforce", "actorcritic"):
        res = train(short(tiny_cfg, 1), method, seed=3)
        assert len(res.curve) == 1
        assert res.curve[0]["lam"] == 0.0
        ev = evaluate(tiny_cfg, method, res.agent, seeds=(4,))
        assert ev[0].metrics.n_steps > 0


def test_pad_width(tiny_cfg):
    assert pad_width(tiny_cfg) == tiny_cfg.predictor.dec_len * 2
