"""Learning-stack tests: GAE, clip math, multiplier, agents, rollouts."""

from dataclasses import replace
from functools import partial
from types import MethodType

import numpy as np
import pytest

from evgrid.env import CouplingEnv
from evgrid.nn import log_softmax
from evgrid.predictor import OnlinePredictor
from evgrid.scenario import TrainConfig, load_scenario
from evgrid.srl import (DQNAgent, EpisodeData, LagrangePPOAgent,
                        PolicyGradientAgent, actor_objective, build_agent,
                        clipped_surrogate, combined_advantage, compute_gae,
                        evaluate, greedy_action, lagrangian_update,
                        load_checkpoint, pad_width, ppo_update, rollout,
                        save_checkpoint, train)

from oracles import gae_double_sum

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


def synth_episode(agent, rng, T, reward_fn, cost_fn, dim):
    """Roll a synthetic episode through the live policy so stored log-probs
    match the actor exactly."""
    S, A, LP, R, C, VR, VC = [], [], [], [], [], [], []
    for t in range(T):
        s = rng.normal(size=dim)
        a, lp, vr, vc = agent.act(s, rng)
        S.append(s)
        A.append(a)
        LP.append(lp)
        R.append(reward_fn(t, a))
        C.append(cost_fn(t, a))
        VR.append(vr)
        VC.append(vc)
    return EpisodeData(np.array(S), np.array(A, dtype=int), np.array(LP),
                       np.array(R), np.array(C), np.array(VR), np.array(VC),
                       None)


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
            eps = [synth_episode(agent, rng, 1,
                                 lambda t, a: bandit_reward(a),
                                 lambda t, a: 0.0, 1) for _ in range(16)]
            # bandit states must be identical, not random
            for ep in eps:
                ep.states[...] = 0.0
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
        "greedy": (MethodType(greedy_action, env), None),
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
        for col in (ep.states, ep.actions, ep.rewards, ep.costs):
            assert len(col) == n, kind
        assert ep.states.shape == (n, env.state_dim)
        ppo_cols = (ep.logps, ep.values_r, ep.values_c)
        if kind == "ppo":
            assert all(col.shape == (n,) for col in ppo_cols)
        else:
            assert all(col is None for col in ppo_cols), kind

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


def test_dqn_and_pg_training_smoke(tiny_cfg):
    for method in ("dqn", "reinforce", "actorcritic"):
        res = train(short(tiny_cfg, 1), method, seed=3)
        assert len(res.curve) == 1
        assert res.curve[0]["lam"] == 0.0
        ev = evaluate(tiny_cfg, method, res.agent, seeds=(4,))
        assert ev[0].metrics.n_steps > 0


def test_pad_width(tiny_cfg):
    assert pad_width(tiny_cfg) == tiny_cfg.predictor.dec_len * 2
