"""Learning stack: constrained PPO with dual advantages, plus baselines.

The constrained agent maximizes reward subject to an episode-cost budget.
Each epoch the non-negative multiplier climbs on the observed mean episode
cost, then 40 minibatch iterations ascend a clipped importance-ratio
surrogate built from the combined advantage A_r - lambda * A_c (normalized
after combination), updating actor, reward critic and cost critic in that
order on the same minibatch. Baselines share the env and network substrate:
nearest-station greedy, ``DQNAgent``, ``PolicyGradientAgent`` (REINFORCE
without a critic, one-step actor-critic with one), and ``LagrangePPOAgent``
unconstrained as reward-only PPO and as PPO on a min-max penalty-shaped
reward calibrated on its first epoch. The full method pairs the constrained
agent with the online demand predictor; with augmentation disabled it
reduces exactly to the constrained-PPO baseline.

Every method is a policy acting in the same env: ``build_agent`` is the one
factory for agents and predictors (training, evaluation and the harness all
use it), and ``rollout`` is the one env-interaction loop (training of every
method and evaluation all run episodes through it).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from types import MethodType

import numpy as np

from .env import CouplingEnv, EnvError, EpisodeMetrics
from .nn import (Adam, DenseNet, assign_params, categorical_sample,
                 load_params, log_softmax, prefixed, save_params)
from .power import PowerFlowError
from .predictor import OnlinePredictor
from .scenario import ScenarioConfig, TrainConfig

METHODS = ("opsrl", "ppolag", "ppo", "ppopenalty", "dqn", "reinforce",
           "actorcritic", "greedy")
AUGMENTED = ("opsrl", "ppolag")     # padded state layout, constrained agent
PPO_FAMILY = ("opsrl", "ppolag", "ppo", "ppopenalty")
EPISODIC_PG = ("reinforce", "actorcritic")      # update after each episode


# ---------------------------------------------------------------------------
# Advantage, multiplier and update-step math
# ---------------------------------------------------------------------------

def compute_gae(rewards, values, gamma, lam):
    """Recursive generalized advantage estimation over one episode.

    ``values`` holds one more entry than ``rewards``; the final entry is the
    bootstrap value (zero at a terminal state).
    """
    r = np.asarray(rewards, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.shape[0] != r.shape[0] + 1:
        raise ValueError(f"need {r.shape[0] + 1} values (with bootstrap), "
                         f"got {v.shape[0]}")
    adv = np.empty_like(r)
    acc = 0.0
    for t in range(len(r) - 1, -1, -1):
        delta = r[t] + gamma * v[t + 1] - v[t]
        acc = delta + gamma * lam * acc
        adv[t] = acc
    return adv


def combined_advantage(adv_r, adv_c, lam):
    """Reward advantage penalized by the multiplier-weighted cost advantage."""
    a_r = np.asarray(adv_r, dtype=float)
    a_c = np.asarray(adv_c, dtype=float)
    if a_r.shape != a_c.shape:
        raise ValueError("advantage streams differ in length")
    return a_r - lam * a_c


def lagrangian_update(lam, j_c, b=0.0, alpha=0.035):
    """Projected ascent on the constraint violation: never goes negative."""
    return max(0.0, lam + alpha * (j_c - b))


def clipped_surrogate(zeta, adv, clip):
    """Per-sample objective contributions min(zeta*A, clip(zeta)*A)."""
    z = np.asarray(zeta, dtype=float)
    a = np.asarray(adv, dtype=float)
    return np.minimum(z * a, np.clip(z, 1.0 - clip, 1.0 + clip) * a)


def actor_objective(logits, actions, logp_old, adv, clip, ent_coef):
    """Minibatch actor loss and its exact gradient w.r.t. the logits.

    Gradient flows through the ratio only where the unclipped branch is the
    active minimum; the entropy bonus pulls toward uniform.
    Returns (loss, dloss/dlogits, info).
    """
    lp = log_softmax(np.asarray(logits, dtype=float))
    p = np.exp(lp)
    rows = np.arange(len(actions))
    zeta = np.exp(lp[rows, actions] - logp_old)
    contrib = clipped_surrogate(zeta, adv, clip)
    ent = -(p * lp).sum(axis=1)
    loss = -float(contrib.mean()) - ent_coef * float(ent.mean())

    unclipped = zeta * adv <= np.clip(zeta, 1.0 - clip, 1.0 + clip) * adv
    onehot = np.zeros_like(p)
    onehot[rows, actions] = 1.0
    g_sur = (unclipped * zeta * adv)[:, None] * (onehot - p)
    g_ent = -p * (lp + ent[:, None])
    dlogits = -(g_sur + ent_coef * g_ent) / len(actions)
    info = {"zeta": zeta, "contrib": contrib, "entropy": float(ent.mean()),
            "surrogate": float(contrib.mean())}
    return loss, dlogits, info


def _pg_step(actor, opt, states, actions, weights):
    """One Adam step of ``actor`` along the score-function gradient
    sum_t w_t grad log pi(a_t|s_t) / T; returns the taken log-probs."""
    logits, cache = actor.forward(states)
    lp = log_softmax(logits)
    p = np.exp(lp)
    rows = np.arange(len(actions))
    onehot = np.zeros_like(p)
    onehot[rows, actions] = 1.0
    dlogits = -(weights[:, None] * (onehot - p)) / len(actions)
    grads, _ = actor.backward(cache, dlogits)
    opt.step(actor.param_dict(), grads)
    return lp[rows, actions]


def _critic_step(critic, opt, v, cache, target):
    """One Adam step of ``critic`` on the mean squared error of its forward
    output ``v`` (n, 1), with ``cache``, to a fixed ``target`` (n,);
    returns that error."""
    diff = v[:, 0] - target
    grads, _ = critic.backward(cache, (2.0 * diff / len(diff))[:, None])
    opt.step(critic.param_dict(), grads)
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# Episode container
# ---------------------------------------------------------------------------

@dataclass
class EpisodeData:
    states: np.ndarray          # (T, D) as fed to the networks
    actions: np.ndarray         # (T,) int
    logps: np.ndarray | None    # (T,) log-prob of the taken action (PPO)
    rewards: np.ndarray
    costs: np.ndarray
    values_r: np.ndarray | None     # critic outputs at collection time (PPO)
    values_c: np.ndarray | None
    metrics: EpisodeMetrics


def episode_cost_return(ep: EpisodeData, gamma, discounted):
    if not discounted:
        return float(ep.costs.sum())
    return float(np.polynomial.polynomial.polyval(gamma, ep.costs))


# ---------------------------------------------------------------------------
# Constrained clipped-surrogate agent
# ---------------------------------------------------------------------------

class LagrangePPOAgent:
    """Actor with reward and cost critics and a non-negative multiplier.

    With ``constrained=False`` the cost critic and multiplier stay frozen
    and the agent is plain reward-only PPO.
    """

    def __init__(self, state_dim, n_actions, tc: TrainConfig, rng,
                 constrained=True):
        hidden = list(tc.hidden)
        self.actor = DenseNet([state_dim, *hidden, n_actions], rng)
        self.critic_r = DenseNet([state_dim, *hidden, 1], rng)
        self.critic_c = DenseNet([state_dim, *hidden, 1], rng)
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.tc = tc
        self.constrained = constrained
        self.lam = 0.0
        self.opt_actor = Adam(self.actor.param_dict(), tc.lr)
        self.opt_critic_r = Adam(self.critic_r.param_dict(), tc.lr)
        self.opt_critic_c = Adam(self.critic_c.param_dict(), tc.lr)

    def act(self, state, rng):
        """Sample an action; returns (action, logp, V_r, V_c)."""
        s = np.asarray(state, dtype=float)
        logits, _ = self.actor.forward(s)
        lp = log_softmax(logits)
        a = categorical_sample(np.exp(lp), rng)
        vr = float(self.critic_r.forward(s)[0][0])
        vc = float(self.critic_c.forward(s)[0][0])
        return a, float(lp[a]), vr, vc

    def act_greedy(self, state) -> int:
        logits, _ = self.actor.forward(np.asarray(state, dtype=float))
        return int(np.argmax(logits))

    def param_dict(self):
        return prefixed(actor=self.actor.param_dict(),
                        vr=self.critic_r.param_dict(),
                        vc=self.critic_c.param_dict())


def ppo_update(agent: LagrangePPOAgent, episodes, rng):
    """One epoch of updates on a batch of complete episodes.

    Order per epoch: multiplier, then ``iters_per_epoch`` minibatch rounds of
    actor, reward critic, cost critic. Advantages are estimated against the
    collection-time values, combined, then normalized. Returns loss stats.
    """
    tc = agent.tc
    stats = {"j_c": 0.0}
    if agent.constrained:
        j_c = float(np.mean([episode_cost_return(ep, tc.gamma, tc.discounted_dual)
                             for ep in episodes]))
        agent.lam = lagrangian_update(agent.lam, j_c, tc.cost_budget,
                                      tc.lambda_lr)
        stats["j_c"] = j_c

    adv_r, adv_c, ret_r, ret_c = [], [], [], []
    for ep in episodes:
        a_r = compute_gae(ep.rewards, np.append(ep.values_r, 0.0),
                          tc.gamma, tc.gae_lambda)
        a_c = compute_gae(ep.costs, np.append(ep.values_c, 0.0),
                          tc.gamma, tc.gae_lambda)
        adv_r.append(a_r)
        adv_c.append(a_c)
        ret_r.append(a_r + ep.values_r)
        ret_c.append(a_c + ep.values_c)
    states = np.concatenate([ep.states for ep in episodes])
    actions = np.concatenate([ep.actions for ep in episodes])
    logp_old = np.concatenate([ep.logps for ep in episodes])
    ret_r = np.concatenate(ret_r)
    ret_c = np.concatenate(ret_c)
    adv = combined_advantage(np.concatenate(adv_r), np.concatenate(adv_c),
                             agent.lam) if agent.constrained \
        else np.concatenate(adv_r)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    n = len(states)
    batch = min(tc.batch, n)
    for it in range(tc.iters_per_epoch):
        mb = rng.choice(n, size=batch, replace=False) if n > batch \
            else np.arange(n)
        logits, cache = agent.actor.forward(states[mb])
        loss, dlogits, info = actor_objective(
            logits, actions[mb], logp_old[mb], adv[mb], tc.clip,
            tc.entropy_coef)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite actor loss at minibatch {it}: "
                               f"surrogate {info['surrogate']}, "
                               f"entropy {info['entropy']}")
        if it == 0:
            stats["ratio_dev_first"] = float(np.abs(info["zeta"] - 1.0).mean())
        grads, _ = agent.actor.backward(cache, dlogits)
        agent.opt_actor.step(agent.actor.param_dict(), grads)
        stats["actor_loss"] = loss
        stats["entropy"] = info["entropy"]

        critic_plan = [(agent.critic_r, agent.opt_critic_r, ret_r, "critic_r_loss")]
        if agent.constrained:
            critic_plan.append((agent.critic_c, agent.opt_critic_c, ret_c,
                                "critic_c_loss"))
        for critic, opt, ret, key in critic_plan:
            v, vcache = critic.forward(states[mb])
            vloss = _critic_step(critic, opt, v, vcache, ret[mb])
            if not np.isfinite(vloss):
                raise RuntimeError(f"non-finite {key} at minibatch {it}")
            stats[key] = vloss
    stats["lam"] = agent.lam
    return stats


# ---------------------------------------------------------------------------
# Baseline agents
# ---------------------------------------------------------------------------

class PolicyGradientAgent:
    """Episodic policy gradient, one update per complete episode.

    Without a critic this is REINFORCE: each step is weighted by its
    normalized discounted return. With ``critic=True`` it is one-step
    actor-critic: the weight is the TD error against a critic that then
    regresses onto the frozen TD target.
    """

    def __init__(self, state_dim, n_actions, tc: TrainConfig, rng,
                 critic=False):
        self.actor = DenseNet([state_dim, *tc.hidden, n_actions], rng)
        self.critic = DenseNet([state_dim, *tc.hidden, 1], rng) \
            if critic else None
        self.tc = tc
        self.n_actions = n_actions
        self.opt_actor = Adam(self.actor.param_dict(), tc.lr)
        self.opt_critic = Adam(self.critic.param_dict(), tc.lr) \
            if critic else None

    def act(self, state, rng) -> int:
        logits, _ = self.actor.forward(np.asarray(state, dtype=float))
        return categorical_sample(np.exp(log_softmax(logits)), rng)

    act_greedy = LagrangePPOAgent.act_greedy

    def update(self, states, actions, rewards):
        """One gradient step on a complete episode; returns the policy loss
        (REINFORCE) or the mean squared TD error (actor-critic)."""
        s = np.asarray(states, dtype=float)
        if self.critic is None:
            g = np.empty(len(rewards))
            acc = 0.0
            for t in range(len(rewards) - 1, -1, -1):
                acc = rewards[t] + self.tc.gamma * acc
                g[t] = acc
            if len(g) > 1 and g.std() > 1e-8:
                g = (g - g.mean()) / g.std()
            lp = _pg_step(self.actor, self.opt_actor, s, actions, g)
            return float(-(lp * g).mean())
        v, vcache = self.critic.forward(s)
        target = np.asarray(rewards, dtype=float) \
            + self.tc.gamma * np.append(v[1:, 0], 0.0)   # terminal bootstrap
        _pg_step(self.actor, self.opt_actor, s, actions, target - v[:, 0])
        return _critic_step(self.critic, self.opt_critic, v, vcache, target)

    def param_dict(self):
        if self.critic is None:
            return prefixed(actor=self.actor.param_dict())
        return prefixed(actor=self.actor.param_dict(),
                        critic=self.critic.param_dict())


class DQNAgent:
    """Q-learning with replay, a periodically synced target net and
    linearly annealed epsilon-greedy exploration."""

    REPLAY_CAP = 10_000
    TARGET_SYNC = 200
    EPS_START, EPS_END = 1.0, 0.05

    def __init__(self, state_dim, n_actions, tc: TrainConfig, rng):
        self.q = DenseNet([state_dim, *tc.hidden, n_actions], rng)
        self.target = DenseNet([state_dim, *tc.hidden, n_actions], rng)
        self._sync_target()
        self.tc = tc
        self.n_actions = n_actions
        self.opt = Adam(self.q.param_dict(), tc.lr)
        self.replay = deque(maxlen=self.REPLAY_CAP)
        self.updates = 0

    def _sync_target(self):
        assign_params(self.target.param_dict(),
                      {k: v.copy() for k, v in self.q.param_dict().items()})

    def epsilon(self, progress):
        """progress: fraction of planned episodes done; anneal over first 80%."""
        frac = min(1.0, progress / 0.8) if progress >= 0 else 0.0
        return self.EPS_START + (self.EPS_END - self.EPS_START) * frac

    def act(self, state, rng, eps):
        if rng.random() < eps:
            return int(rng.integers(self.n_actions))
        return self.act_greedy(state)

    def act_greedy(self, state) -> int:
        qv, _ = self.q.forward(np.asarray(state, dtype=float))
        return int(np.argmax(qv))

    def push(self, s, a, r, s_next, done):
        self.replay.append((s, a, r, s_next, done))

    def learn_step(self, s, a, outcome, rng):
        """``rollout``'s on_step for DQN: store the transition (all-zero
        next state at the terminal step), then take one update step."""
        nxt = outcome.state if not outcome.terminal else np.zeros_like(s)
        self.push(s, a, outcome.reward, nxt, outcome.terminal)
        self.update_step(rng)

    def update_step(self, rng):
        batch = self.tc.batch
        if len(self.replay) < batch:
            return None
        idx = rng.choice(len(self.replay), size=batch, replace=False)
        s = np.stack([self.replay[i][0] for i in idx])
        a = np.array([self.replay[i][1] for i in idx], dtype=int)
        r = np.array([self.replay[i][2] for i in idx])
        s2 = np.stack([self.replay[i][3] for i in idx])
        done = np.array([float(self.replay[i][4]) for i in idx])

        q_next, _ = self.target.forward(s2)
        target = r + self.tc.gamma * (1.0 - done) * q_next.max(axis=1)
        q, cache = self.q.forward(s)
        rows = np.arange(batch)
        diff = q[rows, a] - target
        loss = float(np.mean(diff * diff))
        dq = np.zeros_like(q)
        dq[rows, a] = 2.0 * diff / batch
        grads, _ = self.q.backward(cache, dq)
        self.opt.step(self.q.param_dict(), grads)
        self.updates += 1
        if self.updates % self.TARGET_SYNC == 0:
            self._sync_target()
        return loss

    def param_dict(self):
        return prefixed(q=self.q.param_dict(), tgt=self.target.param_dict())


# ---------------------------------------------------------------------------
# Agent factory and rollout collection
# ---------------------------------------------------------------------------

def pad_width(cfg: ScenarioConfig) -> int:
    """Forecast slots appended to the state for the augmented methods."""
    return cfg.predictor.dec_len * cfg.n_stations


def build_agent(cfg: ScenarioConfig, env: CouplingEnv, method: str, seed=0):
    """Fresh (untrained) agent + predictor matching a method's layout.

    The agent's ``tag`` records the method (as its index in ``METHODS``),
    the env's state and action dims and the forecast pad width: the
    identity that ``save_checkpoint`` writes and ``load_checkpoint``
    checks.
    """
    pad = pad_width(cfg) if method in AUGMENTED else 0
    dim = env.state_dim + pad
    tc = cfg.training
    rng = np.random.default_rng([seed, cfg.seed, 4])
    if method in PPO_FAMILY:
        agent = LagrangePPOAgent(dim, env.action_dim, tc, rng,
                                 constrained=method in AUGMENTED)
    elif method == "dqn":
        agent = DQNAgent(dim, env.action_dim, tc, rng)
    elif method in EPISODIC_PG:
        agent = PolicyGradientAgent(dim, env.action_dim, tc, rng,
                                    critic=method == "actorcritic")
    else:
        raise ValueError(f"method '{method}' does not use an agent")
    agent.tag = {"method": METHODS.index(method), "state_dim": env.state_dim,
                 "action_dim": env.action_dim, "pad_width": pad}
    predictor = OnlinePredictor(cfg, seed) if method == "opsrl" else None
    return agent, predictor


def rollout(env: CouplingEnv, policy, ep_seed,
            predictor: OnlinePredictor | None = None, pad: int = 0,
            on_step=None) -> EpisodeData:
    """Run one episode of ``policy`` on the env reset with ``ep_seed``.

    ``policy(s)`` gets the network input (the state, augmented with the
    forecast or zero-padded by ``pad``) and returns the action, or a tuple
    of the action and per-step extras (PPO: log-prob, V_r, V_c), which fill
    the PPO-only columns; without extras those columns are None. The
    decision time passed to the env covers the augmentation and the policy
    call only. ``on_step(s, a, outcome)`` runs after each step.
    """
    state = env.reset(ep_seed)
    if predictor is not None:
        predictor.start_episode()
        predictor.observe(env.windows)
    states, actions, extras, rewards, costs = [], [], [], [], []
    clock = time.perf_counter
    while True:
        t0 = clock()
        if predictor is not None:
            s_in = predictor.augment(state, env.windows)
        elif pad:
            s_in = np.concatenate([state, np.zeros(pad)])
        else:
            s_in = state
        a = policy(s_in)
        dt = clock() - t0
        if type(a) is tuple:
            a, *extra = a
            extras.append(extra)
        out = env.apply_action(a, decision_s=dt)
        if predictor is not None:
            predictor.observe(env.windows)
        if on_step is not None:
            on_step(s_in, a, out)
        states.append(s_in)
        actions.append(a)
        rewards.append(out.reward)
        costs.append(out.cost)
        if out.terminal:
            break
        state = out.state
    logps = values_r = values_c = None
    if extras:
        logps, values_r, values_c = (np.array(col) for col in zip(*extras))
    return EpisodeData(np.array(states), np.array(actions, dtype=int), logps,
                       np.array(rewards), np.array(costs), values_r, values_c,
                       env.episode_metrics())


def greedy_action(env: CouplingEnv, state=None) -> int:
    """Nearest station for the pending EV. ``state`` is unused; it lets
    ``MethodType(greedy_action, env)`` serve as a ``rollout`` policy."""
    return env.greedy_station(env.pending_vehicle.origin)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    method: str
    seed: int
    agent: object
    predictor: OnlinePredictor | None
    curve: list                  # one dict per epoch


def _curve_row(epoch, episodes, lam, predictor):
    ploss = float("nan")
    if predictor is not None and predictor.model.losses:
        ploss = predictor.model.losses[-1]
    return {
        "epoch": epoch,
        "mean_ttt": float(np.mean([ep.metrics.ttt_s for ep in episodes])),
        "mean_cvv": float(np.mean([ep.metrics.cvv for ep in episodes])),
        "lam": lam,
        "predictor_loss": ploss,
        "mean_reward": float(np.mean([ep.rewards.sum() for ep in episodes])),
        "mean_cost": float(np.mean([ep.costs.sum() for ep in episodes])),
    }


def _minmax_norm(x, lo, hi):
    span = hi - lo
    if span <= 1e-12:
        return np.zeros_like(x)
    return (x - lo) / span


def _penalty_shaped(ep, bounds):
    """ppopenalty's reward: min-max normalized reward minus cost."""
    r_lo, r_hi, c_lo, c_hi = bounds
    return replace(ep, rewards=_minmax_norm(ep.rewards, r_lo, r_hi)
                   - _minmax_norm(ep.costs, c_lo, c_hi))


def train(cfg: ScenarioConfig, method: str, seed: int,
          progress=None) -> TrainResult:
    """Train one method on one seed; returns the agent and per-epoch curve.

    The run is ``cfg.training.epochs`` epochs of ``episodes_per_epoch``
    episodes. Episode seeds advance deterministically from ``seed``; the
    policy, update and predictor random streams are seeded independently
    so that disabling augmentation leaves trajectories bit-identical. PPO
    methods update once per epoch, REINFORCE and actor-critic after each
    episode, and DQN after each step (epsilon is fixed per episode).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'")
    if method == "greedy":
        raise ValueError("greedy has no training phase; evaluate it directly")
    epochs, n_ep = cfg.training.epochs, cfg.training.episodes_per_epoch
    env = CouplingEnv(cfg)
    agent, predictor = build_agent(cfg, env, method, seed)
    pad = agent.tag["pad_width"]
    act_rng = np.random.default_rng([seed, cfg.seed, 2])
    upd_rng = np.random.default_rng([seed, cfg.seed, 5])

    on_step = None
    if method == "dqn":
        total = epochs * n_ep
        on_step = partial(agent.learn_step, rng=upd_rng)

        def policy(s):
            return agent.act(s, act_rng, eps)   # eps: set per episode below
    else:
        def policy(s):
            return agent.act(s, act_rng)

    curve = []
    bounds = None        # penalty shaping calibrated on the first epoch
    ep_index = 0
    for epoch in range(epochs):
        episodes = []
        for k in range(n_ep):
            if method == "dqn":
                eps = agent.epsilon(ep_index / total)
            try:
                ep = rollout(env, policy, seed * 1_000_000 + ep_index,
                             predictor, pad, on_step)
            except (EnvError, PowerFlowError) as exc:
                raise RuntimeError(
                    f"{method} epoch {epoch} episode {k}: {exc}") from exc
            if method in EPISODIC_PG:
                agent.update(ep.states, ep.actions, ep.rewards)
            episodes.append(ep)
            ep_index += 1
        extra = {}
        if method in PPO_FAMILY:
            update_eps = episodes
            if method == "ppopenalty":
                if bounds is None:
                    all_r = np.concatenate([ep.rewards for ep in episodes])
                    all_c = np.concatenate([ep.costs for ep in episodes])
                    bounds = (all_r.min(), all_r.max(), all_c.min(),
                              all_c.max())
                update_eps = [_penalty_shaped(ep, bounds) for ep in episodes]
            stats = ppo_update(agent, update_eps, upd_rng)
            extra["ratio_dev_first"] = stats["ratio_dev_first"]
        curve.append(_curve_row(epoch, episodes, getattr(agent, "lam", 0.0),
                                predictor))
        curve[-1].update(extra)
        if progress:
            progress(curve[-1])
    return TrainResult(method, seed, agent, predictor, curve)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalEpisode:
    seed: int
    metrics: EpisodeMetrics
    minute_log: list
    droop_log: list
    trace: list                 # CouplingEnv.trace rows, one per decision


def evaluate(cfg: ScenarioConfig, method: str, agent=None, predictor=None,
             *, seeds):
    """Deterministic greedy-action rollouts; one record per seed in ``seeds``.

    Every setting comes from ``cfg`` (driver compliance included) and the
    state layout from the agent's ``tag``. The predictor, when present,
    keeps forecasting but never trains during evaluation.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'")
    if method != "greedy" and agent is None:
        raise ValueError(f"method '{method}' needs a trained agent")
    env = CouplingEnv(cfg)
    if predictor is not None:
        predictor.model.converged = True      # freeze learning, keep predicting
    # A bound method is the cheapest callable for the ~2 us greedy decision
    # the timer covers; functools.partial measured ~10% slower.
    if method == "greedy":
        policy, pad = MethodType(greedy_action, env), 0
    else:
        policy, pad = agent.act_greedy, agent.tag["pad_width"]
    records = []
    for es in seeds:
        ep = rollout(env, policy, int(es), predictor, pad)
        records.append(EvalEpisode(int(es), ep.metrics, list(env.minute_log),
                                   list(env.droop_log), list(env.trace)))
    return records


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, agent, predictor: OnlinePredictor | None = None):
    """Write a ``build_agent`` agent, its tag as float ``meta.*`` entries,
    and the predictor if one is given."""
    params = dict(agent.param_dict())
    params.update({f"meta.{k}": np.array([float(v)])
                   for k, v in agent.tag.items()})
    if hasattr(agent, "lam"):
        params["meta.lam"] = np.array([agent.lam])
    if hasattr(agent, "updates"):
        params["meta.updates"] = np.array([agent.updates], dtype=float)
    if predictor is not None:
        params.update(prefixed(pred=predictor.model.param_dict()))
        params["predmeta.losses"] = np.array(predictor.model.losses)
        params["predmeta.converged"] = np.array(
            [float(predictor.model.converged)])
    save_params(path, params)


def _tag_text(tag):
    m = tag["method"]
    name = repr(METHODS[int(m)]) if float(m).is_integer() \
        and 0 <= m < len(METHODS) else f"method index {m:g}"
    return (f"{name} (state dim {tag['state_dim']:g}, action dim "
            f"{tag['action_dim']:g}, pad width {tag['pad_width']:g})")


def load_checkpoint(path, agent, predictor: OnlinePredictor | None = None):
    """Load a ``save_checkpoint`` file into a ``build_agent`` agent (and
    predictor). Raises ValueError for a file without a tag, a tag other
    than the agent's, an entry the targets do not use, or a missing or
    misshapen parameter."""
    loaded = load_params(path)
    if "meta.method" not in loaded:
        raise ValueError("checkpoint predates method tags; train it again")
    tag = {k: float(loaded.get(f"meta.{k}", [np.nan])[0]) for k in agent.tag}
    if tag != agent.tag:
        raise ValueError(f"checkpoint was saved for {_tag_text(tag)}, "
                         f"not {_tag_text(agent.tag)}")
    params = dict(agent.param_dict())
    meta = [f"meta.{k}" for k in agent.tag]
    meta += [f"meta.{k}" for k in ("lam", "updates") if hasattr(agent, k)]
    if predictor is not None:
        params.update(prefixed(pred=predictor.model.param_dict()))
        meta += ["predmeta.losses", "predmeta.converged"]
    unused = [k for k in loaded if k not in params and k not in meta]
    if unused:
        raise ValueError("checkpoint has entries the target does not use: "
                         + ", ".join(unused))
    assign_params(params, loaded)
    if hasattr(agent, "lam"):
        agent.lam = float(loaded["meta.lam"][0])
    if hasattr(agent, "updates"):
        agent.updates = int(loaded["meta.updates"][0])
    if predictor is not None:
        predictor.model.losses = list(loaded["predmeta.losses"])
        predictor.model.converged = bool(loaded["predmeta.converged"][0])
