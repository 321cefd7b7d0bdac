"""Double deep Q-learning (van Hasselt et al. 2016) — the paper's Ω learner.

The agent keeps an online network and a target network.  Targets are the
double-DQN estimate

    y = r + γ · Q_target(s', argmax_a Q_online(s', a)) · (1 − done)

with a Huber loss on the TD error, trained by Adam.  Everything runs on
the numpy :class:`~repro.rl.network.MLP`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.rl.network import MLP
from repro.rl.optim import Adam
from repro.rl.replay import Batch, ReplayBuffer

__all__ = ["DoubleDQNAgent", "DQNConfig"]


@dataclass(frozen=True)
class DQNConfig:
    """Hyper-parameters for :class:`DoubleDQNAgent`.

    Attributes:
        state_dim: Observation dimension.
        num_actions: Size of the discrete action set (2 for skip/run).
        hidden: Hidden-layer widths.
        gamma: Discount factor.
        lr: Adam learning rate.
        batch_size: Replay mini-batch size.
        buffer_capacity: Replay buffer size.
        target_sync_every: Hard target-network sync period (updates).
        huber_delta: Huber loss transition point.
        learn_start: Minimum buffer fill before updates begin.
    """

    state_dim: int
    num_actions: int = 2
    hidden: Sequence[int] = (64, 64)
    gamma: float = 0.95
    lr: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 50_000
    target_sync_every: int = 250
    huber_delta: float = 1.0
    learn_start: int = 500


class DoubleDQNAgent:
    """Double-DQN agent over a discrete action space.

    Args:
        config: Hyper-parameters.
        rng: Source of randomness for init, exploration and replay.
    """

    def __init__(self, config: DQNConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        sizes = [config.state_dim, *config.hidden, config.num_actions]
        self.online = MLP(sizes, rng)
        self.target = MLP(sizes, rng)
        self.target.copy_from(self.online)
        self.optimizer = Adam(self.online.params, lr=config.lr)
        self.buffer = ReplayBuffer(config.buffer_capacity, rng)
        self.updates = 0

    # ------------------------------------------------------------------
    def q_values(self, state) -> np.ndarray:
        """Online Q(s, ·) for a single state."""
        return self.online.forward(np.asarray(state, dtype=float))[0]

    def act(self, state, epsilon: float = 0.0) -> int:
        """ε-greedy action."""
        if epsilon > 0.0 and self.rng.random() < epsilon:
            return int(self.rng.integers(self.config.num_actions))
        return int(np.argmax(self.q_values(state)))

    # ------------------------------------------------------------------
    def remember(self, state, action: int, reward: float, next_state, done: bool) -> None:
        """Store one transition in the replay buffer."""
        self.buffer.push(state, action, reward, next_state, done)

    def update(self) -> Optional[float]:
        """One gradient step on a replay batch.

        Returns:
            The batch loss, or None when the buffer has not yet reached
            ``learn_start`` transitions.
        """
        cfg = self.config
        if len(self.buffer) < cfg.learn_start:
            return None
        batch = self.buffer.sample(cfg.batch_size)
        targets = self._double_dqn_targets(batch)
        q_all = self.online.forward(batch.states, train=True)
        idx = np.arange(cfg.batch_size)
        q_taken = q_all[idx, batch.actions]
        td = q_taken - targets
        # Huber gradient on the taken action only.
        grad_td = np.clip(td, -cfg.huber_delta, cfg.huber_delta) / cfg.batch_size
        grad_output = np.zeros_like(q_all)
        grad_output[idx, batch.actions] = grad_td
        grads = self.online.backward(grad_output)
        self.optimizer.step(grads)
        self.updates += 1
        if self.updates % cfg.target_sync_every == 0:
            self.target.copy_from(self.online)
        abs_td = np.abs(td)
        quad = np.minimum(abs_td, cfg.huber_delta)
        loss = float(np.mean(0.5 * quad**2 + cfg.huber_delta * (abs_td - quad)))
        return loss

    def _double_dqn_targets(self, batch: Batch) -> np.ndarray:
        """``r + γ Q_target(s', argmax_a Q_online(s', a))`` with done mask."""
        online_next = self.online.forward(batch.next_states)
        best_actions = np.argmax(online_next, axis=1)
        target_next = self.target.forward(batch.next_states)
        idx = np.arange(batch.states.shape[0])
        bootstrap = target_next[idx, best_actions]
        return batch.rewards + self.config.gamma * bootstrap * (~batch.dones)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpoint of both networks."""
        return {
            "online": self.online.state_dict(),
            "target": self.target.state_dict(),
            "updates": self.updates,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a checkpoint produced by :meth:`state_dict`."""
        self.online.load_state_dict(state["online"])
        self.target.load_state_dict(state["target"])
        self.updates = int(state["updates"])
