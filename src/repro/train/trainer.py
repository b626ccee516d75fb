"""The Trainer event loop: one epoch loop for every model in the repo.

Every ``for epoch ... for batch ...`` loop (CLFD's four training
stages, co-teaching, and every baseline's but ULC's and DivMix's, whose
state between epochs no snapshot holds) reduces to the same skeleton: draw batches from an rng, compute a loss, backprop, clip,
step, record.  :class:`Trainer` owns that skeleton once and adds the
two things none of the hand-rolled loops had:

* **checkpointing** — atomic per-epoch snapshots of module parameters,
  full optimizer state (Adam ``m``/``v``/``t`` and ``lr``), the
  training ``Generator``'s exact RNG state, and the loss history,
  through a :class:`~repro.train.CheckpointManager`;
* **observability** — one :class:`~repro.train.MetricJournal` line per
  epoch (loss, pre-clip grad norm, lr, wall-clock, optional
  ``nn.profile`` op breakdown).

Determinism contract: the Trainer consumes randomness *only* through
the caller's ``batches(rng)`` / ``step(batch)`` closures, in the same
order the hand-rolled loops did, and snapshots the generator state at
every epoch boundary.  A run killed at any point and resumed from its
last snapshot therefore produces **bit-identical** final parameters,
optimizer state and journal entries to an uninterrupted run.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .. import nn
from .seeding import generator_state, set_generator_state

if TYPE_CHECKING:
    from .run import TrainRun

__all__ = ["Trainer", "TrainingInterrupted"]


class TrainingInterrupted(RuntimeError):
    """Deliberate mid-run stop (crash drills, ``--stop-after``).

    Raised *after* the snapshot for ``tag`` is durably on disk, so a
    handler — or the next process — can resume from exactly this point.
    """

    def __init__(self, tag: str):
        self.tag = tag
        super().__init__(
            f"training interrupted after {tag!r} (checkpoint saved; "
            f"resume to continue)")


class Trainer:
    """Checkpointed, observable epoch loop; see module docstring.

    Built by :meth:`TrainRun.trainer <repro.train.TrainRun.trainer>`,
    whose ``run`` supplies the checkpoints, journal, resume flag,
    snapshot cadence, ``stop_after`` directive, profiling and anomaly
    detection.

    Parameters
    ----------
    run: the :class:`~repro.train.TrainRun` this loop belongs to.
    modules: the module(s) whose parameters the snapshot covers — a
        single :class:`~repro.nn.Module` or a ``{name: Module}`` dict
        when the optimizer spans several (DeepLog trains embedding +
        LSTM + head together, CTRR a stage's encoder and classifier).
    optimizer: the optimizer driving ``modules``; snapshots capture its
        full state via ``state_dict``.
    grad_clip: global-norm clip threshold (None = record the norm but
        never scale).
    scope: checkpoint tag and journal ``phase`` for this loop.
    """

    def __init__(self, run: "TrainRun", modules, optimizer: nn.Adam, *,
                 grad_clip: float | None, scope: str):
        if isinstance(modules, nn.Module):
            modules = {"model": modules}
        if not modules:
            raise ValueError("Trainer needs at least one module")
        self.run = run
        self.modules: dict[str, nn.Module] = dict(modules)
        self.optimizer = optimizer
        self.grad_clip = grad_clip
        self.scope = scope
        self.history: list[float] = []

    # ------------------------------------------------------------------
    def fit(self, batches: Callable[[np.random.Generator], Iterable],
            step: Callable[[object], "nn.Tensor | None"], *,
            epochs: int, rng: np.random.Generator) -> list[float]:
        """Run (or resume) the loop; returns the per-epoch loss history.

        ``batches(rng)`` is called once per epoch and must yield the
        epoch's batches (typically index arrays); ``step(batch)``
        computes the batch loss as an autograd Tensor, or returns None
        to skip the batch.  Both may draw from the *same* ``rng`` —
        snapshots capture its state, so resumed draws line up exactly.
        """
        self.history = []
        start = self._restore(rng)
        if start is None:  # scope already ran to completion
            return self.history

        for epoch in range(start, epochs):
            epoch_start = time.perf_counter()
            losses: list[float] = []
            norms: list[float] = []
            if self.run.profile:
                with nn.profile() as prof:
                    self._run_epoch(batches, step, rng, losses, norms)
                profile = self._profile_summary(prof)
            else:
                self._run_epoch(batches, step, rng, losses, norms)
                profile = None

            mean_loss = float(np.mean(losses)) if losses else 0.0
            mean_norm = float(np.mean(norms)) if norms else 0.0
            self.history.append(mean_loss)
            if self.run.journal is not None:
                self.run.journal.log_epoch(
                    phase=self.scope, epoch=epoch, loss=mean_loss,
                    grad_norm=mean_norm, lr=float(self.optimizer.lr),
                    batches=len(losses),
                    wall_s=time.perf_counter() - epoch_start,
                    profile=profile)

            completed = epoch + 1
            done = completed >= epochs
            interrupt = self._interrupt_tag(completed, done)
            if self.run.checkpoints is not None and (
                    done or interrupt
                    or completed % self.run.snapshot_every == 0):
                self._snapshot(rng, completed, done)
            if interrupt:
                raise TrainingInterrupted(interrupt)
        return self.history

    # ------------------------------------------------------------------
    def _run_epoch(self, batches, step, rng, losses, norms) -> None:
        for batch in batches(rng):
            try:
                loss = self._forward_backward(step, batch)
            except nn.AnomalyError as err:
                if self.run.journal is not None:
                    self.run.journal.log_event(
                        "anomaly", self.scope, op=err.op,
                        anomaly_phase=err.phase, batch=len(losses),
                        message=str(err).splitlines()[0])
                raise
            if loss is None:
                continue
            norm = nn.clip_grad_norm(
                self.optimizer.parameters,
                self.grad_clip if self.grad_clip is not None
                else float("inf"))
            self.optimizer.step()
            losses.append(loss.item())
            norms.append(norm)

    def _forward_backward(self, step, batch) -> "nn.Tensor | None":
        """One forward + backward, under anomaly detection when enabled.

        With ``detect_anomaly=True`` a NaN/inf anywhere in the batch's
        graph raises :class:`nn.AnomalyError` naming the op and its
        creation site instead of corrupting the parameters; the caller
        journals the event and re-raises.
        """
        if not self.run.detect_anomaly:
            return self._step_and_backward(step, batch)
        with nn.detect_anomaly():
            return self._step_and_backward(step, batch)

    def _step_and_backward(self, step, batch) -> "nn.Tensor | None":
        loss = step(batch)
        if loss is None:
            return None
        self.optimizer.zero_grad()
        loss.backward()
        return loss

    @staticmethod
    def _profile_summary(prof, top: int = 8) -> dict[str, float]:
        ranked = sorted(prof.ops.items(),
                        key=lambda kv: -kv[1].backward_seconds)
        return {name: round(stats.backward_seconds, 6)
                for name, stats in ranked[:top]}

    def _interrupt_tag(self, completed: int, done: bool) -> str | None:
        """Which stop-after directive (if any) fires at this boundary."""
        stop_after = self.run.stop_after
        if stop_after is None:
            return None
        if stop_after == f"{self.scope}@{completed}":
            return stop_after
        if done and stop_after == self.scope:
            return self.scope
        return None

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _snapshot(self, rng: np.random.Generator, completed: int,
                  done: bool) -> None:
        self.run.checkpoints.save(self.scope, {
            "modules": {name: module.state_dict()
                        for name, module in self.modules.items()},
            "optimizer": self.optimizer.state_dict(),
            "rng": generator_state(rng),
            "epoch": int(completed),
            "history": [float(x) for x in self.history],
            "done": bool(done),
        })

    def _restore(self, rng: np.random.Generator) -> int | None:
        """Load this scope's snapshot; returns the start epoch.

        Returns None when the scope already completed — modules, rng and
        history are restored so downstream phases proceed identically.
        Older snapshots also carry ``"scheduler"``/``"callbacks"`` keys
        (always ``None``/``[]``); they are ignored.
        """
        if not self.run.resume or self.run.checkpoints is None:
            return 0
        state = self.run.checkpoints.load(self.scope)
        if state is None:
            return 0
        for name, module in self.modules.items():
            module.load_state_dict(state["modules"][name])
        self.optimizer.load_state_dict(state["optimizer"])
        set_generator_state(rng, state["rng"])
        self.history = [float(x) for x in state["history"]]
        start = int(state["epoch"])
        if self.run.journal is not None:
            self.run.journal.drop(
                lambda e: (e.get("phase") == self.scope
                           and "event" not in e
                           and e.get("epoch", -1) >= start))
            self.run.journal.log_event("resume", self.scope, epoch=start,
                                   done=bool(state["done"]))
        return None if state["done"] else start
