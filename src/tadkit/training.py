"""Training loop: shuffle, mine, descend, checkpoint.

Anchor assignments depend only on the default geometry and the window's
targets, so they are computed once up front, as one (windows, anchors)
match array. Each epoch reshuffles the windows and re-mines negatives
(mining depends on current predictions). Each minibatch is decoded as one
stacked graph, mined window by window, and gathered with one take per
field. Given the same windows, seed and config, two runs
produce bit-identical checkpoints.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import shuffle_training_set
from .errors import ConfigError, NumericError, UsageError
from .losses import LossWeights, TrainingBatch, total_loss
from .matching import hard_negative_mine, match_anchors
from .model import Network, save_checkpoint
from .optim import Adam
from .tensor import concat, no_grad, take


@dataclass
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-4
    batch_size: int = 16
    seed: int = 7
    weights: LossWeights = field(default_factory=LossWeights)
    checkpoint_every: int = 10
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.divergence_limit <= 0:
            raise ConfigError("divergence_limit must be positive")


@dataclass
class EpochStats:
    epoch: int
    total: float
    classification: float
    overlap: float
    location: float
    l2: float
    num_positives: int
    num_negatives: int
    seconds: float

    def to_record(self):
        return asdict(self)


@dataclass
class TrainResult:
    history: list
    checkpoint_path: str = None


def batch_from_selection(decoded_list, matches_list, selections) -> TrainingBatch:
    """Pool already-selected anchors into a TrainingBatch. Each decode (one
    window or a stack) comes with its match array and the (positives,
    negatives) flat indices ``hard_negative_mine`` picked from it. Each
    field is gathered with one ``take`` per decode, in rows ordered window
    by window as [positives, negatives]. Useful when the mining decision
    must stay fixed, e.g. while checking gradients."""
    logits, overlaps, centers, widths, chosen, positives = [], [], [], [], [], []
    for decoded, matched, (pos, neg) in zip(decoded_list, matches_list, selections):
        pos = np.asarray(pos, dtype=int)
        sel = np.concatenate([pos, np.asarray(neg, dtype=int)])
        sel = sel[np.argsort(sel // matched.shape[-1], kind="stable")]  # window by window
        rows, pos_rows = np.unravel_index(sel, matched.shape), np.unravel_index(pos, matched.shape)
        logits.append(take(decoded.class_logits, rows))
        overlaps.append(take(decoded.overlap, rows))
        centers.append(take(decoded.centers, pos_rows))
        widths.append(take(decoded.widths, pos_rows))
        chosen.append(matched.reshape(-1)[sel])
        positives.append(matched.reshape(-1)[pos])
    chosen, positives = np.concatenate(chosen), np.concatenate(positives)
    if not chosen.size:
        raise UsageError("training batch selected no anchors")
    return TrainingBatch(
        class_logits=_join(logits),
        labels=chosen["label"],
        overlap=_join(overlaps),
        target_iou=chosen["iou"],
        pos_centers=_join(centers),
        pos_widths=_join(widths),
        pos_target_centers=positives["target_center"],
        pos_target_widths=positives["target_width"],
    )


def _join(tensors):
    return tensors[0] if len(tensors) == 1 else concat(tensors, axis=0)


def build_training_batch(decoded_list, matches_list, rng) -> TrainingBatch:
    """Mine each decode against its current overlap predictions, then pool."""
    selections = [
        hard_negative_mine(matched, decoded.overlap.data, rng)
        for decoded, matched in zip(decoded_list, matches_list)
    ]
    return batch_from_selection(decoded_list, matches_list, selections)


def fixed_selection_loss(network: Network, features, targets, rng):
    """The training loss of one window with its mining held fixed, for
    gradient checks. The window is matched and mined once (drawing from
    ``rng``); each call of the returned closure decodes ``features`` afresh
    and scores that selection with ``total_loss`` at the default weights.
    Returns ``(loss_fn, selection)``."""
    matched = match_anchors(network.anchors, targets)
    with no_grad():
        selection = hard_negative_mine(matched, network.decode(features).overlap.data, rng)

    def loss_fn():
        batch = batch_from_selection([network.decode(features)], [matched], [selection])
        return total_loss(batch, LossWeights(), network.parameters)[0]

    return loss_fn, selection


def _epoch_seeds(seed, epoch):
    shuffle_seed, mine_seed = np.random.SeedSequence([seed, epoch]).generate_state(2)
    return int(shuffle_seed), int(mine_seed)


def train(windows, network: Network, config: TrainConfig, out_dir=None, log_path=None):
    """Optimize the network on pre-built training windows.

    Writes interval checkpoints and a final ``model.ckpt`` under
    ``out_dir`` when given, and one JSON line of epoch statistics to
    ``log_path``. On divergence (non-finite loss or loss above the
    configured limit) or a non-finite activation, the last good parameters
    are checkpointed and NumericError propagates; both are checked before
    the backward pass and step, so those are the current parameters.
    """
    windows = list(windows)
    if not windows:
        raise UsageError("train requires at least one window")
    want = (network.config.window_length, network.config.feature_dim)
    for w in windows:
        if w.features.shape != want:
            raise UsageError(
                f"window {w.video_id!r}@{w.start} has shape {w.features.shape}, "
                f"network expects {want}"
            )
    matches = np.stack([match_anchors(network.anchors, w.targets) for w in windows])
    matches = matches.view(np.recarray)  # (windows, anchors)

    adam = Adam(network.parameters, learning_rate=config.learning_rate)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None

    def abort_with_last_good(exc):
        path = None
        if out_dir:
            path = os.path.join(out_dir, "model.ckpt")
            save_checkpoint(network, path)
        raise NumericError(
            f"training diverged; last good parameters {'saved to ' + path if path else 'kept'}"
            f" ({exc})"
        ) from exc

    history = []
    final_path = None
    try:
        for epoch in range(1, config.epochs + 1):
            tic = time.perf_counter()
            shuffle_seed, mine_seed = _epoch_seeds(config.seed, epoch)
            order = shuffle_training_set(list(range(len(windows))), shuffle_seed)
            mine_rng = np.random.default_rng(mine_seed)

            sums = np.zeros(5)
            n_pos = n_neg = n_batches = 0
            for lo in range(0, len(order), config.batch_size):
                chunk = order[lo:lo + config.batch_size]
                adam.zero_grad()
                try:  # a non-finite activation or loss
                    stacked = network.decode(np.stack([windows[i].features for i in chunk]))
                    batch = build_training_batch([stacked], [matches[chunk]], mine_rng)
                    loss, parts = total_loss(batch, config.weights, network.parameters)
                except NumericError as exc:
                    abort_with_last_good(exc)
                if parts["total"] > config.divergence_limit:
                    abort_with_last_good(
                        NumericError(f"loss {parts['total']:.3e} above {config.divergence_limit:.3e}")
                    )
                loss.backward()
                adam.step()
                sums += [parts["total"], parts["class"], parts["overlap"],
                         parts["location"], parts["l2"]]
                n_pos += batch.num_positives
                n_neg += batch.num_anchors - batch.num_positives
                n_batches += 1

            stats = EpochStats(
                epoch, *(float(s) for s in sums / n_batches), int(n_pos), int(n_neg),
                time.perf_counter() - tic,
            )
            history.append(stats)
            if log_fh:
                log_fh.write(json.dumps(stats.to_record(), sort_keys=True) + "\n")
                log_fh.flush()
            if out_dir and config.checkpoint_every and epoch % config.checkpoint_every == 0:
                save_checkpoint(network, os.path.join(out_dir, f"checkpoint_{epoch:03d}.ckpt"))
        if out_dir:
            final_path = os.path.join(out_dir, "model.ckpt")
            save_checkpoint(network, final_path)
    finally:
        if log_fh:
            log_fh.close()
    return TrainResult(history, final_path)
