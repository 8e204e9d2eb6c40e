"""Atomic JSON checkpoints so long anytime solves survive being killed.

Two layers use this module:

* :func:`repro.solvers.qbp.solve_qbp` periodically snapshots its
  full iteration state (:class:`QbpCheckpoint`: iteration counter,
  current/incumbent/shadow parts, the accumulated ``h`` vector, cost
  history, and the RNG state) through a :class:`QbpCheckpointer`.
  Resuming from such a snapshot is *bit-exact*: the continued run
  produces the same incumbent as an uninterrupted one.
* ``repro.eval.harness.run_table`` records completed circuit rows in a
  :class:`TableCheckpoint` (defined there) so a killed Table II/III
  sweep loses no finished circuits and resumes mid-circuit from the QBP
  snapshot.

File format (``qbp-checkpoint-v1``): a single JSON object with keys
``format, label, n, m, iteration, part, h, best_part, best_pen,
best_feas_part, best_feas_cost, shadow_part, history, improvements,
rng_state``.  Writes are atomic (temp file + ``os.replace``), so a kill
mid-write leaves the previous snapshot intact, and saves rotate the
previous generation to ``<name>.bak``; corrupted or wrong-format files
surface as :class:`CheckpointError`, while the forgiving loaders warn
and *salvage* from the backup generation (emitting ``"corrupt"`` /
``"salvaged"`` :class:`CheckpointEvent` records) before giving up with
``None``.  See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs.events import CheckpointEvent
from repro.obs.telemetry import resolve as resolve_telemetry
from repro.runtime.faults import maybe_fault

logger = logging.getLogger(__name__)

QBP_CHECKPOINT_FORMAT = "qbp-checkpoint-v1"
TABLE_CHECKPOINT_FORMAT = "table-checkpoint-v1"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupted, or incompatible."""


# ----------------------------------------------------------------------
# Atomic JSON primitives
# ----------------------------------------------------------------------
def checkpoint_backup_path(path) -> Path:
    """Where the previous good snapshot of ``path`` is rotated to."""
    path = Path(path)
    return path.with_name(path.name + ".bak")


def atomic_write_json(path, payload: Dict[str, Any], *, backup: bool = False) -> int:
    """Write ``payload`` to ``path`` atomically; returns the bytes written.

    With ``backup=True`` the previous snapshot (if any) is first rotated
    to ``<name>.bak``, so even a snapshot that lands torn on disk (power
    loss mid-page-write - ``os.replace`` is atomic against *crashes of
    this process*, not against the filesystem losing buffered pages)
    leaves one older-but-consistent generation for the salvage loader.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    maybe_fault("checkpoint.write")
    tmp = path.with_name(path.name + ".tmp")
    encoded = json.dumps(payload)
    tmp.write_text(encoded)
    if backup and path.exists():
        os.replace(path, checkpoint_backup_path(path))
    os.replace(tmp, path)
    return len(encoded.encode("utf-8"))


def load_json_checkpoint(path, *, expected_format: str) -> Dict[str, Any]:
    """Load and validate a checkpoint; raises :class:`CheckpointError`."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is unreadable: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise CheckpointError(
            f"checkpoint {path} has format {payload.get('format') if isinstance(payload, dict) else None!r}, "
            f"expected {expected_format!r}"
        )
    return payload


def _emit_checkpoint_status(
    telemetry, label: str, path: Path, status: str, *, iteration: int = 0
) -> None:
    """Mirror a salvage decision onto the typed event stream."""
    tel = resolve_telemetry(telemetry)
    if not tel.enabled:
        return
    tel.counter(f"checkpoint.{status}").inc()
    try:
        size = path.stat().st_size
    except OSError:
        size = 0
    tel.emit(
        CheckpointEvent(
            label=label,
            iteration=int(iteration),
            path=str(path),
            bytes=int(size),
            status=status,
        )
    )


def try_load_json_checkpoint(
    path,
    *,
    expected_format: str,
    salvage: bool = True,
    label: str = "",
    telemetry=None,
) -> Optional[Dict[str, Any]]:
    """Forgiving loader: ``None`` (with a logged warning) instead of raising.

    Missing files are silent (nothing to resume); damaged or
    incompatible files warn, because losing a checkpoint silently would
    mask the fault the snapshot existed to survive.

    Torn-file salvage (``salvage=True``): when the primary file is
    truncated/corrupt - or missing while a backup rotated by
    ``atomic_write_json(..., backup=True)`` still exists - the loader
    warns, emits a ``"corrupt"`` :class:`CheckpointEvent`, and falls
    back to the previous good generation at ``<name>.bak`` (emitting
    ``"salvaged"``), so one damaged write costs at most one snapshot
    interval of progress instead of the whole run.
    """
    path = Path(path)
    backup = checkpoint_backup_path(path)
    tag = label or expected_format

    def _salvage(reason: str) -> Optional[Dict[str, Any]]:
        if not salvage or not backup.exists():
            return None
        try:
            payload = load_json_checkpoint(backup, expected_format=expected_format)
        except CheckpointError as exc:
            logger.warning("backup checkpoint is unusable too: %s", exc)
            return None
        logger.warning(
            "checkpoint %s %s; resuming from previous good snapshot %s",
            path,
            reason,
            backup,
        )
        _emit_checkpoint_status(
            telemetry,
            tag,
            backup,
            "salvaged",
            iteration=int(payload.get("iteration", 0) or 0),
        )
        return payload

    if not path.exists():
        return _salvage("is missing")
    try:
        return load_json_checkpoint(path, expected_format=expected_format)
    except CheckpointError as exc:
        logger.warning("ignoring unusable checkpoint: %s", exc)
        _emit_checkpoint_status(telemetry, tag, path, "corrupt")
        return _salvage("is unusable")


# ----------------------------------------------------------------------
# QBP solver checkpoints
# ----------------------------------------------------------------------
@dataclass
class QbpCheckpoint:
    """Complete resumable state of a :func:`solve_qbp` run.

    ``iteration`` is the last *completed* Burkard iteration; all array
    state is as of the end of that iteration, and ``rng_state`` is the
    generator state at the same instant - which is what makes resumption
    bit-exact.
    """

    iteration: int
    part: np.ndarray
    h: np.ndarray
    best_part: np.ndarray
    best_pen: float
    best_feas_part: Optional[np.ndarray]
    best_feas_cost: float
    shadow_part: Optional[np.ndarray]
    history: List[float]
    improvements: List[int]
    rng_state: Optional[Dict[str, Any]]
    label: str = ""

    @property
    def num_components(self) -> int:
        return int(self.part.size)

    @property
    def num_partitions(self) -> int:
        return int(self.h.shape[1])

    def to_payload(self) -> Dict[str, Any]:
        def opt(a):
            return None if a is None else np.asarray(a).tolist()

        return {
            "format": QBP_CHECKPOINT_FORMAT,
            "label": self.label,
            "n": self.num_components,
            "m": self.num_partitions,
            "iteration": int(self.iteration),
            "part": self.part.tolist(),
            "h": self.h.tolist(),
            "best_part": self.best_part.tolist(),
            "best_pen": float(self.best_pen),
            "best_feas_part": opt(self.best_feas_part),
            "best_feas_cost": float(self.best_feas_cost),
            "shadow_part": opt(self.shadow_part),
            "history": [float(v) for v in self.history],
            "improvements": [int(v) for v in self.improvements],
            "rng_state": self.rng_state,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "QbpCheckpoint":
        try:
            part = np.asarray(payload["part"], dtype=int)
            h = np.asarray(payload["h"], dtype=float)
            best_part = np.asarray(payload["best_part"], dtype=int)
            feas = payload["best_feas_part"]
            shadow = payload["shadow_part"]
            ckpt = cls(
                iteration=int(payload["iteration"]),
                part=part,
                h=h,
                best_part=best_part,
                best_pen=float(payload["best_pen"]),
                best_feas_part=None if feas is None else np.asarray(feas, dtype=int),
                best_feas_cost=float(payload["best_feas_cost"]),
                shadow_part=None if shadow is None else np.asarray(shadow, dtype=int),
                history=[float(v) for v in payload["history"]],
                improvements=[int(v) for v in payload["improvements"]],
                rng_state=payload.get("rng_state"),
                label=str(payload.get("label", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed QBP checkpoint: {exc}") from exc
        if ckpt.h.ndim != 2 or ckpt.h.shape[0] != ckpt.part.size:
            raise CheckpointError(
                f"inconsistent QBP checkpoint shapes: part {ckpt.part.shape}, h {ckpt.h.shape}"
            )
        return ckpt


def save_qbp_checkpoint(path, checkpoint: QbpCheckpoint, *, backup: bool = False) -> int:
    """Atomically persist ``checkpoint``; returns the bytes written."""
    return atomic_write_json(path, checkpoint.to_payload(), backup=backup)


def load_qbp_checkpoint(path) -> QbpCheckpoint:
    """Strict loader; raises :class:`CheckpointError` on any damage."""
    return QbpCheckpoint.from_payload(
        load_json_checkpoint(path, expected_format=QBP_CHECKPOINT_FORMAT)
    )


def try_load_qbp_checkpoint(path, *, label: str = "", telemetry=None) -> Optional[QbpCheckpoint]:
    """Forgiving loader used on resume paths: damage => salvage => fresh."""
    payload = try_load_json_checkpoint(
        path,
        expected_format=QBP_CHECKPOINT_FORMAT,
        label=label,
        telemetry=telemetry,
    )
    if payload is None:
        return None
    try:
        return QbpCheckpoint.from_payload(payload)
    except CheckpointError as exc:
        logger.warning("ignoring unusable checkpoint: %s", exc)
        return None


class QbpCheckpointer:
    """Periodic checkpoint writer attached to :func:`solve_qbp`.

    Snapshots are taken every ``every`` completed iterations and at
    every stop (natural or budget-forced).  Each save rotates the
    previous snapshot to ``<name>.bak``, so a torn write is survivable:
    :meth:`load` falls back to the previous good generation (see
    :func:`try_load_json_checkpoint`).  ``clear()`` removes both files
    once the run completes, so stale state is never resumed by accident.
    """

    def __init__(self, path, *, every: int = 10, label: str = "", telemetry=None) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = Path(path)
        self.every = int(every)
        self.label = label
        self.saves = 0
        self.telemetry = telemetry

    def due(self, iteration: int) -> bool:
        return iteration % self.every == 0

    def save(self, checkpoint: QbpCheckpoint) -> None:
        if not checkpoint.label:
            checkpoint.label = self.label
        written = save_qbp_checkpoint(self.path, checkpoint, backup=True)
        self.saves += 1
        tel = resolve_telemetry(self.telemetry)
        if tel.enabled:
            tel.counter("checkpoint.saves").inc()
            tel.counter("checkpoint.bytes").inc(written)
            tel.emit(
                CheckpointEvent(
                    label=checkpoint.label,
                    iteration=int(checkpoint.iteration),
                    path=str(self.path),
                    bytes=written,
                )
            )

    def load(self) -> Optional[QbpCheckpoint]:
        return try_load_qbp_checkpoint(
            self.path, label=self.label, telemetry=self.telemetry
        )

    def clear(self) -> None:
        for path in (self.path, checkpoint_backup_path(self.path)):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
