"""repro.stream — streaming ingestion, drift detection, re-correction.

The online tier over the batch pipeline: an append-only
:class:`EventLog` feeds the :class:`SessionWindower` (incremental
session assembly, tumbling windows keyed by session close),
closed windows are scored through the serving engine, the
:class:`DriftMonitor` raises a two-sided alarm against a frozen
reference window, and :func:`recorrect_model` refreshes the label
corrector + detector head on recent windows for a rolling hot swap.
:class:`StreamProcessor` composes the whole loop with atomic
checkpoints and bit-identical kill-and-resume replay.  See DESIGN.md
§14.
"""

from .drift import DriftMonitor, DriftReading, ks_statistic
from .events import (DRIFT_MODES, NOVEL_ARCHETYPES, Event, EventLog,
                     synthesize_drifting_events, write_events)
from .processor import StreamConfig, StreamProcessor, compare_with_frozen
from .recorrect import RecorrectResult, build_recent_dataset, recorrect_model
from .window import SessionWindower, StreamSession, Window

__all__ = [
    "Event", "EventLog", "synthesize_drifting_events", "write_events",
    "NOVEL_ARCHETYPES", "DRIFT_MODES",
    "SessionWindower", "StreamSession", "Window",
    "DriftMonitor", "DriftReading", "ks_statistic",
    "RecorrectResult", "build_recent_dataset", "recorrect_model",
    "StreamConfig", "StreamProcessor", "compare_with_frozen",
]
