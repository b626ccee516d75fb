"""The benchmark's workloads and what they share.

Each workload module exposes ``run(ctx) -> Result``.  A workload makes
every program input from ``ctx.seed``, sizes its work from
``ctx.seconds``, checks the program's outputs, and — when ``ctx.tracer``
is set — installs its layer wrappers and reports per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Callable

from .. import ROOT, SRC, WORK
from ..spec import LAYER_METRICS, RECORD_METRICS
from ..trace import Tracer

SETUP_REPEATS = 3


@dataclasses.dataclass
class Context:
    seed: int
    seconds: int
    workdir: pathlib.Path
    archive: pathlib.Path  # the serving archive (:func:`serving_archive`)
    tracer: Tracer | None = None


class Result:
    """Everything one workload run reports."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.layers: dict[str, float] = {}
        self.checks: dict[str, bool] = {}
        self.params: dict = {}
        self.extra: dict = {}
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, n: int) -> None:
        """An end-to-end metric and the number of samples behind it."""
        self.metrics[name] = {"value": float(value),
                              "unit": RECORD_METRICS[name].unit, "n": int(n)}

    def layer(self, name: str, value: float) -> None:
        if name not in LAYER_METRICS:
            raise KeyError(f"undeclared per-layer metric {name!r}")
        self.layers[name] = float(value)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)


class Setup:
    """Times a workload's set-up :data:`SETUP_REPEATS` times; ``setup_s``
    is the median.

    The reference host switches between fast and slow CPU states that
    last seconds, so back-to-back repetitions tend to land in one
    state.  :meth:`kept` runs the first :attr:`BEFORE` builds and keeps
    the last for the measured phase; :meth:`finish` runs the rest after
    it, spreading the repetitions over the run.  ``build(i)`` gets the
    repetition index; builds not kept go to ``release``.
    """

    BEFORE = 2

    def __init__(self, build: Callable[[int], object],
                 release: Callable[[object], None] = lambda built: None):
        self._build = build
        self._release = release
        self.times: list[float] = []

    def _timed(self):
        start = time.perf_counter()
        built = self._build(len(self.times))
        self.times.append(time.perf_counter() - start)
        return built

    def kept(self):
        built = self._timed()
        while len(self.times) < self.BEFORE:
            self._release(built)
            built = self._timed()
        return built

    def finish(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._release(self._timed())
        return statistics.median(self.times)


def repro_env() -> dict[str, str]:
    """Environment for child processes: this checkout's ``repro`` and
    ``bench`` on the path, everything else (thread variables included)
    as found."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def serving_archive() -> pathlib.Path:
    """The archive ``repro --scale 0.05 save --eta 0.3`` trains.

    ``repro save`` trains from a fixed seed, so the archive depends only
    on the source; it is trained once per checkout and source state,
    outside any timed region.
    """
    path = WORK / f"serve-model-{_source_digest()}.npz"
    if not path.exists():
        WORK.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}-{os.getpid()}.npz")
        subprocess.run(
            [sys.executable, "-m", "repro", "--scale", "0.05", "save",
             "--out", str(tmp), "--eta", "0.3"],
            env=repro_env(), check=True, stdout=subprocess.DEVNULL,
            timeout=600)
        os.replace(tmp, path)
    return path
