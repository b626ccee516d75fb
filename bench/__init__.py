"""End-to-end performance benchmark for the CLFD system.

Five workloads (``fit``, ``serve``, ``serve_cluster``, ``stream``,
``grid``) drive the system through its public entry points, check
that its outputs are correct, and report end-to-end metrics; a traced
run adds per-layer self times.  See ``bench/README.md``.

The benchmark builds nothing: it imports ``repro`` from the ``src/``
directory next to this package, so it measures the checkout it sits
in.
"""

from __future__ import annotations

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything a run writes (cached serving archive, per-run state,
# traces) lives here, inside the checkout.
WORK = ROOT / ".bench_build"
