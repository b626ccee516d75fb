"""Start ``repro serve`` with span wrappers installed (traced serve runs).

Usage::

    python -m bench.serve_launcher SPANS.jsonl serve --model M --port 0

installs the wrappers, hands the remaining arguments to
``repro.cli.main`` unchanged, and writes the spans as JSONL when the
server exits (SIGTERM drains it through ``run_server``'s handler).
Cluster workers are separate processes the wrappers do not reach; they
report through ``/v1/metrics``.
"""

from __future__ import annotations

import sys
import time

from .trace import Tracer


def install(tracer: Tracer) -> None:
    from repro.serve import cluster, engine, schemas, server

    # A request's trace id is its (first) session_id, known once parsed.
    parse = server.parse_score_request

    def named_parse(payload):
        sessions, is_batch = parse(payload)
        for span in tracer.open_spans():
            span.trace = sessions[0].session_id
        return sessions, is_batch

    server.parse_score_request = named_parse
    tracer.wrap(server._Handler, "_score", "serve.request")
    tracer.wrap(server, "parse_score_request", "serve.http.parse")
    tracer.wrap(schemas.ScoreResult, "to_dict", "serve.respond")
    tracer.wrap(server._Handler, "_respond", "serve.respond")
    tracer.wrap(cluster.ClusterEngine, "submit", "serve.engine.submit")

    # Queue wait: from a session's submit to the start of the batch that
    # scores it, joined on session_id across the handler and batcher
    # threads.
    submitted: dict[str, float] = {}
    submit = engine.InferenceEngine.submit
    score_batch = engine.InferenceEngine._score_batch

    def stamped_submit(self, payload, **kwargs):
        submitted[payload.session_id] = time.perf_counter()
        return submit(self, payload, **kwargs)

    def waited_score_batch(self, runtime, items):
        start = time.perf_counter()
        for item in items:
            since = submitted.pop(item.session_id, None)
            if since is not None:
                tracer.record("serve.batcher.wait", since, start,
                              trace=item.session_id)
        return score_batch(self, runtime, items)

    engine.InferenceEngine.submit = stamped_submit
    engine.InferenceEngine._score_batch = waited_score_batch
    tracer.wrap(engine.InferenceEngine, "submit", "serve.engine.submit")
    tracer.wrap(engine.InferenceEngine, "_score_batch", "serve.forward",
                trace=lambda args: args[2][0].session_id)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from repro import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
