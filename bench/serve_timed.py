"""Traced stand-in for `motifshap blackbox-serve --blackbox surrogate`.

Loads the training dataset, trains the linear surrogate with the CLI's
default settings and serves it with motifshap.serve, timing the dataset
load, the training and every model evaluation, and counting the bytes of
each request line. The totals go to --trace-out when the client closes
the connection.

    python3 bench/serve_timed.py --train-dataset DATA.json --trace-out TRACE.json
"""

from __future__ import annotations

import argparse
import sys

from motifshap import TrainConfig, load_dataset, serve, train_linear_surrogate

from tracing import TimedBlackBox, Tracer


class CountingLines:
    """Text input that counts the characters of each request line (the
    protocol is ASCII JSON, so characters are bytes)."""

    def __init__(self, stream, tracer: Tracer):
        self.stream = stream
        self.tracer = tracer

    def readline(self) -> str:
        return self.stream.readline()  # the handshake, not a request

    def __iter__(self):
        for line in self.stream:
            self.tracer.count("blackbox.request_bytes", len(line))
            yield line


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--train-dataset", required=True)
    p.add_argument("--trace-out", required=True)
    args = p.parse_args()
    tracer = Tracer()
    data = tracer.wrap("graphs.load_dataset", load_dataset)(args.train_dataset)
    model = tracer.wrap("blackbox.server_train", train_linear_surrogate)(
        data, TrainConfig(learning_rate=0.5, epochs=300))
    serve(TimedBlackBox(model, tracer, "blackbox.server_model"),
          stdin=CountingLines(sys.stdin, tracer))
    tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
