"""Runs one hyperlap CLI invocation with its layer calls traced.

usage: python3 perfbench/trace_child.py OUT.json <hyperlap cli arguments>

Behaves like `python -m hyperlap.cli`, and writes the spans it recorded to
OUT.json when the command ends, however it ends. PERFBENCH_OP gives the
operation number its spans carry.
"""

import json
import os
import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import hyperlap.cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.current_op = int(os.environ.get("PERFBENCH_OP", "0"))
    try:
        return hyperlap.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(spans.to_json(tracer.spans()), fh)


if __name__ == "__main__":
    sys.exit(main())
