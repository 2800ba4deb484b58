"""Traced stand-in for ``python -m hyfermi.cli``.

Usage: cli_child.py SPANS_JSON <hyfermi arguments...>

Wraps hyfermi's public functions, runs one command as op 0, writes the
span summary and work counters to SPANS_JSON and exits with the
command's exit code.
"""

import json
import sys
from pathlib import Path

import harness
import spans


def main():
    out_path, argv = Path(sys.argv[1]), sys.argv[2:]
    harness.import_hyfermi()
    import hyfermi.cli

    rec = spans.Recorder()
    spans.install(rec)
    rec.op = 0
    try:
        return hyfermi.cli.main(argv)
    finally:
        rec.op = None
        out_path.write_text(json.dumps({"summary": rec.summary(),
                                        "counters": dict(rec.counters),
                                        "missing": rec.missing}))


if __name__ == "__main__":
    sys.exit(main())
