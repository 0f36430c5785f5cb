"""Run the condshap CLI with the benchmark's spans installed.

    python3 perfbench/traced_cli.py SPANS_JSON explain --train ... --test ...

The arguments after SPANS_JSON go to ``condshap`` unchanged.  The spans of
the whole process are written to SPANS_JSON when the command ends.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracing import Tracer  # noqa: E402


def main() -> None:
    spans_path = Path(sys.argv[1])
    tracer = Tracer().install()
    import condshap.shell.cli as cli

    try:
        cli.main(args=sys.argv[2:], prog_name="condshap")
    finally:
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    main()
