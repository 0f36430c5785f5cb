"""External model for the ``cli-external-m3`` workload.

Speaks the line-delimited JSON protocol of ``condshap explain --model
external`` on its standard streams and predicts

    f(a, b, c) = 0.3 + 1.0 a - 0.5 b + 2.0 c

in pure Python.  With ``--stats PATH`` it writes the number of requests and
request bytes it read to PATH when its input closes.

    python3 perfbench/model.py [--stats PATH]
"""

import json
import sys

INTERCEPT = 0.3
COEFFICIENTS = (1.0, -0.5, 2.0)


def main(argv: list[str]) -> int:
    stats_path = argv[argv.index("--stats") + 1] if "--stats" in argv else None
    b0 = INTERCEPT
    b1, b2, b3 = COEFFICIENTS
    requests = 0
    request_bytes = 0
    for line in sys.stdin:
        request_bytes += len(line.encode("utf-8"))
        line = line.strip()
        if not line:
            continue
        requests += 1
        request = json.loads(line)
        predictions = [b0 + b1 * a + b2 * b + b3 * c for a, b, c in request["rows"]]
        sys.stdout.write(json.dumps({"id": request["id"], "predictions": predictions}) + "\n")
        sys.stdout.flush()
    if stats_path is not None:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"requests": requests, "request_bytes": request_bytes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
