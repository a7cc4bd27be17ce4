"""One set-up: a fresh interpreter imports variobern and writes the inputs.

Run as ``python3 perfbench/prepare.py --workload W --seed N --out DIR
[--trace 1]``. Prints one JSON line with the digest of the written inputs
and, when traced, the self time of the spans recorded while writing them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time


def digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()

    t0 = time.perf_counter()
    import variobern  # noqa: F401  (the import is part of set-up)
    import_s = time.perf_counter() - t0

    import inputs
    from spans import Tracer

    tracer = Tracer()
    if args.trace:
        with tracer.installed():
            tracer.active = True
            inputs.write_fixed(args.workload, args.seed, args.out)
            tracer.active = False
    else:
        inputs.write_fixed(args.workload, args.seed, args.out)
    print(json.dumps({"import_s": import_s, "digest": digest(args.out),
                      "self_times": tracer.self_times()}))


if __name__ == "__main__":
    main()
