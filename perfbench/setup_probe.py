"""Set-up time of one workload, measured in a fresh interpreter.

Covers ``import otmatch`` plus ``load_instance`` of every instance file and
the kernel build (``parse_kernel_spec`` + ``gram``) for every distinct
(instance, --kernel) pair the workload's commands use: the work a command
does before its first iteration.  Prints the seconds as the last line.

Run: ``PYTHONPATH=src python3 perfbench/setup_probe.py MANIFEST``
"""

import json
import sys
import time


def main(manifest_path: str) -> int:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    start = time.perf_counter()
    import otmatch.cli  # noqa: F401  (the entry point's import cost)
    from otmatch.kernels import gram, parse_kernel_spec
    from otmatch.measures import load_instance

    insts = {name: load_instance(info["path"]) for name, info in manifest["instances"].items()}
    kernels = set()
    for cmd in manifest["commands"]:
        if "--kernel" in cmd["args"]:
            kernels.add((cmd["instance"], cmd["args"][cmd["args"].index("--kernel") + 1]))
    for name, text in sorted(kernels):
        points = insts[name].nu.points
        gram(parse_kernel_spec(text, points), points)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
