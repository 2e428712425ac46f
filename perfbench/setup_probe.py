"""Time kdvlab's set-up in a fresh interpreter and print it in seconds.

Set-up is importing ``kdvlab.cli``, parsing every config of the
workload and building the initial field of each run or eigen config:
the work a user pays before the first time step.

    python3 perfbench/setup_probe.py demo-run 0
"""

import sys
import time

import workloads


def main() -> None:
    workload = workloads.build(sys.argv[1], int(sys.argv[2]))
    start = time.perf_counter()
    import kdvlab.cli  # noqa: F401
    from kdvlab import config

    for call in workload.calls:
        cfg = getattr(config, workloads.PARSERS[call.command])(call.config_text())
        if call.command != "scan":
            cfg.initial_field()
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
