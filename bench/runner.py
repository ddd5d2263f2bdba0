"""Run one ``fcsr`` CLI command in this interpreter and report its cost.

Usage: ``python3 bench/runner.py <fcsr arguments...>`` with the package on
``PYTHONPATH``. It calls ``fcsr.cli.main`` (the function behind the
``fcsr`` console script) and prints one JSON line on stdout:

* ``import_s``: time to import the CLI module;
* ``main_s``: wall time of ``main``;
* ``cpu_s``: user+sys CPU during ``main``, of this process and of every
  child it reaped (the sweep's pool workers are reaped at shutdown);
* ``maxrss_kb``: peak resident set of this process or of any reaped child;
* ``code``: the exit code ``main`` returned.
"""

import json
import resource
import sys
import time


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    t0 = time.perf_counter()
    from fcsr.cli import main as fcsr_main

    import_s = time.perf_counter() - t0
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t1 = time.perf_counter()
    code = fcsr_main(sys.argv[1:])
    main_s = time.perf_counter() - t1
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "import_s": import_s,
        "main_s": main_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "maxrss_kb": max(self1.ru_maxrss, kids1.ru_maxrss),
        "code": code,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
