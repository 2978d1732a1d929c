"""One cold start: a fresh interpreter imports ``marcox.cli``.

Usage: ``python3 perfbench/coldstart.py SPAWNED_AT`` with ``src`` on
``PYTHONPATH``.  SPAWNED_AT is the parent's ``time.time()`` just before it
started this process, so ``imported_at - SPAWNED_AT`` is the set-up every CLI
call pays.  Prints one JSON line: ``imported_at`` and the machine speed right
after the import (``import_speed``, ``calibration.py``).
"""

import time

import marcox.cli  # noqa: F401  (the import is what is timed)

imported_at = time.time()

import json  # noqa: E402  (imported after the timed import on purpose)

import calibration  # noqa: E402

speed = [calibration.sample() for _ in range(3)]
print(json.dumps({"imported_at": imported_at, "import_speed": sum(speed) / len(speed)}))
