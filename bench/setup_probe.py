"""Set-up as a task needs it: import crdiff, build the model and domain.

Spawned by harness.setup_seconds, which times it from process start until
"ready" arrives on standard output.
"""

import sys

from run import prepare

prepare()
import crdiff.cli  # noqa: E402,F401  the command and every layer under it
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup()
print("ready", flush=True)
