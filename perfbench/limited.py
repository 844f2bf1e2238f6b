"""Run one symlpp CLI command under an address-space cap.

`python3 perfbench/limited.py LIMIT_MIB ARGV...` caps the process at
LIMIT_MIB MiB of address space before importing symlpp, so an allocation far
beyond the cap fails at once instead of paging on a machine with more memory.
"""

import resource
import sys
from pathlib import Path

limit = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symlpp.cli import main  # noqa: E402

sys.exit(main(sys.argv[2:]))
