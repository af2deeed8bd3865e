"""Speech enhancement with permutation-trained VAEs.

Two VAEs are pretrained on clean speech and on noise with a configurable
disentangling loss; a third encoder learns to produce both latent posteriors
from noisy speech and drives a real-valued STFT mask at inference time.
"""

import csv
import os
import stat

__version__ = "0.1.0"

CHECKPOINT_FORMAT_VERSION = 1


def new_file(path, mode: str = "w"):
    """Open `path` for writing as a new file: a regular file there is unlinked,
    not truncated. ext4 (`auto_da_alloc`) flushes a truncated-and-rewritten
    file on close, and the next rewrite of that path waits for the flush,
    about 65 ms for a small file. Symlinks, devices and missing paths are
    opened as they are."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, mode, newline=None if "b" in mode else "")


def write_csv(path, header, rows) -> None:
    with new_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
