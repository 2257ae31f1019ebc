"""Dump the generated-source corpus to a directory, one file per key.

``tests.support.generated_sources()`` is everything the tier scaffold
generates over the digest corpus: each tier-2 source, and each
block-tier block as template text plus hole values.
``tests/test_tiers.py::test_generated_sources_digest`` pins its
sha256, which says *that* something moved; a dump of each tree says
*what*::

    python tools/sources.py /tmp/new
    cd <parent checkout> && python tools/sources.py /tmp/old
    diff -r /tmp/old /tmp/new

The key ``(kernel, flow, target, filename)`` becomes the path
``kernel/flow/target/<filename>.py``, the filename's ``<`` and ``>``
dropped and ``:`` spelled ``_`` (``<pvi-sim-t2:f>`` ->
``pvi-sim-t2_f.py``).  The tree dumped is the one this file sits in
(its ``src`` and root go first on ``sys.path``), so to dump a checkout
that predates the tool, copy the tool into that checkout's ``tools/``.
DIR must not exist yet.  Standard library only, plus what the test
suite imports; about ten seconds.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def path_of(key) -> str:
    """The relative path of one ``generated_sources()`` key."""
    *where, filename = key
    name = filename.strip("<>").replace(":", "_") + ".py"
    return os.path.join(*where, name)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: python tools/sources.py DIR", file=sys.stderr)
        return 2
    out = argv[0]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from tests.support import generated_sources

    sources = generated_sources()
    os.makedirs(out)
    for key, text in sorted(sources.items()):
        path = os.path.join(out, path_of(key))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text)
    print(f"{len(sources)} sources written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
