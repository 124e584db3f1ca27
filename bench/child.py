"""A fresh interpreter for one benchmark run; started by run.py.

    child.py PACKAGE                                   set up only (a probe)
    child.py ghzsplit WORKLOAD SEED SECONDS TRACE SPANS  set up, then run

PACKAGE is ``ghzsplit`` (the program, from ``src/``) or ``ghzsplit_ref``
(the frozen reference copy in ``bench/reference/``). Set-up imports the
package and its CLI and fills the caches (``build_channel``,
``build_alice_basis`` in both encodings and under every key the package
calls it with, the published tables). Nothing else is imported first, so
the ``ready`` time it prints (``time.monotonic``, which the parent shares)
marks the end of set-up. A measured run then sets up the reference too,
untimed. The last stdout line is a JSON document.
"""

import importlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
HOMES = {
    "ghzsplit": os.path.join(ROOT, "src"),
    "ghzsplit_ref": os.path.join(ROOT, "bench", "reference"),
}


def set_up(package: str):
    """Import ``package`` from its home and fill its caches; return its CLI."""
    home = HOMES[package]
    if home not in sys.path:
        sys.path.insert(0, home)
    cli = importlib.import_module(f"{package}.cli")
    protocol = importlib.import_module(f"{package}.protocol")
    if os.path.dirname(os.path.realpath(protocol.__file__)) != os.path.join(home, package):
        sys.exit(f"bench: imported {package} from {protocol.__file__}, not {home}")
    for variant in protocol.Variant:
        protocol.build_channel(variant)
        protocol.published_correction_table(variant)
        protocol.build_alice_basis(variant)
        for encoding in (protocol.CANONICAL, protocol.LITERAL):
            protocol.build_alice_basis(variant, encoding)
    return cli


def main(argv: list[str]) -> None:
    cli = set_up(argv[0])
    ready = time.monotonic()
    import json

    doc = {}
    if len(argv) > 1:
        import passes

        workload, seed, seconds, trace, spans = argv[1:]
        reference = None if trace == "1" else set_up("ghzsplit_ref")
        doc = passes.run(cli, reference, workload, int(seed), float(seconds),
                         trace == "1", spans)
    doc["ready"] = ready
    print(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1:])
