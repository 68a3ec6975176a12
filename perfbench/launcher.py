"""Start the gateway CLI with span wrappers installed.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launcher.py OUT_PREFIX -- <python -m repro.gateway argv>

Installs the wrappers of :mod:`spans`, runs
``repro.gateway.__main__.main(argv)`` with the untraced run's argv, and
when the gateway has drained and stopped writes the spans to
``OUT_PREFIX.npz`` / ``OUT_PREFIX.json``, together with the served
router's modeled counters.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def router_counts(router) -> dict:
    """Modeled counters of a router: images, MACs, cycles, memo outcomes."""
    nodes = getattr(router, "nodes", [])
    memos = {id(node.forward_memo): node.forward_memo for node in nodes
             if getattr(node, "forward_memo", None) is not None}
    summary = router.telemetry.summary()
    return {
        "images": float(summary["images"]),
        "macs": float(sum(node.engine.counters.mac_count for node in nodes)),
        "cycles": float(router.ledger().total_cycles),
        "memo_hits": float(sum(memo.hits for memo in memos.values())),
        "memo_misses": float(sum(memo.misses for memo in memos.values())),
    }


def main(argv) -> int:
    separator = argv.index("--")
    out_prefix, gateway_argv = argv[0], argv[separator + 1:]
    from repro.gateway import __main__ as cli

    recorder = spans.SpanRecorder()
    recorder.install()
    built = []
    build = cli.build_demo_router

    def capturing_build(*args, **kwargs):
        router = build(*args, **kwargs)
        built.append(router)
        return router

    cli.build_demo_router = capturing_build
    code = cli.main(gateway_argv)
    recorder.write(out_prefix, extra=router_counts(built[0]) if built else {})
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
