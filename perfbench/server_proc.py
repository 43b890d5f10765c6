"""The ``serve`` workload's server: one ``CircuitServer`` in its own process.

Started by ``serve.py`` as ``python3 perfbench/server_proc.py [--trace]``;
it talks one line at a time over stdin/stdout:

* it prints ``imported`` once every import is done, so the parent can
  start timing set-up after interpreter start-up;
* ``start`` -> it starts the server on 127.0.0.1, starts probing its
  own speed (see ``speed.py``) every ``PROBE_EVERY`` seconds while its
  event loop is free, and prints ``listening <port> <max_delay>`` (the
  lane batchers' flush timer, in seconds);
* ``usage`` -> it prints ``{"cpu_s", "peak_rss_mb"}`` for this process;
* ``probes`` -> it prints every ``[when, seconds]`` probe so far
  (``when`` on the ``perf_counter`` clock, which all processes share);
* ``phase <name>`` (with ``--trace``) -> the server's calls into the
  program are recorded as spans into the tracer named ``<name>`` from
  now on; ``phase off`` stops recording.  It prints nothing;
* ``spans`` -> it prints ``{name: records}`` of every tracer;
* ``quit`` (or end of input) -> it drains the server and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from speed import probe, warm  # noqa: E402
from tracing import Tracer, instrument_server  # noqa: E402

from repro.serving import CircuitServer  # noqa: E402

PROBE_EVERY = 0.2


async def main(trace: bool) -> None:
    loop = asyncio.get_running_loop()
    off = Tracer(enabled=False)
    tracers = {}
    hooks = instrument_server(off) if trace else None
    probes = []

    async def command() -> str:
        return (await loop.run_in_executor(None, sys.stdin.readline)).strip()

    async def probing() -> None:
        while True:
            await asyncio.sleep(PROBE_EVERY)
            probes.append((time.perf_counter(), probe()))

    def reply(payload) -> None:
        print(json.dumps(payload), flush=True)

    warm()
    print("imported", flush=True)
    if await command() != "start":
        return
    server = CircuitServer(host="127.0.0.1", port=0)
    _, port = await server.start()
    prober = loop.create_task(probing())
    print(f"listening {port} {server.max_delay}", flush=True)
    try:
        while True:
            line = await command()
            if line == "usage":
                reply(
                    {
                        "cpu_s": time.process_time(),
                        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    }
                )
            elif line == "probes":
                reply(probes)
            elif line.startswith("phase ") and hooks is not None:
                name = line.split()[1]
                hooks.tracer = off if name == "off" else tracers.setdefault(name, Tracer())
            elif line == "spans":
                reply({name: tracer.records() for name, tracer in tracers.items()})
            elif line in ("quit", ""):
                break
    finally:
        prober.cancel()
        if hooks is not None:
            hooks.restore()
        await server.close()


if __name__ == "__main__":
    asyncio.run(main("--trace" in sys.argv[1:]))
