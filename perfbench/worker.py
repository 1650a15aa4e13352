"""One benchmark pass in a fresh interpreter.

Usage: worker.py INPUTS CSV RESULT [--trace | --setup-only]

Imports ``relsim.cli``, runs every scenario config in INPUTS (a JSON
list) through ``runner.ScenarioRun``, summarises with
``cli.summary_rows``, writes the CSV with ``cli.write_csv`` and then
writes its own timings to RESULT.  Times are ``time.perf_counter()``
readings, which share one clock with the parent process, so the parent
measures from the moment it spawned this interpreter.  With ``--trace``
the relsim modules are wrapped by ``layers.install`` first; with
``--setup-only`` each run is constructed but neither executed nor
written, which samples start-up and set-up time cheaply.

Each run's ``sim.run()`` is driven in ``CHUNKS`` steps of simulated
time, split also at ``runner.FIRST_FLOW_START_S`` to time warm-up and
traffic apart; the event order is the same as in one call.  Between
configs and between steps an untraced pass times a slice of the
reference workload (``calibrate.py``) whenever ``REFERENCE_EVERY_S`` has
passed since the last one.  Those slices sample the host's speed
throughout the pass; the time spent in them is left out of every timing
and reported as ``paused_s``.
"""

import sys
import time

_t_start = time.perf_counter()

import relsim.cli as cli  # noqa: E402

_t_imported = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Reference  # noqa: E402
from relsim import runner  # noqa: E402
from relsim.errors import TopologyError  # noqa: E402
from relsim.scenario import ScenarioConfig  # noqa: E402

CHUNKS = 64
REFERENCE_EVERY_S = 0.25

clock = time.perf_counter


class Pacer:
    """Reference slices taken between pieces of the program's work."""

    def __init__(self, enabled: bool):
        t0 = clock()
        self.enabled = enabled
        self.reference = Reference() if enabled else None
        self.slices: list[float] = []
        self._last = clock()
        self.paused_s = self._last - t0  # host time spent on slices, set-up included

    def take(self) -> None:
        if not self.enabled:
            return
        t0 = clock()
        self.slices.append(self.reference.time_s())
        self._last = t1 = clock()
        self.paused_s += t1 - t0

    def maybe(self) -> None:
        """Take a slice if ``REFERENCE_EVERY_S`` has passed since the last."""
        if self.enabled and clock() - self._last >= REFERENCE_EVERY_S:
            self.take()


def _chunked(run, duration_s: float, pacer: Pacer, phases: dict):
    """``sim.run`` replacement that runs to the end in steps of simulated
    time and times warm-up (up to the first flow) and traffic apart."""
    split_us = int(runner.FIRST_FLOW_START_S * 1_000_000)
    end_us = int(duration_s * 1_000_000)
    bounds = sorted({split_us, *(end_us * k // CHUNKS for k in range(1, CHUNKS))})

    def chunked_run():
        for until_us in [*bounds, None]:
            t0 = clock()
            run(until_us=until_us)  # None: to the end
            phase = "warmup_s" if until_us is not None and until_us <= split_us else "traffic_s"
            phases[phase] = phases.get(phase, 0.0) + clock() - t0
            pacer.maybe()

    return chunked_run


def _run_one(cfg: ScenarioConfig, execute: bool, pacer: Pacer):
    """Construct (and unless told otherwise execute) one run.

    Returns the record (None when not executed) and the run's timings,
    which leave out the reference slices taken meanwhile.
    """
    t0 = clock()
    try:
        scenario = runner.ScenarioRun(cfg)
    except TopologyError:
        # the same failed record run_scenario reports
        record = runner.run_scenario(cfg) if execute else None
        return record, {"setup_s": clock() - t0, "execute_s": 0.0, "failed": True}
    t1 = clock()
    if not execute:
        return None, {"setup_s": t1 - t0, "execute_s": 0.0, "failed": False}
    phases: dict = {}
    scenario.sim.run = _chunked(scenario.sim.run, cfg.duration, pacer, phases)
    paused = pacer.paused_s
    record = scenario.execute()
    execute_s = clock() - t1 - (pacer.paused_s - paused)
    return record, dict({"setup_s": t1 - t0, "execute_s": execute_s,
                         "failed": record.failed}, **phases)


def main(argv: list[str]) -> int:
    inputs, csv_path, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    execute = "--setup-only" not in argv[3:]
    origin = Path(cli.__file__).resolve().parents[1]
    configs = [ScenarioConfig(**d).validate() for d in json.loads(Path(inputs).read_text())]
    tracer = None
    if traced:
        from layers import install
        from tracer import Tracer

        tracer = Tracer()
    pacer = Pacer(enabled=not traced)
    pacer.take()
    records, runs = [], []
    t_written = paused_written = None
    try:
        if tracer is not None:
            install(tracer)
        for cfg in configs:
            record, timings = _run_one(cfg, execute, pacer)
            records.append(record)
            runs.append(timings)
            pacer.maybe()
        if execute:
            cli.write_csv(records, csv_path, summaries=cli.summary_rows(records))
            t_written = clock()
            paused_written = pacer.paused_s
    finally:
        if tracer is not None:
            tracer.restore()
    pacer.take()
    result = {
        "relsim": str(origin),
        "t_start": _t_start,
        "t_imported": _t_imported,
        "t_written": t_written,
        "paused_s": paused_written,
        "import_s": _t_imported - _t_start,
        "warmup_s": sum(r.get("warmup_s", 0.0) for r in runs),
        "traffic_s": sum(r.get("traffic_s", 0.0) for r in runs),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "runs": runs,
        "reference_s": pacer.slices,
        "trace": tracer.dump() if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
