"""Run one notemort CLI stage as its own process, for the benchmark.

    python perfbench/stage.py OUT.json SPAWN_CLOCK TRACE -- CLI-ARGS...

SPAWN_CLOCK is the parent's `time.perf_counter()` just before it
started this process (the clock is system-wide on Linux), so the time
to entering `cli.main` is the stage's start-up cost. With TRACE=1 the
spans of `spans.Tracer` are recorded. In both modes the last-epoch
skip-gram loss is kept, because the CLI prints it rounded. OUT.json
gets the exit code, start-up time, loss and spans.
"""

import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True


def main() -> int:
    out_path, spawn_clock, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    import spans
    from notemort import cli

    tracer = spans.Tracer(process=Path(out_path).stem)
    if trace:
        tracer.install()
    losses: list[float] = []
    train_skipgram = cli.train_skipgram

    def keep_losses(*args, **kwargs):
        result = train_skipgram(*args, **kwargs)
        losses.extend(float(v) for v in result.epoch_losses)
        return result

    cli.train_skipgram = keep_losses
    entered = time.perf_counter()
    tracer.add("cli.startup", spawn_clock, entered)
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        payload = {"code": code, "startup_s": entered - spawn_clock, "skipgram_losses": losses}
        payload.update(tracer.dump())
        spans.write_json(out_path, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
