"""One benchmark child process: import the CLI, parse a workload config,
and (unless ``setup``) run ``cli.main`` on it.

    python3 bench/child.py MODE CONFIG RESULT_JSON [SPANS_NPZ]

MODE is ``setup`` (import and parse only), ``sweep`` (untraced run) or
``trace`` (run with the layer wrappers of ``tracer.py`` installed).  The
result file holds the monotonic clock reading when set-up finished
(``time.monotonic`` is system-wide, so the parent can subtract its own
reading taken before the spawn), the wall time of ``cli.main`` and its
return code; a traced run adds the per-layer metrics and writes its
spans to SPANS_NPZ.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    mode, config, result_path = argv[1:4]
    from copulabounds import cli
    from copulabounds.scenarios import ScenarioConfig

    ScenarioConfig(**cli.load_config_file(config)).check()
    result = {"setup_done": time.monotonic()}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            sys.path.insert(0, str(HERE))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        code = cli.main(["--config", config])
        result["sweep_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        if tracer is not None:
            from tracer import root_wall, summarize

            tracer.uninstall()
            result["layers"] = summarize(tracer)
            result["trace_wall_s"] = root_wall(tracer)
            tracer.dump(argv[4])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
