"""One measurement in a fresh interpreter; prints one JSON line.

    python3 child.py SPEC_JSON

SPEC keys: ``src`` (the checkout's ``src`` directory), ``mode`` and, by mode:

- ``main``: run ``bafsim.cli.main(argv)``; with ``trace`` set, wrap the layer
  boundaries (see ``tracing``) and write the spans to ``spans_out``;
- ``probe``: time ``estimate_outage`` at K=2 for each of ``trials`` at
  ``workers`` workers and ``seed``, ``repeats`` times each (best kept).

Every mode reports ``import_s``, the time to import ``bafsim.cli`` (NumPy and
SciPy included).  The child refuses a ``bafsim`` found anywhere but ``src``.
"""

import json
import os
import resource
import sys
import time


def _import_bafsim(src: str):
    sys.path.insert(0, src)
    t = time.perf_counter()
    import bafsim.cli

    import_s = time.perf_counter() - t
    found = os.path.realpath(bafsim.cli.__file__)
    if not found.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"bafsim imported from {found}, not from {src}")
    return bafsim.cli, import_s


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the reaped pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _probe(spec: dict) -> dict:
    from bafsim.channel import LinkVariances, SystemParams
    from bafsim.montecarlo import estimate_outage

    variances = LinkVariances(1.0, (1.0, 1.0), (1.0, 1.0))
    params = SystemParams(snr=0.1, rate=0.05, k_relays=2)
    times = {}
    for n in spec["trials"]:
        for w in spec["workers"]:
            best = float("inf")
            for _ in range(spec["repeats"]):
                t = time.perf_counter()
                estimate_outage(variances, params, n, spec["seed"], workers=w)
                best = min(best, time.perf_counter() - t)
            times[f"{n}:{w}"] = best
    return {"times": times}


def main() -> int:
    spec = json.loads(sys.argv[1])
    cli, import_s = _import_bafsim(spec["src"])
    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if spec["mode"] == "main":
        tracer = None
        if spec.get("trace"):
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        t = time.perf_counter()
        if tracer is None:
            rc = cli.main(spec["argv"])
        else:
            rc = tracer.call("cli.main", cli.main, spec["argv"])
        result.update(wall_s=time.perf_counter() - t, rc=rc)
        if tracer is not None:
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    elif spec["mode"] == "probe":
        result.update(_probe(spec))
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
