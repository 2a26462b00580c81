"""Long-lived process for the rate_scan workload.

Reads one JSON request per line on stdin and answers one JSON line on
stdout.  ``{"ping": true}`` answers once the package is imported, so the
client can leave import time out of the measurement; ``{"probe": true}``
times the fixed CPU probe; ``{"omega0": w, "alpha": a}`` evaluates one scan
point.  Exits at end of input.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

import numpy as np

_PROBE_ARRAY = np.arange(20_000.0)


def probe() -> float:
    """Median of three runs of a fixed Python-loop + numpy probe, in seconds.

    It tracks the speed this process gets from a shared CPU: the rate scan's
    time divided by this probe is steady across fast and slow phases.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(20_000):
            acc += (k * 0.5) ** 0.5
        float((np.sin(_PROBE_ARRAY) * np.cos(_PROBE_ARRAY)).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def evaluate(omega0: float, alpha: float) -> dict[str, float]:
    """Every library call the scan makes at one (omega0, alpha) point.

    The same calls a library user makes in a parameter scan: the numeric
    derivative-coupling rates for n = 0, 1, 2, the field-side rates, the
    Planck response oracle, and the three image-sum oracles at u = 1/omega0,
    beta = 2 pi / alpha.
    """
    from unruh_kinetics import kernels as K
    from unruh_kinetics import rates as R
    from unruh_kinetics import response as RS
    from unruh_kinetics.core import AtomState, DetectorParams

    params = DetectorParams(omega0, 1.0)
    plus = AtomState.plus()
    out: dict[str, float] = {}
    for n in (0, 1, 2):
        rep = R.derivative_coupling_rates(params, alpha, plus, n)
        out[f"vf{n}"], out[f"rr{n}"], out[f"total{n}"] = rep.vf, rep.rr, rep.total
    out["vf_field"], out["rr_field"] = R.field_rates(params, alpha, plus)
    out["planck"] = RS.planck_response_oracle(omega0, alpha)
    u, beta = 1.0 / omega0, 2.0 * math.pi / alpha
    for key, value in (
        ("thermal_sum", K.thermal_image_sum(u, beta)),
        ("accel_sum", K.wightman_vacuum_accelerated_sum(u, alpha).value),
        ("inertial_sum", K.g_thermal_inertial_sum(u, beta, 0.5).value),
    ):
        out[key + "_re"], out[key + "_im"] = float(value.real), float(value.imag)
    return {k: float(v) for k, v in out.items()}


def main() -> int:
    from unruh_kinetics import kernels, rates, response  # noqa: F401  (set-up)

    for line in sys.stdin:
        request = json.loads(line)
        if request.get("ping"):
            reply = {"ok": True}
        elif request.get("probe"):
            reply = {"ok": True, "seconds": probe()}
        else:
            try:
                reply = {"ok": True, "values": evaluate(request["omega0"], request["alpha"])}
            except Exception as exc:  # reported to the client as a failed operation
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
