"""Per-family kernel figures: work, computed bytes, roofline, host rate.

Every simulated launch is named ``family:detail`` (``fused[8]`` for a
compiled fused launch).  For each family this module combines

* the :class:`~repro.device.kernel.KernelCost` of its launches: flops and
  bytes *as computed by the cost model* (not measured traffic);
* the simulated seconds of its resolved launch records (``sim`` clock);
* the host seconds spent inside its launch bodies (``host`` clock),

into the figures of the traced run.
"""

from __future__ import annotations

#: Launch families reported by name; any other launch counts as ``other``.
FAMILIES = ("irrgetf2", "irrlaswp", "irrtrsm", "irrgemm", "cublas_gemm",
            "irrgetrs", "fused", "assemble", "solve")


def family_of(name: str) -> str:
    head = name.split(":", 1)[0].split("[", 1)[0]
    return head if head in FAMILIES else "other"


def sim_seconds_by_family(records) -> dict[str, float]:
    """Simulated kernel seconds per family over resolved launch records."""
    out: dict[str, float] = {}
    for rec in records:
        fam = family_of(rec.name)
        out[fam] = out.get(fam, 0.0) + (rec.end - rec.start)
    return out


def family_figures(*, launches: int, flops: float, nbytes: float,
                   sim_s: float, body_s: float, peak_flops: float,
                   mem_bandwidth: float) -> dict[str, float]:
    """Figures of one kernel family, each labelled with its clock.

    ``roofline_frac`` (sim) is achieved performance over the roofline
    bound ``min(peak, bandwidth * flops/bytes)``, which equals
    ``max(flops/peak, bytes/bandwidth) / sim_s``; the second form also
    covers pure data-movement families (no flops), where it is the
    achieved share of bandwidth.  ``host_gflops`` is the flop rate of the
    numerics executed on the host inside the launch bodies.
    """
    bound = max(flops / peak_flops, nbytes / mem_bandwidth)
    return {
        "launches": launches,
        "gflop": flops / 1e9,
        "computed_mb": nbytes / 2 ** 20,
        "intensity": flops / nbytes if nbytes else 0.0,
        "sim_s": sim_s,
        "roofline_frac": bound / sim_s if sim_s > 0 else 0.0,
        "body_s": body_s,
        "host_gflops": flops / body_s / 1e9 if body_s > 0 else 0.0,
    }
