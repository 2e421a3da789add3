"""Names, units and intended effects of every metric the benchmark prints.

BENCHMARK.json lists the same metrics; test_perfbench.py keeps the two in
step.  `moves` says which end-to-end metric a per-layer metric should move,
and on which workload, so a change to one layer states its prediction
against this table before it is measured.
"""

WORKLOADS = ("eval-small-x", "eval-large-x", "zeros-cold", "verify-jobs")

# (name, unit, better) -- printed with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
)

# failed_ratio is 0 on a correct build, so it is not a bounded metric: the
# report prints it and the result carries it as `failed` over `attempted`.

REGIMES = (
    "series_j",
    "series_y",
    "series_yint",
    "series_mixed",
    "large_j",
    "large_y",
    "large_mixed",
)

LAYERS = ("special_fn", "zeros", "interlace", "wronskian", "theorems", "cli")
# time the spans cannot split further: sweep cells run in worker processes
RESIDUALS = ("pool",)

_EVAL = "ops_per_s, op_p50_ms on the matching eval-* workload; zeros-cold by L0's share"

# (name, unit, better, moves) -- printed with --trace 1
PER_LAYER = (
    ("special_fn.calls", "count", "lower", "work count; read with the op count"),
    *((f"special_fn.c_us.{r}", "us", "lower", _EVAL) for r in REGIMES),
    *((f"special_fn.pair_us.{r}", "us", "lower", _EVAL) for r in REGIMES),
    ("special_fn.err_ratio_max.series", "ratio", "lower", "informational; above 1 fails the op"),
    ("special_fn.err_ratio_max.large", "ratio", "lower", "informational; above 1 fails the op"),
    ("zeros.calls", "count", "higher", "work count; read with the op count"),
    ("zeros.ms_per_zero", "ms", "lower", "ops_per_s on zeros-cold and verify-jobs"),
    ("zeros.l0_calls_per_zero", "ratio", "lower", "ops_per_s on zeros-cold and verify-jobs"),
    ("zeros.self_share", "ratio", "lower", "ops_per_s on zeros-cold"),
    ("zeros.cache_hit_ratio", "ratio", "higher", "ops_per_s on verify-jobs only; 0 on zeros-cold"),
    ("zeros.iteration_errors", "count", "lower", "failed ops on any workload"),
    ("interlace.calls", "count", "higher", "work count on verify-jobs"),
    ("interlace.self_us", "us", "lower", "negligible share of verify-jobs; not an optimisation target"),
    ("wronskian.profile_calls", "count", "higher", "work count on verify-jobs"),
    ("wronskian.profile_self_ms", "ms", "lower", "op_p50_ms on verify-jobs"),
    ("wronskian.l0_calls_per_extremum", "ratio", "lower", "op_p50_ms on verify-jobs"),
    ("theorems.theorem3_cell_ms", "ms", "lower", "op_p50_ms, op_tail_ms on verify-jobs"),
    ("theorems.scan_cell_ms", "ms", "lower", "op_p50_ms, op_tail_ms on verify-jobs"),
    ("theorems.recurrences_ms", "ms", "lower", "op_p50_ms, op_tail_ms on verify-jobs"),
    ("theorems.self_share", "ratio", "lower", "op_p50_ms, op_tail_ms on verify-jobs"),
    ("cli.startup_ms", "ms", "lower", "setup_s and ops_per_s on verify-jobs"),
    *(
        (f"cli.job_ms.{job}", "ms", "lower", "ops_per_s on verify-jobs")
        for job in (
            "zeros",
            "interlace",
            "sweep",
            "verify.theorem3",
            "verify.chain",
            "verify.equivalence",
            "verify.all",
        )
    ),
    ("cli.library_share", "ratio", "higher", "setup_s and ops_per_s on verify-jobs"),
    ("cli.nonzero_exits", "count", "lower", "failed ops on verify-jobs"),
    ("trace.wall_ms", "ms", "lower", "traced wall time; the self times below add up to it"),
    *(
        (f"trace.self_ms.{layer}", "ms", "lower", "share of trace.wall_ms")
        for layer in LAYERS + RESIDUALS
    ),
    ("trace.residual_ms", "ms", "lower", "harness loop (in-process) or interpreter start and exit (verify-jobs)"),
    ("trace.overhead_ratio", "ratio", "lower", "traced over untraced time in the same ops, summed op by op"),
)
