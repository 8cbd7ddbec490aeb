"""Which ginlab call sites the benchmark times, and under which span names.

A span name is ``<layer>.<function>``; the layer is the ginlab module (the
``sampler`` layer includes its private ``_rng.stream``).  Each name lists
the (container, key) bindings that callers look up at call time, so that
rebinding them puts every call from the benchmarked paths inside a span.
"""

#: The ginlab modules the benchmark loads; each one is a layer.
LAYERS = (
    "sampler",
    "linalg",
    "pfaffian",
    "kernel",
    "group_integrals",
    "stationary_phase",
    "heat",
    "cli",
)

#: Spans that time the Monte Carlo estimator calls (and, for the closed-form
#: campaigns, the campaign computations).  They are installed in untraced
#: runs too: draws_per_s needs their time, and two clock reads per call cost
#: nothing measurable.
PROBE_SPANS = ("sampler.estimator", "group_integrals.mc_grid", "cli.campaign")

#: The root span around one benchmark round; its self time is the part of
#: the round that no layer span covers (benchmark glue and result checks).
ROUND_SPAN = "bench.round"


def span_table(g):
    """[(span name, [(container, key), ...]), ...] for the ginlab modules in ``g``."""
    s, gi, pf = g.sampler, g.group_integrals, g.pfaffian
    k, sp, h, c = g.kernel, g.stationary_phase, g.heat, g.cli
    return [
        ("sampler.estimator", [(s, "estimate_spin_moments"), (s, "estimate_signed_density")]),
        ("sampler.duality_check", [(s, "duality_check")]),
        ("sampler.stream", [(s, "stream"), (gi, "stream"), (c, "stream")]),
        ("linalg.real_schur", [(s, "real_schur")]),
        ("linalg.sign_det", [(s, "sign_det")]),
        (
            "pfaffian.pfaffian",
            [(k, "pfaffian"), (gi, "pfaffian"), (sp, "pfaffian"), (h, "pfaffian"), (c, "pfaffian")],
        ),
        ("pfaffian.matchings", [(pf, "enumerate_matchings"), (sp, "enumerate_matchings")]),
        ("pfaffian.matchings_sum", [(c, "pfaffian_matchings")]),
        ("kernel.gauss_tail", [(k, "gauss_tail"), (k, "gauss_tail_d1"), (k, "gauss_tail_d2")]),
        ("kernel.correlation", [(k, "correlation")]),
        ("kernel.signed_density", [(k, "signed_density")]),
        ("kernel.spin_correlation", [(k, "spin_correlation")]),
        ("group_integrals.mc_grid", [(gi, "integral_mc_grid")]),
        ("group_integrals.haar_unitaries", [(gi, "haar_unitaries")]),
        ("group_integrals.charpoly_quadrature", [(gi, "charpoly_moment_quadrature")]),
        ("group_integrals.fit_shape_constant", [(gi, "fit_shape_constant")]),
        ("group_integrals.exact_shape", [(gi, "exact_shape")]),
        ("group_integrals.quadrature_k2", [(c, "integral_quadrature_k2")]),
        ("stationary_phase.critical_data", [(sp, "critical_data")]),
        ("stationary_phase.ratio_report", [(sp, "vandermonde_ratio_report")]),
        ("stationary_phase.phase_sum", [(sp, "matchings_phase_sum")]),
        ("stationary_phase.phase_pfaffian_ratio", [(sp, "phase_pfaffian_ratio")]),
        ("stationary_phase.find_max_matching", [(sp, "find_max_matching")]),
        ("heat.residual_order", [(h, "residual_order")]),
        ("heat.signed_density_t", [(h, "signed_density_t")]),
        ("heat.initial_condition_check", [(h, "initial_condition_check")]),
        ("cli.main", [(c, "main")]),
        ("cli.campaign", [(c.RUNNERS, name) for name in c.CAMPAIGNS]),
        ("cli.write", [(c, "write_results"), (c, "write_manifest")]),
    ]

