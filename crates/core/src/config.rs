//! Filtering configuration and cost counters.
//!
//! §5.1 of the paper layers four families of filtering techniques on the
//! brute-force dominance checks; Appendix C ablates them one by one
//! (Figure 16) with the configurations BF, L, LP, LG, LGP and All. This
//! module exposes those switches and the counters the ablation reports.

/// Switches for the dominance-check filtering techniques of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Level-by-level pruning/validation over local R-tree nodes (the `L`
    /// component, §5.1.2).
    pub level_by_level: bool,
    /// Statistic-based pruning on min/mean/max (Theorem 11) and cover-based
    /// pruning through the operator hierarchy (the `P` component).
    pub pruning: bool,
    /// Geometric optimisations: restricting `⪯_Q` tests to the convex-hull
    /// vertices of the query, the in-hull early reject, and the
    /// distance-space mapping (the `G` component).
    pub geometric: bool,
    /// Cover-based validation via the exact MBR dominance test (Theorem 4).
    pub mbr_validation: bool,
    /// Blocked row kernels and per-traversal memoization on the hot paths:
    /// the multi-point pruned `δ_min` descent, the batched `⪯_Q` distance
    /// tables, per-object level snapshots and the reusable flow arena.
    ///
    /// Unlike the §5.1 switches this is an *implementation strategy*, not
    /// an algorithmic filter: results and the paper's cost counters
    /// (`instance_comparisons`, `mbr_checks`, `flow_runs`) are bit-for-bit
    /// identical either way — the `kernel_identity` test suite asserts
    /// exactly that. It defaults to on; the scalar path exists as the
    /// reference implementation that suite compares against.
    pub kernels: bool,
    /// Record a per-query structured trace tree (`osd_obs::QueryTrace`)
    /// alongside the result.
    ///
    /// Pure observability, not a filter: the tracer only ever writes into
    /// its own span arena, so candidate ids, `min_dist` bits and every
    /// cost counter are bit-identical traced or untraced (the
    /// `obs_purity` test suites assert this), and with the `obs` feature
    /// off the flag is inert — the tracer compiles to a zero-sized no-op.
    /// Off in every named configuration; enabled per query by `--trace`.
    pub trace: bool,
}

impl FilterConfig {
    /// Brute force: every filter disabled. The `kernels` strategy stays on
    /// — it changes how work is executed, not which work the ablation
    /// measures.
    pub const fn bf() -> Self {
        FilterConfig {
            level_by_level: false,
            pruning: false,
            geometric: false,
            mbr_validation: false,
            kernels: true,
            trace: false,
        }
    }

    /// `L`: level-by-level searching added to brute force.
    pub const fn l() -> Self {
        FilterConfig {
            level_by_level: true,
            ..Self::bf()
        }
    }

    /// `LP`: level-by-level plus pruning rules.
    pub const fn lp() -> Self {
        FilterConfig {
            pruning: true,
            ..Self::l()
        }
    }

    /// `LG`: level-by-level plus geometric strategy.
    pub const fn lg() -> Self {
        FilterConfig {
            geometric: true,
            ..Self::l()
        }
    }

    /// `LGP`: level-by-level, geometric and pruning.
    pub const fn lgp() -> Self {
        FilterConfig {
            pruning: true,
            ..Self::lg()
        }
    }

    /// `All`: every filtering technique, including MBR validation.
    pub const fn all() -> Self {
        FilterConfig {
            mbr_validation: true,
            ..Self::lgp()
        }
    }

    /// The same configuration with the blocked-kernel strategy disabled —
    /// the scalar reference path that the `kernel_identity` test suite
    /// checks the blocked path against.
    pub const fn scalar(self) -> Self {
        FilterConfig {
            kernels: false,
            ..self
        }
    }

    /// The same configuration with per-query tracing switched on — results
    /// are bit-identical either way (tracing is observation only).
    pub const fn traced(self) -> Self {
        FilterConfig {
            trace: true,
            ..self
        }
    }

    /// The ablation ladder of Appendix C, in presentation order.
    pub fn ablation_ladder() -> [(&'static str, FilterConfig); 6] {
        [
            ("BF", Self::bf()),
            ("L", Self::l()),
            ("LP", Self::lp()),
            ("LG", Self::lg()),
            ("LGP", Self::lgp()),
            ("All", Self::all()),
        ]
    }
}

impl Default for FilterConfig {
    /// The full configuration used by the headline experiments.
    fn default() -> Self {
        Self::all()
    }
}

/// Cost counters for the effectiveness/efficiency experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Instance-level comparisons: distance evaluations, sorted-atom scan
    /// steps and `⪯_Q` point tests — the y-axis of Figure 16.
    pub instance_comparisons: u64,
    /// Object-pair dominance checks started.
    pub dominance_checks: u64,
    /// Exact max-flow computations run by the P-SD check.
    pub flow_runs: u64,
    /// MBR-level dominance tests (validation / level-by-level / entry
    /// pruning in Algorithm 1).
    pub mbr_checks: u64,
    /// R-tree nodes expanded by best-first traversals: the global tree of
    /// Algorithm 1 plus the local-tree nearest/furthest primitives.
    pub rtree_nodes_visited: u64,
    /// Per-query derived-state cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Per-query derived-state cache lookups that had to build the entry.
    pub cache_misses: u64,
}

impl Stats {
    /// Merges another counter set into this one, field by exact field —
    /// the aggregation used by the parallel batch executor, where each
    /// worker accumulates its own `Stats` and the engine folds them
    /// together. Integer counters make this exact: merged parallel totals
    /// equal the sequential totals regardless of thread count. Every field
    /// of the struct participates — extending `Stats` means extending this
    /// merge (the exhaustive destructuring below makes forgetting a field
    /// a compile error).
    pub fn merge(&mut self, other: &Stats) {
        let Stats {
            instance_comparisons,
            dominance_checks,
            flow_runs,
            mbr_checks,
            rtree_nodes_visited,
            cache_hits,
            cache_misses,
        } = other;
        self.instance_comparisons += instance_comparisons;
        self.dominance_checks += dominance_checks;
        self.flow_runs += flow_runs;
        self.mbr_checks += mbr_checks;
        self.rtree_nodes_visited += rtree_nodes_visited;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
    }

    /// Every counter under its stable exposition name, in field order —
    /// the one list the `--profile` documents render. Destructures the
    /// struct exhaustively, like [`Stats::merge`], so a field that is not
    /// exposed is a compile error. `rtree_nodes_visited` keeps its
    /// published name, `rtree_node_visits`.
    pub fn named(&self) -> [(&'static str, u64); 7] {
        let Stats {
            instance_comparisons,
            dominance_checks,
            flow_runs,
            mbr_checks,
            rtree_nodes_visited,
            cache_hits,
            cache_misses,
        } = *self;
        [
            ("instance_comparisons", instance_comparisons),
            ("dominance_checks", dominance_checks),
            ("flow_runs", flow_runs),
            ("mbr_checks", mbr_checks),
            ("rtree_node_visits", rtree_nodes_visited),
            ("cache_hits", cache_hits),
            ("cache_misses", cache_misses),
        ]
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn ladder_is_monotone_in_features() {
        let ladder = FilterConfig::ablation_ladder();
        assert_eq!(ladder[0].1, FilterConfig::bf());
        assert_eq!(ladder[5].1, FilterConfig::all());
        assert!(ladder[1].1.level_by_level && !ladder[1].1.pruning);
        assert!(ladder[2].1.pruning && !ladder[2].1.geometric);
        assert!(ladder[3].1.geometric && !ladder[3].1.pruning);
        assert!(ladder[4].1.geometric && ladder[4].1.pruning);
    }

    #[test]
    fn default_is_all() {
        assert_eq!(FilterConfig::default(), FilterConfig::all());
    }

    #[test]
    fn kernels_default_on_and_scalar_only_flips_kernels() {
        for (_, cfg) in FilterConfig::ablation_ladder() {
            assert!(cfg.kernels, "every ladder rung runs the blocked kernels");
            let scalar = cfg.scalar();
            assert!(!scalar.kernels);
            assert_eq!(
                FilterConfig {
                    kernels: true,
                    ..scalar
                },
                cfg,
                "scalar() must not change the §5.1 switches"
            );
        }
    }

    #[test]
    fn merge_is_commutative_and_exact() {
        let parts = [
            Stats {
                instance_comparisons: 7,
                dominance_checks: 1,
                flow_runs: 0,
                mbr_checks: 2,
                rtree_nodes_visited: 3,
                cache_hits: 4,
                cache_misses: 1,
            },
            Stats {
                instance_comparisons: 11,
                dominance_checks: 4,
                flow_runs: 5,
                mbr_checks: 0,
                rtree_nodes_visited: 8,
                cache_hits: 0,
                cache_misses: 6,
            },
            Stats {
                instance_comparisons: 13,
                dominance_checks: 2,
                flow_runs: 1,
                mbr_checks: 9,
                rtree_nodes_visited: 2,
                cache_hits: 5,
                cache_misses: 0,
            },
        ];
        let mut fwd = Stats::default();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Stats::default();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev, "merge order must not matter");
        assert_eq!(fwd.instance_comparisons, 31);
        assert_eq!(fwd.dominance_checks, 7);
        assert_eq!(fwd.flow_runs, 6);
        assert_eq!(fwd.mbr_checks, 11);
        assert_eq!(fwd.rtree_nodes_visited, 13);
        assert_eq!(fwd.cache_hits, 9);
        assert_eq!(fwd.cache_misses, 7);
    }
}
