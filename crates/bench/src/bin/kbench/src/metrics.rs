//! The metric registry: every name the benchmark reports, with its unit and
//! direction. `BENCHMARK.json` is generated from these tables
//! (`kbench --emit-benchmark-json`), so the contract file and the program
//! cannot drift apart.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change is rejected; per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// Measured with tracing off (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("sat_ops_s", "1/s", Better::Higher, 0.25),
    e2e("sat_search_p50_ms", "ms", Better::Lower, 0.25),
    e2e("sat_search_p95_ms", "ms", Better::Lower, 0.25),
    e2e("rss_peak_mb", "MB", Better::Lower, 0.25),
];

/// Reported by the per-layer run (`--trace 1`). The first block are
/// user-visible numbers that only some workloads have (the contract wants
/// every end-to-end metric on every workload, so they live here, ungated);
/// the rest follow the module map. A metric a workload does not exercise
/// reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    lo("search_p50_ms", "ms"),
    lo("search_p95_ms", "ms"),
    lo("search_p95_hi_ms", "ms"),
    lo("div_p95_ms", "ms"),
    lo("session_p95_ms", "ms"),
    lo("ingest_p50_ms", "ms"),
    lo("ingest_p95_ms", "ms"),
    lo("recovery_s", "s"),
    lo("disk_bytes_per_row", "B"),
    lo("fail_share", "share"),
    // core.service
    lo("core.service.dispatch_p50_ms", "ms"),
    lo("core.service.queue_excess_p95_ms", "ms"),
    hi("core.service.served", "count"),
    lo("core.service.publish_clone_ms", "ms"),
    lo("core.service.ingest_self_ms", "ms"),
    lo("core.service.epoch_swaps", "count"),
    lo("core.service.stale_evictions", "count"),
    lo("core.service.sessions_evicted", "count"),
    // core.generate
    lo("core.generate.top_k_p50_ms", "ms"),
    lo("core.generate.top_k_p95_ms", "ms"),
    lo("core.generate.expanded", "count"),
    lo("core.generate.materialized", "count"),
    hi("core.generate.pruned", "count"),
    lo("core.generate.nonempty_probes", "count"),
    hi("core.generate.nonempty_hit_share", "share"),
    // core.exec
    lo("core.exec.execute_p50_ms", "ms"),
    lo("core.exec.execute_p95_ms", "ms"),
    hi("core.exec.result_hit_share", "share"),
    hi("core.exec.predicate_hit_share", "share"),
    lo("core.exec.executed_per_request", "count"),
    hi("core.exec.nonempty_share", "share"),
    lo("core.exec.waves_mean", "count"),
    // core.pipeline
    lo("core.pipeline.answers_p50_ms", "ms"),
    lo("core.pipeline.diversified_p50_ms", "ms"),
    lo("core.pipeline.diversify_select_ms", "ms"),
    lo("core.pipeline.div_pool_items", "count"),
    hi("core.pipeline.div_selected", "count"),
    // core.construct
    lo("core.construct.open_ms", "ms"),
    lo("core.construct.advance_ms", "ms"),
    lo("core.construct.window_ms", "ms"),
    lo("core.construct.steps_mean", "count"),
    // textindex
    lo("textindex.candidates_ms", "ms"),
    lo("textindex.probe_us", "us"),
    lo("textindex.materialize_ms", "ms"),
    lo("textindex.postings_walked_per_answer", "count"),
    hi("textindex.bitmap_share", "share"),
    lo("textindex.postings_bytes", "B"),
    lo("textindex.index_batch_ms", "ms"),
    lo("textindex.build_s", "s"),
    lo("textindex.snapshot_bytes", "B"),
    lo("textindex.snapshot_decode_ms", "ms"),
    // relstore.exec
    lo("relstore.exec.reduce_ms", "ms"),
    lo("relstore.exec.join_ms", "ms"),
    lo("relstore.exec.semijoin_rows_in", "count"),
    lo("relstore.exec.semijoin_rows_out", "count"),
    lo("relstore.exec.rows_in_per_answer", "count"),
    lo("relstore.exec.probes", "count"),
    lo("relstore.exec.intermediate_bindings", "count"),
    lo("relstore.exec.batch_allocs", "count"),
    lo("relstore.exec.arena_bytes_peak", "B"),
    // relstore.database
    lo("relstore.database.insert_batch_ms", "ms"),
    lo("relstore.database.clone_ms", "ms"),
    lo("relstore.database.heap_bytes", "B"),
    hi("relstore.database.rows", "count"),
    // relstore.snapshot
    lo("relstore.snapshot.encode_batch_us", "us"),
    lo("relstore.snapshot.store_encode_ms", "ms"),
    lo("relstore.snapshot.store_decode_ms", "ms"),
    lo("relstore.snapshot.store_bytes", "B"),
    // relstore.partition
    lo("relstore.partition.assign_s", "s"),
    lo("relstore.partition.split_s", "s"),
    lo("relstore.partition.skew", "ratio"),
    // core.wal
    lo("core.wal.append_p50_ms", "ms"),
    lo("core.wal.append_p95_ms", "ms"),
    lo("core.wal.bytes_per_row", "B"),
    hi("core.wal.records", "count"),
    hi("core.wal.checkpoints", "count"),
    lo("core.wal.checkpoint_ms", "ms"),
    lo("core.wal.checkpoint_bytes", "B"),
    lo("core.wal.checkpoint_stall_ms", "ms"),
    lo("core.wal.scan_ms", "ms"),
    lo("core.wal.replayed_batches", "count"),
    // core.sharded
    lo("core.sharded.overhead_p50_ms", "ms"),
    lo("core.sharded.start_s", "s"),
    hi("core.sharded.shard_rows_skipped", "count"),
    lo("core.sharded.shard_epoch_swaps", "count"),
    lo("core.sharded.shards_touched", "count"),
    // datagen
    lo("datagen.generate_s", "s"),
    lo("datagen.holdout_s", "s"),
    hi("datagen.rows", "count"),
    // bench.driver: the instrument's own health
    lo("bench.driver.lag_p99_ms", "ms"),
    lo("bench.driver.backlog_end_ops", "count"),
    hi("bench.driver.slo_rate_rps", "1/s"),
    lo("bench.driver.segment_spread", "ratio"),
    lo("bench.driver.search_p99_ms", "ms"),
    lo("bench.driver.search_max_ms", "ms"),
    lo("bench.driver.trace_overhead_share", "share"),
    hi("bench.driver.trace_coverage", "share"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    /// Observations behind the value (1 for a single reading or a count).
    pub samples: usize,
    /// Set when the noise guard or the thin-tail rule cannot vouch for it.
    pub unresolved: bool,
}

/// The values one run measured, by metric name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Measured>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(find(name).is_some(), "unregistered metric {name}");
        self.values.insert(
            name,
            Measured {
                value,
                samples,
                unresolved: false,
            },
        );
    }

    /// A percentile of an ascending sample, marked unresolved when fewer
    /// than ten samples lie beyond it.
    pub fn set_percentile(&mut self, name: &'static str, sorted: &[f64], p: f64) {
        self.set(name, crate::stats::percentile(sorted, p), sorted.len());
        if crate::stats::supported_percentile(sorted, p).is_none() {
            self.mark_unresolved(name);
        }
    }

    pub fn mark_unresolved(&mut self, name: &'static str) {
        if let Some(m) = self.values.get_mut(name) {
            m.unresolved = true;
        }
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    /// Every metric of `defs`, in table order; one the run never set (the
    /// workload does not exercise it) reads 0 with no samples.
    pub fn complete(&self, defs: &'static [MetricDef]) -> Vec<(&'static MetricDef, Measured)> {
        defs.iter()
            .map(|d| {
                let m = self.get(d.name).unwrap_or(Measured {
                    value: 0.0,
                    samples: 0,
                    unresolved: false,
                });
                (d, m)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn thin_percentiles_are_marked_unresolved() {
        let mut r = Report::default();
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        r.set_percentile("sat_search_p95_ms", &v, 0.95);
        assert!(r.get("sat_search_p95_ms").unwrap().unresolved);
        r.set_percentile("sat_search_p50_ms", &v, 0.50);
        assert!(!r.get("sat_search_p50_ms").unwrap().unresolved);
        let all = r.complete(END_TO_END);
        assert_eq!(all.len(), END_TO_END.len());
        assert_eq!(all[0].1.samples, 0);
    }
}
