//! `smoke --serve` commits the counters `replay_mixed` returns and compares
//! them for equality on every machine, so the replay must be a function of
//! its inputs — on the single service and on the sharded router alike.

use keybridge_bench::replay_mixed;
use keybridge_core::{
    InterpreterConfig, SearchService, SearchSnapshot, ShardedService, TemplateCatalog,
};
use keybridge_datagen::{
    sharded_holdout_plan, ImdbConfig, ImdbDataset, IngestConfig, MixedWorkload, ShardedIngestPlan,
    Workload, WorkloadConfig,
};
use keybridge_index::InvertedIndex;
use std::sync::Arc;

#[test]
fn replay_mixed_is_a_function_of_its_inputs_on_both_topologies() {
    let data = ImdbDataset::generate(ImdbConfig::tiny(3)).unwrap();
    let cfg = WorkloadConfig {
        seed: 4,
        n_queries: 16,
        mc_fraction: 0.5,
    };
    let queries: Vec<Vec<String>> = Workload::imdb(&data, cfg)
        .queries
        .into_iter()
        .map(|q| q.keywords)
        .collect();
    let catalog = TemplateCatalog::enumerate(&data.db, 4, 100_000).unwrap();
    let ingest = IngestConfig {
        seed: 5,
        holdout: 0.2,
        batches: 4,
    };
    let ShardedIngestPlan { plan, assignment } = sharded_holdout_plan(&data.db, ingest, 4);
    let mixed = MixedWorkload::interleave(plan, &queries, 9);
    let batches = mixed.counts().1;
    assert_eq!(batches, 4);
    let snapshot = || {
        Arc::new(SearchSnapshot::new(
            mixed.initial.clone(),
            InvertedIndex::build(&mixed.initial),
            catalog.clone(),
            InterpreterConfig::default(),
        ))
    };

    let mut published = Vec::new();
    let single = replay_mixed(&SearchService::start(snapshot(), 1), &mixed.ops, 5, |n| {
        published.push(n)
    });
    assert_eq!(published, [1, 2, 3, 4], "one call per published batch");
    let again = replay_mixed(&SearchService::start(snapshot(), 1), &mixed.ops, 5, |_| {});
    assert_eq!(single, again);

    let sharded = || {
        let service = ShardedService::start_with_assignment(snapshot(), assignment.clone(), 1);
        replay_mixed(&service, &mixed.ops, 5, |_| {})
    };
    let first = sharded();
    assert_eq!(first, sharded());

    for stats in [&single, &first] {
        assert_eq!(stats.epoch as usize, batches);
        assert_eq!(stats.served, 2 * queries.len());
    }
    assert!(single.rows_ingested > 0 && single.stale_evictions > 0);
    assert_eq!(
        (single.epoch_swaps, single.rows_ingested),
        (first.epoch_swaps, first.rows_ingested)
    );
    assert!(first.shard_epoch_swaps >= batches && first.shards_touched >= 1);
}
