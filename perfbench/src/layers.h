// Per-layer measurements that run beside a workload in traced runs: the
// core backends' single-aggregate Update/Query cost, the SPSC ring handoff
// at a workload's flush run size, and registry replays of a workload's
// per-shard substreams.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "bench.h"
#include "engine/registry.h"

namespace perfbench {

/// core.<backend>.update_ns and core.<backend>.query_ns for ewma,
/// recent_items, ceh, wbmh, coarse_ceh and polyexp.
void MeasureCoreBackends(Result* result);

/// Cross-thread ring handoff cost in ns per item: one producer thread
/// pushes runs of `run_size` items (TryPushN), one consumer pops them
/// (TryPopN), across a ring of the engine's queue capacity.
double RingHandoffNsPerItem(size_t run_size, size_t queue_capacity,
                            Result* result);

/// Replays `items` (already tick-ordered) through a fresh standalone
/// registry with `options`, after first feeding it `warm` untimed; returns
/// seconds spent in UpdateBatch (chunks of the engine writer's drain size).
double ReplayRegistry(tds::DecayPtr decay,
                      const tds::AggregateRegistry::Options& options,
                      std::span<const tds::KeyedItem> warm,
                      std::span<const tds::KeyedItem> items);

/// registry.{ceh,wbmh,ewma}.update_batch_ns_per_item over a workload's
/// recorded per-shard substreams (each shard replayed on its own registry;
/// the metric is total replay time over total items).
void MeasureRegistryBackends(
    const std::vector<std::vector<tds::KeyedItem>>& warm,
    const std::vector<std::vector<tds::KeyedItem>>& shard_items,
    Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
