#ifndef TDS_TESTS_ENGINE_TEST_UTIL_H_
#define TDS_TESTS_ENGINE_TEST_UTIL_H_

#include <span>

#include "engine/engine.h"
#include "engine/producer_session.h"
#include "engine/registry.h"
#include "util/status.h"

namespace tds {

/// Stages `items` on a one-shot ProducerSession and flushes them — the
/// canonical way for a test to feed an engine a whole batch.
inline Status SessionIngest(ShardedAggregateEngine& engine,
                            std::span<const KeyedItem> items) {
  ProducerSessionOptions options;
  options.staging_capacity = items.size() + 1;  // one flush, whole batch
  auto session = engine.NewProducer(options);
  if (!session.ok()) return session.status();
  const Status staged = (*session)->AddBatch(items);
  if (!staged.ok()) return staged;
  return (*session)->Flush();
}

inline Status SessionIngest(ShardedAggregateEngine& engine, uint64_t key,
                            Tick t, uint64_t value) {
  const KeyedItem item{key, t, value};
  return SessionIngest(engine, {&item, 1});
}

}  // namespace tds

#endif  // TDS_TESTS_ENGINE_TEST_UTIL_H_
