// The four workloads. Each one sets up an engine (timed several times for
// setup_s), runs its own main phase, and the probes that give the
// end-to-end metrics its main phase does not: quiescent reads (QueryKey,
// Snapshot + TopK), taken between slices of the main phase, and after it a
// durability cycle (incremental commits, standby apply, failover). Every
// item fed to the engine is also replayed into a serial AggregateRegistry
// at the end, and the final engine snapshot must match it byte for byte.
// Why each workload exists is in perfbench/README.md.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/checkpoint_log.h"
#include "engine/engine.h"
#include "engine/merged_snapshot.h"
#include "engine/producer_session.h"
#include "engine/standby.h"
#include "layers.h"

namespace perfbench {
namespace {

using tds::KeyedItem;
using tds::Tick;
using Engine = tds::ShardedAggregateEngine;

constexpr uint32_t kShards = 2;
constexpr size_t kBlock = HotStream::kBlock;
/// Larger than any AddBatch the benchmark issues (at most one 4096-item
/// tick), so AddBatch only stages and every ring push happens in Flush().
constexpr size_t kStagingCapacity = 2 * kBlock;
/// Engine set-ups per run (setup_s is their median): at least the minimum,
/// more while the set-ups have taken less than their share of --seconds.
constexpr int kMinSetupRepeats = 7;
constexpr int kMaxSetupRepeats = 31;
constexpr double kSetupShare = 0.05;
constexpr size_t kTopK = 100;
/// Slices of the read probe; untraced runs take one after each sixth of the
/// main phase.
constexpr int kReadSlices = 6;
/// Durability-probe failovers: at least four for failover_ms's median, and
/// more while they have taken less than this share of --seconds.
constexpr int kProbeFailovers = 4;
constexpr int kMaxFailovers = 16;
constexpr double kProbeFailoverShare = 0.3;
/// Traced runs record each shard's substream for this long (or this many
/// items), then replay it through standalone registries.
constexpr double kRecordSeconds = 0.25;
constexpr size_t kRecordItems = size_t{1} << 21;
/// Main-phase segments of a traced run, alternately untraced and traced.
constexpr int kTraceSegments = 6;

struct Spec {
  tds::DecayPtr decay;
  Engine::Options options;
};

Spec MakeSpec(tds::DecayPtr decay, tds::Backend backend, uint32_t shards) {
  Spec spec;
  spec.decay = std::move(decay);
  spec.options.registry.aggregate = tds::AggregateOptions::Builder()
                                        .backend(backend)
                                        .epsilon(0.1)
                                        .Build()
                                        .value();
  // Byte equality with the serial reference needs every key kept: lazy
  // expiry sweeps run per shard, so eviction timing differs from a single
  // registry's (the engine tests disable it for the same reason).
  spec.options.registry.expiry_weight_floor = -1.0;
  spec.options.shards = shards;
  return spec;
}

Spec CehSpec(uint32_t shards) {
  return MakeSpec(tds::SlidingWindowDecay::Create(4096).value(),
                  tds::Backend::kCeh, shards);
}

Spec WbmhSpec(uint32_t shards) {
  return MakeSpec(tds::PolynomialDecay::Create(1.0).value(),
                  tds::Backend::kWbmh, shards);
}

using TickSource = std::function<void(Tick, std::vector<KeyedItem>*)>;

/// End-to-end samples of one run.
struct EndToEnd {
  Samples setup_s, ingest_rate, lag_ms, query_us, topk_ms, commit_ms,
      commit_bytes, apply_ms, failover_ms;

  void Append(const EndToEnd& o) {
    for (auto [to, from] :
         {std::pair{&setup_s, &o.setup_s}, {&ingest_rate, &o.ingest_rate},
          {&lag_ms, &o.lag_ms}, {&query_us, &o.query_us},
          {&topk_ms, &o.topk_ms}, {&commit_ms, &o.commit_ms},
          {&commit_bytes, &o.commit_bytes}, {&apply_ms, &o.apply_ms},
          {&failover_ms, &o.failover_ms}}) {
      to->Append(*from);
    }
  }
};

/// Counters and recordings only traced runs use.
struct LayerData {
  uint64_t queue_depth_max = 0;
  uint64_t ingest_items = 0;  ///< items behind the per-item span sums
  double barrier_s = 0.0;     ///< producer time spent at tick barriers
  double producer_s = 0.0;    ///< producer time overall (for the fraction)
  Samples late_ms;
  Samples capture_ms, segment_encode_us, live_bytes, compact_ms;
  tds::ProducerSession::Stats sessions;
  // Per-shard substreams: population (untimed warm-up for the replays) and
  // a recorded prefix of the main phase, with the wall time it took.
  std::vector<std::vector<KeyedItem>> warm, recorded;
  bool recording = false;
  size_t recorded_items = 0;
  double recorded_wall_s = 0.0;
};

class Run;
void SampleQueueDepth(Run& run, const Engine& engine);

class Run {
 public:
  Run(const Config& config, Result* result, Spec spec)
      : config_(config), result_(*result), spec_(std::move(spec)),
        rng_(config.seed * 0x9e3779b97f4a7c15ull + 17) {
    layer_.warm.resize(spec_.options.shards);
    layer_.recorded.resize(spec_.options.shards);
  }

  ~Run() {
    session_.reset();
    engine_.reset();
  }

  const Config& config() const { return config_; }
  Result& result() { return result_; }
  const Spec& spec() const { return spec_; }
  Engine& engine() { return *engine_; }
  bool ok() const { return engine_ != nullptr && result_.failed() == 0; }
  bool traced() const { return Tracer::Get().enabled(); }
  tds::Rng& rng() { return rng_; }
  EndToEnd& e2e() { return e2e_; }
  LayerData& layer() { return layer_; }
  Tick tick() const { return tick_; }
  Tick NextTick() { return ++tick_; }

  /// Appends a step of the serial reference's feed; steps run in order.
  void AddReplay(std::function<void(tds::AggregateRegistry&)> step) {
    replay_.push_back(std::move(step));
  }
  void AddReplayItems(std::vector<KeyedItem> items) {
    AddReplay([items = std::move(items)](tds::AggregateRegistry& ref) {
      for (size_t i = 0; i < items.size(); i += kBlock) {
        ref.UpdateBatch(std::span<const KeyedItem>(items).subspan(
            i, std::min(kBlock, items.size() - i)));
      }
    });
  }
  void CountSubmitted(uint64_t n) { submitted_ += n; }

  /// Creates the engine and ingests `population` (then runs `extra`, if
  /// any), kMinSetupRepeats to kMaxSetupRepeats times; each repeat is timed
  /// as one setup_s sample and the last engine is kept. Inputs are
  /// generated before timing.
  bool Setup(const std::vector<KeyedItem>& population,
             const std::function<bool(Run&)>& extra = {}) {
    const auto began = Clock::now();
    for (int rep = 0;
         rep < kMinSetupRepeats ||
         (rep < kMaxSetupRepeats &&
          SecondsSince(began) < config_.seconds * kSetupShare);
         ++rep) {
      if (rep > 0 && cleanup_extra) cleanup_extra();
      session_.reset();
      engine_.reset();
      replay_.clear();
      submitted_ = 0;
      const auto start = Clock::now();
      auto engine = Engine::Create(spec_.decay, spec_.options);
      if (!result_.Check(engine.status(), "engine Create")) return false;
      engine_ = std::move(engine).value();
      tds::ProducerSessionOptions options;
      options.staging_capacity = kStagingCapacity;
      auto session = engine_->NewProducer(options);
      if (!result_.Check(session.status(), "NewProducer")) return false;
      session_ = std::move(session).value();
      if (!IngestQuiescent(population, nullptr)) return false;
      if (extra && !extra(*this)) return false;
      e2e_.setup_s.Add(SecondsSince(start));
    }
    if (config_.trace) RouteInto(*engine_, population, &layer_.warm);
    return true;
  }

  /// Hook run between set-up repeats (the durability workload closes its
  /// checkpoint log there, before the next set-up replaces the engine).
  std::function<void()> cleanup_extra;

  /// Ingests `items` (tick-ordered) through the main-thread session, one
  /// AddBatch + Flush per tick block, then waits for the engine to apply
  /// them. When `round_s` is given, it receives the time from the first
  /// AddBatch until engine Flush returns.
  bool IngestQuiescent(std::span<const KeyedItem> items, double* round_s) {
    const auto start = Clock::now();
    size_t i = 0;
    while (i < items.size()) {
      size_t j = i;
      while (j < items.size() && j - i < kBlock && items[j].t == items[i].t) {
        ++j;
      }
      {
        TRACE_SPAN("producer_session.AddBatch");
        if (!result_.Check(session_->AddBatch(items.subspan(i, j - i)),
                           "session AddBatch")) {
          return false;
        }
      }
      {
        TRACE_SPAN("producer_session.Flush");
        if (!result_.Check(session_->Flush(), "session Flush")) return false;
      }
      SampleQueueDepth(*this, *engine_);
      i = j;
    }
    {
      TRACE_SPAN("engine.Flush");
      if (!result_.Check(engine_->Flush(), "engine Flush")) return false;
    }
    if (round_s != nullptr) *round_s = SecondsSince(start);
    submitted_ += items.size();
    if (!items.empty()) tick_ = std::max(tick_, items.back().t);
    return true;
  }

  /// Routes items into per-shard vectors with `engine`'s current route.
  static void RouteInto(const Engine& engine, std::span<const KeyedItem> items,
                        std::vector<std::vector<KeyedItem>>* out) {
    for (const KeyedItem& item : items) {
      (*out)[engine.RouteForKey(item.key)].push_back(item);
    }
  }

  /// Traced runs record the first rounds of the main phase (in its first,
  /// untraced segment, right after the population, so the population alone
  /// warms the replays) for the registry replays; called outside timing.
  bool WantRecording() const {
    return layer_.recording && layer_.recorded_items < kRecordItems &&
           layer_.recorded_wall_s < kRecordSeconds;
  }
  void Record(const Engine& engine, std::span<const KeyedItem> items,
              double wall_s) {
    RouteInto(engine, items, &layer_.recorded);
    layer_.recorded_items += items.size();
    layer_.recorded_wall_s += wall_s;
  }

  /// Final output checks: every submitted item applied, and the engine's
  /// merged snapshot byte-identical to the serial reference.
  void CheckFinalState() {
    uint64_t rejected = 0;
    for (const auto& s : engine_->Stats()) rejected += s.items_rejected;
    result_.Expect(rejected == 0, "no shard rejected items");
    result_.Expect(engine_->ItemsApplied() == submitted_,
                   "ItemsApplied (" + std::to_string(engine_->ItemsApplied()) +
                       ") equals items submitted (" +
                       std::to_string(submitted_) + ")");
    auto reference = tds::AggregateRegistry::Create(
        spec_.decay, spec_.options.registry);
    if (!result_.Check(reference.status(), "reference Create")) return;
    for (const auto& step : replay_) step(*reference);
    std::string want;
    if (!result_.Check(reference->EncodeState(&want), "reference encode")) {
      return;
    }
    std::string got;
    if (!SnapshotBytes(*engine_, &got)) return;
    result_.Expect(got == want,
                   "final engine snapshot is byte-identical to the serial "
                   "reference (" + std::to_string(got.size()) + " vs " +
                       std::to_string(want.size()) + " bytes)");
  }

  /// Registry bytes of an engine's merged snapshot.
  bool SnapshotBytes(Engine& engine, std::string* out) {
    auto snapshot = engine.Snapshot();
    if (!result_.Check(snapshot.status(), "engine Snapshot")) return false;
    return result_.Check(snapshot->EncodeRegistryState(out),
                         "snapshot encode");
  }

  tds::ProducerSession& session() { return *session_; }

 private:
  const Config& config_;
  Result& result_;
  Spec spec_;
  tds::Rng rng_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<tds::ProducerSession> session_;  // after engine_
  std::vector<std::function<void(tds::AggregateRegistry&)>> replay_;
  uint64_t submitted_ = 0;
  Tick tick_ = 0;
  EndToEnd e2e_;
  LayerData layer_;
};

/// Traced runs sample the shard queue depths after each flush.
void SampleQueueDepth(Run& run, const Engine& engine) {
  if (!run.traced()) return;
  for (const auto& s : engine.Stats()) {
    run.layer().queue_depth_max =
        std::max(run.layer().queue_depth_max, s.queue_depth);
  }
}

void AddSessionStats(const tds::ProducerSession::Stats& s,
                     tds::ProducerSession::Stats* total) {
  total->items_staged += s.items_staged;
  total->items_flushed += s.items_flushed;
  total->items_rejected += s.items_rejected;
  total->flush_stalls += s.flush_stalls;
}

/// The closed loop's tick barrier. It spins, then yields, rather than
/// sleeping: a sleeping barrier costs a futex sleep and wake-up per tick
/// and producer (about 80,000 in an `ingest_hot` run), which would make the
/// generator's own wake-up latency, which varies with the host's load, part
/// of every round. The program's own waits (writer park, Flush) are
/// untouched.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}

  void ArriveAndWait() {
    // Read the phase before arriving: the last arrival advances it.
    const uint64_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.store(phase + 1, std::memory_order_release);
      return;
    }
    for (int spins = 0; phase_.load(std::memory_order_acquire) == phase;
         ++spins) {
      if (spins < kSpins) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  static constexpr int kSpins = 4096;

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  const int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<uint64_t> phase_{0};
};

/// Closed-loop ingest: `producers` threads, each with its own session, take
/// interleaved halves of every tick block, flush, and meet at a tick
/// barrier so each shard sees non-decreasing ticks. A round is
/// `ticks_per_round` ticks generated up front (untimed) and timed from the
/// first AddBatch until engine Flush returns. Each of the `rounds` rounds
/// yields one ingest rate and one lag sample. Adds the items ingested to
/// `*items_out`.
bool ClosedLoop(Run& run, Engine& engine, const TickSource& source,
                int producers, size_t ticks_per_round, size_t rounds,
                uint64_t* items_out) {
  Result& result = run.result();
  std::vector<KeyedItem> round;
  round.reserve(ticks_per_round * kBlock);
  SpinBarrier sync(producers);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  size_t rounds_done = 0;
  uint64_t items_total = 0;
  std::vector<std::unique_ptr<tds::ProducerSession>> sessions;
  for (int p = 0; p < producers; ++p) {
    tds::ProducerSessionOptions options;
    options.staging_capacity = kStagingCapacity;
    auto session = engine.NewProducer(options);
    if (!result.Check(session.status(), "NewProducer")) return false;
    sessions.push_back(std::move(session).value());
  }

  auto producer = [&](int p) {
    tds::ProducerSession& session = *sessions[p];
    while (true) {
      if (p == 0) {
        // Generate the next round before anyone's clock starts.
        round.clear();
        if (rounds_done == rounds || failed) {
          stop = true;
        } else {
          for (size_t i = 0; i < ticks_per_round; ++i) {
            source(run.NextTick(), &round);
          }
        }
      }
      sync.ArriveAndWait();
      if (stop) break;
      const auto start = Clock::now();
      double barrier_s = 0.0;
      for (size_t base = 0; base < round.size(); base += kBlock) {
        const size_t block = std::min(kBlock, round.size() - base);
        const size_t chunk = (block + producers - 1) / producers;
        const size_t lo = std::min(static_cast<size_t>(p) * chunk, block);
        const size_t hi = std::min(lo + chunk, block);
        if (hi > lo && !failed) {
          std::span<const KeyedItem> part(round.data() + base + lo, hi - lo);
          {
            TRACE_SPAN("producer_session.AddBatch");
            if (!result.Check(session.AddBatch(part), "session AddBatch")) {
              failed = true;
            }
          }
          TRACE_SPAN("producer_session.Flush");
          if (!result.Check(session.Flush(), "session Flush")) {
            failed = true;
          }
        }
        if (p == 0) SampleQueueDepth(run, engine);
        if (producers > 1) {
          const auto wait = Clock::now();
          TRACE_SPAN("loadgen.barrier");
          sync.ArriveAndWait();
          barrier_s += SecondsSince(wait);
        }
      }
      if (p == 0) {
        {
          TRACE_SPAN("engine.Flush");
          if (!result.Check(engine.Flush(), "engine Flush")) failed = true;
        }
        const double round_s = SecondsSince(start);
        ++rounds_done;
        items_total += round.size();
        // Recorded rounds warm the traced run up; their samples are dropped.
        const bool recording = run.WantRecording();
        if (recording) run.Record(engine, round, round_s);
        if (!recording) {
          run.e2e().ingest_rate.Add(static_cast<double>(round.size()) /
                                    round_s);
          run.e2e().lag_ms.Add(round_s * 1e3);
        }
        if (run.traced()) {
          run.layer().barrier_s += barrier_s;
          run.layer().producer_s += round_s;
        }
      }
      if (producers > 1) sync.ArriveAndWait();  // round end
    }
  };

  std::vector<std::thread> helpers;
  for (int p = 1; p < producers; ++p) helpers.emplace_back(producer, p);
  producer(0);
  for (std::thread& t : helpers) t.join();
  for (const auto& s : sessions) {
    AddSessionStats(s->stats(), &run.layer().sessions);
  }
  run.CountSubmitted(items_total);
  *items_out += items_total;
  return !failed;
}

/// Brute-force ranking of a snapshot: every key's weight at the cut, by
/// descending weight then ascending key (TopK's documented order).
std::vector<tds::MergedSnapshot::WeightedKey> BruteTopK(
    const tds::MergedSnapshot& snapshot, size_t k) {
  std::vector<tds::MergedSnapshot::WeightedKey> all;
  for (uint64_t key : snapshot.Keys()) {
    all.push_back({key, snapshot.Query(key, snapshot.cut())});
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.weight != b.weight ? a.weight > b.weight : a.key < b.key;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

bool SameRanking(const std::vector<tds::MergedSnapshot::WeightedKey>& a,
                 const std::vector<tds::MergedSnapshot::WeightedKey>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].weight != b[i].weight) return false;
  }
  return true;
}

/// One timed Snapshot() + TopK(100), checked against a brute-force ranking
/// of the same snapshot (untimed). The snapshot is moved into `*kept` when
/// it is given.
bool TimedTopK(Run& run, Engine& engine, Samples* topk_ms,
               std::optional<tds::MergedSnapshot>* kept = nullptr) {
  const auto start = Clock::now();
  tds::StatusOr<tds::MergedSnapshot> snapshot = [&] {
    TRACE_SPAN("engine.Snapshot");
    return engine.Snapshot();
  }();
  if (!run.result().Check(snapshot.status(), "engine Snapshot")) return false;
  std::vector<tds::MergedSnapshot::WeightedKey> top;
  {
    TRACE_SPAN("merged_snapshot.TopK");
    top = snapshot->TopK(kTopK, snapshot->cut());
  }
  topk_ms->Add(SecondsSince(start) * 1e3);
  const bool same = run.result().Expect(
      SameRanking(top, BruteTopK(*snapshot, kTopK)),
      "TopK matches a brute-force ranking of its snapshot");
  if (kept != nullptr) kept->emplace(std::move(snapshot).value());
  return same;
}

/// One slice of the quiescent read probe: `topks` timed Snapshot() +
/// TopK(100)s, then `rounds` read rounds, each querying one uniformly drawn
/// live key on each shard (checked against the last snapshot) and yielding
/// one sample, its time per read. A point read costs its shard's whole
/// state, and shard sizes differ (`ingest_hot`'s hot flows), so single
/// reads fall into one cluster per shard, whose median flips from seed to
/// seed; a round's mean does not. Untraced runs take the slices between
/// slices of the main phase, so the samples span the run rather than the
/// few seconds after it: the shared host's speed swings by 10-20% over
/// seconds. The counts are fixed, not time budgets: the state grows
/// between slices, and a time budget would give the cheap early slices
/// more of the samples on a fast run than on a slow one, moving the median
/// between slices.
void ReadSlice(Run& run, size_t topks, size_t rounds) {
  Engine& engine = run.engine();
  std::optional<tds::MergedSnapshot> before;
  for (size_t q = 0; q < topks; ++q) {
    if (!TimedTopK(run, engine, &run.e2e().topk_ms, &before)) return;
  }
  std::vector<std::vector<uint64_t>> by_shard(engine.shards());
  for (uint64_t key : before->Keys()) {
    by_shard[engine.RouteForKey(key)].push_back(key);
  }
  std::erase_if(by_shard, [](const auto& keys) { return keys.empty(); });
  if (!run.result().Expect(!by_shard.empty(), "read probe has live keys")) {
    return;
  }
  const Tick cut = before->cut();
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<std::pair<uint64_t, double>> reads;
    for (const std::vector<uint64_t>& keys : by_shard) {
      reads.emplace_back(keys[run.rng().NextBelow(keys.size())], 0.0);
    }
    const auto t0 = Clock::now();
    for (auto& [key, value] : reads) {
      TRACE_SPAN("engine.QueryKey");
      value = engine.QueryKey(key, cut);
    }
    run.e2e().query_us.Add(SecondsSince(t0) * 1e6 /
                           static_cast<double>(reads.size()));
    for (const auto& [key, value] : reads) {
      run.result().Expect(value == before->Query(key, cut),
                          "QueryKey equals the snapshot's value");
    }
  }
}

/// Incremental checkpointing with a warm standby tailing it.
struct Durable {
  std::string dir;
  /// Commit times with and without the automatic compaction.
  Samples compacting_ms, plain_ms;
  std::optional<tds::CheckpointLog> log;
  std::optional<tds::StandbyFollower> follower;
};

bool StartDurable(Run& run, Durable* d, const std::string& dir) {
  Result& result = run.result();
  d->dir = dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  if (!result.Check(run.engine().EnableCheckpointTracking(),
                    "EnableCheckpointTracking")) {
    return false;
  }
  auto log = tds::CheckpointLog::Create(run.engine(), dir, {});
  if (!result.Check(log.status(), "CheckpointLog Create")) return false;
  d->log.emplace(std::move(log).value());
  if (!result.Check(d->log->WriteIncremental(), "first WriteIncremental")) {
    return false;
  }
  auto follower = tds::StandbyFollower::Create(
      run.spec().decay, run.spec().options.registry, dir);
  if (!result.Check(follower.status(), "StandbyFollower Create")) return false;
  d->follower.emplace(std::move(follower).value());
  return result.Check(d->follower->ApplyNew(), "first ApplyNew");
}

/// Traced runs time the log's two inner stages through their public entry
/// points, after a cycle so its commit is not disturbed: a capture at the
/// watermarks that commit started from (the same dirty set again; a capture
/// only opens a new epoch and prunes what those older watermarks prove
/// committed, so the log is unaffected) and the segment encoding of it.
void TimeCaptureAndEncode(Run& run, std::vector<uint64_t> since,
                          uint64_t generation) {
  since.resize(run.engine().shards(), 0);
  std::vector<Engine::ShardCheckpointDelta> deltas;
  auto start = Clock::now();
  tds::Status captured;
  {
    TRACE_SPAN("engine.CaptureCheckpointDeltas");
    captured = run.engine().CaptureCheckpointDeltas(since, &deltas);
  }
  run.layer().capture_ms.Add(SecondsSince(start) * 1e3);
  if (!run.result().Check(captured, "CaptureCheckpointDeltas")) return;
  start = Clock::now();
  for (const auto& shard_delta : deltas) {
    tds::ckptlog_internal::Segment segment;
    segment.shard = shard_delta.shard;
    segment.gen_lo = segment.gen_hi = generation;
    segment.epoch = shard_delta.delta.epoch;
    segment.dead_keys = shard_delta.delta.dead_keys;
    segment.registry_blob = shard_delta.delta.blob;
    std::string payload;
    TRACE_SPAN("checkpoint_log.SegmentEncode");
    if (!run.result().Check(segment.Encode(&payload), "Segment Encode")) {
      return;
    }
  }
  run.layer().segment_encode_us.Add(SecondsSince(start) * 1e6);
}

/// One durability cycle: `churn` items at the next tick through the
/// session (one ingest round, sampled when `sample_ingest` is set), an
/// incremental commit, and a standby apply.
bool DurableCycle(Run& run, Durable& d, std::vector<KeyedItem> churn,
                  bool sample_ingest) {
  Result& result = run.result();
  double round_s = 0.0;
  if (!run.IngestQuiescent(churn, &round_s)) return false;
  const bool recording = run.WantRecording();
  if (recording) run.Record(run.engine(), churn, round_s);
  if (sample_ingest) {
    run.layer().ingest_items += churn.size();
    if (!recording) {
      run.e2e().ingest_rate.Add(static_cast<double>(churn.size()) / round_s);
      run.e2e().lag_ms.Add(round_s * 1e3);
    }
  }
  run.AddReplayItems(std::move(churn));
  const std::vector<uint64_t> since = d.log->manifest().shard_epochs;

  auto start = Clock::now();
  tds::Status committed;
  {
    TRACE_SPAN("checkpoint_log.WriteIncremental");
    committed = d.log->WriteIncremental();
  }
  const double commit_s = SecondsSince(start);
  if (!result.Check(committed, "WriteIncremental")) return false;
  run.e2e().commit_ms.Add(commit_s * 1e3);
  const tds::CheckpointLog::Manifest& manifest = d.log->manifest();
  const bool compacted =
      manifest.entries.size() == 1 &&
      manifest.entries[0].shard == tds::CheckpointLog::kBaseShard;
  if (compacted) {
    d.compacting_ms.Add(commit_s * 1e3);
  } else {
    d.plain_ms.Add(commit_s * 1e3);
    uint64_t bytes = 0;
    for (const auto& entry : manifest.entries) {
      if (entry.gen_lo == manifest.generation) bytes += entry.length;
    }
    run.e2e().commit_bytes.Add(static_cast<double>(bytes));
  }
  run.layer().live_bytes.Add(static_cast<double>(d.log->LiveBytes()));

  start = Clock::now();
  tds::Status applied;
  {
    TRACE_SPAN(compacted ? "standby.ApplyNew.full" : "standby.ApplyNew");
    applied = d.follower->ApplyNew();
  }
  const double apply_s = SecondsSince(start);
  if (!result.Check(applied, "standby ApplyNew")) return false;
  if (!compacted) run.e2e().apply_ms.Add(apply_s * 1e3);
  if (run.traced()) TimeCaptureAndEncode(run, since, manifest.generation);
  return true;
}

/// A failover: a fresh follower catches up on the whole log, then is
/// promoted; the promoted engine must hold exactly `primary`, the primary's
/// snapshot bytes at its last commit.
bool Failover(Run& run, Durable& d, const std::string& primary) {
  Result& result = run.result();
  const auto start = Clock::now();
  auto follower = tds::StandbyFollower::Create(
      run.spec().decay, run.spec().options.registry, d.dir);
  if (!result.Check(follower.status(), "failover follower Create")) {
    return false;
  }
  {
    TRACE_SPAN("standby.ApplyNew.full");
    if (!result.Check(follower->ApplyNew(), "failover ApplyNew")) return false;
  }
  tds::StatusOr<std::unique_ptr<Engine>> promoted = [&] {
    TRACE_SPAN("standby.Promote");
    return follower->Promote(run.spec().options);
  }();
  if (!result.Check(promoted.status(), "Promote")) return false;
  run.e2e().failover_ms.Add(SecondsSince(start) * 1e3);
  std::string got;
  if (!run.SnapshotBytes(**promoted, &got)) return false;
  return result.Expect(got == primary,
                       "promoted engine equals the primary at its last "
                       "commit");
}

/// Ends a durability phase: at least `failovers` failovers from the final
/// log (more while `budget_s` lasts), then the tailing standby is promoted
/// and checked like them. Compaction time is the automatic compactions'
/// commit time beyond a plain commit's.
void FinishDurable(Run& run, Durable& d, int failovers, double budget_s) {
  Result& result = run.result();
  if (!d.compacting_ms.empty()) {
    run.layer().compact_ms.Add(d.compacting_ms.Median() - d.plain_ms.Median());
  }
  // The primary is quiescent after its last commit, so one snapshot serves
  // every comparison.
  std::string primary;
  if (run.SnapshotBytes(run.engine(), &primary)) {
    const auto start = Clock::now();
    for (int i = 0; i < kMaxFailovers &&
                    (i < failovers || SecondsSince(start) < budget_s);
         ++i) {
      if (!Failover(run, d, primary)) break;
    }
    auto promoted = d.follower->Promote(run.spec().options);
    std::string got;
    if (result.Check(promoted.status(), "tailing standby Promote") &&
        run.SnapshotBytes(**promoted, &got)) {
      result.Expect(got == primary,
                    "tailing standby equals the primary at its last commit");
    }
  }
  d.follower.reset();
  d.log.reset();
  std::filesystem::remove_all(d.dir);
}

/// `cycles` durability cycles over `keys` (1% of them per cycle, distinct
/// within a cycle).
void DurablePhase(Run& run, Durable& d, const std::vector<uint64_t>& keys,
                  size_t cycles, bool sample_ingest) {
  const size_t per_cycle = std::max<size_t>(1, keys.size() / 100);
  ColdStream churn(run.config().seed * 31 + 7 + run.tick(), keys.size(),
                   per_cycle);
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    std::vector<KeyedItem> items;
    churn.NextTick(run.NextTick(), &items);
    for (KeyedItem& item : items) item.key = keys[item.key];
    if (!DurableCycle(run, d, std::move(items), sample_ingest)) return;
  }
}

/// Per-layer reads for traced runs: the ShardSnapshot round trip, point
/// queries and the codec on a standalone registry, and occupancy.
void MeasureRegistryLayer(Run& run) {
  Result& result = run.result();
  Engine& engine = run.engine();
  Samples shard_us;
  for (int i = 0; i < 4; ++i) {
    const auto start = Clock::now();
    std::shared_ptr<const tds::AggregateRegistry> snapshot;
    {
      TRACE_SPAN("engine.ShardSnapshot");
      snapshot = engine.ShardSnapshot(static_cast<uint32_t>(i) % kShards);
    }
    shard_us.Add(SecondsSince(start) * 1e6);
    result.Expect(snapshot != nullptr, "ShardSnapshot returns a registry");
  }
  result.Set("engine.shard_snapshot_us", shard_us.Median(), "us");

  auto merged = engine.Snapshot();
  if (!result.Check(merged.status(), "engine Snapshot")) return;
  const std::vector<uint64_t> keys = merged->Keys();
  const double n = static_cast<double>(std::max<size_t>(1, keys.size()));
  const tds::AggregateRegistry& registry = merged->registry();
  double sink = 0.0;
  constexpr size_t kQueries = 1 << 16;
  auto start = Clock::now();
  for (size_t q = 0; q < kQueries; ++q) {
    sink += registry.Query(keys[run.rng().NextBelow(keys.size())],
                           registry.now());
  }
  result.Set("registry.query_ns",
             SecondsSince(start) * 1e9 / static_cast<double>(kQueries), "ns");
  result.Expect(std::isfinite(sink), "registry queries are finite");

  std::string blob;
  start = Clock::now();
  result.Check(merged->EncodeRegistryState(&blob), "registry encode");
  result.Set("registry.encode_ns_per_key", SecondsSince(start) * 1e9 / n,
             "ns");
  start = Clock::now();
  auto decoded = tds::AggregateRegistry::Decode(
      run.spec().decay, run.spec().options.registry, blob);
  result.Set("registry.decode_ns_per_key", SecondsSince(start) * 1e9 / n,
             "ns");
  if (result.Check(decoded.status(), "registry Decode")) {
    std::string again;
    result.Check(decoded->EncodeState(&again), "registry re-encode");
    result.Expect(again == blob, "registry codec round trip is byte-identical");
  }
  result.Set("registry.snapshot_bytes_per_key",
             static_cast<double>(blob.size()) / n, "bytes");
  result.Set("registry.storage_bits_per_key",
             static_cast<double>(registry.StorageBits()) / n, "bits");
  uint64_t live = 0, extent = 0;
  for (const auto& s : engine.Stats()) {
    live += s.live_keys;
    extent += s.arena_extent;
  }
  result.Set("registry.live_keys", static_cast<double>(live), "count");
  result.Set("registry.arena_extent", static_cast<double>(extent), "count");
}

/// The workload's own stream, replayed closed-loop at 1 producer x 1 shard
/// on a fresh engine: the baseline the 2x2 ingest rows are read against.
void ScalingDiagnostic(Run& run, const std::vector<KeyedItem>& population,
                       const std::function<TickSource()>& make_source,
                       size_t ticks_per_round, size_t diag_rounds) {
  Result& result = run.result();
  Spec spec = run.spec();
  spec.options.shards = 1;
  auto engine = Engine::Create(spec.decay, spec.options);
  if (!result.Check(engine.status(), "diagnostic engine Create")) return;
  {
    tds::ProducerSessionOptions options;
    options.staging_capacity = population.size() + 1;  // one flush
    auto session = (*engine)->NewProducer(options);
    if (!result.Check(session.status(), "diagnostic NewProducer") ||
        !result.Check((*session)->AddBatch(population),
                      "diagnostic AddBatch") ||
        !result.Check((*session)->Flush(), "diagnostic Flush") ||
        !result.Check((*engine)->Flush(), "diagnostic engine Flush")) {
      return;
    }
  }
  // A scratch Run of its own keeps the diagnostic's samples and recording
  // apart from the main run's; its span totals are taken as a difference.
  Run diag(run.config(), &result, spec);
  diag.layer().recording = true;
  const auto before = Tracer::Get().Summarize();
  const TickSource source = make_source();
  // Ticks continue after the population's.
  Tick last = population.empty() ? 0 : population.back().t;
  TickSource shifted = [&](Tick, std::vector<KeyedItem>* out) {
    source(++last, out);
  };
  uint64_t items = 0;
  if (!ClosedLoop(diag, **engine, shifted, 1, ticks_per_round, diag_rounds,
                  &items)) {
    return;
  }
  const auto after = Tracer::Get().Summarize();
  auto delta = [&](const char* name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second.total_s) -
           (b == before.end() ? 0.0 : b->second.total_s);
  };
  const double per_item = items == 0 ? 0.0 : 1e9 / static_cast<double>(items);
  result.Set("diag_1p1s.ingest_items_per_s", diag.e2e().ingest_rate.Median(),
             "1/s");
  result.Set("diag_1p1s.add_batch_ns_per_item",
             delta("producer_session.AddBatch") * per_item, "ns");
  result.Set("diag_1p1s.flush_ns_per_item",
             delta("producer_session.Flush") * per_item, "ns");
  result.Set("diag_1p1s.flush_wait_ns_per_item",
             delta("engine.Flush") * per_item, "ns");
  uint64_t parks = 0;
  for (const auto& s : (*engine)->Stats()) parks += s.park_count;
  result.Set("diag_1p1s.park_count", static_cast<double>(parks), "count");
  // The single shard's recorded substream, replayed standalone: the share
  // of the engine's wall time spent outside the registry.
  const double wall = diag.layer().recorded_wall_s;
  const double replay_s = ReplayRegistry(spec.decay, spec.options.registry,
                                         population, diag.layer().recorded[0]);
  result.Set("diag_1p1s.overhead_frac",
             wall > 0.0 ? 1.0 - replay_s / wall : 0.0, "frac");
  (*engine)->Stop();
  result.Set("diag_1p1s.handoff_ns_per_item",
             RingHandoffNsPerItem(kBlock, spec.options.queue_capacity, &result),
             "ns");
}

/// Everything a workload defines; Drive() below runs it.
struct WorkloadDef {
  Spec spec;
  /// Population ingested by every set-up (generated before timing).
  std::vector<KeyedItem> population;
  /// Extra timed set-up work after the population (may be empty).
  std::function<bool(Run&)> setup_extra;
  /// Runs `fraction` of the main phase's fixed work (untraced runs split it
  /// into read-probe slices, traced runs into segments). The work is sized
  /// to take its share of --seconds on the reference host and does not
  /// depend on speed, so the state every later phase sees is a function of
  /// seed and --seconds only.
  std::function<bool(Run&, double fraction)> main_phase;
  /// The headline number the tracing overhead is judged on (smaller is
  /// better: a time per unit of work), from the run's samples.
  std::function<double(const EndToEnd&)> headline;
  /// Per read-probe slice: Snapshot() + TopK(100)s and read rounds.
  bool read_probe = true;
  size_t slice_topks = 1;
  size_t slice_rounds = 1;
  bool durability_probe = true;
  /// Durability-probe cycles: four automatic compactions at 2 shards
  /// (about one per 16 cycles), enough standby applies for their median.
  /// The count is fixed, not a time budget, so the log every failover
  /// replays is the same on a fast run and a slow one.
  size_t probe_cycles = 64;
  /// Runs after the probes (the durability workload ends its log there).
  std::function<void(Run&)> finish;
  /// The stream the scaling diagnostic replays, its round size and count.
  std::function<TickSource()> make_source;
  size_t ticks_per_round = 1;
  size_t diag_rounds = 1;
  /// Items per ring push in the main phase (the ring microbenchmark's run).
  size_t flush_run_size = kBlock / kShards;
};

/// The end-to-end metrics. Untraced runs also report the tails, which swing
/// too much from run to run on the reference host to carry a bound (run.py
/// prints them apart from the bounded metrics).
void ReportEndToEnd(Run& run) {
  Result& result = run.result();
  EndToEnd& e = run.e2e();
  result.Set("setup_s", e.setup_s.Median(), "s");
  result.Set("ingest_items_per_s", e.ingest_rate.Median(), "1/s");
  result.Set("query_key_p50_us", e.query_us.Median(), "us");
  result.Set("topk_p50_ms", e.topk_ms.Median(), "ms");
  result.Set("commit_bytes", e.commit_bytes.Median(), "bytes");
  result.Set("standby_apply_p50_ms", e.apply_ms.Median(), "ms");
  result.Set("failover_ms", e.failover_ms.Median(), "ms");
  if (!run.config().trace) {
    result.Set("ingest_lag_p50_ms", e.lag_ms.Median(), "ms");
    result.Set("ingest_lag_p99_ms", e.lag_ms.Quantile(0.99), "ms");
    result.Set("query_key_p99_us", e.query_us.Quantile(0.99), "us");
    result.Set("commit_p50_ms", e.commit_ms.Median(), "ms");
    result.Set("commit_p99_ms", e.commit_ms.Quantile(0.99), "ms");
  }
  std::fprintf(stderr,
               "perfbench: samples: setup=%zu ingest=%zu query_key=%zu "
               "topk=%zu commit=%zu commit_bytes=%zu apply=%zu "
               "failover=%zu\n",
               e.setup_s.size(), e.ingest_rate.size(), e.query_us.size(),
               e.topk_ms.size(), e.commit_ms.size(), e.commit_bytes.size(),
               e.apply_ms.size(), e.failover_ms.size());
}

using SpanTotals = std::map<std::string, Tracer::Totals>;

double SpanTotal(const SpanTotals& spans, const char* name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_s;
}

double SpanMeanMs(const SpanTotals& spans, const char* name) {
  const auto it = spans.find(name);
  return it == spans.end() || it->second.count == 0
             ? 0.0
             : it->second.total_s * 1e3 / static_cast<double>(it->second.count);
}

/// Per-layer metrics of a traced run. `main_spans` covers the traced main
/// phase only (the per-item ingest costs); `spans` covers everything.
void ReportLayers(Run& run, const SpanTotals& main_spans,
                  const SpanTotals& spans, double untraced, double traced) {
  Result& result = run.result();
  LayerData& l = run.layer();
  AddSessionStats(run.session().stats(), &l.sessions);
  const double per_item =
      l.ingest_items == 0 ? 0.0 : 1e9 / static_cast<double>(l.ingest_items);
  result.Set("producer_session.add_batch_ns_per_item",
             SpanTotal(main_spans, "producer_session.AddBatch") * per_item,
             "ns");
  result.Set("producer_session.flush_ns_per_item",
             SpanTotal(main_spans, "producer_session.Flush") * per_item, "ns");
  result.Set("producer_session.flush_stalls",
             static_cast<double>(l.sessions.flush_stalls), "count");
  result.Set("producer_session.items_rejected",
             static_cast<double>(l.sessions.items_rejected), "count");
  result.Set("engine.flush_wait_ns_per_item",
             SpanTotal(main_spans, "engine.Flush") * per_item, "ns");

  uint64_t parks = 0, stall = 0;
  uint64_t applied_max = 0, applied_min = UINT64_MAX;
  for (const auto& s : run.engine().Stats()) {
    parks += s.park_count;
    stall = std::max(stall, s.max_queue_stall);
    applied_max = std::max(applied_max, s.items_applied);
    applied_min = std::min(applied_min, s.items_applied);
  }
  result.Set("engine.park_count", static_cast<double>(parks), "count");
  result.Set("engine.max_queue_stall", static_cast<double>(stall), "count");
  result.Set("engine.queue_depth_max", static_cast<double>(l.queue_depth_max),
             "count");
  result.Set("engine.shard_skew",
             static_cast<double>(applied_max) /
                 static_cast<double>(std::max<uint64_t>(1, applied_min)),
             "ratio");

  // The slowest shard's standalone replay against the wall time the engine
  // took for the same items: the share of ingest spent outside the registry.
  double slowest = 0.0;
  for (size_t s = 0; s < l.recorded.size(); ++s) {
    slowest = std::max(slowest, ReplayRegistry(run.spec().decay,
                                               run.spec().options.registry,
                                               l.warm[s], l.recorded[s]));
  }
  result.Set("engine.overhead_frac",
             l.recorded_wall_s > 0.0 ? 1.0 - slowest / l.recorded_wall_s : 0.0,
             "frac");
  MeasureRegistryBackends(l.warm, l.recorded, &result);

  result.Set("merged_snapshot.topk_us",
             SpanMeanMs(spans, "merged_snapshot.TopK") * 1e3, "us");
  result.Set("merged_snapshot.gather_ms", SpanMeanMs(spans, "engine.Snapshot"),
             "ms");
  result.Set("checkpoint_log.capture_ms", l.capture_ms.Median(), "ms");
  result.Set("checkpoint_log.segment_encode_us", l.segment_encode_us.Median(),
             "us");
  result.Set("checkpoint_log.compact_ms", l.compact_ms.Median(), "ms");
  result.Set("checkpoint_log.live_bytes", l.live_bytes.Median(), "bytes");
  result.Set("standby.apply_ms", SpanMeanMs(spans, "standby.ApplyNew"), "ms");
  result.Set("standby.full_apply_ms",
             SpanMeanMs(spans, "standby.ApplyNew.full"), "ms");
  result.Set("standby.promote_ms", SpanMeanMs(spans, "standby.Promote"), "ms");
  result.Set("loadgen.barrier_wait_frac",
             l.producer_s > 0.0 ? l.barrier_s / l.producer_s : 0.0, "frac");
  result.Set("loadgen.late_ms", l.late_ms.Quantile(0.99), "ms");

  // Self time per layer: span durations minus their child spans, summed
  // over every span whose name starts with the layer.
  for (const char* layer : {"loadgen", "producer_session", "engine",
                            "merged_snapshot", "checkpoint_log", "standby"}) {
    double self = 0.0;
    const std::string prefix = std::string(layer) + ".";
    for (const auto& [name, t] : spans) {
      if (name.rfind(prefix, 0) == 0) self += t.self_s;
    }
    result.Set(prefix + "self_ms", self * 1e3, "ms");
  }
  result.Set("trace.overhead_frac",
             untraced > 0.0 ? traced / untraced - 1.0 : 0.0, "frac");
}

/// Logs how long each phase of a run took (stderr).
class PhaseClock {
 public:
  void Lap(const char* phase) {
    std::fprintf(stderr, "perfbench: phase %-10s %7.2f s\n", phase,
                 SecondsSince(start_));
    start_ = Clock::now();
  }

 private:
  Clock::time_point start_ = Clock::now();
};

bool Drive(const Config& config, Result* result, WorkloadDef def) {
  Run run(config, result, def.spec);
  PhaseClock clock;
  if (!run.Setup(def.population, def.setup_extra)) return false;
  clock.Lap("setup");

  // Traced runs alternate untraced and traced segments of the main phase;
  // the headline's change between the two kinds is the tracing overhead,
  // and the per-item layer costs cover the traced segments only.
  Samples untraced, traced;
  SpanTotals main_spans;
  if (config.trace) {
    for (int i = 0; i < kTraceSegments; ++i) {
      const bool on = i % 2 == 1;
      Tracer::Get().SetEnabled(on);
      EndToEnd before = std::move(run.e2e());
      run.e2e() = EndToEnd{};
      const uint64_t items_before = run.layer().ingest_items;
      run.layer().recording = i == 0;
      if (!def.main_phase(run, 1.0 / kTraceSegments)) return false;
      (on ? traced : untraced).Add(def.headline(run.e2e()));
      if (!on) run.layer().ingest_items = items_before;
      before.Append(run.e2e());
      run.e2e() = std::move(before);
    }
    run.layer().recording = false;
    main_spans = Tracer::Get().Summarize();
    Tracer::Get().SetEnabled(true);
    clock.Lap("main");
    if (def.read_probe && run.ok()) {
      for (int i = 0; i < kReadSlices; ++i) {
        ReadSlice(run, def.slice_topks, def.slice_rounds);
      }
      clock.Lap("reads");
    }
  } else {
    // The read probe's slices follow the main phase's slices.
    const int slices = def.read_probe ? kReadSlices : 1;
    for (int i = 0; i < slices && run.ok(); ++i) {
      if (!def.main_phase(run, 1.0 / slices)) return false;
      if (def.read_probe && run.ok()) {
        ReadSlice(run, def.slice_topks, def.slice_rounds);
      }
    }
    clock.Lap("main+reads");
  }
  if (def.durability_probe && run.ok()) {
    auto keys = run.engine().Snapshot();
    if (!result->Check(keys.status(), "engine Snapshot")) return false;
    Durable d;
    if (!StartDurable(run, &d, config.scratch_dir + "/probe")) return false;
    DurablePhase(run, d, keys->Keys(), def.probe_cycles, false);
    FinishDurable(run, d, kProbeFailovers,
                  config.seconds * kProbeFailoverShare);
    clock.Lap("durability");
  }
  if (def.finish && run.ok()) def.finish(run);
  if (config.trace && run.ok()) {
    MeasureRegistryLayer(run);
    ReportLayers(run, main_spans, Tracer::Get().Summarize(),
                 untraced.Median(), traced.Median());
    MeasureCoreBackends(result);
    ScalingDiagnostic(run, def.population, def.make_source,
                      def.ticks_per_round, def.diag_rounds);
    result->Set("spsc_ring.handoff_ns_per_item",
                RingHandoffNsPerItem(def.flush_run_size,
                                     def.spec.options.queue_capacity, result),
                "ns");
    if (!config.trace_out.empty() &&
        !Tracer::Get().WriteJsonLines(config.trace_out)) {
      result->Fail("cannot write spans to " + config.trace_out);
    }
    clock.Lap("layers");
  }
  // Before the serial reference exists, so only the engine's memory (and
  // the snapshots it handed out) counts.
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
  if (run.ok()) run.CheckFinalState();
  clock.Lap("check");
  ReportEndToEnd(run);
  return true;
}

// ---------------------------------------------------------------------------
// Workload definitions.

// Main-phase work per second of --seconds, sized so the main phase takes
// a quarter to a half of the run on the reference host (4 cores): ~25M
// items/s hot, ~1M items/s cold, ~25 ms per durability cycle plus
// compactions.
constexpr uint64_t kHotKeySpace = uint64_t{1} << 20;
constexpr size_t kHotPopulationTicks = 256;
constexpr size_t kHotTicksPerRound = 16;
constexpr double kHotTicksPerSecond = 2000;
constexpr uint64_t kColdPopulation = 131072;
constexpr size_t kColdTicksPerRound = 2;
constexpr double kColdTicksPerSecond = 100;
constexpr uint64_t kServeKeys = 16384;
constexpr size_t kServeRefreshPerTick = 8;
constexpr double kServeTicksPerSecond = 50.0;
constexpr double kServeShare = 1.6;  // times --seconds, open loop
constexpr size_t kServeTopKEvery = 8;
constexpr uint64_t kDurableKeys = 65536;
constexpr double kDurableCyclesPerSecond = 10;
constexpr size_t kDurableChurn = kDurableKeys / 100;
constexpr int kDurableFailovers = 5;

size_t Scaled(double per_second, double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(per_second * seconds)));
}

/// The population: the stream's first `ticks` ticks.
template <typename Stream>
std::vector<KeyedItem> StreamPopulation(Stream& source, size_t ticks) {
  std::vector<KeyedItem> items;
  for (size_t t = 1; t <= ticks; ++t) {
    source.NextTick(static_cast<Tick>(t), &items);
  }
  return items;
}

/// Closed-loop ingest main phase shared by ingest_hot and ingest_cold.
template <typename Stream>
WorkloadDef IngestWorkload(Spec spec, std::function<Stream()> make,
                           size_t pop_ticks, size_t ticks_per_round,
                           size_t rounds, int producers) {
  WorkloadDef def;
  def.spec = std::move(spec);
  auto stream = std::make_shared<Stream>(make());
  def.population = StreamPopulation(*stream, pop_ticks);
  // Stream ticks are contiguous from 1: the population's, then the main
  // phase's. The reference replays them all from a fresh stream.
  auto last_tick = std::make_shared<Tick>(static_cast<Tick>(pop_ticks));
  def.ticks_per_round = ticks_per_round;
  def.diag_rounds = std::max<size_t>(1, rounds / kTraceSegments);
  def.flush_run_size = kBlock / static_cast<size_t>(producers) / kShards;
  def.make_source = [make] {
    auto fresh = std::make_shared<Stream>(make());
    return TickSource([fresh](Tick t, std::vector<KeyedItem>* out) {
      fresh->NextTick(t, out);
    });
  };
  def.setup_extra = [make, last_tick](Run& run) {
    run.AddReplay([make, last_tick](tds::AggregateRegistry& ref) {
      Stream replay = make();
      std::vector<KeyedItem> items;
      for (Tick t = 1; t <= *last_tick; ++t) {
        items.clear();
        replay.NextTick(t, &items);
        ref.UpdateBatch(items);
      }
    });
    return true;
  };
  def.main_phase = [stream, last_tick, producers, ticks_per_round, rounds](
                        Run& run, double fraction) {
    const TickSource source = [stream, last_tick](Tick t,
                                                  std::vector<KeyedItem>* out) {
      stream->NextTick(t, out);
      *last_tick = t;
    };
    return ClosedLoop(run, run.engine(), source, producers, ticks_per_round,
                      Scaled(static_cast<double>(rounds), fraction),
                      &run.layer().ingest_items);
  };
  def.headline = [](const EndToEnd& e) {
    const double rate = e.ingest_rate.Median();
    return rate > 0.0 ? 1.0 / rate : 0.0;
  };
  return def;
}

WorkloadDef IngestHot(const Config& config) {
  const uint64_t seed = config.seed;
  WorkloadDef def = IngestWorkload<HotStream>(
      CehSpec(kShards), [seed] { return HotStream(seed, kHotKeySpace); },
      kHotPopulationTicks, kHotTicksPerRound,
      Scaled(kHotTicksPerSecond / kHotTicksPerRound, config.seconds), 2);
  // Its reads are the cheapest of the three probed workloads' (~0.1 s).
  def.slice_topks = 3;
  def.slice_rounds = 4;
  return def;
}

WorkloadDef IngestCold(const Config& config) {
  const uint64_t seed = config.seed;
  WorkloadDef def = IngestWorkload<ColdStream>(
      CehSpec(kShards), [seed] { return ColdStream(seed, kColdPopulation); },
      kColdPopulation / kBlock, kColdTicksPerRound,
      Scaled(kColdTicksPerSecond / kColdTicksPerRound, config.seconds), 1);
  // Compacting 131,072 keys takes seconds: one compaction, and half of the
  // way to the next.
  def.probe_cycles = 24;
  return def;
}

/// `count` keys, each with one item, `kBlock` keys per tick from tick 1.
std::vector<KeyedItem> DistinctPopulation(uint64_t count, uint64_t seed) {
  tds::Rng rng(seed);
  std::vector<KeyedItem> items;
  for (uint64_t k = 0; k < count; ++k) {
    items.push_back(KeyedItem{k, static_cast<Tick>(1 + k / kBlock),
                              1 + rng.NextBelow(4)});
  }
  return items;
}

WorkloadDef ServeMixed(const Config& config) {
  WorkloadDef def;
  def.spec = CehSpec(kShards);
  def.population = DistinctPopulation(kServeKeys, config.seed);
  def.read_probe = false;
  def.ticks_per_round = 1;
  const uint64_t seed = config.seed;
  auto make = [seed] {
    return HotStream(seed, kServeKeys, kServeRefreshPerTick);
  };
  def.make_source = [make] {
    auto fresh = std::make_shared<HotStream>(make());
    return TickSource([fresh](Tick t, std::vector<KeyedItem>* out) {
      fresh->NextTick(t, out);
    });
  };
  auto stream = std::make_shared<HotStream>(make());
  auto first_tick = std::make_shared<Tick>(0);
  auto stream_ticks = std::make_shared<Tick>(0);
  def.setup_extra = [population = def.population, make, first_tick,
                     stream_ticks](Run& run) {
    run.AddReplayItems(population);
    *first_tick = run.tick() + 1;
    run.AddReplay([make, first_tick,
                   stream_ticks](tds::AggregateRegistry& ref) {
      HotStream replay = make();
      std::vector<KeyedItem> items;
      for (Tick i = 0; i < *stream_ticks; ++i) {
        items.clear();
        replay.NextTick(*first_tick + i, &items);
        ref.UpdateBatch(items);
      }
    });
    return true;
  };
  def.diag_rounds = Scaled(kServeTicksPerSecond * kServeShare / kTraceSegments,
                           config.seconds);
  def.main_phase = [stream, stream_ticks](Run& run, double fraction) {
    const double budget = run.config().seconds * kServeShare * fraction;
    Engine& engine = run.engine();
    Result& result = run.result();
    std::atomic<bool> stop{false};
    Samples query_us, topk_ms;
    // Closed-loop reader: QueryKey on uniformly drawn live keys, with a
    // Snapshot() + TopK(100) in place of every kServeTopKEvery-th read.
    std::thread reader([&] {
      tds::Rng rng(run.config().seed * 7919 + 3);
      for (uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
        if (i % kServeTopKEvery == 0) {
          if (!TimedTopK(run, engine, &topk_ms)) return;
          continue;
        }
        const uint64_t key = rng.NextBelow(kServeKeys);
        const auto start = Clock::now();
        double value;
        {
          TRACE_SPAN("engine.QueryKey");
          value = engine.QueryKey(key, 0);
        }
        query_us.Add(SecondsSince(start) * 1e6);
        result.Expect(std::isfinite(value) && value > 0.0,
                      "QueryKey on a live key is positive and finite");
      }
    });
    // Open-loop producer: tick k is due at start + k / rate, whether or not
    // tick k - 1 has been applied; lag runs from the due time.
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kServeTicksPerSecond));
    std::vector<KeyedItem> items;
    items.reserve(kBlock);
    const auto start = Clock::now();
    auto last_applied = start;
    uint64_t total = 0;
    bool ok = true;
    for (int64_t k = 0;; ++k) {
      const auto due = start + period * k;
      if (SecondsBetween(start, due) >= budget) break;
      items.clear();
      stream->NextTick(run.NextTick(), &items);
      ++*stream_ticks;
      std::this_thread::sleep_until(due);
      const auto began = Clock::now();
      if (run.traced()) {
        run.layer().late_ms.Add(SecondsBetween(due, began) * 1e3);
      }
      {
        TRACE_SPAN("producer_session.AddBatch");
        ok = result.Check(run.session().AddBatch(items), "session AddBatch");
      }
      if (ok) {
        TRACE_SPAN("producer_session.Flush");
        ok = result.Check(run.session().Flush(), "session Flush");
      }
      if (ok) {
        SampleQueueDepth(run, engine);
        TRACE_SPAN("engine.Flush");
        ok = result.Check(engine.Flush(), "engine Flush");
      }
      if (!ok) break;
      last_applied = Clock::now();
      total += items.size();
      if (run.WantRecording()) {
        run.Record(engine, items, SecondsBetween(began, last_applied));
      } else {
        run.e2e().lag_ms.Add(SecondsBetween(due, last_applied) * 1e3);
      }
    }
    stop = true;
    reader.join();
    run.CountSubmitted(total);
    run.layer().ingest_items += total;
    run.e2e().ingest_rate.Add(static_cast<double>(total) /
                              SecondsBetween(start, last_applied));
    run.e2e().query_us = query_us;
    run.e2e().topk_ms = topk_ms;
    return ok;
  };
  def.headline = [](const EndToEnd& e) { return e.query_us.Median(); };
  return def;
}

WorkloadDef Durability(const Config& config) {
  WorkloadDef def;
  def.spec = WbmhSpec(kShards);
  def.population = DistinctPopulation(kDurableKeys, config.seed);
  def.durability_probe = false;
  def.flush_run_size = kDurableChurn / kShards;
  def.ticks_per_round = 1;
  const uint64_t seed = config.seed;
  def.make_source = [seed] {
    auto churn =
        std::make_shared<ColdStream>(seed * 31 + 7, kDurableKeys,
                                     kDurableChurn);
    return TickSource([churn](Tick t, std::vector<KeyedItem>* out) {
      churn->NextTick(t, out);
    });
  };
  auto durable = std::make_shared<Durable>();
  def.setup_extra = [population = def.population, durable](Run& run) {
    run.AddReplayItems(population);
    run.cleanup_extra = [durable] {
      durable->follower.reset();
      durable->log.reset();
    };
    return StartDurable(run, durable.get(),
                        run.config().scratch_dir + "/durable");
  };
  // Churn rounds alone are short: give the diagnostic about a second.
  def.diag_rounds = Scaled(100, config.seconds);
  const size_t cycles = Scaled(kDurableCyclesPerSecond, config.seconds);
  def.main_phase = [durable, cycles](Run& run, double fraction) {
    std::vector<uint64_t> keys(kDurableKeys);
    for (uint64_t k = 0; k < kDurableKeys; ++k) keys[k] = k;
    DurablePhase(run, *durable, keys,
                 Scaled(static_cast<double>(cycles), fraction), true);
    return run.ok();
  };
  def.headline = [](const EndToEnd& e) { return e.commit_ms.Median(); };
  def.finish = [durable](Run& run) {
    FinishDurable(run, *durable, kDurableFailovers, 0.0);
  };
  return def;
}

}  // namespace

bool RunWorkload(const Config& config, Result* result) {
  WorkloadDef def;
  if (config.workload == "ingest_hot") {
    def = IngestHot(config);
  } else if (config.workload == "ingest_cold") {
    def = IngestCold(config);
  } else if (config.workload == "serve_mixed") {
    def = ServeMixed(config);
  } else if (config.workload == "durability") {
    def = Durability(config);
  } else {
    return false;
  }
  Drive(config, result, std::move(def));
  return true;
}

}  // namespace perfbench
