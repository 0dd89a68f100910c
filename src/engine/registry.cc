#include "engine/registry.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/ceh.h"
#include "core/snapshot.h"
#include "core/wbmh.h"
#include "histogram/wbmh_layout.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace tds {
namespace {

constexpr char kRegistryMagic[] = "TDSREG1";
constexpr size_t kInitialTableCapacity = 64;
/// Shared-layout op-log high-water mark: past this many retained ops, the
/// registry syncs every counter and trims the whole log (amortized O(1)
/// per op: each op is replayed at most once per counter either way).
constexpr uint64_t kMaxRetainedOps = 16384;

const char* BackendTypeName(Backend backend) {
  switch (backend) {
    case Backend::kExact:
      return "EXACT";
    case Backend::kEwma:
      return "EWMA";
    case Backend::kRecentItems:
      return "RECENT_ITEMS";
    case Backend::kCeh:
      return "CEH";
    case Backend::kCoarseCeh:
      return "COARSE_CEH";
    case Backend::kWbmh:
      return "WBMH";
    case Backend::kPolyExp:
      return "POLYEXP_PIPE";
    case Backend::kAuto:
      break;
  }
  TDS_CHECK_MSG(false, "unresolved backend");
  return "";
}

}  // namespace

AggregateRegistry::AggregateRegistry(DecayPtr decay, const Options& options,
                                     Backend backend,
                                     AggregateOptions resolved)
    : decay_(std::move(decay)),
      options_(options),
      backend_(backend),
      resolved_(resolved),
      table_(kInitialTableCapacity, kEmptyEntry),
      table_mask_(kInitialTableCapacity - 1),
      now_(resolved.start() - 1) {}

StatusOr<AggregateRegistry> AggregateRegistry::Create(DecayPtr decay,
                                                      const Options& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  const Backend backend =
      ResolveBackend(*decay, options.aggregate.backend());
  auto resolved = AggregateOptions::Builder()
                      .backend(backend)
                      .epsilon(options.aggregate.epsilon())
                      .start(options.aggregate.start())
                      .Build();
  if (!resolved.ok()) return resolved.status();
  AggregateRegistry registry(decay, options, backend, resolved.value());
  if (backend == Backend::kWbmh) {
    if (!decay->IsWbmhAdmissible()) {
      return Status::FailedPrecondition(
          "decay function fails the WBMH admissibility test "
          "(g(x)/g(x+1) must be non-increasing); use another backend");
    }
    WbmhLayout::Options layout_options;
    layout_options.decay = decay;
    layout_options.epsilon = options.aggregate.epsilon();
    layout_options.start = options.aggregate.start();
    auto layout = WbmhLayout::Create(layout_options);
    if (!layout.ok()) return layout.status();
    registry.layout_ = std::make_shared<WbmhLayout>(std::move(layout).value());
    // A fresh layout already sits at the stream start tick; align the
    // registry clock so an empty registry's snapshot is self-consistent
    // (decode rejects blobs whose layout clock is ahead of the registry).
    registry.now_ = registry.layout_->now();
  }
  // Probe construction: surface option/decay incompatibilities here, so the
  // per-key create inside the ingest hot path can simply CHECK.
  auto probe = registry.NewAggregate();
  if (!probe.ok()) return probe.status();
  registry.expiry_age_ = registry.DeriveExpiryAge();
  return registry;
}

StatusOr<std::unique_ptr<DecayedAggregate>> AggregateRegistry::NewAggregate()
    const {
  if (layout_ != nullptr) {
    WbmhDecayedSum::Options wbmh_options;
    wbmh_options.epsilon = resolved_.epsilon();
    wbmh_options.start = resolved_.start();
    auto counter = WbmhDecayedSum::CreateShared(layout_, wbmh_options);
    if (!counter.ok()) return counter.status();
    return std::unique_ptr<DecayedAggregate>(std::move(counter).value());
  }
  return MakeDecayedSum(decay_, resolved_);
}

Tick AggregateRegistry::DeriveExpiryAge() const {
  const double floor = options_.expiry_weight_floor;
  if (floor < 0.0) return kInfiniteHorizon;  // expiry disabled entirely
  const Tick horizon = decay_->Horizon();
  if (horizon != kInfiniteHorizon) return horizon;
  if (floor == 0.0) return kInfiniteHorizon;
  const double w1 = decay_->Weight(1);
  if (!(w1 > 0.0)) return 1;
  const double target = floor * w1;
  if (decay_->Weight(1) <= target) return 1;
  // Doubling search then bisection for the smallest age whose weight has
  // fallen to the floor. Decays that never get there (e.g. a constant tail)
  // cap out and disable expiry.
  const Tick cap = Tick{1} << 42;
  Tick hi = 2;
  while (hi < cap && decay_->Weight(hi) > target) hi <<= 1;
  if (decay_->Weight(hi) > target) return kInfiniteHorizon;
  Tick lo = hi >> 1;
  while (lo + 1 < hi) {
    const Tick mid = lo + (hi - lo) / 2;
    if (decay_->Weight(mid) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

uint32_t AggregateRegistry::Find(uint64_t key) const {
  size_t pos = SplitMix64(key) & table_mask_;
  while (true) {
    const uint32_t entry = table_[pos];
    if (entry == kEmptyEntry) return SlotArena<Slot>::kNone;
    if (entry != kTombEntry && arena_.at(entry).key == key) return entry;
    pos = (pos + 1) & table_mask_;
  }
}

uint32_t AggregateRegistry::GetOrCreate(uint64_t key) {
  RehashIfNeeded();
  size_t pos = SplitMix64(key) & table_mask_;
  size_t insert_pos = table_.size();  // first tombstone on the probe path
  while (true) {
    const uint32_t entry = table_[pos];
    if (entry == kEmptyEntry) break;
    if (entry == kTombEntry) {
      if (insert_pos == table_.size()) insert_pos = pos;
    } else if (arena_.at(entry).key == key) {
      return entry;
    }
    pos = (pos + 1) & table_mask_;
  }
  if (insert_pos == table_.size()) {
    insert_pos = pos;
  } else {
    --tombstones_;
  }
  auto aggregate = NewAggregate();
  TDS_CHECK_MSG(aggregate.ok(), "per-key aggregate construction failed");
  const uint32_t index = arena_.Allocate();
  Slot& slot = arena_.at(index);
  slot.aggregate = std::move(aggregate).value();
  slot.key = key;
  slot.last_tick = now_;
  if (ckpt_tracking_) slot.dirty_epoch = ckpt_epoch_;
  table_[insert_pos] = index;
  ++live_;
  return index;
}

StatusOr<uint32_t> AggregateRegistry::TryGetOrCreate(uint64_t key) {
  if (Find(key) == SlotArena<Slot>::kNone &&
      arena_.occupied() == arena_.extent()) {
    TDS_FAILPOINT_RETURN("registry.arena.grow");
  }
  return GetOrCreate(key);
}

void AggregateRegistry::RehashIfNeeded() {
  if ((live_ + tombstones_ + 1) * 10 < table_.size() * 7) return;
  // Double only when live keys drive the load; a tombstone-heavy table is
  // rebuilt at the same size to reclaim the probe chains.
  size_t capacity = table_.size();
  if ((live_ + 1) * 10 >= capacity * 7) capacity *= 2;
  Rehash(capacity);
}

void AggregateRegistry::Rehash(size_t new_capacity) {
  std::vector<uint32_t> old = std::move(table_);
  table_.assign(new_capacity, kEmptyEntry);
  table_mask_ = new_capacity - 1;
  tombstones_ = 0;
  for (const uint32_t entry : old) {
    if (entry == kEmptyEntry || entry == kTombEntry) continue;
    size_t pos = SplitMix64(arena_.at(entry).key) & table_mask_;
    while (table_[pos] != kEmptyEntry) pos = (pos + 1) & table_mask_;
    table_[pos] = entry;
  }
}

void AggregateRegistry::Evict(uint32_t index) {
  // The eviction must reach the next checkpoint delta so appliers drop the
  // key too; SlotArena::Free resets the slot (dirty_epoch included), so the
  // record has to be taken before the slot dies.
  if (ckpt_tracking_) dead_keys_.push_back({arena_.at(index).key, ckpt_epoch_});
  size_t pos = SplitMix64(arena_.at(index).key) & table_mask_;
  while (table_[pos] != index) {
    TDS_CHECK(table_[pos] != kEmptyEntry);
    pos = (pos + 1) & table_mask_;
  }
  table_[pos] = kTombEntry;
  ++tombstones_;
  arena_.Free(index);
  --live_;
}

void AggregateRegistry::SweepStep(size_t budget) {
  if (expiry_age_ == kInfiniteHorizon || arena_.extent() == 0) return;
  budget = std::min<size_t>(budget, arena_.extent());
  for (size_t i = 0; i < budget; ++i) {
    if (sweep_cursor_ >= arena_.extent()) {
      sweep_cursor_ = 0;
      ++epoch_;
    }
    const uint32_t index = sweep_cursor_++;
    const Slot& slot = arena_.at(index);
    if (slot.aggregate != nullptr &&
        AgeAt(slot.last_tick, now_) > expiry_age_) {
      Evict(index);
    }
  }
}

void AggregateRegistry::SyncAllCounters() {
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    Slot& slot = arena_.at(i);
    if (slot.aggregate == nullptr) continue;
    static_cast<WbmhDecayedSum*>(slot.aggregate.get())->SyncShared();
  }
}

void AggregateRegistry::MaybeTrimSharedLog() {
  if (layout_ == nullptr) return;
  if (layout_->OpSeq() - layout_->LogStart() <= kMaxRetainedOps) return;
  // A counter may only be outrun by a trim after it has synced, so the
  // policy is sync-all-then-trim (WbmhCounter::Sync CHECKs this).
  SyncAllCounters();
  layout_->TrimLog(layout_->OpSeq());
}

void AggregateRegistry::Update(uint64_t key, Tick t, uint64_t value) {
  TDS_CHECK_GE(t, now_);
  now_ = t;
  const uint32_t index = GetOrCreate(key);
  Slot& slot = arena_.at(index);
  slot.aggregate->Update(t, value);
  slot.last_tick = t;
  if (ckpt_tracking_) slot.dirty_epoch = ckpt_epoch_;
  SweepStep(options_.sweep_per_update);
  MaybeTrimSharedLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void AggregateRegistry::UpdateBatch(std::span<const KeyedItem> items) {
  if (items.empty()) return;
  TDS_CHECK_GE(items.front().t, now_);
  for (size_t i = 1; i < items.size(); ++i) {
    TDS_CHECK_GE(items[i].t, items[i - 1].t);
  }
  // Tick-major processing keeps the shared WBMH layout's clock monotone and
  // replays its structural ops in the same order as per-item ingestion
  // (merge re-rounding is order-sensitive). The input is already tick-
  // sorted, so the tick segments are contiguous as-is.
  size_t begin = 0;
  size_t total_runs = 0;
  while (begin < items.size()) {
    const Tick t = items[begin].t;
    size_t end = begin;
    while (end < items.size() && items[end].t == t) ++end;
    now_ = t;
    total_runs += IngestTickSegment(t, items.subspan(begin, end - begin));
    begin = end;
  }
  SweepStep(static_cast<size_t>(options_.sweep_per_update) * total_runs);
  MaybeTrimSharedLog();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

size_t AggregateRegistry::IngestTickSegment(Tick t,
                                            std::span<const KeyedItem> segment) {
  // Group the segment's items by key in O(n): an open-addressing scratch
  // map assigns each key a run, and per-item index chains keep that key's
  // items in encounter order. Runs then apply in first-encounter order —
  // per-key order is what per-item Update would have produced, and the
  // reordering across keys is invisible because keys are independent and
  // the shared layout state is a pure function of the (already advanced)
  // tick. One table probe, one aggregate dispatch, and one histogram
  // cascade per run instead of per item.
  const size_t n = segment.size();
  constexpr uint32_t kNoRun = 0xffffffffu;
  size_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  group_table_.assign(cap, kNoRun);
  chain_.assign(n, kNoRun);
  runs_.clear();
  const size_t cap_mask = cap - 1;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t key = segment[i].key;
    size_t probe = SplitMix64(key) & cap_mask;
    while (true) {
      const uint32_t r = group_table_[probe];
      if (r == kNoRun) {
        group_table_[probe] = static_cast<uint32_t>(runs_.size());
        runs_.push_back(Run{key, i, i});
        break;
      }
      if (runs_[r].key == key) {
        chain_[runs_[r].tail] = i;
        runs_[r].tail = i;
        break;
      }
      probe = (probe + 1) & cap_mask;
    }
  }
  // Two-stage prefetch pipeline over the run directory: the cold-key wall is
  // two dependent misses per run (the table line, then the slot it names),
  // so run r+2's table line and run r+1's slot guess are requested while run
  // r does real work. The slot guess reads only the first probe entry — on a
  // collision the guess line is wasted but never wrong, and a rehash inside
  // GetOrCreate merely stales pending hints (prefetches are hints, never
  // loads). Semantically inert by construction; options_.prefetch == false
  // must be byte-identical (tests/property_test.cc diffs the two).
  const size_t num_runs = runs_.size();
  auto prefetch_table = [this](size_t r) {
    TDS_PREFETCH(&table_[SplitMix64(runs_[r].key) & table_mask_]);
  };
  auto prefetch_slot_guess = [this](size_t r) {
    const uint32_t entry = table_[SplitMix64(runs_[r].key) & table_mask_];
    if (entry != kEmptyEntry && entry != kTombEntry) arena_.Prefetch(entry);
  };
  if (options_.prefetch && num_runs > 0) {
    prefetch_table(0);
    if (num_runs > 1) prefetch_table(1);
    prefetch_slot_guess(0);
  }
  for (size_t r = 0; r < num_runs; ++r) {
    if (options_.prefetch) {
      if (r + 2 < num_runs) prefetch_table(r + 2);
      if (r + 1 < num_runs) prefetch_slot_guess(r + 1);
    }
    const Run& run = runs_[r];
    run_scratch_.clear();
    for (uint32_t i = run.head;; i = chain_[i]) {
      run_scratch_.push_back(StreamItem{t, segment[i].value});
      if (i == run.tail) break;
    }
    const uint32_t index = GetOrCreate(run.key);
    Slot& slot = arena_.at(index);
    slot.aggregate->UpdateBatch(run_scratch_);
    slot.last_tick = t;
    if (ckpt_tracking_) slot.dirty_epoch = ckpt_epoch_;
  }
  return runs_.size();
}

namespace {

/// Moves one WBMH counter's state onto another counter bound to a
/// structurally identical layout (same clock, same bucket ids, same op
/// sequence) through the counter codec — the decode side re-validates the
/// binding and audits the result.
Status TransplantWbmhCounter(DecayedAggregate& from, DecayedAggregate& to) {
  Encoder encoder;
  Status status =
      static_cast<WbmhDecayedSum&>(from).EncodeCounterState(encoder);
  if (!status.ok()) return status;
  const std::string blob = encoder.Finish();
  Decoder decoder(blob);
  status = static_cast<WbmhDecayedSum&>(to).DecodeCounterState(decoder);
  if (!status.ok()) return status;
  if (!decoder.Done()) return CorruptSnapshot("counter trailer");
  return Status::OK();
}

}  // namespace

Status AggregateRegistry::MergeFrom(AggregateRegistry&& other) {
  // Entry-only injection: past this point the per-slot loop moves state
  // (and WBMH transplant copies it), so a mid-loop abort could not honor
  // "on error this registry is unchanged".
  TDS_FAILPOINT_RETURN("registry.merge");
  if (decay_->Name() != other.decay_->Name() || backend_ != other.backend_ ||
      resolved_.epsilon() != other.resolved_.epsilon() ||
      resolved_.start() != other.resolved_.start()) {
    return Status::InvalidArgument("MergeFrom: registry options mismatch");
  }
  // Disjointness pre-check before any mutation, so a failed merge leaves
  // both registries intact.
  for (uint32_t i = 0; i < other.arena_.extent(); ++i) {
    const Slot& src = other.arena_.at(i);
    if (src.aggregate != nullptr && Find(src.key) != SlotArena<Slot>::kNone) {
      return Status::InvalidArgument("MergeFrom: registries share a key");
    }
  }
  if (layout_ != nullptr) {
    // Layout state at a given clock is stream-independent (the paper's
    // boundary-sharing argument), so advancing the lagging layout to the
    // leading layout's clock makes the two structurally identical — same
    // bucket spans, same bucket ids, same op sequence — and counters can
    // transplant across through the counter codec. Advancing a layout is
    // exactly what ingesting at the later tick would have done, so the
    // merged state stays bit-identical to a serially-fed registry.
    const Tick layout_cut = std::max(layout_->now(), other.layout_->now());
    layout_->AdvanceTo(layout_cut);
    other.layout_->AdvanceTo(layout_cut);
    SyncAllCounters();
    other.SyncAllCounters();
    layout_->TrimLog(layout_->OpSeq());
    other.layout_->TrimLog(other.layout_->OpSeq());
    if (layout_->OpSeq() != other.layout_->OpSeq()) {
      return Status::FailedPrecondition(
          "MergeFrom: shared layouts diverged at one clock");
    }
  }
  // Per-key aggregates move over un-advanced: a key's state remains the
  // pure function of its own update sequence (advancing here would insert
  // an extra decay-and-reround step that a serially-fed registry never
  // performs).
  now_ = std::max(now_, other.now_);
  for (uint32_t i = 0; i < other.arena_.extent(); ++i) {
    Slot& src = other.arena_.at(i);
    if (src.aggregate == nullptr) continue;
    const uint32_t index = GetOrCreate(src.key);
    Slot& dst = arena_.at(index);
    if (layout_ != nullptr) {
      const Status status =
          TransplantWbmhCounter(*src.aggregate, *dst.aggregate);
      if (!status.ok()) return status;
    } else {
      dst.aggregate = std::move(src.aggregate);
    }
    dst.last_tick = src.last_tick;
  }
  TDS_AUDIT_MUTATION(AuditInvariants());
  return Status::OK();
}

StatusOr<AggregateRegistry> AggregateRegistry::ExtractIf(
    const std::function<bool(uint64_t)>& pred) {
  // Entry-only injection, mirroring MergeFrom: a failure here leaves the
  // source registry untouched (the migration donor stays intact).
  TDS_FAILPOINT_RETURN("registry.extract");
  auto created = Create(decay_, options_);
  if (!created.ok()) return created.status();
  AggregateRegistry out = std::move(created).value();
  if (layout_ != nullptr) {
    SyncAllCounters();
    layout_->TrimLog(layout_->OpSeq());
    // A fresh layout replayed to this layout's clock is structurally
    // identical (stream independence again), including bucket ids and the
    // op sequence, so extracted counters can bind to it via the codec.
    out.layout_->AdvanceTo(layout_->now());
    out.layout_->TrimLog(out.layout_->OpSeq());
    if (out.layout_->OpSeq() != layout_->OpSeq()) {
      return Status::FailedPrecondition(
          "ExtractIf: replayed layout diverged from the source layout");
    }
  }
  out.now_ = now_;
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    Slot& src = arena_.at(i);
    if (src.aggregate == nullptr || !pred(src.key)) continue;
    const uint32_t index = out.GetOrCreate(src.key);
    Slot& dst = out.arena_.at(index);
    if (layout_ != nullptr) {
      const Status status =
          TransplantWbmhCounter(*src.aggregate, *dst.aggregate);
      if (!status.ok()) return status;
    } else {
      dst.aggregate = std::move(src.aggregate);
    }
    dst.last_tick = src.last_tick;
    Evict(i);
  }
  TDS_AUDIT_MUTATION(AuditInvariants());
  TDS_AUDIT_MUTATION(out.AuditInvariants());
  return out;
}

void AggregateRegistry::Advance(Tick now) {
  TDS_CHECK_GE(now, now_);
  now_ = now;
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    Slot& slot = arena_.at(i);
    if (slot.aggregate == nullptr) continue;
    slot.aggregate->Advance(now);
    // An eager advance rewrites every aggregate's internal representation
    // (decay, cascades, re-rounding), so every key's encoded payload
    // changes — the whole registry is dirty for checkpoint purposes.
    if (ckpt_tracking_) slot.dirty_epoch = ckpt_epoch_;
  }
  if (expiry_age_ != kInfiniteHorizon) {
    for (uint32_t i = 0; i < arena_.extent(); ++i) {
      const Slot& slot = arena_.at(i);
      if (slot.aggregate != nullptr &&
          AgeAt(slot.last_tick, now_) > expiry_age_) {
        Evict(i);
      }
    }
  }
  // The eager pass completes an epoch and restarts the lazy cursor.
  sweep_cursor_ = 0;
  ++epoch_;
  if (layout_ != nullptr) {
    // Advance() synced every counter, so the whole log can go.
    layout_->TrimLog(layout_->OpSeq());
  }
  TDS_AUDIT_MUTATION(AuditInvariants());
}

double AggregateRegistry::Query(uint64_t key, Tick now) const {
  TDS_CHECK_GE(now, now_);
  const uint32_t index = Find(key);
  if (index == SlotArena<Slot>::kNone) return 0.0;
  return arena_.at(index).aggregate->Query(now);
}

double AggregateRegistry::QueryTotal(Tick now) const {
  TDS_CHECK_GE(now, now_);
  double total = 0.0;
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    const Slot& slot = arena_.at(i);
    if (slot.aggregate != nullptr) total += slot.aggregate->Query(now);
  }
  return total;
}

double AggregateRegistry::SyncedQuery(uint64_t key, Tick now) {
  const uint32_t index = Find(key);
  if (index == SlotArena<Slot>::kNone) return 0.0;
  DecayedAggregate* aggregate = arena_.at(index).aggregate.get();
  if (layout_ != nullptr) {
    static_cast<WbmhDecayedSum*>(aggregate)->SyncShared();
  }
  return aggregate->Query(std::max(now, now_));
}

double AggregateRegistry::SyncedQueryTotal(Tick now) {
  if (layout_ != nullptr) SyncAllCounters();
  return QueryTotal(std::max(now, now_));
}

bool AggregateRegistry::Contains(uint64_t key) const {
  return Find(key) != SlotArena<Slot>::kNone;
}

size_t AggregateRegistry::StorageBits() const {
  size_t bits = 0;
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    const Slot& slot = arena_.at(i);
    if (slot.aggregate != nullptr) bits += slot.aggregate->StorageBits();
  }
  if (layout_ != nullptr) {
    // Shared boundary storage, charged once across all keys (the paper's
    // amortization): two tick endpoints per bucket.
    bits += layout_->BucketCount() * 2 * sizeof(Tick) * 8;
  }
  return bits;
}

Status AggregateRegistry::AuditInvariants() {
  TDS_AUDIT_CHECK(
      !table_.empty() && (table_.size() & (table_.size() - 1)) == 0,
      "table capacity must be a power of two");
  TDS_AUDIT_CHECK(table_mask_ == table_.size() - 1, "stale table mask");
  TDS_AUDIT_CHECK(live_ + tombstones_ < table_.size(),
                  "table has no empty entry left");
  size_t live = 0;
  size_t tombs = 0;
  for (size_t pos = 0; pos < table_.size(); ++pos) {
    const uint32_t entry = table_[pos];
    if (entry == kEmptyEntry) continue;
    if (entry == kTombEntry) {
      ++tombs;
      continue;
    }
    TDS_AUDIT_CHECK(entry < arena_.extent(), "table entry out of arena range");
    const Slot& slot = arena_.at(entry);
    TDS_AUDIT_CHECK(slot.aggregate != nullptr,
                    "table entry points at a freed slot");
    TDS_AUDIT_CHECK(Find(slot.key) == entry,
                    "slot unreachable from its key's probe chain");
    TDS_AUDIT_CHECK(slot.last_tick <= now_,
                    "slot clock ahead of the registry clock");
    ++live;
  }
  TDS_AUDIT_CHECK(live == live_, "live-count drift");
  TDS_AUDIT_CHECK(tombs == tombstones_, "tombstone-count drift");
  size_t arena_live = 0;
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    if (arena_.at(i).aggregate != nullptr) ++arena_live;
  }
  TDS_AUDIT_CHECK(arena_live == live_, "arena/table live-count mismatch");
  TDS_AUDIT_CHECK(arena_.free_count() == arena_.extent() - live_,
                  "arena free-list accounting drift");
  TDS_AUDIT_CHECK(arena_.occupied() == live_,
                  "arena occupancy / live-count drift");
  if (layout_ != nullptr) {
    const Status layout_audit = layout_->AuditInvariants();
    if (!layout_audit.ok()) return layout_audit;
  }
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    const Slot& slot = arena_.at(i);
    if (slot.aggregate == nullptr) continue;
    Status sub = Status::OK();
    if (backend_ == Backend::kWbmh) {
      // Counter-level audit: the shared layout was audited once above.
      sub = static_cast<const WbmhDecayedSum*>(slot.aggregate.get())
                ->counter()
                .AuditInvariants();
    } else if (auto* ceh = dynamic_cast<CehDecayedSum*>(slot.aggregate.get());
               ceh != nullptr) {
      sub = ceh->AuditInvariants();
    }
    if (!sub.ok()) return sub;
  }
  return Status::OK();
}

Status AggregateRegistry::EncodeState(std::string* out) {
  size_t entry_count = 0;
  return EncodeStateImpl(out, /*partial=*/false, /*since=*/0, &entry_count);
}

Status AggregateRegistry::EncodeStateImpl(std::string* out, bool partial,
                                          uint64_t since,
                                          size_t* entry_count) {
  TDS_CHECK(out != nullptr);
  TDS_FAILPOINT_RETURN("registry.encode");
  Encoder encoder;
  encoder.PutString(kRegistryMagic);
  encoder.PutString(decay_->Name());
  encoder.PutVarint(static_cast<uint64_t>(backend_));
  encoder.PutDouble(resolved_.epsilon());
  encoder.PutSigned(resolved_.start());
  encoder.PutSigned(now_);
  // Sorted keys: the codec's self-inverse contract (byte-identical
  // re-encode, see AuditSnapshotRoundTrip) rules out hash-order iteration.
  // A partial encode keeps only the slots dirtied after `since`; the
  // header (clock, layout) is always emitted so appliers stay in lockstep
  // even across update-free stretches.
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  entries.reserve(partial ? 0 : live_);
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    const Slot& slot = arena_.at(i);
    if (slot.aggregate == nullptr) continue;
    if (partial && slot.dirty_epoch <= since) continue;
    entries.push_back({slot.key, i});
  }
  std::sort(entries.begin(), entries.end());
  *entry_count = entries.size();
  encoder.PutVarint(entries.size());
  if (layout_ != nullptr) {
    // Layout snapshots carry no op log, so every counter must be at the
    // layout's op sequence before the log is dropped.
    SyncAllCounters();
    layout_->TrimLog(layout_->OpSeq());
    Encoder sub;
    const Status status = layout_->EncodeState(sub);
    if (!status.ok()) return status;
    encoder.PutString(sub.Finish());
  }
  for (const auto& [key, index] : entries) {
    Slot& slot = arena_.at(index);
    encoder.PutVarint(key);
    encoder.PutSigned(slot.last_tick);
    std::string payload;
    if (layout_ != nullptr) {
      Encoder sub;
      const Status status =
          static_cast<WbmhDecayedSum*>(slot.aggregate.get())
              ->EncodeCounterState(sub);
      if (!status.ok()) return status;
      payload = sub.Finish();
    } else {
      const Status status = EncodeDecayedSum(*slot.aggregate, &payload);
      if (!status.ok()) return status;
    }
    encoder.PutString(payload);
  }
  *out = encoder.Finish();
  // Encoding syncs counters and trims the layout log — representation
  // mutations that deserve the same audit net as logical ones.
  TDS_AUDIT_MUTATION(AuditInvariants());
  return Status::OK();
}

void AggregateRegistry::EnableCheckpointTracking() {
  if (ckpt_tracking_) return;
  ckpt_tracking_ = true;
  // Stamp the present population so the first capture (since == 0) is a
  // complete snapshot no matter when tracking was switched on.
  for (uint32_t i = 0; i < arena_.extent(); ++i) {
    Slot& slot = arena_.at(i);
    if (slot.aggregate != nullptr) slot.dirty_epoch = ckpt_epoch_;
  }
}

Status AggregateRegistry::CaptureCheckpointDelta(uint64_t since,
                                                 CheckpointDelta* out) {
  TDS_CHECK(out != nullptr);
  if (!ckpt_tracking_) {
    return Status::FailedPrecondition(
        "CaptureCheckpointDelta requires EnableCheckpointTracking");
  }
  if (since >= ckpt_epoch_) {
    return Status::InvalidArgument(
        "CaptureCheckpointDelta: since epoch is not in the past");
  }
  out->epoch = ckpt_epoch_;
  out->dead_keys.clear();
  const Status encoded =
      EncodeStateImpl(&out->blob, /*partial=*/true, since, &out->dirty_count);
  if (!encoded.ok()) return encoded;
  // Dead keys: evicted after `since` and not alive now. A key recreated
  // after its eviction is covered by its (dirty) update entry — appliers
  // replace it wholesale — so only keys that stayed dead need a tombstone.
  // Entries at or before `since` were carried by a capture the caller has
  // already committed, so the log is pruned to what later captures might
  // still need.
  std::vector<std::pair<uint64_t, uint64_t>> keep;
  keep.reserve(dead_keys_.size());
  for (const auto& [key, epoch] : dead_keys_) {
    if (epoch <= since) continue;
    keep.push_back({key, epoch});
    if (Find(key) == SlotArena<Slot>::kNone) out->dead_keys.push_back(key);
  }
  dead_keys_ = std::move(keep);
  std::sort(out->dead_keys.begin(), out->dead_keys.end());
  out->dead_keys.erase(
      std::unique(out->dead_keys.begin(), out->dead_keys.end()),
      out->dead_keys.end());
  // Open the next epoch only after a successful capture; mutations landing
  // from here on stamp the new epoch and belong to the next delta.
  ++ckpt_epoch_;
  TDS_AUDIT_MUTATION(AuditInvariants());
  return Status::OK();
}

StatusOr<AggregateRegistry> AggregateRegistry::Decode(DecayPtr decay,
                                                      const Options& options,
                                                      std::string_view data) {
  TDS_FAILPOINT_RETURN("registry.decode");
  auto created = Create(std::move(decay), options);
  if (!created.ok()) return created.status();
  AggregateRegistry registry = std::move(created).value();
  Decoder decoder(data);
  std::string magic;
  std::string name;
  if (!decoder.GetString(&magic) || magic != kRegistryMagic) {
    return CorruptSnapshot("registry magic");
  }
  if (!decoder.GetString(&name)) return CorruptSnapshot("decay name");
  if (name != registry.decay_->Name()) {
    return Status::InvalidArgument("snapshot decay mismatch: " + name);
  }
  uint64_t backend = 0;
  double epsilon = 0.0;
  int64_t start = 0;
  int64_t now = 0;
  uint64_t count = 0;
  if (!decoder.GetVarint(&backend) || !decoder.GetDouble(&epsilon) ||
      !decoder.GetSigned(&start) || !decoder.GetSigned(&now) ||
      !decoder.GetVarint(&count)) {
    return CorruptSnapshot("registry header");
  }
  if (backend != static_cast<uint64_t>(registry.backend_) ||
      epsilon != registry.resolved_.epsilon() ||
      start != registry.resolved_.start()) {
    return Status::InvalidArgument("snapshot options mismatch");
  }
  if (now < registry.now_) return CorruptSnapshot("registry clock");
  registry.now_ = now;
  if (registry.layout_ != nullptr) {
    std::string blob;
    if (!decoder.GetString(&blob)) return CorruptSnapshot("layout blob");
    Decoder sub(blob);
    const Status status = registry.layout_->DecodeState(sub);
    if (!status.ok()) return status;
    if (!sub.Done()) return CorruptSnapshot("layout trailer");
    if (registry.layout_->now() > now) {
      return CorruptSnapshot("layout clock ahead of the registry");
    }
  }
  uint64_t prev_key = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key = 0;
    int64_t last_tick = 0;
    std::string payload;
    if (!decoder.GetVarint(&key) || !decoder.GetSigned(&last_tick) ||
        !decoder.GetString(&payload)) {
      return CorruptSnapshot("registry entry");
    }
    if (i > 0 && key <= prev_key) {
      return CorruptSnapshot("keys not strictly increasing");
    }
    prev_key = key;
    if (last_tick > now) return CorruptSnapshot("entry clock");
    const StatusOr<uint32_t> index = registry.TryGetOrCreate(key);
    if (!index.ok()) return index.status();
    Slot& slot = registry.arena_.at(*index);
    slot.last_tick = last_tick;
    if (registry.layout_ != nullptr) {
      Decoder sub(payload);
      const Status status =
          static_cast<WbmhDecayedSum*>(slot.aggregate.get())
              ->DecodeCounterState(sub);
      if (!status.ok()) return status;
      if (!sub.Done()) return CorruptSnapshot("counter trailer");
    } else {
      auto decoded = DecodeDecayedSum(registry.decay_, payload);
      if (!decoded.ok()) return decoded.status();
      if ((*decoded)->Name() != BackendTypeName(registry.backend_)) {
        return Status::InvalidArgument(
            "snapshot backend mismatch: " + (*decoded)->Name());
      }
      slot.aggregate = std::move(decoded).value();
    }
  }
  if (!decoder.Done()) return CorruptSnapshot("registry trailer");
  const Status audit = registry.AuditInvariants();
  if (!audit.ok()) {
    return Status::InvalidArgument("corrupt snapshot: " + audit.message());
  }
  return registry;
}

}  // namespace tds
