// Shared pieces of the repository benchmark: timing, sample statistics, the
// span recorder behind traced runs, the result sink, failure accounting, and
// the deterministic stream generators every workload draws its inputs from.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/registry.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// Order statistics over one run's samples (linear interpolation between
/// closest ranks, the convention of numpy's default percentile).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// In-memory span recorder for traced runs. Spans are recorded only in the
/// benchmark's own code, around each call into a layer; each thread keeps
/// its own buffer (no locking on the hot path) and a stack of open spans,
/// whose top is the parent of the next span it opens. Nothing is written
/// until the run ends.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  ///< index into the same thread's buffer
    uint32_t thread = 0;
  };

  static Tracer& Get();

  /// Traced runs switch recording on and off between phases (the reader
  /// and producer threads read the flag).
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its index (or -1 when
  /// tracing is off).
  int32_t Begin(const char* name);
  void End(int32_t index);

  /// Total duration and self time (duration minus the part covered by
  /// child spans) per span name, in seconds, plus the span count.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct ThreadBuffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<int32_t> open;
  };
  ThreadBuffer& Local();

  std::atomic<bool> enabled_{false};
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards buffers_ (registration and readout)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: `TRACE_SPAN("engine.Flush")` around a call into a layer.
class SpanScope {
 public:
  explicit SpanScope(const char* name) : index_(Tracer::Get().Begin(name)) {}
  ~SpanScope() { Tracer::Get().End(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int32_t index_;
};

#define PERFBENCH_CAT2(a, b) a##b
#define PERFBENCH_CAT(a, b) PERFBENCH_CAT2(a, b)
#define TRACE_SPAN(name) \
  ::perfbench::SpanScope PERFBENCH_CAT(perfbench_span_, __LINE__)(name)

/// Everything one run reports: named metrics with units, operation counts
/// for failed/attempted, and the failures themselves (printed to stderr).
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Counts one failed operation (non-OK Status, rejected item, or output
  /// mismatch) and logs why.
  void Fail(const std::string& what);
  /// Counts `status` as one attempted operation; failure if not OK.
  bool Check(const tds::Status& status, const char* what);
  /// Counts one attempted output check; failure if `ok` is false.
  bool Expect(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  // Bumped from the reader and producer threads too.
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::map<std::string, Metric> metrics_;
};

/// Run-wide settings from the command line.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  ///< checkpoint directories live under here
  std::string trace_out;    ///< span dump path (traced runs)
};

/// Bursty per-flow stream (the shape of bench/engine_throughput.cc's
/// MakeStream): each tick is one 4096-item block whose items come from 64
/// active flows drawn Pareto-style (rank = u^-2) over `key_space` keys.
/// Optionally each tick also touches `refresh_per_tick` keys round-robin
/// over the key space, so a bounded population stays live under a sliding
/// window. Deterministic in (seed, key_space): two generators built alike
/// emit identical ticks, which is how the serial reference is replayed.
class HotStream {
 public:
  static constexpr size_t kBlock = 4096;
  static constexpr size_t kActiveFlows = 64;

  HotStream(uint64_t seed, uint64_t key_space, size_t refresh_per_tick = 0)
      : rng_(seed), key_space_(key_space), refresh_(refresh_per_tick) {}

  /// Appends one tick's block at tick `t`.
  void NextTick(tds::Tick t, std::vector<tds::KeyedItem>* out);

 private:
  tds::Rng rng_;
  uint64_t key_space_;
  size_t refresh_;
  uint64_t refresh_cursor_ = 0;
};

/// Cold-key stream (MakeColdStream's shape): each tick visits `block`
/// distinct keys of a `population`-key permutation, reshuffled whenever the
/// permutation is used up, so every lookup is a table/slot/aggregate miss.
class ColdStream {
 public:
  ColdStream(uint64_t seed, uint64_t population, size_t block = 4096);

  void NextTick(tds::Tick t, std::vector<tds::KeyedItem>* out);

 private:
  tds::Rng rng_;
  std::vector<uint64_t> perm_;
  size_t pos_;
  size_t block_;
};

/// Reads the process's peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Runs `config.workload` and fills `result`; false for an unknown name.
bool RunWorkload(const Config& config, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
