#ifndef TDS_HISTOGRAM_FLAT_STORE_H_
#define TDS_HISTOGRAM_FLAT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace tds {

/// Contiguous (SoA) bucket storage for exponential-histogram-shaped
/// structures — the FlatEH layout. Stamps and counts live in two parallel
/// arrays in canonical oldest-first order (highest size class first, class 0
/// last); `class_size_[c]` delimits the class segments and `head_` marks the
/// oldest live bucket, so front expiry is an offset bump (a compaction sweep
/// reclaims the dead prefix once it outgrows the live region).
///
/// Why this is the same structure as a vector of per-class deques: the
/// canonical EH ordering invariant — every bucket of class c is newer than
/// every bucket of class c+1 — means the concatenation class N-1, ...,
/// class 1, class 0 IS the global oldest-first order, so one array pair plus
/// per-class sizes represents the chains bucket-for-bucket. That per-class
/// deque ("chain") layout is kept verbatim as a test-only reference
/// (tests/reference/chain_histograms.h); the comments below cite it where
/// this store reproduces its order step for step.
///
/// Cost model: inserts are tail pushes (vector growth is geometric); a merge
/// cascade that reaches class A rewrites only the array suffix occupied by
/// classes A..0 as one in-place compaction sweep. A merge at class c fires
/// once per ~2^c inserted units, so the amortized insert cost is O(cap) —
/// the same as the chain layout, without its per-bucket heap scatter.
///
/// `Stamp` is the per-bucket boundary representation: an exact end tick for
/// the EH/CEH, an ApproxAge for the coarse CEH.
template <typename Stamp>
class FlatBucketStore {
 public:
  size_t num_classes() const { return class_size_.size(); }
  size_t class_size(size_t c) const { return class_size_[c]; }
  /// Live buckets (excludes the not-yet-compacted expired prefix).
  size_t size() const { return stamps_.size() - head_; }
  bool empty() const { return size() == 0; }

  /// Index range of the live buckets, oldest first.
  size_t begin_index() const { return head_; }
  size_t end_index() const { return stamps_.size(); }

  const Stamp& stamp(size_t i) const { return stamps_[i]; }
  Stamp& stamp(size_t i) { return stamps_[i]; }
  uint64_t count(size_t i) const { return counts_[i]; }

  void Clear() {
    stamps_.clear();
    counts_.clear();
    class_size_.clear();
    head_ = 0;
  }

  /// Calls f(stamp, count) for every live bucket, oldest to newest: a single
  /// linear scan — the layout's whole point.
  template <typename F>
  void ForEachOldestFirst(F&& f) const {
    for (size_t i = head_; i < stamps_.size(); ++i) f(stamps_[i], counts_[i]);
  }

  /// Calls f(c, begin, end) for each class segment in ascending class order
  /// (class 0 — the newest segment, at the array tail — first). This is the
  /// chain layout's `for (cls : classes_)` iteration order, which the codecs
  /// and the coarse-CEH RNG sweep depend on for bit-identity.
  template <typename F>
  void ForEachSegmentAscendingClass(F&& f) const {
    size_t end = stamps_.size();
    for (size_t c = 0; c < class_size_.size(); ++c) {
      const size_t begin = end - class_size_[c];
      f(c, begin, end);
      end = begin;
    }
    TDS_CHECK(end == head_);
  }

  /// Replaces the contents with `classes` (classes[c] = the class-c buckets,
  /// oldest first), laid out canonically. Cold path: snapshot decode.
  template <typename Classes, typename StampOf, typename CountOf>
  void AssignFromClasses(const Classes& classes, StampOf&& stamp_of,
                         CountOf&& count_of) {
    Clear();
    size_t total = 0;
    for (const auto& cls : classes) total += cls.size();
    stamps_.reserve(total);
    counts_.reserve(total);
    class_size_.assign(classes.size(), 0);
    for (size_t c = classes.size(); c-- > 0;) {
      for (const auto& bucket : classes[c]) {
        stamps_.push_back(stamp_of(bucket));
        counts_.push_back(count_of(bucket));
      }
      class_size_[c] = classes[c].size();
    }
  }

  /// Pops buckets off the global front while `expired(stamp)` holds and
  /// returns the total count removed. Canonical ordering makes the chain
  /// layout's per-class front expiry (highest class down, stop at the first
  /// survivor) exactly this global front pop. Class sizes shrink highest
  /// class first; `class_size_` keeps its length — the chain layout never
  /// drops emptied classes either, and codec byte-identity depends on that.
  template <typename Pred>
  uint64_t ExpireOldest(Pred&& expired) {
    size_t h = head_;
    uint64_t removed_count = 0;
    while (h < stamps_.size() && expired(stamps_[h])) {
      removed_count += counts_[h];
      ++h;
    }
    size_t removed = h - head_;
    head_ = h;
    for (size_t c = class_size_.size(); c-- > 0 && removed > 0;) {
      const size_t take = removed < class_size_[c] ? removed : class_size_[c];
      class_size_[c] -= take;
      removed -= take;
    }
    MaybeCompact();
    return removed_count;
  }

  /// Inserts `incoming_units` unit buckets stamped `fresh` into class 0 and
  /// runs the EH merge cascade (the two oldest buckets of a class merge into
  /// the next while the class exceeds `cap`), mirroring the chain layout's
  /// sequential-insertion digit arithmetic step-for-step.
  /// `merge_stamps(older, newer)` yields the merged bucket's stamp: the EH
  /// keeps the newer end timestamp, the coarse variant the younger age.
  template <typename MergeStamps>
  void InsertUnits(uint64_t incoming_units, const Stamp& fresh, uint64_t cap,
                   MergeStamps&& merge_stamps) {
    // Lazy class-0 creation, matching the chain layout's emplace_back site.
    if (class_size_.empty()) class_size_.push_back(0);
    // Fast path: class 0 stays within budget — a pure tail append.
    if (class_size_[0] + incoming_units <= cap) {
      for (uint64_t v = 0; v < incoming_units; ++v) {
        stamps_.push_back(fresh);
        counts_.push_back(1);
      }
      class_size_[0] += incoming_units;
      return;
    }
    CascadeInsert(incoming_units, fresh, cap, merge_stamps);
  }

 private:
  /// Per-class working state for one cascade: a pop cursor over the class's
  /// original segment plus the buckets appended during the cascade (carries
  /// from below, then materialized incoming buckets) with their own pop
  /// cursor — later merges at the same class may consume appended carries,
  /// so deque pop-front order is original-segment-first, then appended.
  struct ClassWork {
    size_t orig_begin = 0;
    size_t orig_size = 0;
    size_t popped = 0;
    size_t app_taken = 0;
    std::vector<Stamp> app_stamps;
    std::vector<uint64_t> app_counts;
  };

  /// Cascade scratch, shared thread-local rather than member-owned: a
  /// registry holds one store per key, and per-instance scratch (especially
  /// the nested per-class vectors) would both bloat every key by ~10 heap
  /// blocks and drag all of them through the cache on each cold-key
  /// cascade. One thread's scratch stays hot across every store it touches;
  /// mutation already requires exclusive access per store, so per-thread
  /// sharing is race-free.
  struct Scratch {
    std::vector<ClassWork> work;
    std::vector<size_t> seg_offs;
    std::vector<Stamp> carry_stamps;
    std::vector<uint64_t> carry_counts;
    std::vector<Stamp> rebuild_stamps;
    std::vector<uint64_t> rebuild_counts;
  };
  static Scratch& TlsScratch() {
    static thread_local Scratch scratch;
    return scratch;
  }

  void PopFront(ClassWork& w, Stamp* stamp, uint64_t* count) {
    if (w.popped < w.orig_size) {
      const size_t k = w.orig_begin + w.popped++;
      *stamp = stamps_[k];
      *count = counts_[k];
    } else {
      *stamp = w.app_stamps[w.app_taken];
      *count = w.app_counts[w.app_taken];
      ++w.app_taken;
    }
  }

  template <typename MergeStamps>
  void CascadeInsert(uint64_t incoming_units, const Stamp& fresh,
                     uint64_t cap, MergeStamps&& merge_stamps) {
    Scratch& s = TlsScratch();
    std::vector<ClassWork>& work_ = s.work;
    std::vector<size_t>& seg_offs_ = s.seg_offs;
    std::vector<Stamp>& carry_stamps_ = s.carry_stamps;
    std::vector<uint64_t>& carry_counts_ = s.carry_counts;
    std::vector<Stamp>& rebuild_stamps_ = s.rebuild_stamps;
    std::vector<uint64_t>& rebuild_counts_ = s.rebuild_counts;
    // Segment offsets of the classes as they stand (class N-1 at head_).
    seg_offs_.resize(class_size_.size());
    {
      size_t pos = head_;
      for (size_t c = class_size_.size(); c-- > 0;) {
        seg_offs_[c] = pos;
        pos += class_size_[c];
      }
    }
    // Classes created mid-cascade sit above every existing segment and are
    // empty, so their (vacuous) original segment is at head_.
    auto init_work = [this, &work_, &seg_offs_](size_t c) {
      while (work_.size() <= c) work_.emplace_back();
      ClassWork& w = work_[c];
      w.orig_begin = c < seg_offs_.size() ? seg_offs_[c] : head_;
      w.orig_size = class_size_[c];
      w.popped = 0;
      w.app_taken = 0;
      w.app_stamps.clear();
      w.app_counts.clear();
    };
    init_work(0);
    // `virtual_new` tracks not-yet-materialized incoming buckets of count
    // 2^i (all stamped `fresh`); real carries — which may inherit older
    // stamps — materialize eagerly, exactly as in the chain layout.
    uint64_t virtual_new = incoming_units;
    size_t i = 0;
    while (true) {
      if (i >= class_size_.size()) class_size_.push_back(0);
      ClassWork& w = work_[i];
      const uint64_t real_live =
          (w.orig_size - w.popped) + (w.app_stamps.size() - w.app_taken);
      const uint64_t total = real_live + virtual_new;
      uint64_t next_virtual = 0;
      carry_stamps_.clear();
      carry_counts_.clear();
      if (total > cap) {
        // Sequential-insertion semantics: a merge fires each time the class
        // reaches cap+1 buckets, pairing its two oldest.
        const uint64_t merges = (total - cap + 1) / 2;
        for (uint64_t m = 0; m < merges; ++m) {
          const size_t real =
              (w.orig_size - w.popped) + (w.app_stamps.size() - w.app_taken);
          if (real >= 2) {
            Stamp older_stamp;
            Stamp newer_stamp;
            uint64_t older_count = 0;
            uint64_t newer_count = 0;
            PopFront(w, &older_stamp, &older_count);
            PopFront(w, &newer_stamp, &newer_count);
            carry_stamps_.push_back(merge_stamps(older_stamp, newer_stamp));
            carry_counts_.push_back(older_count + newer_count);
          } else if (real == 1) {
            // One pre-existing bucket pairs with one incoming unit bucket.
            Stamp older_stamp;
            uint64_t older_count = 0;
            PopFront(w, &older_stamp, &older_count);
            TDS_CHECK_GE(virtual_new, 1u);
            --virtual_new;
            carry_stamps_.push_back(fresh);
            carry_counts_.push_back(older_count << 1);
          } else {
            // All remaining merges pair incoming buckets with each other:
            // pure arithmetic, closed out in one step (what keeps huge-value
            // insertion O(log v) instead of O(v)).
            const uint64_t remaining = merges - m;
            TDS_CHECK_GE(virtual_new, 2 * remaining);
            virtual_new -= 2 * remaining;
            next_virtual += remaining;
            break;
          }
        }
      }
      // Materialize the surviving incoming buckets (newest in the class).
      for (uint64_t v = 0; v < virtual_new; ++v) {
        w.app_stamps.push_back(fresh);
        w.app_counts.push_back(uint64_t{1} << i);
      }
      if (carry_stamps_.empty() && next_virtual == 0) break;
      if (i + 1 >= class_size_.size()) class_size_.push_back(0);
      init_work(i + 1);
      // Carries were produced oldest-first and are newer than everything in
      // class i+1, so appending preserves the ordering invariant.
      ClassWork& up = work_[i + 1];
      for (size_t k = 0; k < carry_stamps_.size(); ++k) {
        up.app_stamps.push_back(carry_stamps_[k]);
        up.app_counts.push_back(carry_counts_[k]);
      }
      virtual_new = next_virtual;
      ++i;
    }
    // Rebuild the affected suffix (classes i..0) as one compaction sweep;
    // every class above i kept its segment untouched.
    const size_t terminal = i;
    rebuild_stamps_.clear();
    rebuild_counts_.clear();
    const size_t suffix_begin = work_[terminal].orig_begin;
    for (size_t c = terminal + 1; c-- > 0;) {
      ClassWork& w = work_[c];
      for (size_t k = w.orig_begin + w.popped; k < w.orig_begin + w.orig_size;
           ++k) {
        rebuild_stamps_.push_back(stamps_[k]);
        rebuild_counts_.push_back(counts_[k]);
      }
      for (size_t k = w.app_taken; k < w.app_stamps.size(); ++k) {
        rebuild_stamps_.push_back(w.app_stamps[k]);
        rebuild_counts_.push_back(w.app_counts[k]);
      }
      class_size_[c] =
          (w.orig_size - w.popped) + (w.app_stamps.size() - w.app_taken);
    }
    stamps_.resize(suffix_begin);
    counts_.resize(suffix_begin);
    stamps_.insert(stamps_.end(), rebuild_stamps_.begin(),
                   rebuild_stamps_.end());
    counts_.insert(counts_.end(), rebuild_counts_.begin(),
                   rebuild_counts_.end());
  }

  /// Reclaims the expired prefix once it is at least as large as the live
  /// region — amortized O(1) per expired bucket.
  void MaybeCompact() {
    if (head_ == 0) return;
    if (stamps_.size() - head_ <= head_) {
      stamps_.erase(stamps_.begin(),
                    stamps_.begin() + static_cast<std::ptrdiff_t>(head_));
      counts_.erase(counts_.begin(),
                    counts_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<Stamp> stamps_;
  std::vector<uint64_t> counts_;
  std::vector<size_t> class_size_;
  size_t head_ = 0;
};

}  // namespace tds

#endif  // TDS_HISTOGRAM_FLAT_STORE_H_
