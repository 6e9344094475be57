// Online binning (paper Section IV-A) — the atomic-free scatter/gather
// channel at the heart of Blaze.
//
// A bin collects (destination vertex, value) records for one contiguous
// range of destinations: with R = min(bin_count, |V| - 1) ranges,
// bin(dst) = floor(dst * R / |V|) (BinMap), so range widths differ by at
// most one vertex and a gather touches one contiguous |V|/R slice of
// vertex data. Each bin owns a *pair* of buffers: workers fill the active
// one; when it fills up it is swapped with its buddy and pushed onto the
// full_bins MPMC queue.
//
// The exclusivity invariant: at most one buffer of a given bin is ever
// queued-or-being-gathered at a time. Since a destination vertex always
// maps to the same bin, no two gathers can touch the same vertex
// concurrently — gather functions therefore need no atomics. A worker
// that fills the active buffer while the buddy is still out blocks
// (paper: "a scatter thread is blocked until a gather thread finishes the
// processing of the full bin"); the engine turns that block into
// help-gathering, so a blocked worker drains a full bin itself, which
// also makes the pipeline deadlock-free at any thread count.
//
// Workers do not append records one at a time: each carries a small
// per-thread staging buffer per bin (propagation-blocking style) and copies
// records into the shared bin in batches under a per-bin spinlock — one
// lock acquisition per batch, not per edge.
//
// Values are fixed 4-byte payloads; the EdgeMap engine bit_casts the
// algorithm's value_type (u32 labels, float ranks, ...) in and out, which
// keeps BinSet non-templated and lets the Runtime reuse one allocation
// across all queries.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "util/common.h"
#include "util/mpmc_queue.h"
#include "util/spinlock.h"

namespace blaze::core {

/// Raw 4-byte bin payload. Engine-level bit_cast target.
using bin_value_t = std::uint32_t;

/// One binned update destined for vertex `dst`.
struct BinRecord {
  vertex_t dst;
  bin_value_t value;
};

/// Destination-to-bin map for one EdgeMap run: bin(dst) =
/// floor(dst * R / |V|) with R = min(bin_count, |V| - 1), computed as the
/// high word of dst times a 0.64 fixed-point scale ceil(R * 2^64 / |V|).
/// The result is exact for every |V| < 2^32 (the rounding error stays below
/// 1/|V|), so bins are monotone in dst and range widths differ by at most
/// one. R < |V| keeps the scale below 2^64. Out-of-range destinations
/// (corrupt adjacency) are clamped to the last bin: the result is always
/// < bin_count.
class BinMap {
 public:
  /// Maps every destination to bin 0.
  BinMap() = default;
  BinMap(std::uint64_t num_vertices, std::size_t bin_count)
      : last_(bin_count == 0 ? 0 : bin_count - 1) {
    const std::uint64_t ranges = std::min<std::uint64_t>(
        bin_count, num_vertices == 0 ? 0 : num_vertices - 1);
    if (ranges != 0) {
      scale_ = static_cast<std::uint64_t>(
          ((static_cast<unsigned __int128>(ranges) << 64) + num_vertices -
           1) /
          num_vertices);
    }
  }

  std::uint32_t operator()(vertex_t dst) const {
    const auto bin = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(dst) * scale_) >> 64);
    return static_cast<std::uint32_t>(std::min(bin, last_));
  }

 private:
  std::uint64_t scale_ = 0;
  std::uint64_t last_ = 0;
};

/// Reference to a full (or sealed partial) buffer handed to a gatherer.
struct FullBinRef {
  std::uint32_t bin_id = 0;
  std::uint8_t buf_idx = 0;
};

/// The complete set of bins for one EdgeMap execution. Reusable: call
/// reset() between executions.
class BinSet {
 public:
  /// `total_space_bytes` is divided over bin_count bins x 2 buffers.
  BinSet(std::size_t bin_count, std::size_t total_space_bytes)
      : bins_(bin_count), full_(2 * bin_count + 2) {
    std::size_t per_buffer =
        total_space_bytes / (bin_count * 2 * sizeof(BinRecord));
    capacity_ = std::max<std::size_t>(per_buffer, 8);
    for (auto& bin : bins_) {
      bin.buf[0] = std::make_unique<BinRecord[]>(capacity_);
      bin.buf[1] = std::make_unique<BinRecord[]>(capacity_);
    }
  }

  std::size_t bin_count() const { return bins_.size(); }
  std::size_t buffer_capacity() const { return capacity_; }
  std::uint64_t memory_bytes() const {
    return bins_.size() * 2 * capacity_ * sizeof(BinRecord);
  }
  std::uint32_t bin_of(vertex_t dst) const { return map_(dst); }

  /// Rearms the set for a new EdgeMap run over destinations in
  /// [0, num_vertices). All buffers must be drained.
  void reset(std::uint64_t num_vertices) {
    BLAZE_CHECK(pending_.load(std::memory_order_acquire) == 0,
                "BinSet::reset with buffers in flight");
    scatter_finished_.store(0, std::memory_order_relaxed);
    sealed_.store(false, std::memory_order_relaxed);
    map_ = BinMap(num_vertices, bins_.size());
    for (auto& bin : bins_) {
      BLAZE_CHECK(!bin.slot[0].out && !bin.slot[1].out,
                  "BinSet::reset with a buffer out");
      bin.slot[0].size = 0;
      bin.slot[1].size = 0;
      bin.active = 0;
    }
  }

  /// Appends up to `n` records to `bin_id`'s active buffer. Returns how
  /// many were consumed; fewer than `n` (possibly zero) means the bin is
  /// saturated and its buddy is still out — the caller should help-gather
  /// and retry with the remainder.
  std::size_t try_append(std::uint32_t bin_id, const BinRecord* recs,
                         std::size_t n) {
    Bin& bin = bins_[bin_id];
    std::size_t consumed = 0;
    std::lock_guard lock(bin.mu);
    while (consumed < n) {
      Slot& slot = bin.slot[bin.active];
      std::size_t space = capacity_ - slot.size;
      if (space == 0) {
        if (!try_rotate_locked(bin_id, bin)) break;  // buddy still out
        continue;
      }
      std::size_t take = std::min(space, n - consumed);
      std::memcpy(bin.buf[bin.active].get() + slot.size, recs + consumed,
                  take * sizeof(BinRecord));
      slot.size += take;
      consumed += take;
      if (slot.size == capacity_) try_rotate_locked(bin_id, bin);
    }
    return consumed;
  }

  /// Marks the end of the scatter phase for one of `num_workers`
  /// scattering workers. Returns true for the last caller, who must then
  /// run seal().
  bool scatter_done(std::size_t num_workers) {
    std::size_t done =
        scatter_finished_.fetch_add(1, std::memory_order_acq_rel) + 1;
    return done == num_workers;
  }

  /// Pushes every non-empty active buffer (even partial) to the full
  /// queue. Bins whose buddy is still out are retried while
  /// `help_gather_once` drains the pipeline. After seal() returns and the
  /// pending count reaches zero, every record has been processed.
  template <typename HelpFn>
  void seal(HelpFn&& help_gather_once) {
    bool all_sealed = false;
    while (!all_sealed) {
      all_sealed = true;
      for (std::uint32_t b = 0; b < bins_.size(); ++b) {
        Bin& bin = bins_[b];
        std::lock_guard lock(bin.mu);
        if (bin.slot[bin.active].size == 0) continue;
        if (!try_rotate_locked(b, bin)) all_sealed = false;
      }
      if (!all_sealed) help_gather_once();
    }
    sealed_.store(true, std::memory_order_release);
  }

  /// Cheap racy hint that a full buffer is probably available (used by
  /// scattering workers to decide whether gathering is worthwhile).
  bool pop_full_hint() const { return full_.approx_size() > 0; }

  /// Gather side: pops a full buffer. Empty optional when none is ready.
  std::optional<FullBinRef> pop_full() {
    auto v = full_.pop();
    if (!v) return std::nullopt;
    return FullBinRef{static_cast<std::uint32_t>(*v >> 1),
                      static_cast<std::uint8_t>(*v & 1)};
  }

  /// Records of a popped buffer. Valid until complete().
  std::span<const BinRecord> records(const FullBinRef& ref) const {
    const Bin& bin = bins_[ref.bin_id];
    return {bin.buf[ref.buf_idx].get(), bin.slot[ref.buf_idx].size};
  }

  /// Returns a gathered buffer to the empty state.
  void complete(const FullBinRef& ref) {
    Bin& bin = bins_[ref.bin_id];
    {
      std::lock_guard lock(bin.mu);
      bin.slot[ref.buf_idx].size = 0;
      bin.slot[ref.buf_idx].out = false;
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// True when scatter is sealed and every queued buffer has completed.
  bool drained() const {
    return sealed_.load(std::memory_order_acquire) &&
           pending_.load(std::memory_order_acquire) == 0;
  }

 private:
  struct Slot {
    std::size_t size = 0;
    bool out = false;  ///< queued or being gathered
  };
  struct alignas(kCacheLineSize) Bin {
    Spinlock mu;
    std::unique_ptr<BinRecord[]> buf[2];
    Slot slot[2];
    std::uint8_t active = 0;
  };

  /// Pushes the active buffer to the full queue and swaps, if the buddy is
  /// home. Caller holds bin.mu. Returns false when the buddy is still out.
  bool try_rotate_locked(std::uint32_t bin_id, Bin& bin) {
    std::uint8_t buddy = bin.active ^ 1;
    if (bin.slot[buddy].out || bin.slot[buddy].size != 0) return false;
    bin.slot[bin.active].out = true;
    pending_.fetch_add(1, std::memory_order_acq_rel);
    std::uint64_t token =
        (static_cast<std::uint64_t>(bin_id) << 1) | bin.active;
    // The queue holds at most one token per bin, so capacity is never the
    // limit — but a bounded MPMC push can still fail transiently while a
    // preempted producer's cell write is pending (likely when workers
    // outnumber cores). Retry; consumers free cells at pop time, so this
    // cannot deadlock even though we hold the bin lock.
    while (!full_.push(token)) std::this_thread::yield();
    bin.active = buddy;
    return true;
  }

  std::vector<Bin> bins_;
  BinMap map_;
  std::size_t capacity_ = 0;
  MpmcQueue<std::uint64_t> full_;
  std::atomic<std::size_t> scatter_finished_{0};
  std::atomic<bool> sealed_{false};
  std::atomic<std::int64_t> pending_{0};
};

/// Per-worker small buffers: one tiny staging array per bin,
/// flushed to the shared BinSet in batches (one spinlock acquisition per
/// kBatch records instead of per record).
class ScatterBuffer {
 public:
  static constexpr std::size_t kBatch = 32;

  /// The staging array is deliberately left uninitialized: it is written
  /// before it is read, and zeroing 256 KB per worker per EdgeMap call
  /// costs more than the whole frontier transform on small iterations.
  explicit ScatterBuffer(std::size_t bin_count)
      : counts_(bin_count, 0),
        records_(new BinRecord[bin_count * kBatch]) {}

  /// Stages one record; flushes the bin's batch when it fills.
  /// `help_gather_once` is invoked while the shared bin is saturated.
  template <typename HelpFn>
  void append(BinSet& bins, vertex_t dst, bin_value_t value,
              HelpFn&& help_gather_once) {
    const std::uint32_t b = bins.bin_of(dst);
    BinRecord* batch = records_.get() + static_cast<std::size_t>(b) * kBatch;
    batch[counts_[b]++] = BinRecord{dst, value};
    if (counts_[b] == kBatch) flush_bin(bins, b, help_gather_once);
  }

  /// Flushes every staged record.
  template <typename HelpFn>
  void flush_all(BinSet& bins, HelpFn&& help_gather_once) {
    for (std::uint32_t b = 0; b < counts_.size(); ++b) {
      if (counts_[b] != 0) flush_bin(bins, b, help_gather_once);
    }
  }

  std::uint64_t memory_bytes() const {
    return counts_.size() * kBatch * sizeof(BinRecord) +
           counts_.size() * sizeof(std::uint16_t);
  }

 private:
  template <typename HelpFn>
  void flush_bin(BinSet& bins, std::uint32_t b, HelpFn&& help_gather_once) {
    BinRecord* batch = records_.get() + static_cast<std::size_t>(b) * kBatch;
    std::size_t n = counts_[b];
    std::size_t done = 0;
    while (done < n) {
      done += bins.try_append(b, batch + done, n - done);
      if (done < n) help_gather_once();
    }
    counts_[b] = 0;
  }

  std::vector<std::uint16_t> counts_;
  std::unique_ptr<BinRecord[]> records_;
};

}  // namespace blaze::core
