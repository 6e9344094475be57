// VertexSubset: the frontier type of the EdgeMap/VertexMap API.
//
// Like Ligra's frontiers, a VertexSubset abstracts sparse and dense
// representations (paper Section IV-C): membership is always answered by a
// concurrent bitmap (gather threads add concurrently), and a sorted sparse
// vector is materialized lazily when the subset is small enough that
// iterating members beats scanning the bitmap.
#pragma once

#include <atomic>
#include <optional>
#include <vector>

#include "util/common.h"
#include "util/concurrent_bitmap.h"
#include "util/thread_pool.h"

namespace blaze::core {

/// A subset of the vertex ID space [0, universe()).
class VertexSubset {
 public:
  VertexSubset() = default;

  /// Empty subset over `n` vertices.
  explicit VertexSubset(vertex_t n) : bitmap_(n) {}

  /// Subset containing exactly `v`.
  static VertexSubset single(vertex_t n, vertex_t v) {
    VertexSubset s(n);
    s.add(v);
    return s;
  }

  /// Subset containing every vertex.
  static VertexSubset all(vertex_t n) {
    VertexSubset s(n);
    for (vertex_t v = 0; v < n; ++v) s.bitmap_.set_unsafe(v);
    s.count_.store(n, std::memory_order_relaxed);
    return s;
  }

  vertex_t universe() const {
    return static_cast<vertex_t>(bitmap_.size());
  }

  bool contains(vertex_t v) const { return bitmap_.test(v); }

  VertexSubset(VertexSubset&& o) noexcept
      : bitmap_(std::move(o.bitmap_)),
        count_(o.count_.load(std::memory_order_relaxed)),
        sparse_(std::move(o.sparse_)) {}
  VertexSubset& operator=(VertexSubset&& o) noexcept {
    bitmap_ = std::move(o.bitmap_);
    count_.store(o.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    sparse_ = std::move(o.sparse_);
    return *this;
  }
  VertexSubset(const VertexSubset&) = delete;
  VertexSubset& operator=(const VertexSubset&) = delete;

  /// Deep copy (explicit, since frontiers are usually moved).
  VertexSubset clone() const {
    VertexSubset s(universe());
    bitmap_.for_each([&](std::size_t v) {
      s.bitmap_.set_unsafe(v);
    });
    s.count_.store(count(), std::memory_order_relaxed);
    return s;
  }

  /// Thread-safe insert; returns true if `v` was newly added. Must not race
  /// with sparse_view()/for_each (mutation and iteration are distinct
  /// engine phases).
  bool add(vertex_t v) {
    if (bitmap_.set(v)) {
      count_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// add() without the count update, for concurrent bulk inserts: each
  /// thread totals its newly added members and reports them once with
  /// add_count(), instead of every insert contending on the count's cache
  /// line. The count is wrong until every insert has been reported.
  bool add_uncounted(vertex_t v) { return bitmap_.set(v); }
  void add_count(std::size_t added) {
    if (added != 0) count_.fetch_add(added, std::memory_order_relaxed);
  }

  std::size_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  bool empty() const { return count() == 0; }

  /// True when the subset is dense enough that bitmap iteration is the
  /// right strategy (the paper's sparse/dense switch, threshold |V|/20 as
  /// in Ligra).
  bool is_dense() const { return count() * 20 >= bitmap_.size(); }

  /// Sequential iteration over members in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!is_dense()) {
      for (vertex_t v : sparse_view()) fn(v);
      return;
    }
    bitmap_.for_each([&](std::size_t v) { fn(static_cast<vertex_t>(v)); });
  }

  /// Parallel iteration over members using `pool`.
  template <typename Fn>
  void for_each_parallel(ThreadPool& pool, Fn&& fn) const {
    if (!is_dense()) {
      const auto& sv = sparse_view();
      pool.parallel_for(0, sv.size(),
                        [&](std::size_t i) { fn(sv[i]); }, 256);
      return;
    }
    pool.parallel_for(
        0, bitmap_.word_count(),
        [&](std::size_t wi) {
          std::uint64_t w = bitmap_.word(wi);
          while (w != 0) {
            int bit = __builtin_ctzll(w);
            fn(static_cast<vertex_t>((wi << 6) + bit));
            w &= w - 1;
          }
        },
        64);
  }

  /// The members for which `pred(v)` holds, evaluated in parallel. A dense
  /// subset is filtered one 64-vertex word at a time: each output word is
  /// built locally and stored once, and the count grows once per chunk, so
  /// no activated vertex pays a contended atomic.
  template <typename Pred>
  VertexSubset filter(ThreadPool& pool, Pred&& pred) const {
    VertexSubset out(universe());
    if (!is_dense()) {
      for_each_parallel(pool, [&](vertex_t v) {
        if (pred(v)) out.add(v);
      });
      return out;
    }
    pool.parallel_for_chunks(
        0, bitmap_.word_count(),
        [&](std::size_t lo, std::size_t hi) {
          std::size_t added = 0;
          for (std::size_t wi = lo; wi < hi; ++wi) {
            std::uint64_t w = bitmap_.word(wi), kept = 0;
            while (w != 0) {
              const int bit = __builtin_ctzll(w);
              if (pred(static_cast<vertex_t>((wi << 6) + bit))) {
                kept |= std::uint64_t{1} << bit;
              }
              w &= w - 1;
            }
            if (kept == 0) continue;
            out.bitmap_.store_word(wi, kept);
            added += static_cast<std::size_t>(__builtin_popcountll(kept));
          }
          out.add_count(added);
        },
        64);
    return out;
  }

  /// Members as a sorted vector. Cached; rebuilt when add() has run since
  /// the last materialization (detected via the count).
  const std::vector<vertex_t>& sparse_view() const {
    if (sparse_ && sparse_->size() != count()) sparse_.reset();
    if (!sparse_) {
      std::vector<vertex_t> v;
      v.reserve(count());
      bitmap_.for_each(
          [&](std::size_t i) { v.push_back(static_cast<vertex_t>(i)); });
      sparse_ = std::move(v);
    }
    return *sparse_;
  }

  /// DRAM bytes of this subset (bitmap plus any cached sparse view).
  std::uint64_t memory_bytes() const {
    std::uint64_t b = bitmap_.word_count() * sizeof(std::uint64_t);
    if (sparse_) b += sparse_->size() * sizeof(vertex_t);
    return b;
  }

 private:
  ConcurrentBitmap bitmap_;
  std::atomic<std::size_t> count_{0};
  mutable std::optional<std::vector<vertex_t>> sparse_;
};

}  // namespace blaze::core
