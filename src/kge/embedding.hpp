// Embedding storage and sparse row storage.
//
// An EmbeddingMatrix is a dense row-major [rows x width] float matrix: one
// row per entity or relation. A SparseGrad holds the gradient rows touched
// by one batch — for KGE training only a tiny fraction of rows is non-zero
// per step, which is precisely the structure the paper's communication
// strategies exploit — and, living across steps, the rows parked for later
// ones (selection and error-feedback residuals).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace dynkge::kge {

class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;
  EmbeddingMatrix(std::int32_t rows, std::int32_t width)
      : rows_(rows), width_(width) {
    if (rows <= 0 || width <= 0) {
      throw std::invalid_argument("EmbeddingMatrix: non-positive shape");
    }
    data_.assign(static_cast<std::size_t>(rows) * width, 0.0f);
  }

  std::int32_t rows() const { return rows_; }
  std::int32_t width() const { return width_; }
  std::size_t size_bytes() const { return data_.size() * sizeof(float); }

  std::span<float> row(std::int32_t r) {
    return {data_.data() + static_cast<std::size_t>(r) * width_,
            static_cast<std::size_t>(width_)};
  }
  std::span<const float> row(std::int32_t r) const {
    return {data_.data() + static_cast<std::size_t>(r) * width_,
            static_cast<std::size_t>(width_)};
  }

  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  /// Uniform init in [-scale, scale] — ComplEx's standard initialization
  /// scheme (scaled by 1/sqrt(width) by the caller).
  void init_uniform(util::Rng& rng, float scale) {
    for (auto& v : data_) {
      v = static_cast<float>(rng.next_double(-scale, scale));
    }
  }

  /// Gaussian init with standard deviation sigma.
  void init_normal(util::Rng& rng, float sigma) {
    for (auto& v : data_) {
      v = static_cast<float>(rng.next_normal(0.0, sigma));
    }
  }

 private:
  std::int32_t rows_ = 0;
  std::int32_t width_ = 0;
  std::vector<float> data_;
};

/// Sparse rows of one width, keyed by id: an optimizer step's gradient
/// rows, or rows parked across steps (selection and error-feedback
/// residuals). Rows are created zero-filled on first touch and live in one
/// arena. A dense id -> arena-row index, grown to the largest id touched,
/// finds a row with one array read (ids are bounded by the embedding table,
/// so no hashing is needed), and a three-level occupancy bitmap yields
/// ascending ids instead of a sort. A walk descends only into words that
/// got a bit, so it costs about one word per level per row when a few rows
/// are spread over a large table (the per-triple SGD step) and stays a
/// linear scan when rows are dense. erase() hands its arena row to the next
/// creation, so a store that parks and releases rows for a whole run stays
/// at its peak row count. clear() resets only what was touched since the
/// last clear, so index, bitmaps and arena are reused across batches.
class SparseGrad {
 public:
  SparseGrad() = default;
  explicit SparseGrad(std::int32_t width) : width_(width) {
    if (width <= 0) {
      throw std::invalid_argument("SparseGrad: non-positive width");
    }
  }

  std::int32_t width() const { return width_; }
  std::size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  bool has(std::int32_t id) const { return find(id) != kAbsent; }

  /// Row for `id`, created zero-filled on first touch. Throws
  /// std::out_of_range for a negative id.
  std::span<float> accumulate(std::int32_t id) {
    return row_at(accumulate_offset(id));
  }

  /// Arena offset of the row for `id`, created zero-filled on first touch
  /// (at the most recently erased row's offset if there is one, else at
  /// the next arena row). Offsets of live rows — unlike the spans
  /// accumulate() returns — stay valid across later row creations, so the
  /// blocked gradient path records offsets while the arena is still
  /// growing and resolves pointers once per batch afterwards.
  std::size_t accumulate_offset(std::int32_t id) {
    std::uint32_t row = find(id);
    if (row == kAbsent) row = create(id);
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(width_);
  }

  /// Existing row for `id`; throws if absent.
  std::span<const float> row(std::int32_t id) const {
    return row_at(existing_offset(id));
  }
  std::span<float> row(std::int32_t id) {
    return row_at(existing_offset(id));
  }

  /// (id, arena offset) of a live row; see sorted_slots().
  struct SlotRef {
    std::int32_t id;
    std::size_t offset;
  };

  /// Rows in ascending id order with their arena offsets (cached;
  /// invalidated by new rows and erases): the one ordered walk, one direct
  /// arena access per row.
  const std::vector<SlotRef>& sorted_slots() const {
    if (slots_stale_) {
      sorted_slots_.clear();
      sorted_slots_.reserve(num_rows_);
      for_each_id([&](std::size_t id) {
        sorted_slots_.push_back({static_cast<std::int32_t>(id),
                                 static_cast<std::size_t>(index_[id]) *
                                     static_cast<std::size_t>(width_)});
      });
      slots_stale_ = false;
    }
    return sorted_slots_;
  }

  /// Row at an arena offset taken from sorted_slots(). Valid until the
  /// next accumulate() that grows the arena, or clear().
  std::span<const float> row_at(std::size_t offset) const {
    return {arena_.data() + offset, static_cast<std::size_t>(width_)};
  }
  std::span<float> row_at(std::size_t offset) {
    return {arena_.data() + offset, static_cast<std::size_t>(width_)};
  }

  /// Drop all rows but keep allocations for reuse across batches. Only the
  /// index entries and bitmap words touched since the last clear are reset.
  void clear() {
    for (std::size_t w = top_begin_; w < top_end_; ++w) reset(kLevels - 1, w);
    top_begin_ = kNoWord;
    top_end_ = 0;
    arena_.clear();
    arena_rows_ = 0;
    free_rows_.clear();
    num_rows_ = 0;
    sorted_slots_.clear();
    slots_stale_ = false;
  }

  /// Remove a row (a row dropped from communication, or a parked residual
  /// folded back in). Its arena row goes to the next creation; the row
  /// count and iteration exclude it immediately.
  void erase(std::int32_t id) {
    if (!has(id)) return;
    const auto slot = static_cast<std::size_t>(id);
    free_rows_.push_back(index_[slot]);
    index_[slot] = kAbsent;
    levels_[0][slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    --num_rows_;
    slots_stale_ = true;
  }

 private:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  static constexpr std::size_t kNoWord = ~std::size_t{0};
  /// Three levels of 64-way fan-out: a top word covers 2^18 ids, so even a
  /// 2^31-id index has at most 8192 top words.
  static constexpr int kLevels = 3;

  /// Arena row of `id`, or kAbsent. A negative id converts to a value past
  /// any index size, so it reads as absent without a separate test.
  std::uint32_t find(std::int32_t id) const {
    const auto slot = static_cast<std::uint32_t>(id);
    return slot < index_.size() ? index_[slot] : kAbsent;
  }

  /// Calls f(id) for every live id in ascending order.
  template <typename F>
  void for_each_id(F&& f) const {
    for (std::size_t w = top_begin_; w < top_end_; ++w) {
      visit(kLevels - 1, w, f);
    }
  }

  template <typename F>
  void visit(int level, std::size_t word, F& f) const {
    for (std::uint64_t bits = levels_[level][word]; bits != 0;
         bits &= bits - 1) {
      const std::size_t child =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      if (level == 0) {
        f(child);
      } else {
        visit(level - 1, child, f);
      }
    }
  }

  /// Zeroes `word` of `level` and every word below it, marking their ids
  /// absent in the index.
  void reset(int level, std::size_t word) {
    for (std::uint64_t bits = levels_[level][word]; bits != 0;
         bits &= bits - 1) {
      const std::size_t child =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      if (level == 0) {
        index_[child] = kAbsent;
      } else {
        reset(level - 1, child);
      }
    }
    levels_[level][word] = 0;
  }

  std::size_t existing_offset(std::int32_t id) const {
    const std::uint32_t row = find(id);
    if (row == kAbsent) throw std::out_of_range("SparseGrad: row absent");
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(width_);
  }

  /// Slow path of accumulate_offset(): index `id` (growing the index to
  /// it) at the most recently freed arena row, zero-filled, or else at the
  /// next one.
  std::uint32_t create(std::int32_t id) {
    if (id < 0) {
      throw std::out_of_range("SparseGrad: negative row id");
    }
    if (free_rows_.empty() && arena_rows_ == kAbsent) {
      throw std::length_error("SparseGrad: arena row count overflow");
    }
    const auto slot = static_cast<std::size_t>(id);
    if (slot >= index_.size()) {
      index_.resize(slot + 1, kAbsent);
      std::size_t words = slot;
      for (auto& level : levels_) {
        words /= 64;
        level.resize(words + 1, 0);
      }
    }
    std::uint32_t row = 0;
    if (free_rows_.empty()) {
      row = arena_rows_++;
      arena_.resize(arena_.size() + static_cast<std::size_t>(width_), 0.0f);
    } else {
      row = free_rows_.back();
      free_rows_.pop_back();
      std::ranges::fill(row_at(static_cast<std::size_t>(row) *
                               static_cast<std::size_t>(width_)),
                        0.0f);
    }
    index_[slot] = row;
    std::size_t bit = slot;  // at level k: the index of the level-k bit
    for (auto& level : levels_) {
      level[bit / 64] |= std::uint64_t{1} << (bit % 64);
      bit /= 64;
    }
    top_begin_ = std::min(top_begin_, bit);
    top_end_ = std::max(top_end_, bit + 1);
    ++num_rows_;
    slots_stale_ = true;
    return row;
  }

  std::int32_t width_ = 0;
  /// id -> arena row (kAbsent when the id has no live row).
  std::vector<std::uint32_t> index_;
  /// levels_[0] has one bit per id, set while the id has a live row;
  /// levels_[k] has one bit per word of levels_[k - 1], set when that word
  /// gets a bit and cleared only by clear() (an erase may leave it over an
  /// emptied word).
  std::array<std::vector<std::uint64_t>, kLevels> levels_;
  /// Top-level words [top_begin_, top_end_) hold every bit set since the
  /// last clear(); walks and clear() start from these.
  std::size_t top_begin_ = kNoWord;
  std::size_t top_end_ = 0;
  std::vector<float> arena_;
  std::uint32_t arena_rows_ = 0;  ///< arena rows, free ones included
  /// Arena rows released by erase(), the most recent last.
  std::vector<std::uint32_t> free_rows_;
  std::size_t num_rows_ = 0;      ///< live rows
  mutable std::vector<SlotRef> sorted_slots_;
  mutable bool slots_stale_ = false;
};

}  // namespace dynkge::kge
