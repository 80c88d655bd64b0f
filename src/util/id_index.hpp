// IdIndex — a flat open-addressed table from an integer id to a dense int32
// slot (ARCHITECTURE.md §2 and §9, PERF.md §11).
//
// Object and transaction ids are arbitrary integers (an instance file may
// name any int32 object id), so the hot paths cannot index a vector by id.
// This table gives them an O(1) id -> slot lookup with one code path for
// every id set, dense or sparse:
//   - linear probing over a power-of-two cell array kept at most half full;
//   - Fibonacci hashing (the id times 2^64 / phi, top bits), which spreads
//     runs of consecutive ids — the usual case — over distinct cells;
//   - a generation stamp per cell, so reset() forgets every entry in O(1)
//     and a thread_local table refilled once per call allocates only when
//     it has to grow.
// The store builds one table per engine (its object set is immutable); the
// batch walks refill a thread_local one per call.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace dtm {

template <typename Id>
class IdIndex {
 public:
  IdIndex() { rehash(kMinCells); }

  /// Forgets every entry and makes room for `n` ids: O(1) unless the cell
  /// array must grow (it never shrinks).
  void reset(std::size_t n) {
    size_ = 0;
    if (2 * n > cells_.size()) {
      rehash(std::bit_ceil(2 * n));
      return;
    }
    if (++gen_ == 0) {  // stamps wrapped: every cell must read as empty
      for (Cell& c : cells_) c.gen = 0;
      gen_ = 1;
    }
  }

  /// The slot of `id`, or -1 if absent.
  [[nodiscard]] std::int32_t find(Id id) const {
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Cell& c = cells_[i];
      if (c.gen != gen_) return -1;
      if (c.id == id) return c.slot;
    }
  }

  /// The slot of `id` for writing; an absent id is inserted with slot -1.
  /// reset(n) made room for n ids; filling more than half the cells is a
  /// CheckError, never a full table that find() would probe forever.
  [[nodiscard]] std::int32_t& slot(Id id) {
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      Cell& c = cells_[i];
      if (c.gen != gen_) {
        DTM_CHECK(2 * (size_ + 1) <= cells_.size(),
                  "IdIndex: more ids than reset() made room for");
        c = {id, -1, gen_};
        ++size_;
        return c.slot;
      }
      if (c.id == id) return c.slot;
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cells_.size(); }
  /// The cell where probing for `id` starts (lets tests force collisions).
  [[nodiscard]] std::size_t home(Id id) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

 private:
  static constexpr std::size_t kMinCells = 16;

  struct Cell {
    Id id;
    std::int32_t slot;
    std::uint32_t gen;  ///< live iff equal to the table's gen_
  };

  void rehash(std::size_t cells) {
    cells_.assign(cells, Cell{Id{}, -1, 0});
    mask_ = cells - 1;
    shift_ = 64 - std::countr_zero(cells);
    gen_ = 1;
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::uint32_t gen_ = 1;
  std::size_t size_ = 0;
};

}  // namespace dtm
