#ifndef COMPTX_UTIL_SLOT_POOL_H_
#define COMPTX_UTIL_SLOT_POOL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace comptx {

/// Records of type T keyed by uint32_t node id, in a pool of reusable
/// slots.  A released record's slot goes on a free list and is handed,
/// as Release left it, to the next new id — so a record can keep its own
/// heap storage (a cleared vector keeps its capacity) and an owner whose
/// ids come and go at a steady rate stops allocating once warm.  Records
/// never move while their id is live, except when a new id grows the
/// pool.
///
/// Ids reach their slots through a directory windowed to the ids in use:
/// one uint32_t (slot + 1, 0 = absent) per id in [base, base + size), so
/// a probe is O(1) while memory follows the span of live ids, not the
/// global id space.  The window grows on demand in either direction;
/// DropBefore releases a prefix lazily (erased once it is at least half
/// the storage, so amortised O(1) per released id), DropAfter truncates
/// the tail, and releasing the last live id empties it.
template <typename T>
class SlotPool {
 public:
  /// The record of `id`, or nullptr.
  const T* Find(uint32_t id) const {
    if (id < base_) return nullptr;
    const size_t i = size_t{head_} + (id - base_);
    if (i >= dir_.size() || dir_[i] == 0) return nullptr;
    return &slots_[dir_[i] - 1];
  }
  T* Find(uint32_t id) {
    return const_cast<T*>(std::as_const(*this).Find(id));
  }

  /// The record of `id` and whether it was just created.  A created
  /// record is a freed slot's record, as Release left it, or a new T().
  std::pair<T*, bool> Acquire(uint32_t id) {
    if (T* found = Find(id)) return {found, false};
    uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Map(id, slot + 1);
    return {&slots_[slot], true};
  }

  /// Frees the slot of `id`, which must be live.  The record stays as it
  /// is until Acquire hands it out again.
  void Release(uint32_t id) {
    uint32_t& entry = dir_[size_t{head_} + (id - base_)];
    free_.push_back(entry - 1);
    entry = 0;
    if (size() == 0) {
      dir_.clear();
      head_ = 0;
      base_ = 0;
    }
  }

  /// Number of live ids.
  size_t size() const { return slots_.size() - free_.size(); }

  /// Releases the directory window below `id`; no id there may be live.
  void DropBefore(uint32_t id) {
    if (id <= base_) return;
    const size_t drop = id - base_;
    if (size_t{head_} + drop >= dir_.size()) {
      dir_.clear();
      head_ = 0;
      base_ = id;
      return;
    }
    head_ += static_cast<uint32_t>(drop);
    base_ = id;
    if (size_t{head_} * 2 >= dir_.size()) {
      dir_.erase(dir_.begin(), dir_.begin() + static_cast<long>(head_));
      head_ = 0;
    }
  }

  /// Releases the directory window above `id`; no id there may be live.
  void DropAfter(uint32_t id) {
    if (id < base_) {
      dir_.clear();
      head_ = 0;
      return;
    }
    const size_t end = size_t{head_} + (id - base_) + 1;
    if (end < dir_.size()) dir_.resize(end);
  }

 private:
  /// Points the directory entry of `id` at `entry`, widening the window.
  void Map(uint32_t id, uint32_t entry) {
    if (size_t{head_} == dir_.size()) {  // empty window: rebase on `id`
      dir_.clear();
      head_ = 0;
      base_ = id;
    } else if (id < base_) {
      // Reuse the released prefix (its entries are all 0) before shifting.
      const uint32_t grow = base_ - id;
      if (grow <= head_) {
        head_ -= grow;
      } else {
        dir_.insert(dir_.begin(), grow - head_, 0);
        head_ = 0;
      }
      base_ = id;
    }
    const size_t i = size_t{head_} + (id - base_);
    if (i >= dir_.size()) dir_.resize(i + 1, 0);
    dir_[i] = entry;
  }

  std::vector<T> slots_;        // live and free records
  std::vector<uint32_t> free_;  // slots not holding a live record
  std::vector<uint32_t> dir_;   // slot + 1 per id of the window; 0 = absent
  uint32_t head_ = 0;           // released entries at the front of dir_
  uint32_t base_ = 0;           // id of dir_[head_]
};

}  // namespace comptx

#endif  // COMPTX_UTIL_SLOT_POOL_H_
