#ifndef COMPTX_UTIL_ID_WINDOW_H_
#define COMPTX_UTIL_ID_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace comptx {

/// A vector indexed by a monotone id whose low end is released over time:
/// it stores the slots of ids in [begin(), end()), and DropBefore()
/// releases a prefix.  Ids are never reused, so a long-lived owner whose
/// oldest entries die keeps memory proportional to the id *span* still
/// alive, not to every id it ever assigned.  The released prefix is
/// erased lazily once it is at least half the storage, which makes
/// DropBefore amortised O(1) per released id.
template <typename T>
class IdWindow {
 public:
  uint64_t begin() const { return base_; }
  uint64_t end() const { return base_ + (items_.size() - head_); }
  size_t size() const { return items_.size() - head_; }
  bool empty() const { return size() == 0; }
  bool Contains(uint64_t id) const { return id >= base_ && id < end(); }

  T& operator[](uint64_t id) { return items_[head_ + (id - base_)]; }
  const T& operator[](uint64_t id) const {
    return items_[head_ + (id - base_)];
  }
  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }

  /// Appends the slot of id end().
  void push_back(T value) { items_.push_back(std::move(value)); }

  /// Grows the window so that end() >= `new_end`, filling new slots with
  /// `fill`.  An empty window is rebased instead, so skipping a run of
  /// ids costs nothing.
  void ExtendTo(uint64_t new_end, const T& fill) {
    if (new_end <= end()) return;
    if (empty()) {
      items_.clear();
      head_ = 0;
      base_ = new_end;
      return;
    }
    items_.resize(items_.size() + (new_end - end()), fill);
  }

  /// Releases every slot below `id` (all of them if id >= end(); end()
  /// does not move).
  void DropBefore(uint64_t id) {
    if (id <= base_) return;
    if (id >= end()) {
      base_ = end();
      items_.clear();
      head_ = 0;
      return;
    }
    head_ += id - base_;
    base_ = id;
    if (head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + head_);
      head_ = 0;
    }
  }

 private:
  std::vector<T> items_;
  size_t head_ = 0;    // released slots at the front of items_
  uint64_t base_ = 0;  // id of items_[head_]
};

}  // namespace comptx

#endif  // COMPTX_UTIL_ID_WINDOW_H_
