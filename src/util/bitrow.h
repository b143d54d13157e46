#ifndef COMPTX_UTIL_BITROW_H_
#define COMPTX_UTIL_BITROW_H_

#include <cstdint>
#include <vector>

namespace comptx {

/// A windowed bitset over uint32_t ids: the words cover ids in
/// [base_word * 64, (base_word + words.size()) * 64).  The window grows on
/// demand in either direction, so memory is proportional to the id *span*
/// actually used, not to the size of the global id space — important
/// because relation rows are keyed by global node ids while their targets
/// cluster (children of one transaction, operations of one schedule).
///
/// This is the same words-per-row bit layout as graph::TransitiveClosure,
/// with the row rebased so sparse high ids stay cheap.
class BitRow {
 public:
  bool Test(uint32_t id) const {
    const uint32_t w = id >> 6;
    if (w < base_word_ || w - base_word_ >= words_.size()) return false;
    return (words_[w - base_word_] >> (id & 63)) & 1;
  }

  /// Sets the bit for `id`; returns true iff it was previously clear.
  bool TestAndSet(uint32_t id) {
    const uint32_t w = id >> 6;
    if (words_.empty()) {
      base_word_ = w;
      words_.push_back(0);
    } else if (w < base_word_) {
      words_.insert(words_.begin(), base_word_ - w, 0);
      base_word_ = w;
    } else if (w - base_word_ >= words_.size()) {
      words_.resize(w - base_word_ + 1, 0);
    }
    uint64_t& word = words_[w - base_word_];
    const uint64_t mask = uint64_t{1} << (id & 63);
    if (word & mask) return false;
    word |= mask;
    return true;
  }

  /// Clears the bit for `id`; returns true iff it was set.  Zero words at
  /// either edge of the window are released, so a row whose ids drift
  /// upward over a long session keeps a window as wide as its live ids.
  bool Reset(uint32_t id) {
    const uint32_t w = id >> 6;
    if (w < base_word_ || w - base_word_ >= words_.size()) return false;
    uint64_t& word = words_[w - base_word_];
    const uint64_t mask = uint64_t{1} << (id & 63);
    if ((word & mask) == 0) return false;
    word &= ~mask;
    while (!words_.empty() && words_.back() == 0) words_.pop_back();
    size_t lead = 0;
    while (lead < words_.size() && words_[lead] == 0) ++lead;
    if (lead > 0) {
      words_.erase(words_.begin(), words_.begin() + lead);
      base_word_ += static_cast<uint32_t>(lead);
    }
    return true;
  }

  bool Empty() const { return words_.empty(); }

  /// Clears every bit but keeps the word storage, so a recycled row
  /// re-grows its window without allocating.
  void Clear() {
    words_.clear();
    base_word_ = 0;
  }

 private:
  std::vector<uint64_t> words_;
  uint32_t base_word_ = 0;
};

}  // namespace comptx

#endif  // COMPTX_UTIL_BITROW_H_
