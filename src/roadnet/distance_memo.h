// DistanceMemo: the hash table behind the DistanceOracle's memo cache.
//
// Maps a packed (source, target) key to its distance. Entries live in
// insertion order in fixed-size chunks; an open-addressing index of 32-bit
// entry numbers, at most half full, finds them by linear probing, and a new
// entry takes its home slot ahead of older ones. A hit on a recently stored
// key, the kind dispatch asks for again soonest, then reads one index slot
// and one entry on a few adjacent pages, with one multiply to hash. Growing
// rebuilds only the index: entries never move. Not thread-safe: the oracle
// guards each table with its cache shard's mutex.

#ifndef AUCTIONRIDE_ROADNET_DISTANCE_MEMO_H_
#define AUCTIONRIDE_ROADNET_DISTANCE_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace auctionride {

class DistanceMemo {
 public:
  /// The value stored under `key`, or nullptr. The pointer stays valid for
  /// the table's lifetime: entries never move.
  const double* Find(uint64_t key) const {
    if (index_.empty()) return nullptr;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = Home(key);; i = (i + 1) & mask) {
      const uint32_t slot = index_[i];
      if (slot == kEmptySlot) return nullptr;
      const Entry& e = EntryAt(slot - 1);
      if (e.key == key) return &e.value;
    }
  }

  /// Stores `value` under `key` unless the key is present, in which case
  /// the first value is kept. Returns whether the key was new.
  bool Insert(uint64_t key, double value) {
    if (Find(key) != nullptr) return false;
    if (2 * (size_ + 1) > index_.size()) Grow();
    if (size_ % kChunkEntries == 0) {
      chunks_.push_back(std::make_unique<Entry[]>(kChunkEntries));
    }
    chunks_.back()[size_ % kChunkEntries] = {key, value};
    Place(key, static_cast<uint32_t>(++size_));
    return true;
  }

  std::size_t size() const { return size_; }
  /// Slots in the index (0 or a power of two, at least twice size()).
  std::size_t capacity() const { return index_.size(); }

 private:
  struct Entry {
    uint64_t key;
    double value;
  };
  static constexpr uint32_t kEmptySlot = 0;  // else entry number + 1
  static constexpr std::size_t kChunkEntries = 1024;  // 16 KiB per chunk

  const Entry& EntryAt(std::size_t n) const {
    return chunks_[n / kChunkEntries][n % kChunkEntries];
  }

  // Fibonacci hashing: the top log2(capacity) bits of key × 2^64/φ.
  std::size_t Home(uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // Newest first: entry `slot` takes the home slot of `key` and the run of
  // entries from there moves up one slot, into the run's first empty slot.
  // No entry leaves the run that starts at its own home, so Find() still
  // reaches it, and a key stays at its home slot, found without reading
  // any other entry, until a newer entry moves it.
  void Place(uint64_t key, uint32_t slot) {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = Home(key); slot != kEmptySlot; i = (i + 1) & mask) {
      std::swap(slot, index_[i]);
    }
  }

  // Doubles the index (16 slots at first) and re-indexes every entry, oldest
  // first.
  void Grow() {
    ARIDE_ACHECK(size_ < std::numeric_limits<uint32_t>::max());
    index_.assign(index_.empty() ? 16 : 2 * index_.size(), kEmptySlot);
    shift_ = 64;
    for (std::size_t c = index_.size(); c > 1; c >>= 1) --shift_;
    for (std::size_t n = 0; n < size_; ++n) {
      Place(EntryAt(n).key, static_cast<uint32_t>(n + 1));
    }
  }

  std::vector<std::unique_ptr<Entry[]>> chunks_;  // entries, insertion order
  std::vector<uint32_t> index_;
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace auctionride

#endif  // AUCTIONRIDE_ROADNET_DISTANCE_MEMO_H_
