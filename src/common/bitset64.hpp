// Blocked 64-bit-word set kernels for the large-n paths.
//
// FlatSet stays the representation of record for protocol state (sorted,
// deterministic iteration, cheap at the small sizes the paper's figures
// use). Above a density threshold its element-wise merges and binary
// searches stop scaling, so the membership/graph hot paths switch to a
// dense bitset over a contiguous index or id window:
//
//  * BitSet / PmrBitSet — word-addressed bit arrays whose kernels
//    (intersect / union / difference / count / is_subset) run one 64-bit
//    word per step, simple enough for the compiler to auto-vectorize. The
//    pmr variant lets per-run scratch (EvalScratch::probe_words) live in
//    the run engine's bump arena.
//  * BitSpan — a borrowed read-only view so the kernels can run over
//    storage owned elsewhere without copying.
//  * AdaptiveIdProbe — the adaptive chooser used by the predicate and
//    graph code: binary-search FlatSet below the density threshold, dense
//    window bitset above it. The representation choice is a pure function
//    of the set's contents, so replays and cross-thread runs pick the same
//    one (bit-replay safe); both representations answer membership
//    identically.
//
// Iteration helpers emit indices in ascending order — a BitSet is an
// ordered container in the cup_lint sense (inventoried with FlatSet).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "common/types.hpp"

namespace bftcup {

namespace bitset_kernel {

inline constexpr std::size_t kWordBits = 64;

[[nodiscard]] inline constexpr std::size_t words_for(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

// The word-run popcounts are cloned for the popcnt instruction and picked
// at load time (ifunc): a portable build otherwise lowers std::popcount to a
// libgcc call per word. Both clones compute the same counts.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define BFTCUP_POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#else
#define BFTCUP_POPCNT_CLONES
#endif

/// popcount over a word run.
[[nodiscard]] BFTCUP_POPCNT_CLONES inline std::size_t count(
    const std::uint64_t* w, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += std::popcount(w[i]);
  return total;
}

/// |a ∩ b| without materializing the intersection.
[[nodiscard]] BFTCUP_POPCNT_CLONES inline std::size_t intersect_count(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

inline void intersect(std::uint64_t* dst, const std::uint64_t* a,
                      const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
}

inline void unite(std::uint64_t* dst, const std::uint64_t* a,
                  const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}

/// dst = a \ b.
inline void difference(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & ~b[i];
}

/// a ⊆ b over equal-length word runs.
[[nodiscard]] inline bool is_subset(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

[[nodiscard]] inline bool intersects(const std::uint64_t* a,
                                     const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

}  // namespace bitset_kernel

/// Borrowed read-only view over a word array.
struct BitSpan {
  const std::uint64_t* words = nullptr;
  std::size_t word_count = 0;

  [[nodiscard]] bool test(std::size_t bit) const {
    const std::size_t w = bit / bitset_kernel::kWordBits;
    if (w >= word_count) return false;
    return (words[w] >> (bit % bitset_kernel::kWordBits)) & 1U;
  }
  [[nodiscard]] std::size_t count() const {
    return bitset_kernel::count(words, word_count);
  }
};

/// Fixed-capacity bit array over [0, bit_size()); Words picks the backing
/// vector (heap or pmr). Unused tail bits of the last word are kept zero by
/// every mutator, so whole-word kernels never see garbage in the tail.
template <typename Words>
class BasicBitSet {
 public:
  BasicBitSet() = default;

  /// Carries an allocator-bearing (e.g. arena-backed) container in.
  explicit BasicBitSet(Words words) : words_(std::move(words)) {
    words_.clear();
  }

  /// Clears and re-sizes to cover bits [0, bits); keeps capacity.
  void reset_bits(std::size_t bits) {
    bit_size_ = bits;
    words_.assign(bitset_kernel::words_for(bits), 0);
  }

  [[nodiscard]] std::size_t bit_size() const { return bit_size_; }
  [[nodiscard]] std::size_t word_count() const { return words_.size(); }
  [[nodiscard]] const std::uint64_t* data() const { return words_.data(); }
  [[nodiscard]] BitSpan span() const { return {words_.data(), words_.size()}; }

  void set(std::size_t bit) {
    words_[bit / bitset_kernel::kWordBits] |=
        std::uint64_t{1} << (bit % bitset_kernel::kWordBits);
  }
  void clear(std::size_t bit) {
    words_[bit / bitset_kernel::kWordBits] &=
        ~(std::uint64_t{1} << (bit % bitset_kernel::kWordBits));
  }
  [[nodiscard]] bool test(std::size_t bit) const {
    return (words_[bit / bitset_kernel::kWordBits] >>
            (bit % bitset_kernel::kWordBits)) &
           1U;
  }

  [[nodiscard]] std::size_t count() const {
    return bitset_kernel::count(words_.data(), words_.size());
  }
  [[nodiscard]] bool is_subset_of(const BasicBitSet& other) const {
    return bitset_kernel::is_subset(words_.data(), other.words_.data(),
                                    words_.size());
  }
  [[nodiscard]] std::size_t intersect_count(const BasicBitSet& other) const {
    return bitset_kernel::intersect_count(words_.data(), other.words_.data(),
                                          words_.size());
  }
  void intersect_with(const BasicBitSet& other) {
    bitset_kernel::intersect(words_.data(), words_.data(), other.words_.data(),
                             words_.size());
  }
  void union_with(const BasicBitSet& other) {
    bitset_kernel::unite(words_.data(), words_.data(), other.words_.data(),
                         words_.size());
  }
  void difference_with(const BasicBitSet& other) {
    bitset_kernel::difference(words_.data(), words_.data(),
                              other.words_.data(), words_.size());
  }

  /// Visits set bits in ascending order (deterministic iteration).
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int b = std::countr_zero(word);
        fn(w * bitset_kernel::kWordBits + static_cast<std::size_t>(b));
        word &= word - 1;
      }
    }
  }

 private:
  Words words_;
  std::size_t bit_size_ = 0;
};

using BitSet = BasicBitSet<std::vector<std::uint64_t>>;
using PmrBitSet = BasicBitSet<std::pmr::vector<std::uint64_t>>;

/// Adaptive membership probe over an IdSet: a dense window bitset when the
/// set is large and dense enough that word-indexed lookup beats binary
/// search, the FlatSet itself otherwise. The threshold is a pure function
/// of the contents (size and id spread), so every replay of the same set
/// picks the same representation. `scratch` optionally supplies reusable
/// word storage (e.g. the eval scratch's arena vector); without it the
/// probe owns a heap vector. The probe borrows `set` and must not outlive
/// it.
class AdaptiveIdProbe {
 public:
  /// Below this size, binary search wins on cache footprint alone.
  static constexpr std::size_t kDenseMinSize = 64;
  /// Window may be at most this many times the size (1/kDenseMaxSpread
  /// density floor), bounding the bitset at size/8 words.
  static constexpr std::size_t kDenseMaxSpread = 8;

  explicit AdaptiveIdProbe(const IdSet& set,
                           std::pmr::vector<std::uint64_t>* scratch = nullptr)
      : set_(&set) {
    if (set.size() < kDenseMinSize) return;
    base_ = set.values().front().raw();
    const std::uint64_t span = set.values().back().raw() - base_ + 1;
    if (span > set.size() * kDenseMaxSpread) return;
    const std::size_t words = bitset_kernel::words_for(span);
    if (scratch != nullptr) {
      scratch->assign(words, 0);
      words_ = scratch->data();
    } else {
      owned_.assign(words, 0);
      words_ = owned_.data();
    }
    span_ = span;
    for (ProcessId id : set) {
      const std::uint64_t bit = id.raw() - base_;
      words_[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
  }

  [[nodiscard]] bool dense() const { return words_ != nullptr; }

  [[nodiscard]] bool contains(ProcessId id) const {
    if (words_ == nullptr) return set_->contains(id);
    const std::uint64_t raw = id.raw();
    if (raw < base_ || raw - base_ >= span_) return false;
    const std::uint64_t bit = raw - base_;
    return (words_[bit / 64] >> (bit % 64)) & 1U;
  }

 private:
  const IdSet* set_;
  std::uint64_t base_ = 0;
  std::uint64_t span_ = 0;
  std::uint64_t* words_ = nullptr;
  std::vector<std::uint64_t> owned_;
};

}  // namespace bftcup
