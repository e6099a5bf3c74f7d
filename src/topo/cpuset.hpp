#pragma once
// Dynamic CPU sets, the common currency between the places parser, the
// proc_bind mapper and the simulator.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace omv::topo {

/// A set of hardware-thread (logical CPU) ids. Ids are dense small integers;
/// the set grows on demand.
class CpuSet {
 public:
  CpuSet() = default;

  /// Forward iterator over members in ascending order. Allocation-free —
  /// the simulator's per-event hot paths iterate sets directly instead of
  /// materializing a std::vector via to_vector().
  class const_iterator {
   public:
    using value_type = std::size_t;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;

    std::size_t operator*() const noexcept {
      return word_ * 64 +
             static_cast<std::size_t>(std::countr_zero(current_));
    }

    const_iterator& operator++() noexcept {
      current_ &= current_ - 1;  // clear lowest set bit
      advance();
      return *this;
    }

    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++*this;
      return old;
    }

    bool operator==(const const_iterator& o) const noexcept {
      return word_ == o.word_ && current_ == o.current_;
    }

   private:
    friend class CpuSet;
    const_iterator(const std::uint64_t* words, std::size_t n_words,
                   std::size_t word) noexcept
        : words_(words), n_words_(n_words), word_(word) {
      if (word_ < n_words_) current_ = words_[word_];
      advance();
    }

    /// Skips empty words until a set bit or the end is reached.
    void advance() noexcept {
      while (current_ == 0 && word_ < n_words_) {
        ++word_;
        current_ = word_ < n_words_ ? words_[word_] : 0;
      }
      if (current_ == 0) word_ = n_words_;
    }

    const std::uint64_t* words_ = nullptr;
    std::size_t n_words_ = 0;
    std::size_t word_ = 0;
    std::uint64_t current_ = 0;
  };

  [[nodiscard]] const_iterator begin() const noexcept {
    return {bits_.data(), bits_.size(), 0};
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return {bits_.data(), bits_.size(), bits_.size()};
  }

  /// Singleton set {cpu}.
  static CpuSet single(std::size_t cpu);
  /// Contiguous range [first, first+count).
  static CpuSet range(std::size_t first, std::size_t count);
  /// Parses Linux list format: "0-3,8,10-11". Throws std::invalid_argument
  /// on malformed input.
  static CpuSet parse(const std::string& list);

  /// Adds one cpu id.
  void add(std::size_t cpu);
  /// Removes one cpu id (no-op if absent).
  void remove(std::size_t cpu);
  [[nodiscard]] bool contains(std::size_t cpu) const noexcept;
  [[nodiscard]] std::size_t count() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return count() == 0; }

  /// Smallest member; throws std::out_of_range if empty.
  [[nodiscard]] std::size_t first() const;

  /// Ascending list of members.
  [[nodiscard]] std::vector<std::size_t> to_vector() const;

  /// Linux list format ("0-3,8").
  [[nodiscard]] std::string to_string() const;

  /// Set union / intersection / difference.
  [[nodiscard]] CpuSet operator|(const CpuSet& o) const;
  [[nodiscard]] CpuSet operator&(const CpuSet& o) const;
  [[nodiscard]] CpuSet operator-(const CpuSet& o) const;

  bool operator==(const CpuSet& o) const;

 private:
  // One bit per cpu, in 64-bit words.
  std::vector<std::uint64_t> bits_;
  void ensure(std::size_t cpu);
  void trim();
};

}  // namespace omv::topo
