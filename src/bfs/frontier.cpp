#include "bfs/frontier.hpp"

#include <algorithm>
#include <bit>

#include "support/assert.hpp"

namespace mpx {

void Frontier::reset(vertex_t n, std::size_t rows) {
  MPX_EXPECTS(rows >= 1);
  n_ = n;
  rows_ = rows;
  const std::size_t words =
      (static_cast<std::size_t>(n) + kWordBits - 1) / kWordBits;
  num_blocks_ = (words + kBlockWords - 1) / kBlockWords;
  touched_words_ = (num_blocks_ + kWordBits - 1) / kWordBits;
  bits_.assign(words, 0);
  counts_.assign(rows * num_blocks_, 0);
  touched_.assign(rows * touched_words_, 0);
  block_size_.assign(num_blocks_, 0);
  block_start_.assign(num_blocks_, 0);
  part_size_.assign(rows, 0);
  part_start_.assign(rows, 0);
  size_ = 0;
}

void Frontier::mark_word(std::size_t w, std::uint64_t bits, std::size_t row) {
  MPX_EXPECTS(w < bits_.size() && row < rows_);
  const std::uint64_t fresh = bits & ~bits_[w];
  if (fresh == 0) return;
  bits_[w] |= fresh;
  const std::size_t b = w / kBlockWords;
  std::uint32_t& count = row_counts(row)[b];
  if (count == 0) {
    row_touched(row)[b / kWordBits] |= std::uint64_t{1} << (b % kWordBits);
  }
  count += static_cast<std::uint32_t>(std::popcount(fresh));
}

template <typename F>
void Frontier::for_each_touched(F&& f) {
  const std::uint64_t* const touched = row_touched(0);
  for (std::size_t s = 0; s < touched_words_; ++s) {
    std::uint64_t word = touched[s];
    while (word != 0) {
      f(s * kWordBits + static_cast<std::size_t>(std::countr_zero(word)));
      word &= word - 1;
    }
  }
}

void Frontier::pack_count(std::size_t part, std::size_t parts) {
  MPX_EXPECTS(part < parts && parts <= rows_);
  std::size_t total = 0;
  if (parts == 1) {
    std::uint32_t* const counts = row_counts(0);
    for_each_touched([&](std::size_t b) {
      block_size_[b] = counts[b];
      counts[b] = 0;
      total += block_size_[b];
    });
  } else {
    // Block b's column of counters is read and zeroed by the one part
    // whose range holds b.
    const auto [lo, hi] = block_range(part, parts);
    for (std::size_t b = lo; b < hi; ++b) {
      std::uint32_t size = 0;
      for (std::size_t r = 0; r < parts; ++r) {
        std::uint32_t& count = row_counts(r)[b];
        size += count;
        count = 0;
      }
      block_size_[b] = size;
      total += size;
    }
  }
  part_size_[part] = total;
}

void Frontier::pack_place(std::size_t part, std::size_t parts) {
  std::size_t at = 0;
  for (std::size_t p = 0; p < part; ++p) at += part_size_[p];
  part_start_[part] = at;
  if (part == 0) {
    // Part 0 is the thread that started the traversal, so the member
    // list only ever grows from that thread's heap.
    size_ = 0;
    for (std::size_t p = 0; p < parts; ++p) size_ += part_size_[p];
    if (members_.size() < size_) members_.resize(size_);
  }
  if (parts == 1) {
    for_each_touched([&](std::size_t b) {
      block_start_[b] = at;
      at += block_size_[b];
    });
  } else {
    const auto [lo, hi] = block_range(part, parts);
    for (std::size_t b = lo; b < hi; ++b) {
      block_start_[b] = at;
      at += block_size_[b];
    }
    // Only a team of one reads the touched bits; larger teams just reset
    // the row each part marked.
    std::fill_n(row_touched(part), touched_words_, std::uint64_t{0});
  }
}

void Frontier::extract_block(std::size_t b, std::size_t at) {
  const std::size_t lo = b * kBlockWords;
  const std::size_t hi = std::min(lo + kBlockWords, bits_.size());
  for (std::size_t w = lo; w < hi; ++w) {
    std::uint64_t bits = bits_[w];
    if (bits == 0) continue;
    bits_[w] = 0;
    while (bits != 0) {
      members_[at++] = static_cast<vertex_t>(
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

std::span<const vertex_t> Frontier::pack_extract(std::size_t part,
                                                 std::size_t parts) {
  if (parts == 1) {
    for_each_touched(
        [&](std::size_t b) { extract_block(b, block_start_[b]); });
    std::fill_n(row_touched(0), touched_words_, std::uint64_t{0});
  } else {
    const auto [lo, hi] = block_range(part, parts);
    for (std::size_t b = lo; b < hi; ++b) {
      if (block_size_[b] != 0) extract_block(b, block_start_[b]);
    }
  }
  return {members_.data() + part_start_[part], part_size_[part]};
}

}  // namespace mpx
