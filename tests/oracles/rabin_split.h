// Differential oracle: the Rabin chunking loop that RabinChunker::Split ran
// before it skipped to min_size − window after each cut and read the
// outgoing byte from the input. It slides every byte of every chunk through
// a RabinWindow's ring buffer. Kept only in tests/, where Split must match
// its boundaries byte for byte.
#pragma once

#include <vector>

#include "chunk/chunker.h"

namespace reed::chunk::oracle {

inline std::vector<ChunkRef> SlideEveryByteSplit(
    const RabinChunker::Options& options, ByteSpan data) {
  std::vector<ChunkRef> out;
  RabinWindow window(options.window_size);
  const std::uint64_t mask = options.average_size - 1;
  std::size_t start = 0;
  std::size_t len = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::uint64_t fp = window.Slide(data[i]);
    ++len;
    bool at_boundary = len >= options.min_size && (fp & mask) == mask;
    if (at_boundary || len == options.max_size) {
      out.push_back({start, len});
      start = i + 1;
      len = 0;
      window.Reset();
    }
  }
  if (len > 0) out.push_back({start, len});
  return out;
}

}  // namespace reed::chunk::oracle
