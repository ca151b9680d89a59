#include "chunk/chunker.h"

namespace reed::chunk {

FixedSizeChunker::FixedSizeChunker(std::size_t chunk_size)
    : chunk_size_(chunk_size) {
  if (chunk_size_ == 0) throw Error("FixedSizeChunker: zero chunk size");
}

std::vector<ChunkRef> FixedSizeChunker::Split(ByteSpan data) {
  std::vector<ChunkRef> out;
  out.reserve(data.size() / chunk_size_ + 1);
  for (std::size_t off = 0; off < data.size(); off += chunk_size_) {
    out.push_back({off, std::min(chunk_size_, data.size() - off)});
  }
  return out;
}

RabinChunker::RabinChunker(Options options)
    : options_(options),
      mask_(options.average_size - 1),
      window_(options.window_size) {
  if (options_.average_size == 0 ||
      (options_.average_size & (options_.average_size - 1)) != 0) {
    throw Error("RabinChunker: average size must be a power of two");
  }
  if (options_.min_size == 0 || options_.min_size > options_.max_size) {
    throw Error("RabinChunker: invalid min/max sizes");
  }
}

std::vector<ChunkRef> RabinChunker::Split(ByteSpan data) {
  std::vector<ChunkRef> out;
  if (data.empty()) return out;
  out.reserve(data.size() / options_.average_size + 1);

  // The window restarts at every cut, so each chunk's boundaries depend only
  // on its own content (keeps boundaries stable across chunk-local edits).
  // A fingerprint depends only on the last `w` bytes (a restarted window
  // holds zeros, and a zero byte leaving changes nothing), and none is
  // tested before min_size bytes: so sliding starts min_size − w bytes in,
  // and the byte leaving the window is read back from `data`.
  const std::size_t w = window_.window_size();
  const std::size_t skip =
      options_.min_size > w ? options_.min_size - w : 0;
  const std::uint8_t* bytes = data.data();
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t limit =
        std::min(data.size(), start + options_.max_size);
    const std::size_t first = start + skip;        // first byte slid in
    const std::size_t check = start + options_.min_size - 1;  // first test
    std::size_t cut = limit;  // max_size cut, or the tail of the input
    std::uint64_t fp = 0;
    // While the window fills (from `first`) nothing leaves it.
    const std::size_t fill_end = std::min(limit, first + w);
    for (std::size_t i = first; i < fill_end; ++i) {
      fp = window_.Roll(fp, bytes[i], 0);
      if (i >= check && (fp & mask_) == mask_) {
        cut = i + 1;
        break;
      }
    }
    if (cut == limit && first + w < limit) {
      for (std::size_t i = fill_end; i < limit; ++i) {
        fp = window_.Roll(fp, bytes[i], bytes[i - w]);
        if (i >= check && (fp & mask_) == mask_) {
          cut = i + 1;
          break;
        }
      }
    }
    out.push_back({start, cut - start});
    start = cut;
  }
  return out;
}

RabinChunker::Options PaperChunking(std::size_t average_size) {
  RabinChunker::Options opts;
  opts.min_size = 2 * 1024;
  opts.max_size = 16 * 1024;
  opts.average_size = average_size;
  // Small averages need min below the default 2 KB to have any effect.
  if (average_size < opts.min_size * 2) {
    opts.min_size = average_size / 2;
  }
  return opts;
}

}  // namespace reed::chunk
