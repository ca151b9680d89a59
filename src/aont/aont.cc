#include "aont/aont.h"

#include <algorithm>

#include "crypto/aes.h"

namespace reed::aont {

namespace {
// The "publicly known block S": a fixed, public CTR IV. Any fixed value
// works; what matters is that all parties share it.
constexpr std::uint8_t kPublicIv[16] = {'R', 'E', 'E', 'D', '-', 'A', 'O',
                                        'N', 'T', '-', 'M', 'A', 'S', 'K',
                                        '0', '1'};
}  // namespace

Bytes Mask(ByteSpan key, std::size_t length) {
  Bytes out(length);
  crypto::AesCtr ctr(key, ByteSpan(kPublicIv, sizeof(kPublicIv)));
  ctr.Keystream(out);
  return out;
}

Bytes SelfXor(ByteSpan data) {
  Bytes acc(kAontTailSize, 0);
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t n = std::min(kAontTailSize, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) acc[i] ^= data[off + i];
    off += n;
  }
  return acc;
}

}  // namespace reed::aont
