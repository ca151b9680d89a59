// Building blocks of the all-or-nothing transform (Rivest, FSE'97) and its
// convergent variant CAONT (CDStore, USENIX ATC'15) that REED's encryption
// schemes are assembled from (paper §IV-B; aont/reed_cipher.h).
//
// AONT: package = (C, t) with C = M ⊕ G(K) and t = H(C) ⊕ K, so recovering
// any part of M requires the *entire* package. CAONT takes K = H(M), making
// the package deterministic (dedupable) and self-verifying.
#pragma once

#include "util/bytes.h"

namespace reed::aont {

inline constexpr std::size_t kAontTailSize = 32;  // |t| = |H(·)| = |K|

// Pseudo-random mask G(K) = E(K, S): the AES-256-CTR keystream over the
// publicly known constant block S (a fixed IV), truncated to `length`.
[[nodiscard]] Bytes Mask(ByteSpan key, std::size_t length);

// Self-XOR tail used by REED's enhanced scheme (after Peterson et al.'s
// secure-deletion construction): XOR of all kAontTailSize-sized pieces of
// `data` (last piece zero-padded) — cheaper than a second hash pass.
[[nodiscard]] Bytes SelfXor(ByteSpan data);

}  // namespace reed::aont
