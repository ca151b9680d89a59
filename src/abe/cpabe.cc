#include "abe/cpabe.h"

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace reed::abe {

namespace {
constexpr std::size_t kIvSize = 16;
constexpr std::size_t kMacSize = 32;
}  // namespace

std::vector<std::string> PrivateKey::Attributes() const {
  std::vector<std::string> out;
  out.reserve(components.size());
  for (const auto& [attr, unused] : components) out.push_back(attr);
  return out;
}

CpAbe::CpAbe(std::shared_ptr<const TypeAPairing> pairing)
    : pairing_(std::move(pairing)) {
  if (!pairing_) throw Error("CpAbe: null pairing");
}

G1Point CpAbe::AttributePoint(const std::string& attribute) const {
  {
    MutexLock lock(attr_cache_mu_);
    auto it = attr_cache_.find(attribute);
    if (it != attr_cache_.end()) return it->second;
  }
  G1Point pt = pairing_->HashToGroup(ToBytes("reed/abe-attr:" + attribute));
  MutexLock lock(attr_cache_mu_);
  attr_cache_.emplace(attribute, pt);
  return pt;
}

CpAbe::SetupResult CpAbe::Setup(crypto::Rng& rng) const {
  const G1Point& g = pairing_->generator();
  BigInt alpha = pairing_->RandomScalar(rng);
  BigInt beta = pairing_->RandomScalar(rng);

  SetupResult out;
  out.pk.g = g;
  out.pk.h = g.ScalarMul(beta);
  G1Point g_alpha = g.ScalarMul(alpha);
  out.pk.e_gg_alpha = pairing_->Pair(g, g_alpha);
  out.mk.beta = beta;
  out.mk.g_alpha = g_alpha;
  return out;
}

PrivateKey CpAbe::KeyGen(const PublicKey& pk, const MasterKey& mk,
                         const std::vector<std::string>& attributes,
                         crypto::Rng& rng) const {
  if (attributes.empty()) throw Error("CpAbe::KeyGen: empty attribute set");
  const BigInt& r = pairing_->group_order();
  BigInt t = pairing_->RandomScalar(rng);
  BigInt beta_inv = BigInt::InverseMod(mk.beta, r);

  PrivateKey sk;
  sk.d = mk.g_alpha.Add(pk.g.ScalarMul(t)).ScalarMul(beta_inv);
  G1Point g_t = pk.g.ScalarMul(t);
  for (const auto& attr : attributes) {
    BigInt tj = pairing_->RandomScalar(rng);
    AttributeKey comp;
    comp.d = g_t.Add(AttributePoint(attr).ScalarMul(tj));
    comp.d_prime = pk.g.ScalarMul(tj);
    if (!sk.components.emplace(attr, std::move(comp)).second) {
      throw Error("CpAbe::KeyGen: duplicate attribute");
    }
  }
  return sk;
}

void CpAbe::ShareSecret(const PolicyNode& node, const BigInt& value,
                        crypto::Rng& rng,
                        std::vector<BigInt>& leaf_shares) const {
  if (node.IsLeaf()) {
    leaf_shares.push_back(value);
    return;
  }
  const BigInt& r = pairing_->group_order();
  // Random polynomial q of degree k-1 with q(0) = value; child i gets q(i).
  std::vector<BigInt> coeffs;
  coeffs.push_back(value % r);
  for (std::size_t i = 1; i < node.threshold(); ++i) {
    coeffs.push_back(BigInt::Random(rng, r));
  }
  for (std::size_t child = 0; child < node.children().size(); ++child) {
    BigInt x(static_cast<std::uint64_t>(child + 1));
    // Horner evaluation mod r.
    BigInt y = coeffs.back();
    for (std::size_t c = coeffs.size() - 1; c-- > 0;) {
      y = BigInt::AddMod(BigInt::MulMod(y, x, r), coeffs[c], r);
    }
    ShareSecret(node.children()[child], y, rng, leaf_shares);
  }
}

Ciphertext CpAbe::EncryptElement(const PublicKey& pk, const Fp2& message,
                                 const PolicyNode& policy,
                                 crypto::Rng& rng) const {
  BigInt s = pairing_->RandomScalar(rng);
  std::vector<BigInt> shares;
  shares.reserve(policy.LeafCount());
  ShareSecret(policy, s, rng, shares);

  Ciphertext ct;
  ct.policy = policy;
  ct.c_tilde = message * pk.e_gg_alpha.Pow(s);
  ct.c = pk.h.ScalarMul(s);
  ct.leaves.reserve(shares.size());

  // Walk leaves in the same DFS order ShareSecret used.
  std::size_t next = 0;
  struct Frame {
    const PolicyNode* node;
    std::size_t child = 0;
  };
  std::vector<Frame> frames{{&policy}};
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.node->IsLeaf()) {
      const BigInt& share = shares[next++];
      CiphertextLeaf leaf;
      leaf.c = pk.g.ScalarMul(share);
      leaf.c_prime = AttributePoint(f.node->attribute()).ScalarMul(share);
      ct.leaves.push_back(std::move(leaf));
      frames.pop_back();
      continue;
    }
    if (f.child < f.node->children().size()) {
      frames.push_back({&f.node->children()[f.child++]});
    } else {
      frames.pop_back();
    }
  }
  return ct;
}

std::optional<Fp2> CpAbe::DecryptNode(const PolicyNode& node,
                                      const PrivateKey& sk,
                                      const Ciphertext& ct,
                                      std::size_t& leaf_index) const {
  const BigInt& r = pairing_->group_order();
  if (node.IsLeaf()) {
    std::size_t idx = leaf_index++;
    auto it = sk.components.find(node.attribute());
    if (it == sk.components.end()) return std::nullopt;
    const CiphertextLeaf& leaf = ct.leaves.at(idx);
    // e(D_j, C_y) / e(D'_j, C'_y) = e(g,g)^{t·λ_y}, as a raw loop value:
    // the quotient becomes a product with the loop for (−D'_j, C'_y).
    return pairing_->MillerLoop(it->second.d, leaf.c) *
           pairing_->MillerLoop(it->second.d_prime.Neg(), leaf.c_prime);
  }

  // Evaluate every child (leaf_index bookkeeping requires full traversal),
  // then combine any `threshold` successes with Lagrange coefficients.
  std::vector<std::pair<std::uint64_t, Fp2>> successes;
  for (std::size_t i = 0; i < node.children().size(); ++i) {
    std::optional<Fp2> child = DecryptNode(node.children()[i], sk, ct, leaf_index);
    if (child.has_value() && successes.size() < node.threshold()) {
      successes.emplace_back(i + 1, std::move(*child));
    }
  }
  if (successes.size() < node.threshold()) return std::nullopt;

  Fp2 result = Fp2::One(pairing_->field());
  for (const auto& [xi, fi] : successes) {
    // Δ_i(0) = Π_{j≠i} (0 - x_j) / (x_i - x_j) mod r
    BigInt num(1), den(1);
    for (const auto& [xj, unused] : successes) {
      if (xj == xi) continue;
      num = BigInt::MulMod(num, r - BigInt(xj), r);  // (0 - x_j) mod r
      BigInt diff = (xi > xj) ? BigInt(xi - xj) : r - BigInt(xj - xi);
      den = BigInt::MulMod(den, diff, r);
    }
    BigInt lambda = BigInt::MulMod(num, BigInt::InverseMod(den, r), r);
    result = result * (lambda.IsOne() ? fi : fi.Pow(lambda));
  }
  return result;
}

std::optional<Fp2> CpAbe::DecryptElement(const PrivateKey& sk,
                                         const Ciphertext& ct) const {
  std::size_t leaf_index = 0;
  std::optional<Fp2> a = DecryptNode(ct.policy, sk, ct, leaf_index);
  if (!a.has_value()) return std::nullopt;
  // M = C̃ · A / e(C, D), with one final exponentiation for the whole
  // product of raw loop values.
  return ct.c_tilde * pairing_->FinalExponentiation(
                          *a * pairing_->MillerLoop(ct.c.Neg(), sk.d));
}

Secret CpAbe::EncryptBytes(const PublicKey& pk, const PolicyNode& policy,
                           const Secret& plaintext, crypto::Rng& rng) const {
  // Random GT element (e(g,g)^α)^z; its hash keys the symmetric layer.
  // e(g,g)^α generates GT (α ≠ 0 mod the prime r), so for uniform z this is
  // uniform over the same set as e(g,g)^z, without computing a pairing.
  BigInt z = pairing_->RandomScalar(rng);
  Fp2 m = pk.e_gg_alpha.Pow(z);
  Ciphertext ct = EncryptElement(pk, m, policy, rng);

  Bytes kek = crypto::Sha256::HashToBytes(m.ToBytes());
  ScopedWipe wipe_kek(kek);
  Bytes enc_key = crypto::DeriveKey32(kek, "reed/abe-enc");
  ScopedWipe wipe_enc(enc_key);
  Bytes mac_key = crypto::DeriveKey32(kek, "reed/abe-mac");
  ScopedWipe wipe_mac(mac_key);

  Bytes iv = rng.Generate(kIvSize);
  Bytes payload =
      crypto::AesCtrEncrypt(enc_key, iv, plaintext.ExposeForCrypto());

  Bytes out;
  Bytes ct_bytes = SerializeCiphertext(ct);
  AppendU32(out, static_cast<std::uint32_t>(ct_bytes.size()));
  Append(out, ct_bytes);
  Append(out, iv);
  Append(out, payload);
  Bytes mac_input = Concat(iv, payload);
  Append(out, crypto::HmacSha256ToBytes(mac_key, mac_input));
  return Secret(std::move(out));
}

Secret CpAbe::DecryptBytes(const PrivateKey& sk, ByteSpan blob) const {
  if (blob.size() < 4) throw Error("CpAbe::DecryptBytes: truncated");
  std::uint32_t ct_len = GetU32(blob);
  if (blob.size() < 4 + ct_len + kIvSize + kMacSize) {
    throw Error("CpAbe::DecryptBytes: truncated");
  }
  Ciphertext ct = DeserializeCiphertext(blob.subspan(4, ct_len));
  ByteSpan iv = blob.subspan(4 + ct_len, kIvSize);
  ByteSpan payload = blob.subspan(4 + ct_len + kIvSize,
                                  blob.size() - 4 - ct_len - kIvSize - kMacSize);
  ByteSpan mac = blob.subspan(blob.size() - kMacSize);

  std::optional<Fp2> m = DecryptElement(sk, ct);
  if (!m.has_value()) {
    throw Error("CpAbe::DecryptBytes: attributes do not satisfy policy");
  }
  Bytes kek = crypto::Sha256::HashToBytes(m->ToBytes());
  ScopedWipe wipe_kek(kek);
  Bytes enc_key = crypto::DeriveKey32(kek, "reed/abe-enc");
  ScopedWipe wipe_enc(enc_key);
  Bytes mac_key = crypto::DeriveKey32(kek, "reed/abe-mac");
  ScopedWipe wipe_mac(mac_key);

  Bytes mac_input = Concat(iv, payload);
  Bytes expect = crypto::HmacSha256ToBytes(mac_key, mac_input);
  if (!SecureCompare(expect, mac)) {
    throw Error("CpAbe::DecryptBytes: MAC verification failed");
  }
  return Secret(crypto::AesCtrEncrypt(enc_key, iv, payload));
}

// --------------------------- serialization ---------------------------

Bytes CpAbe::SerializeCiphertext(const Ciphertext& ct) const {
  const pairing::FpField* f = pairing_->field();
  Bytes out;
  Bytes policy;
  ct.policy.SerializeTo(policy);
  AppendU32(out, static_cast<std::uint32_t>(policy.size()));
  Append(out, policy);
  Append(out, ct.c_tilde.ToBytes());
  Append(out, ct.c.ToBytes(f));
  AppendU32(out, static_cast<std::uint32_t>(ct.leaves.size()));
  for (const auto& leaf : ct.leaves) {
    Append(out, leaf.c.ToBytes(f));
    Append(out, leaf.c_prime.ToBytes(f));
  }
  return out;
}

Ciphertext CpAbe::DeserializeCiphertext(ByteSpan blob) const {
  const pairing::FpField* f = pairing_->field();
  std::size_t fp2 = 2 * f->element_bytes();
  std::size_t pt = G1Point::SerializedSize(f);
  std::size_t off = 0;
  auto need = [&](std::size_t n) {
    if (off + n > blob.size()) throw Error("Ciphertext: truncated");
  };
  need(4);
  std::uint32_t policy_len = GetU32(blob.subspan(off));
  off += 4;
  need(policy_len);
  Ciphertext ct;
  ct.policy = PolicyNode::Deserialize(blob.subspan(off, policy_len));
  off += policy_len;
  need(fp2);
  ct.c_tilde = Fp2::FromBytes(f, blob.subspan(off, fp2));
  off += fp2;
  need(pt);
  ct.c = G1Point::FromBytes(f, blob.subspan(off, pt));
  off += pt;
  need(4);
  std::uint32_t nleaves = GetU32(blob.subspan(off));
  off += 4;
  if (nleaves != ct.policy.LeafCount()) {
    throw Error("Ciphertext: leaf count mismatch with policy");
  }
  ct.leaves.reserve(nleaves);
  for (std::uint32_t i = 0; i < nleaves; ++i) {
    need(2 * pt);
    CiphertextLeaf leaf;
    leaf.c = G1Point::FromBytes(f, blob.subspan(off, pt));
    leaf.c_prime = G1Point::FromBytes(f, blob.subspan(off + pt, pt));
    off += 2 * pt;
    ct.leaves.push_back(std::move(leaf));
  }
  if (off != blob.size()) throw Error("Ciphertext: trailing bytes");
  return ct;
}

Secret CpAbe::SerializePrivateKey(const PrivateKey& sk) const {
  const pairing::FpField* f = pairing_->field();
  Bytes out;
  Append(out, sk.d.ToBytes(f));
  AppendU32(out, static_cast<std::uint32_t>(sk.components.size()));
  for (const auto& [attr, comp] : sk.components) {
    AppendU32(out, static_cast<std::uint32_t>(attr.size()));
    Append(out, ToBytes(attr));
    Append(out, comp.d.ToBytes(f));
    Append(out, comp.d_prime.ToBytes(f));
  }
  return Secret(std::move(out));
}

PrivateKey CpAbe::DeserializePrivateKey(const Secret& secret_blob) const {
  ByteSpan blob = secret_blob.ExposeForCrypto();
  const pairing::FpField* f = pairing_->field();
  std::size_t pt = G1Point::SerializedSize(f);
  std::size_t off = 0;
  auto need = [&](std::size_t n) {
    if (off + n > blob.size()) throw Error("PrivateKey: truncated");
  };
  need(pt);
  PrivateKey sk;
  sk.d = G1Point::FromBytes(f, blob.subspan(off, pt));
  off += pt;
  need(4);
  std::uint32_t count = GetU32(blob.subspan(off));
  off += 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    need(4);
    std::uint32_t len = GetU32(blob.subspan(off));
    off += 4;
    need(len);
    std::string attr(reinterpret_cast<const char*>(blob.data() + off), len);
    off += len;
    need(2 * pt);
    AttributeKey comp;
    comp.d = G1Point::FromBytes(f, blob.subspan(off, pt));
    comp.d_prime = G1Point::FromBytes(f, blob.subspan(off + pt, pt));
    off += 2 * pt;
    sk.components.emplace(std::move(attr), std::move(comp));
  }
  if (off != blob.size()) throw Error("PrivateKey: trailing bytes");
  return sk;
}

Bytes CpAbe::SerializePublicKey(const PublicKey& pk) const {
  const pairing::FpField* f = pairing_->field();
  Bytes out;
  Append(out, pk.g.ToBytes(f));
  Append(out, pk.h.ToBytes(f));
  Append(out, pk.e_gg_alpha.ToBytes());
  return out;
}

PublicKey CpAbe::DeserializePublicKey(ByteSpan blob) const {
  const pairing::FpField* f = pairing_->field();
  std::size_t pt = G1Point::SerializedSize(f);
  std::size_t fp2 = 2 * f->element_bytes();
  if (blob.size() != 2 * pt + fp2) throw Error("PublicKey: bad length");
  PublicKey pk;
  pk.g = G1Point::FromBytes(f, blob.subspan(0, pt));
  pk.h = G1Point::FromBytes(f, blob.subspan(pt, pt));
  pk.e_gg_alpha = Fp2::FromBytes(f, blob.subspan(2 * pt));
  return pk;
}

Secret CpAbe::SerializeMasterKey(const MasterKey& mk) const {
  const pairing::FpField* f = pairing_->field();
  Bytes out;
  Bytes beta = mk.beta.ToBytes();
  ScopedWipe wipe_beta(beta);
  AppendU32(out, static_cast<std::uint32_t>(beta.size()));
  Append(out, beta);
  Append(out, mk.g_alpha.ToBytes(f));
  return Secret(std::move(out));
}

MasterKey CpAbe::DeserializeMasterKey(const Secret& secret_blob) const {
  ByteSpan blob = secret_blob.ExposeForCrypto();
  const pairing::FpField* f = pairing_->field();
  if (blob.size() < 4) throw Error("MasterKey: truncated");
  std::uint32_t beta_len = GetU32(blob);
  std::size_t pt = G1Point::SerializedSize(f);
  if (blob.size() != 4 + beta_len + pt) throw Error("MasterKey: bad length");
  MasterKey mk;
  mk.beta = BigInt::FromBytes(blob.subspan(4, beta_len));
  mk.g_alpha = G1Point::FromBytes(f, blob.subspan(4 + beta_len));
  return mk;
}

}  // namespace reed::abe
