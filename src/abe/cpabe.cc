#include "abe/cpabe.h"

#include <algorithm>
#include <array>

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

namespace {

// LRU charge per cached comb: the table plus a little for the name, the
// shared_ptr control block and the LRU nodes.
std::size_t AttributeEntryBytes(const TypeAPairing* pairing) {
  if (pairing == nullptr) return 1;  // the constructor throws right after
  return pairing::G1FixedBase::TableBytes(pairing->group_order()) + 256;
}

}  // namespace

CpAbe::CpAbe(std::shared_ptr<const TypeAPairing> pairing)
    : pairing_(std::move(pairing)),
      attr_cache_entries_(kAttrCacheBytes /
                          AttributeEntryBytes(pairing_.get())),
      attr_cache_(kAttrCacheBytes, AttributeEntryBytes(pairing_.get()),
                  LockRank::kAbeAttrCache),
      attr_points_(kAttrPointCacheBytes, 256, LockRank::kAbeAttrCache) {
  if (!pairing_) throw Error("CpAbe: null pairing");
}

G1Point CpAbe::AttributePoint(const std::string& attribute) const {
  if (auto hit = attr_points_.Get(attribute)) return *hit;
  G1Point point = pairing_->HashToGroup(ToBytes("reed/abe-attr:" + attribute));
  attr_points_.Put(attribute, point);
  return point;
}

std::shared_ptr<const pairing::G1FixedBase> CpAbe::AttributeTable(
    const std::string& attribute, bool keep) const {
  if (auto hit = attr_cache_.Get(attribute)) return *hit;
  const G1Point point = AttributePoint(attribute);
  const BigInt& r = pairing_->group_order();
  if (!keep) {
    return std::make_shared<const pairing::G1FixedBase>(
        pairing::G1FixedBase::SingleRow(point, r));
  }
  auto table = std::make_shared<const pairing::G1FixedBase>(point, r);
  attr_cache_.Put(attribute, table);
  return table;
}

std::shared_ptr<const PublicKeyTables> CpAbe::BuildTables(
    const PublicKey& pk) const {
  const BigInt& r = pairing_->group_order();
  return std::make_shared<const PublicKeyTables>(PublicKeyTables{
      pairing::G1FixedBase(pk.g, r), pairing::G1FixedBase(pk.h, r),
      pairing::GtFixedBase(pk.e_gg_alpha, r)});
}

std::shared_ptr<const PublicKeyTables> CpAbe::Tables(
    const PublicKey& pk) const {
  const PublicKeyTables* t = pk.tables.get();
  if (t != nullptr && t->g.base() == pk.g && t->h.base() == pk.h &&
      t->e_gg_alpha.base() == pk.e_gg_alpha) {
    return pk.tables;
  }
  return BuildTables(pk);
}

void CpAbe::PrepareKey(PrivateKey& sk) const {
  auto prepare = [this](const G1Point& p) {
    return std::make_shared<const pairing::G1Prepared>(pairing_->Prepare(p));
  };
  sk.d_lines = prepare(sk.d);
  for (auto& [attr, comp] : sk.components) {
    comp.d_lines = prepare(comp.d);
    comp.neg_d_prime_lines = prepare(comp.d_prime.Neg());
  }
}

namespace {

// `lines` when they were prepared from `point`, else a fresh preparation
// held in `scratch`.
const pairing::G1Prepared& LinesFor(
    const TypeAPairing& e, const std::shared_ptr<const pairing::G1Prepared>& lines,
    const G1Point& point, std::optional<pairing::G1Prepared>& scratch) {
  if (lines != nullptr && lines->point() == point) return *lines;
  return scratch.emplace(e.Prepare(point));
}

}  // namespace

CpAbe::SetupResult CpAbe::Setup(crypto::Rng& rng) const {
  const G1Point& g = pairing_->generator();
  const BigInt& r = pairing_->group_order();
  BigInt alpha = pairing_->RandomScalar(rng);
  BigInt beta = pairing_->RandomScalar(rng);

  pairing::G1FixedBase g_table(g, r);
  SetupResult out;
  out.pk.g = g;
  out.pk.h = g_table.Mul(beta);
  G1Point g_alpha = g_table.Mul(alpha);
  out.pk.e_gg_alpha = pairing_->Pair(g, g_alpha);
  out.pk.tables = std::make_shared<const PublicKeyTables>(PublicKeyTables{
      std::move(g_table), pairing::G1FixedBase(out.pk.h, r),
      pairing::GtFixedBase(out.pk.e_gg_alpha, r)});
  out.mk.beta = beta;
  out.mk.g_alpha = g_alpha;
  return out;
}

PrivateKey CpAbe::KeyGen(const PublicKey& pk, const MasterKey& mk,
                         const std::vector<std::string>& attributes,
                         crypto::Rng& rng) const {
  if (attributes.empty()) throw Error("CpAbe::KeyGen: empty attribute set");
  const BigInt& r = pairing_->group_order();
  const std::shared_ptr<const PublicKeyTables> tables = Tables(pk);
  BigInt t = pairing_->RandomScalar(rng);
  BigInt beta_inv = BigInt::InverseMod(mk.beta, r);

  PrivateKey sk;
  G1Point g_t = tables->g.Mul(t);
  sk.d = mk.g_alpha.Add(g_t).ScalarMul(beta_inv);
  for (const auto& attr : attributes) {
    BigInt tj = pairing_->RandomScalar(rng);
    AttributeKey comp;
    comp.d = g_t.Add(AttributeTable(attr)->Mul(tj));
    comp.d_prime = tables->g.Mul(tj);
    if (!sk.components.emplace(attr, std::move(comp)).second) {
      throw Error("CpAbe::KeyGen: duplicate attribute");
    }
  }
  PrepareKey(sk);
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
  const std::shared_ptr<const PublicKeyTables> tables = Tables(pk);
  BigInt s = pairing_->RandomScalar(rng);
  std::vector<BigInt> shares;
  shares.reserve(policy.LeafCount());
  ShareSecret(policy, s, rng, shares);

  Ciphertext ct;
  ct.policy = policy;
  ct.c_tilde = message * tables->e_gg_alpha.Pow(s);

  // Every point of the ciphertext in Jacobian form, then one batched
  // inversion for all of them: C = h^s, then per leaf C_y, C'_y.
  std::vector<pairing::JacobianPoint> points;
  points.reserve(1 + 2 * shares.size());
  points.push_back(tables->h.MulJacobian(s));
  // An OR gate (the only policy REED builds) hands every leaf the secret
  // itself, so C_y = g^s is computed once. Attribute combs are kept only
  // when the policy's leaves fit in the cache.
  const bool keep_tables = shares.size() <= attr_cache_entries_;
  const bool one_share = std::all_of(
      shares.begin(), shares.end(), [&](const BigInt& v) { return v == s; });
  std::optional<pairing::JacobianPoint> g_s;
  if (one_share) g_s = tables->g.MulJacobian(s);

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
      points.push_back(one_share ? *g_s : tables->g.MulJacobian(share));
      points.push_back(AttributeTable(f.node->attribute(), keep_tables)
                           ->MulJacobian(share));
      frames.pop_back();
      continue;
    }
    if (f.child < f.node->children().size()) {
      frames.push_back({&f.node->children()[f.child++]});
    } else {
      frames.pop_back();
    }
  }

  std::vector<G1Point> affine = pairing::BatchToAffine(points);
  ct.c = std::move(affine[0]);
  ct.leaves.reserve(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    ct.leaves.push_back({std::move(affine[1 + 2 * i]),
                         std::move(affine[2 + 2 * i])});
  }
  return ct;
}

bool CpAbe::PlanNode(const PolicyNode& node, const PrivateKey& sk,
                     const std::vector<std::string>& attributes,
                     std::size_t first_leaf, const BigInt& exponent,
                     std::vector<LeafUse>& uses) const {
  if (node.IsLeaf()) {
    auto it = sk.components.find(node.attribute());
    if (it == sk.components.end()) return false;
    uses.push_back({first_leaf, &it->second, exponent});
    return true;
  }
  // The first `threshold` satisfied children, with x = child index + 1 and
  // the DFS index of each child's first leaf.
  std::vector<std::pair<std::uint64_t, std::size_t>> chosen;
  std::size_t child_first = first_leaf;
  for (std::size_t i = 0; i < node.children().size(); ++i) {
    const PolicyNode& child = node.children()[i];
    if (chosen.size() < node.threshold() && child.IsSatisfiedBy(attributes)) {
      chosen.emplace_back(i + 1, child_first);
    }
    child_first += child.LeafCount();
  }
  if (chosen.size() < node.threshold()) return false;

  const BigInt& r = pairing_->group_order();
  for (const auto& [xi, leaf] : chosen) {
    // Δ_i(0) = Π_{j≠i} (0 - x_j) / (x_i - x_j) mod r
    BigInt num(1), den(1);
    for (const auto& [xj, unused] : chosen) {
      if (xj == xi) continue;
      num = BigInt::MulMod(num, r - BigInt(xj), r);  // (0 - x_j) mod r
      BigInt diff = (xi > xj) ? BigInt(xi - xj) : r - BigInt(xj - xi);
      den = BigInt::MulMod(den, diff, r);
    }
    BigInt lambda = BigInt::MulMod(num, BigInt::InverseMod(den, r), r);
    BigInt child_exponent =
        lambda.IsOne() ? exponent : BigInt::MulMod(exponent, lambda, r);
    if (!PlanNode(node.children()[xi - 1], sk, attributes, leaf,
                  child_exponent, uses)) {
      return false;  // unreachable: the child was checked as satisfied
    }
  }
  return true;
}

std::optional<Fp2> CpAbe::DecryptElement(const PrivateKey& sk,
                                         const Ciphertext& ct) const {
  std::vector<LeafUse> uses;
  if (!PlanNode(ct.policy, sk, sk.Attributes(), 0, BigInt(1), uses)) {
    return std::nullopt;
  }
  // M = C̃ · Π_leaves (e(D_j, C_y) / e(D'_j, C'_y))^exponent / e(C, D), on
  // raw loop values with one final exponentiation for the whole product.
  // Each quotient is the product with the loop for (−D'_j, C'_y), and
  // 1/e(C, D) = e(−C, D) = e(D, −C): the pairing is symmetric, so every
  // loop has a key point first and runs on its prepared lines (the raw
  // value for (D, −C) differs from the one for (−C, D); their final
  // exponentiations do not). Loops entering with exponent 1 (every leaf of
  // an OR policy) share one loop, and so its squarings.
  std::vector<std::optional<pairing::G1Prepared>> scratch(2 * uses.size() + 1);
  std::vector<TypeAPairing::LoopTerm> unit_terms;
  Fp2 powered = Fp2::One(pairing_->field());
  for (std::size_t k = 0; k < uses.size(); ++k) {
    const AttributeKey& key = *uses[k].key;
    const CiphertextLeaf& leaf = ct.leaves.at(uses[k].leaf);
    const std::array<TypeAPairing::LoopTerm, 2> quotient = {{
        {&LinesFor(*pairing_, key.d_lines, key.d, scratch[2 * k]), &leaf.c},
        {&LinesFor(*pairing_, key.neg_d_prime_lines, key.d_prime.Neg(),
                   scratch[2 * k + 1]),
         &leaf.c_prime},
    }};
    if (uses[k].exponent.IsOne()) {
      unit_terms.insert(unit_terms.end(), quotient.begin(), quotient.end());
    } else {
      powered = powered *
                pairing_->MillerLoop(quotient).Pow(uses[k].exponent);
    }
  }
  const G1Point neg_c = ct.c.Neg();
  unit_terms.push_back(
      {&LinesFor(*pairing_, sk.d_lines, sk.d, scratch.back()), &neg_c});
  return ct.c_tilde * pairing_->FinalExponentiation(
                          powered * pairing_->MillerLoop(unit_terms));
}

Secret CpAbe::EncryptBytes(const PublicKey& pk, const PolicyNode& policy,
                           const Secret& plaintext, crypto::Rng& rng) const {
  // Random GT element (e(g,g)^α)^z; its hash keys the symmetric layer.
  // e(g,g)^α generates GT (α ≠ 0 mod the prime r), so for uniform z this is
  // uniform over the same set as e(g,g)^z, without computing a pairing.
  BigInt z = pairing_->RandomScalar(rng);
  Fp2 m = Tables(pk)->e_gg_alpha.Pow(z);
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
  PrepareKey(sk);
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
  pk.tables = BuildTables(pk);
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
