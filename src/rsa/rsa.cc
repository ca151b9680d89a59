#include "rsa/rsa.h"

#include "bigint/prime.h"
#include "crypto/sha256.h"

namespace reed::rsa {

RsaKeyPair GenerateKeyPair(std::size_t bits, crypto::Rng& rng) {
  if (bits < 256 || bits % 2 != 0) {
    throw Error("GenerateKeyPair: modulus bits must be even and >= 256");
  }
  BigInt e(65537);
  for (;;) {
    BigInt p = bigint::GenerateRsaPrime(bits / 2, e, rng);
    BigInt q = bigint::GenerateRsaPrime(bits / 2, e, rng);
    if (p == q) continue;
    BigInt n = p * q;
    if (n.BitLength() != bits) continue;  // product fell short by one bit
    BigInt one(1);
    BigInt phi = (p - one) * (q - one);
    BigInt d = BigInt::InverseMod(e, phi);

    RsaKeyPair kp;
    kp.pub = {n, e};
    kp.priv.pub = kp.pub;
    kp.priv.d = d;
    kp.priv.p = p;
    kp.priv.q = q;
    kp.priv.dp = d % (p - one);
    kp.priv.dq = d % (q - one);
    kp.priv.qinv = BigInt::InverseMod(q, p);
    return kp;
  }
}

RsaPublicContext::RsaPublicContext(RsaPublicKey key)
    : key_(std::move(key)), mont_(key_.n) {}

BigInt RsaPublicContext::Apply(const BigInt& m) const {
  if (m >= key_.n) throw Error("PublicApply: message out of range");
  return mont_.Pow(m, key_.e);
}

RsaPrivateContext::RsaPrivateContext(const RsaPrivateKey& key)
    : pub_(key.pub),
      q_(key.q),
      dp_(key.dp),
      dq_(key.dq),
      qinv_(key.qinv),
      mont_p_(key.p),
      mont_q_(key.q) {}

BigInt RsaPrivateContext::Apply(const BigInt& m) const {
  if (m >= pub_.n) throw Error("PrivateApply: message out of range");
  const bigint::Montgomery& p = mont_p_;
  // m1 stays in p's Montgomery form; m2 comes out plain.
  BigInt m1 = p.PowMont(p.ToMont(m), dp_, p.modulus().BitLength());
  BigInt m2 = mont_q_.Pow(m, dq_, q_.BitLength());
  // Garner: h = qinv · (m1 − m2) mod p. MulMont of a Montgomery-form value
  // and a plain one yields the plain product.
  BigInt h = p.MulMont(qinv_, p.Sub(m1, p.ToMont(m2)));
  return m2 + h * q_;
}

BigInt PublicApply(const RsaPublicKey& key, const BigInt& m) {
  return RsaPublicContext(key).Apply(m);
}

BigInt PrivateApply(const RsaPrivateKey& key, const BigInt& m) {
  return RsaPrivateContext(key).Apply(m);
}

BigInt FullDomainHash(ByteSpan data, const BigInt& n) {
  std::size_t nbytes = (n.BitLength() + 7) / 8;
  Bytes expanded;
  expanded.reserve(nbytes + crypto::kSha256DigestSize);
  std::uint32_t counter = 0;
  while (expanded.size() < nbytes) {
    Bytes input = ToBytes("reed/fdh");
    AppendU32(input, counter++);
    Append(input, data);
    crypto::Sha256Digest block = crypto::Sha256::Hash(input);
    expanded.insert(expanded.end(), block.begin(), block.end());
  }
  expanded.resize(nbytes);
  return BigInt::FromBytes(expanded) % n;
}

Bytes SerializePublicKey(const RsaPublicKey& key) {
  Bytes out;
  Bytes n = key.n.ToBytes();
  Bytes e = key.e.ToBytes();
  AppendU32(out, static_cast<std::uint32_t>(n.size()));
  Append(out, n);
  AppendU32(out, static_cast<std::uint32_t>(e.size()));
  Append(out, e);
  return out;
}

RsaPublicKey DeserializePublicKey(ByteSpan blob) {
  if (blob.size() < 8) throw Error("RsaPublicKey: truncated");
  std::uint32_t n_len = GetU32(blob);
  if (blob.size() < 4 + n_len + 4) throw Error("RsaPublicKey: truncated");
  std::uint32_t e_len = GetU32(blob.subspan(4 + n_len));
  if (blob.size() != 8 + n_len + e_len) throw Error("RsaPublicKey: bad length");
  RsaPublicKey key;
  key.n = BigInt::FromBytes(blob.subspan(4, n_len));
  key.e = BigInt::FromBytes(blob.subspan(8 + n_len, e_len));
  return key;
}

namespace {
void AppendField(Bytes& out, const BigInt& v) {
  Bytes b = v.ToBytes();
  AppendU32(out, static_cast<std::uint32_t>(b.size()));
  Append(out, b);
}

BigInt ReadField(ByteSpan blob, std::size_t& off) {
  if (off + 4 > blob.size()) throw Error("RsaKeyPair: truncated");
  std::uint32_t len = GetU32(blob.subspan(off));
  off += 4;
  if (off + len > blob.size()) throw Error("RsaKeyPair: truncated");
  BigInt v = BigInt::FromBytes(blob.subspan(off, len));
  off += len;
  return v;
}
}  // namespace

Secret SerializeKeyPair(const RsaKeyPair& keys) {
  Bytes out;
  AppendField(out, keys.pub.n);
  AppendField(out, keys.pub.e);
  AppendField(out, keys.priv.d);
  AppendField(out, keys.priv.p);
  AppendField(out, keys.priv.q);
  AppendField(out, keys.priv.dp);
  AppendField(out, keys.priv.dq);
  AppendField(out, keys.priv.qinv);
  return Secret(std::move(out));
}

RsaKeyPair DeserializeKeyPair(const Secret& secret_blob) {
  ByteSpan blob = secret_blob.ExposeForCrypto();
  std::size_t off = 0;
  RsaKeyPair keys;
  keys.pub.n = ReadField(blob, off);
  keys.pub.e = ReadField(blob, off);
  keys.priv.pub = keys.pub;
  keys.priv.d = ReadField(blob, off);
  keys.priv.p = ReadField(blob, off);
  keys.priv.q = ReadField(blob, off);
  keys.priv.dp = ReadField(blob, off);
  keys.priv.dq = ReadField(blob, off);
  keys.priv.qinv = ReadField(blob, off);
  if (off != blob.size()) throw Error("RsaKeyPair: trailing bytes");
  if (keys.priv.p * keys.priv.q != keys.pub.n) {
    throw Error("RsaKeyPair: inconsistent CRT components");
  }
  return keys;
}

}  // namespace reed::rsa
