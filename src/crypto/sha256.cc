#include "crypto/sha256.h"

#include <cstring>

#include "common/bytes.h"
#include "common/macros.h"
#include "crypto/sha256_kernels.h"

namespace blockplane::crypto {

namespace internal {

const uint32_t kSha256RoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace internal

namespace {

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void ProcessBlock(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 =
        h + s1 + ch + internal::kSha256RoundConstants[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

struct Kernel {
  void (*compress)(uint32_t state[8], const uint8_t* data, size_t nblocks);
  const char* name;
};

// Chosen once, from the CPU, on first use. A function-local static rather
// than a namespace-scope one, so a digest taken while another file's statics
// are being initialised still finds the kernel chosen.
const Kernel& ActiveKernel() {
  static const Kernel kernel = []() -> Kernel {
#if defined(__x86_64__)
    if (internal::CpuHasShaNi()) {
      return {internal::Sha256CompressShaNi, "sha-ni"};
    }
#endif
    return {internal::Sha256CompressPortable, "portable"};
  }();
  return kernel;
}

void Compress(uint32_t state[8], const uint8_t* data, size_t nblocks) {
  ActiveKernel().compress(state, data, nblocks);
}

}  // namespace

namespace internal {

void Sha256CompressPortable(uint32_t state[8], const uint8_t* data,
                            size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) ProcessBlock(state, data);
}

}  // namespace internal

const char* Sha256KernelName() { return ActiveKernel().name; }

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 64) return;
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Every whole block goes to the kernel in one call, straight from the
  // caller's bytes, so a long payload keeps the state in registers.
  const size_t nblocks = len / 64;
  if (nblocks > 0) {
    Compress(state_, data, nblocks);
    data += nblocks * 64;
    len -= nblocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Digest Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros up to byte 56 of the final block, then the 64-bit
  // big-endian message length. Built directly in the block buffer with bulk
  // memset/memcpy (not byte-at-a-time Update() calls), and without touching
  // total_len_: padding bytes are not message bytes.
  size_t n = buffer_len_;  // < 64: Update() flushes full blocks eagerly
  buffer_[n++] = 0x80;
  if (n > 56) {
    // No room for the length in this block; zero-fill and spill over.
    std::memset(buffer_ + n, 0, 64 - n);
    Compress(state_, buffer_, 1);
    n = 0;
  }
  std::memset(buffer_ + n, 0, 56 - n);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(state_, buffer_, 1);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256Midstate Sha256::CaptureMidstate() const {
  BP_CHECK_MSG(buffer_len_ == 0,
               "midstate capture requires a block-aligned byte count");
  Sha256Midstate midstate;
  std::memcpy(midstate.state, state_, sizeof(state_));
  midstate.processed_bytes = total_len_;
  return midstate;
}

void Sha256::RestoreMidstate(const Sha256Midstate& midstate) {
  std::memcpy(state_, midstate.state, sizeof(state_));
  total_len_ = midstate.processed_bytes;
  buffer_len_ = 0;
}

Digest Sha256Digest(const uint8_t* data, size_t len) {
  Sha256 ctx;
  ctx.Update(data, len);
  return ctx.Finish();
}

std::string DigestToHex(const Digest& d) {
  return HexEncode(d.data(), d.size());
}

}  // namespace blockplane::crypto
