// SHA-256 compression on the x86 SHA extensions. Only this file's kernel
// is compiled for the "sha" target, so the rest of the library keeps the
// baseline ISA and other CPUs never execute an SHA-NI instruction.
#include "crypto/sha256_kernels.h"

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

namespace blockplane::crypto::internal {

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & bit_SHA) != 0;
  return ssse3 && sse41 && sha;
}

// The state lives in two registers in the order sha256rnds2 wants: ABEF and
// CDGH. Each iteration of the round loop runs four rounds on one 4-word
// slice of the message schedule; slices 4..15 are derived in registers from
// the previous four (W[t-16] + s0(W[t-15]) by msg1, + W[t-7] by alignr, the
// s1(W[t-2]) terms by msg2).
__attribute__((target("sha,ssse3,sse4.1"))) void Sha256CompressShaNi(
    uint32_t state[8], const uint8_t* data, size_t nblocks) {
  // Byte-swaps each 32-bit word: message words are big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4] = {};
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i slice;
      if (i < 4) {
        slice = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            kByteSwap);
      } else {
        const __m128i w16 = w[i % 4];
        const __m128i w12 = w[(i + 1) % 4];
        const __m128i w8 = w[(i + 2) % 4];
        const __m128i w4 = w[(i + 3) % 4];
        slice = _mm_sha256msg1_epu32(w16, w12);
        slice = _mm_add_epi32(slice, _mm_alignr_epi8(w4, w8, 4));
        slice = _mm_sha256msg2_epu32(slice, w4);
      }
      w[i % 4] = slice;
      const __m128i wk = _mm_add_epi32(
          slice, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                     kSha256RoundConstants + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace blockplane::crypto::internal

#endif  // defined(__x86_64__)
