// SHA-256 compression kernels (internal). Sha256 picks one of these once,
// from the CPU (see Sha256KernelName in sha256.h); the header exists so
// tests can run every kernel this host supports against the portable
// reference, byte for byte.
#ifndef BLOCKPLANE_CRYPTO_SHA256_KERNELS_H_
#define BLOCKPLANE_CRYPTO_SHA256_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace blockplane::crypto::internal {

/// The 64 SHA-256 round constants K (FIPS 180-4 §4.2.2), shared by every
/// kernel.
extern const uint32_t kSha256RoundConstants[64];

/// Absorbs `nblocks` consecutive 64-byte blocks at `data` (any alignment)
/// into `state`. Plain C++: runs on every CPU and is the reference.
void Sha256CompressPortable(uint32_t state[8], const uint8_t* data,
                            size_t nblocks);

#if defined(__x86_64__)
/// True when CPUID reports the SHA extensions plus SSSE3 and SSE4.1, i.e.
/// when Sha256CompressShaNi may run.
bool CpuHasShaNi();

/// Same contract as Sha256CompressPortable, on the x86 SHA-NI instructions
/// (sha256rnds2/msg1/msg2). Only call when CpuHasShaNi().
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* data,
                         size_t nblocks);
#endif

}  // namespace blockplane::crypto::internal

#endif  // BLOCKPLANE_CRYPTO_SHA256_KERNELS_H_
