/**
 * @file
 * FNV-1a 64-bit hashing, shared by the BDQ checkpoint checksum
 * (rl/checkpoint.hh) and the manager fingerprints that group identical
 * replicas into batched-inference cohorts.
 */

#ifndef TWIG_COMMON_HASH_HH
#define TWIG_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>

namespace twig::common {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** FNV-1a over @p n bytes, chainable via @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = kFnvOffsetBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Mix one integral value into an FNV-1a chain. */
inline std::uint64_t
fnv1aValue(std::uint64_t value, std::uint64_t h = kFnvOffsetBasis)
{
    return fnv1a(&value, sizeof(value), h);
}

} // namespace twig::common

#endif // TWIG_COMMON_HASH_HH
