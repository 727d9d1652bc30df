// Small non-cryptographic hashing helpers.
//
// FNV-1a is used wherever the codebase needs a cheap, dependency-free,
// stable-across-builds content checksum (the campaign journal checksums
// every record with it). It is NOT collision-resistant against an
// adversary; it is exactly strong enough to catch torn writes, bit rot
// and truncation, which is the failure model it guards.
#pragma once

#include <cstdint>
#include <string_view>

namespace sent::util {

/// FNV-1a64 offset basis: the state of an empty hash.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over a byte string. Stable: the constants are part of
/// the journal's on-disk format, so they must never change. Passing the
/// result of a previous call as `h` continues that hash, so hashing a
/// sequence of pieces equals hashing their concatenation.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t h = kFnv1a64Basis) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

}  // namespace sent::util
