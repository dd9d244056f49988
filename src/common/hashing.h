// Hashing utilities: stable 64-bit hashes used for DHT keys, file IDs and
// hash-join buckets.
//
// All hashes here are deterministic across runs and platforms (no
// std::hash), which keeps simulations reproducible from a seed.
#pragma once

#include <cstdint>
#include <string_view>

namespace pierstack {

/// FNV-1a 64-bit hash of a byte string.
uint64_t Fnv1a64(std::string_view data);

/// FNV-1a with a seed mixed in first; used for namespaced hashes.
uint64_t Fnv1a64Seeded(std::string_view data, uint64_t seed);

/// SplitMix64 finalizer: fast avalanche of a 64-bit value.
uint64_t Mix64(uint64_t x);

/// Combines two 64-bit hashes (boost::hash_combine style, 64-bit constants).
uint64_t HashCombine(uint64_t a, uint64_t b);

/// Canonical file identifier: hash of (filename, size, owner address).
/// Shared by the Gnutella layer and PIERSearch so the hybrid system can
/// deduplicate results across both (paper: "fileID ... generated by
/// applying a hash on the other fields").
uint64_t FileId(std::string_view filename, uint64_t size_bytes,
                uint32_t owner_address);

}  // namespace pierstack
