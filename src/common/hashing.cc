#include "common/hashing.h"

#include <array>

namespace pierstack {

namespace {
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = kFnvOffset;
  for (unsigned char c : data) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Fnv1a64Seeded(std::string_view data, uint64_t seed) {
  uint64_t h = kFnvOffset ^ Mix64(seed);
  for (unsigned char c : data) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (Mix64(b) + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

uint64_t FileId(std::string_view filename, uint64_t size_bytes,
                uint32_t owner_address) {
  uint64_t h = Fnv1a64(filename);
  h = HashCombine(h, size_bytes);
  h = HashCombine(h, owner_address);
  return h;
}

}  // namespace pierstack
