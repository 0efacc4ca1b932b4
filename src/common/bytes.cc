#include "common/bytes.h"

#include <array>

namespace freeflow {

namespace {
std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const auto table = make_crc_table();
  return table;
}
}  // namespace

void Buffer::free_block(std::byte* bytes) noexcept { delete[] (bytes - k_block_header); }

std::uint32_t crc32(ByteSpan data) noexcept {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::byte b : data) {
    crc = table[(crc ^ static_cast<std::uint32_t>(b)) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

void fill_pattern(MutableByteSpan out, std::uint64_t seed) noexcept {
  // splitmix64 stream keyed by seed; byte i depends on (seed, i) only.
  std::uint64_t state = seed ^ 0x9E3779B97F4A7C15ULL;
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i % 8 == 0) {
      state += 0x9E3779B97F4A7C15ULL;
      word = state;
      word = (word ^ (word >> 30)) * 0xBF58476D1CE4E5B9ULL;
      word = (word ^ (word >> 27)) * 0x94D049BB133111EBULL;
      word ^= word >> 31;
    }
    out[i] = static_cast<std::byte>((word >> ((i % 8) * 8)) & 0xFFU);
  }
}

bool check_pattern(ByteSpan data, std::uint64_t seed) noexcept {
  if (data.empty()) return true;  // empty spans may carry a null data()
  Buffer expected = Buffer::for_overwrite(data.size());
  fill_pattern(expected.mutable_view(), seed);
  return std::memcmp(expected.data(), data.data(), data.size()) == 0;
}

}  // namespace freeflow
