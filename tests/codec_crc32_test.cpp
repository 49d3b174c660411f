// binio::crc32 is the checksum of every CCKP section, CCWF frame and CCDR2
// block. These tests pin it to the standard CRC-32 (IEEE 802.3) values and to
// a plain bytewise table CRC, at every length and start alignment the
// eight-byte inner loop and its tail can see.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/binio.h"
#include "util/rng.h"

namespace ccms {
namespace {

/// The textbook reflected CRC-32, one table lookup per byte.
std::uint32_t bytewise_crc32(std::span<const std::uint8_t> bytes) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc_of(std::string_view text) {
  return binio::crc32(std::span(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc_of(""), 0u);
  EXPECT_EQ(crc_of("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  util::Rng rng(0xC4C32u);
  std::vector<std::uint8_t> buffer(64 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const auto bytes = std::span(buffer).subspan(offset, length);
      EXPECT_EQ(binio::crc32(bytes), bytewise_crc32(bytes))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, MatchesBytewiseReferenceOnAllOnesAndZeros) {
  // Runs of 0x00 and 0xFF drive every table index to its extremes.
  for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    const std::vector<std::uint8_t> bytes(1000, fill);
    EXPECT_EQ(binio::crc32(bytes), bytewise_crc32(bytes)) << int{fill};
  }
}

}  // namespace
}  // namespace ccms
