// CRC-32 of the shard format: the standard check values, and agreement of
// the slicing-by-8 implementation with a bit-at-a-time reference for every
// length, start alignment and update() chunking.
#include "store/crc32.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace qrn::store {
namespace {

/// Bit-at-a-time CRC-32 (reflected, polynomial 0xEDB88320): the textbook
/// definition, sharing no table with the implementation under test.
std::uint32_t reference_crc32(std::string_view bytes) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (const char ch : bytes) {
        c ^= static_cast<unsigned char>(ch);
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
    }
    return c ^ 0xFFFFFFFFu;
}

std::string random_bytes(std::size_t size, std::uint64_t seed) {
    stats::Rng rng(seed);
    std::string out(size, '\0');
    for (auto& ch : out) ch = static_cast<char>(rng.uniform_int(0, 255));
    return out;
}

TEST(Crc32, KnownAnswers) {
    EXPECT_EQ(crc32(""), 0u);
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
    // Eight spare bytes in front so every start offset mod 8 is exercised.
    const std::string buffer = random_bytes(64 + 8, 11);
    for (std::size_t start = 0; start < 8; ++start) {
        for (std::size_t length = 0; length <= 64; ++length) {
            const std::string_view bytes(buffer.data() + start, length);
            EXPECT_EQ(crc32(bytes), reference_crc32(bytes))
                << "start " << start << ", length " << length;
        }
    }
}

TEST(Crc32, SplitUpdatesMatchOneShot) {
    const std::string buffer = random_bytes(64, 12);
    for (std::size_t length = 0; length <= 64; ++length) {
        const std::string_view bytes(buffer.data(), length);
        const std::uint32_t expected = reference_crc32(bytes);
        for (std::size_t split = 0; split <= length; ++split) {
            Crc32 crc;
            crc.update(bytes.substr(0, split));
            crc.update(bytes.substr(split));
            EXPECT_EQ(crc.value(), expected) << "length " << length << ", split " << split;
        }
    }
}

TEST(Crc32, OneMebibyteInOddChunksMatchesReference) {
    const std::string buffer = random_bytes(std::size_t{1} << 20, 13);
    const std::uint32_t expected = reference_crc32(buffer);
    EXPECT_EQ(crc32(buffer), expected);
    // Chunk sizes cycling through 1..13 keep every update() starting at a
    // different alignment with a different tail length.
    Crc32 crc;
    std::size_t offset = 1;
    crc.update(std::string_view(buffer).substr(0, 1));
    for (std::size_t chunk = 1; offset < buffer.size(); chunk = chunk % 13 + 1) {
        const std::size_t take = std::min(chunk, buffer.size() - offset);
        crc.update(buffer.data() + offset, take);
        offset += take;
    }
    EXPECT_EQ(crc.value(), expected);
}

TEST(Crc32, ValueDoesNotResetTheStream) {
    Crc32 crc;
    crc.update("12345");
    (void)crc.value();
    crc.update("6789");
    EXPECT_EQ(crc.value(), 0xCBF43926u);
}

}  // namespace
}  // namespace qrn::store
