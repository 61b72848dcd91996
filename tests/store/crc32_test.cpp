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

// ---- the two kernels behind Crc32::update ------------------------------

/// Finalized CRC of `bytes` through one raw-state kernel.
template <typename Kernel>
std::uint32_t crc_with(Kernel kernel, std::string_view bytes) {
    return kernel(0xFFFFFFFFu, bytes.data(), bytes.size()) ^ 0xFFFFFFFFu;
}

/// Every length 0..4096 from every start offset 0..15 against the bitwise
/// reference, extended one byte at a time so the reference stays linear.
template <typename Kernel>
void expect_kernel_matches_reference(Kernel kernel, const char* name) {
    constexpr std::size_t kMaxLength = 4096;
    const std::string buffer = random_bytes(kMaxLength + 16, 21);
    for (std::size_t start = 0; start < 16; ++start) {
        std::uint32_t reference = 0xFFFFFFFFu;
        for (std::size_t length = 0; length <= kMaxLength; ++length) {
            if (length > 0) {
                reference ^= static_cast<unsigned char>(buffer[start + length - 1]);
                for (int bit = 0; bit < 8; ++bit) {
                    reference = (reference & 1u) != 0 ? 0xEDB88320u ^ (reference >> 1)
                                                       : reference >> 1;
                }
            }
            const std::string_view bytes(buffer.data() + start, length);
            ASSERT_EQ(crc_with(kernel, bytes), reference ^ 0xFFFFFFFFu)
                << name << ": start " << start << ", length " << length;
        }
    }
}

TEST(Crc32Kernels, PortableMatchesReferenceAtEveryLengthAndOffset) {
    expect_kernel_matches_reference(detail::crc32_portable, "portable");
}

TEST(Crc32Kernels, PclmulMatchesReferenceAtEveryLengthAndOffset) {
    if (!detail::crc32_pclmul_supported()) {
        GTEST_SKIP() << "this CPU has no PCLMULQDQ; Crc32 runs the portable kernel";
    }
    expect_kernel_matches_reference(detail::crc32_pclmul, "pclmul");
}

TEST(Crc32Kernels, ChainedUpdatesSplitAcrossTheFoldThreshold) {
    // 200 bytes split at every point: each half lands on either side of the
    // 64-byte folding threshold, and the state must carry between kernels.
    const std::string buffer = random_bytes(200, 22);
    const std::uint32_t expected = reference_crc32(buffer);
    for (std::size_t split = 0; split <= buffer.size(); ++split) {
        Crc32 crc;
        crc.update(buffer.data(), split);
        crc.update(buffer.data() + split, buffer.size() - split);
        EXPECT_EQ(crc.value(), expected) << "split " << split;
        const std::uint32_t portable = detail::crc32_portable(
            detail::crc32_portable(0xFFFFFFFFu, buffer.data(), split),
            buffer.data() + split, buffer.size() - split);
        EXPECT_EQ(portable ^ 0xFFFFFFFFu, expected) << "portable, split " << split;
        if (detail::crc32_pclmul_supported()) {
            const std::uint32_t folded = detail::crc32_pclmul(
                detail::crc32_pclmul(0xFFFFFFFFu, buffer.data(), split),
                buffer.data() + split, buffer.size() - split);
            EXPECT_EQ(folded ^ 0xFFFFFFFFu, expected) << "pclmul, split " << split;
        }
    }
}

TEST(Crc32Kernels, OneMebibyteKnownAnswer) {
    // 1 MiB of the byte pattern i mod 251 (a prime, so no lane of the
    // fold sees a period that divides 16): a fixed answer that pins both
    // kernels and the dispatching update() to the same value across builds.
    std::string buffer(std::size_t{1} << 20, '\0');
    for (std::size_t i = 0; i < buffer.size(); ++i) {
        buffer[i] = static_cast<char>(i % 251);
    }
    const std::uint32_t expected = reference_crc32(buffer);
    EXPECT_EQ(expected, 0xEF0E6054u);  // zlib.crc32 of the same bytes
    EXPECT_EQ(crc32(buffer), expected);
    EXPECT_EQ(crc_with(detail::crc32_portable, buffer), expected);
    if (detail::crc32_pclmul_supported()) {
        EXPECT_EQ(crc_with(detail::crc32_pclmul, buffer), expected);
    }
}

}  // namespace
}  // namespace qrn::store
