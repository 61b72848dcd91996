#include "store/crc32.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QRN_CRC32_PCLMUL 1
#include <immintrin.h>
#endif

namespace qrn::store {

namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320, built at
/// compile time. kTables[0] is the classic bytewise table; kTables[k][n]
/// is the CRC of byte n followed by k zero bytes, so eight table lookups
/// advance the state over eight input bytes at once.
constexpr std::array<Table, 8> make_tables() {
    std::array<Table, 8> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        t[0][n] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t n = 0; n < 256; ++n) {
            const std::uint32_t prev = t[k - 1][n];
            t[k][n] = t[0][prev & 0xFFu] ^ (prev >> 8);
        }
    }
    return t;
}

constexpr std::array<Table, 8> kTables = make_tables();

/// Little-endian 32-bit load from any alignment; compilers fuse the byte
/// assembly into one load on little-endian hosts.
std::uint32_t load_le32(const unsigned char* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

#ifdef QRN_CRC32_PCLMUL

/// Shortest input the folding kernel takes: four 16-byte lanes.
constexpr std::size_t kFoldMinBytes = 64;

/// Unaligned 16-byte load.
__m128i load(const unsigned char* p) noexcept {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x.lo * k.lo ^ x.hi * k.hi: moves a lane 16 or 64 bytes further on.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x,
                                                             __m128i k) noexcept {
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                         _mm_clmulepi64_si128(x, k, 0x11));
}

/// Folds `size` bytes (a multiple of 16, at least 64) into the raw state.
/// Constants are x^k mod P for the bit-reflected polynomial (Gopal et al.,
/// as in Chromium's crc32_simd.c): k1/k2 fold 64 bytes ahead,
/// k3/k4 fold 16 bytes ahead, k5 folds 64 bits to 32, and the last pair is
/// P and mu = x^64 / P for the Barrett step.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_pclmul(
    std::uint32_t state, const unsigned char* bytes, std::size_t size) noexcept {
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i x1 = _mm_xor_si128(load(bytes), _mm_cvtsi32_si128(static_cast<int>(state)));
    __m128i x2 = load(bytes + 16);
    __m128i x3 = load(bytes + 32);
    __m128i x4 = load(bytes + 48);
    bytes += 64;
    size -= 64;
    // Four independent lanes hide the multiply latency.
    for (; size >= 64; bytes += 64, size -= 64) {
        x1 = _mm_xor_si128(fold(x1, k1k2), load(bytes));
        x2 = _mm_xor_si128(fold(x2, k1k2), load(bytes + 16));
        x3 = _mm_xor_si128(fold(x3, k1k2), load(bytes + 32));
        x4 = _mm_xor_si128(fold(x4, k1k2), load(bytes + 48));
    }
    // Four lanes into one, then any remaining 16-byte lanes.
    x1 = _mm_xor_si128(fold(x1, k3k4), x2);
    x1 = _mm_xor_si128(fold(x1, k3k4), x3);
    x1 = _mm_xor_si128(fold(x1, k3k4), x4);
    for (; size >= 16; bytes += 16, size -= 16) {
        x1 = _mm_xor_si128(fold(x1, k3k4), load(bytes));
    }
    // 128 bits to 64.
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    // 64 bits to 32.
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, low32);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), x2);
    // Barrett reduction to the 32-bit remainder.
    x2 = _mm_and_si128(x1, low32);
    x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x10);
    x2 = _mm_and_si128(x2, low32);
    x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // QRN_CRC32_PCLMUL

}  // namespace

namespace detail {

std::uint32_t crc32_portable(std::uint32_t state, const void* data,
                             std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint32_t c = state;
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t lo = load_le32(bytes) ^ c;
        const std::uint32_t hi = load_le32(bytes + 4);
        c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    for (; size > 0; ++bytes, --size) {
        c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
    }
    return c;
}

bool crc32_pclmul_supported() noexcept {
#ifdef QRN_CRC32_PCLMUL
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
    }();
    return supported;
#else
    return false;
#endif
}

std::uint32_t crc32_pclmul(std::uint32_t state, const void* data,
                           std::size_t size) noexcept {
#ifdef QRN_CRC32_PCLMUL
    if (size >= kFoldMinBytes) {
        const std::size_t folded = size & ~std::size_t{15};
        const auto* bytes = static_cast<const unsigned char*>(data);
        state = fold_pclmul(state, bytes, folded);
        data = bytes + folded;
        size -= folded;
    }
#endif
    return crc32_portable(state, data, size);
}

}  // namespace detail

void Crc32::update(const void* data, std::size_t size) noexcept {
    state_ = detail::crc32_pclmul_supported() ? detail::crc32_pclmul(state_, data, size)
                                              : detail::crc32_portable(state_, data, size);
}

std::uint32_t crc32(std::string_view bytes) noexcept {
    Crc32 crc;
    crc.update(bytes);
    return crc.value();
}

}  // namespace qrn::store
