// Incremental CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// Every payload block and the sealed footer of a qrn-store shard carry a
// CRC so that truncation and bit-flips are detected at read time instead of
// silently skewing Eq. 1 evidence (docs/STORE.md). Two kernels compute the
// same function of the same bytes:
//  - on x86-64 hosts whose CPU has PCLMULQDQ and SSE4.1 (checked once at
//    run time), inputs of 64 bytes or more fold 16-byte lanes with
//    carry-less multiplies and finish with a Barrett reduction (Gopal et
//    al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//    Instruction", Intel 2009); the sub-16-byte tail goes portable;
//  - everywhere else, slicing-by-8 over compile-time tables (eight bytes
//    per step; the tail goes bytewise).
// No build flag, option or environment variable picks between them, and
// there is no dependency on zlib or any other library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qrn::store {

/// Streaming CRC-32 accumulator. Feed bytes in any chunking; the digest
/// depends only on the byte sequence.
class Crc32 {
public:
    void update(const void* data, std::size_t size) noexcept;
    void update(std::string_view bytes) noexcept {
        update(bytes.data(), bytes.size());
    }

    /// The finalized checksum of everything fed so far. Does not reset;
    /// further updates continue the stream.
    [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience over a byte range.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes) noexcept;

namespace detail {

// The two kernels behind Crc32::update, exposed so tests can hold each
// against a reference. Both advance a raw (pre-inversion) CRC state.

/// Slicing-by-8; runs on every host.
[[nodiscard]] std::uint32_t crc32_portable(std::uint32_t state, const void* data,
                                           std::size_t size) noexcept;

/// True when this host's CPU runs crc32_pclmul (decided once per process).
[[nodiscard]] bool crc32_pclmul_supported() noexcept;

/// PCLMULQDQ folding over the longest 16-byte multiple of an input of 64
/// bytes or more, slicing-by-8 over the rest. Call only when
/// crc32_pclmul_supported().
[[nodiscard]] std::uint32_t crc32_pclmul(std::uint32_t state, const void* data,
                                         std::size_t size) noexcept;

}  // namespace detail

}  // namespace qrn::store
