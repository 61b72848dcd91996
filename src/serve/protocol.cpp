#include "serve/protocol.h"

#include <cmath>

#include "store/format.h"

namespace qrn::serve {

namespace {

using store::get_f64;
using store::get_u32;
using store::get_u64;
using store::kRecordBytes;
using store::put_f64;
using store::put_u32;
using store::put_u64;

void put_u16(std::string& out, std::uint16_t value) {
    const char bytes[2] = {static_cast<char>(value & 0xFFu),
                           static_cast<char>((value >> 8) & 0xFFu)};
    out.append(bytes, sizeof bytes);
}

[[nodiscard]] std::uint16_t get_u16(std::string_view bytes, std::size_t offset) {
    return static_cast<std::uint16_t>(
        static_cast<unsigned char>(bytes[offset]) |
        (static_cast<unsigned char>(bytes[offset + 1]) << 8));
}

void require_size(std::string_view payload, std::size_t expected,
                  const char* what) {
    if (payload.size() != expected) {
        throw ProtocolError(std::string(what) + ": payload is " +
                            std::to_string(payload.size()) + " bytes, expected " +
                            std::to_string(expected));
    }
}

}  // namespace

std::string encode_frame(std::uint8_t code, std::string_view payload) {
    if (payload.size() + 1 > kMaxFrameBytes) {
        throw ProtocolError("frame exceeds kMaxFrameBytes (" +
                            std::to_string(payload.size() + 1) + " bytes)");
    }
    std::string out;
    out.reserve(4 + 1 + payload.size());
    put_u32(out, static_cast<std::uint32_t>(payload.size() + 1));
    out.push_back(static_cast<char>(code));
    out.append(payload);
    return out;
}

std::string encode_classify_payload(double exposure_hours,
                                    const std::vector<Incident>& incidents) {
    std::string out;
    out.reserve(8 + 4 + incidents.size() * kRecordBytes);
    put_f64(out, exposure_hours);
    put_u32(out, static_cast<std::uint32_t>(incidents.size()));
    for (const auto& incident : incidents) {
        store::encode_record(out, incident);
    }
    return out;
}

ClassifyRequest decode_classify_payload(std::string_view payload) {
    if (payload.size() < 12) {
        throw ProtocolError("classify: payload shorter than its fixed header");
    }
    ClassifyRequest out;
    out.exposure_hours = get_f64(payload, 0);
    if (!std::isfinite(out.exposure_hours) || out.exposure_hours < 0.0) {
        throw ProtocolError("classify: exposure delta must be finite and >= 0");
    }
    const std::uint32_t count = get_u32(payload, 8);
    require_size(payload, 12 + static_cast<std::size_t>(count) * kRecordBytes,
                 "classify");
    out.incidents.reserve(count);
    try {
        for (std::uint32_t i = 0; i < count; ++i) {
            out.incidents.push_back(store::decode_record(
                payload, 12 + static_cast<std::size_t>(i) * kRecordBytes,
                {"classify record", i}));
        }
    } catch (const store::StoreError& error) {
        throw ProtocolError(error.what());
    }
    return out;
}

std::string encode_verify_payload(double confidence) {
    std::string out;
    put_f64(out, confidence);
    return out;
}

double decode_verify_payload(std::string_view payload) {
    require_size(payload, 8, "verify");
    const double confidence = get_f64(payload, 0);
    if (!std::isfinite(confidence) || confidence <= 0.0 || confidence >= 1.0) {
        throw ProtocolError("verify: confidence must be in (0, 1)");
    }
    return confidence;
}

std::string encode_classify_reply(const std::vector<ClassifyRow>& rows) {
    std::string out;
    out.reserve(4 + rows.size() * 4);
    put_u32(out, static_cast<std::uint32_t>(rows.size()));
    for (const auto& row : rows) {
        put_u16(out, row.leaf);
        put_u16(out, row.type);
    }
    return out;
}

std::vector<ClassifyRow> decode_classify_reply(std::string_view payload) {
    if (payload.size() < 4) {
        throw ProtocolError("classify reply: payload shorter than its count");
    }
    const std::uint32_t count = get_u32(payload, 0);
    require_size(payload, 4 + static_cast<std::size_t>(count) * 4,
                 "classify reply");
    std::vector<ClassifyRow> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        ClassifyRow row;
        row.leaf = get_u16(payload, 4 + static_cast<std::size_t>(i) * 4);
        row.type = get_u16(payload, 6 + static_cast<std::size_t>(i) * 4);
        out.push_back(row);
    }
    return out;
}

std::string encode_busy_payload(std::uint32_t retry_after_ms) {
    std::string out;
    put_u32(out, retry_after_ms);
    return out;
}

std::uint32_t decode_busy_payload(std::string_view payload) {
    require_size(payload, 4, "busy");
    return get_u32(payload, 0);
}

std::string encode_status_reply(const StatusReply& status) {
    std::string out;
    out.reserve(33);
    put_u64(out, status.records_sealed);
    put_u64(out, status.records_pending);
    put_u64(out, status.shards_sealed);
    put_f64(out, status.exposure_sealed_hours);
    out.push_back(static_cast<char>(status.draining ? 1 : 0));
    return out;
}

StatusReply decode_status_reply(std::string_view payload) {
    require_size(payload, 33, "status reply");
    StatusReply out;
    out.records_sealed = get_u64(payload, 0);
    out.records_pending = get_u64(payload, 8);
    out.shards_sealed = get_u64(payload, 16);
    out.exposure_sealed_hours = get_f64(payload, 24);
    out.draining = payload[32] != 0;
    return out;
}

}  // namespace qrn::serve
