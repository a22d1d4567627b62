#ifndef RAINBOW_NET_CODEC_H_
#define RAINBOW_NET_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "net/message.h"

namespace rainbow {

// The wire format Rainbow messages would use on a real network; the
// simulator can round-trip every message through it to guarantee the
// codec stays complete (SystemConfig::verify_codec).
//
// Encoding returns a fresh buffer per call. Decoding is zero-copy: both
// decoders take a span-style view (a const vector binds implicitly), and
// DecodeMessage parses the payload region in place instead of copying
// it out.

/// Serializes a payload: one kind byte followed by the fields.
std::vector<uint8_t> EncodePayload(const Payload& payload);

/// Parses a payload; fails on unknown kind bytes, truncated buffers, or
/// trailing garbage.
Result<Payload> DecodePayload(std::span<const uint8_t> buf);

/// Serializes a full message (envelope + payload) in one pass.
std::vector<uint8_t> EncodeMessage(const Message& message);

Result<Message> DecodeMessage(std::span<const uint8_t> buf);

}  // namespace rainbow

#endif  // RAINBOW_NET_CODEC_H_
