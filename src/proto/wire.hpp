// Binary wire format for the protocol messages.
//
// The simulators pass Message values in-process, but a deployable node
// needs bytes on a socket. The format is little-endian, tag-prefixed and
// length-checked; decode() rejects malformed input instead of trusting
// the network. The paper's cost arguments depend on message size (§7.3:
// "messages of still only a few hundred bytes" for ~20 values and a c=30
// cache) — encoded_size() lets tests pin those claims.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "proto/messages.hpp"

namespace gossip::proto {

/// Serializes a message into `out`, replacing its contents. Layout:
/// [u8 tag][fixed fields][entries...]. Each field is one store through a
/// pointer into `out`, whose capacity is reused: a host that encodes
/// every send into a recycled buffer allocates only when a message
/// outgrows it.
void encode(const Message& message, std::vector<std::byte>& out);

/// Serializes a message into a new buffer (the form above, wrapped).
std::vector<std::byte> encode(const Message& message);

/// Parses a message; throws gossip::require_error on truncated input,
/// unknown tags, oversized entry counts or trailing bytes. An entry
/// count is checked against the bytes left before any entry is stored.
Message decode(std::span<const std::byte> bytes);

/// Exact size encode() would produce, without allocating.
std::size_t encoded_size(const Message& message);

}  // namespace gossip::proto
