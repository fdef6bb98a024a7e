// Tests for src/proto wire format: round-trips for every message type
// (including randomized content), malformed-input rejection, and the
// paper's message-size claims (§7.3 / §4.4).
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "proto/wire.hpp"

namespace gossip::proto {
namespace {

template <typename T>
T roundtrip(const T& in) {
  const auto bytes = encode(Message{in});
  EXPECT_EQ(bytes.size(), encoded_size(Message{in}));
  const Message out = decode(bytes);
  return std::get<T>(out);
}

TEST(Wire, AggPushRoundTrip) {
  AggPush in{.epoch = 42, .request_id = 7, .value = -3.25};
  const AggPush out = roundtrip(in);
  EXPECT_EQ(out.epoch, 42u);
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_DOUBLE_EQ(out.value, -3.25);
}

TEST(Wire, AggReplyRoundTripBothRefusedStates) {
  for (bool refused : {false, true}) {
    AggReply in{.epoch = 1, .request_id = 2, .value = 0.5,
                .refused = refused};
    EXPECT_EQ(roundtrip(in).refused, refused);
  }
}

TEST(Wire, NewsPushRoundTripPreservesEntries) {
  NewsPush in;
  in.fresh = {NodeId(9), 1234};
  for (std::uint32_t i = 0; i < 30; ++i) {
    in.entries.push_back({NodeId(i), 1000 + i});
  }
  const NewsPush out = roundtrip(in);
  EXPECT_EQ(out.fresh.id, NodeId(9));
  EXPECT_EQ(out.fresh.timestamp, 1234u);
  ASSERT_EQ(out.entries.size(), 30u);
  EXPECT_EQ(out.entries, in.entries);
}

TEST(Wire, NewsReplyEmptyCache) {
  NewsReply in;
  in.fresh = {NodeId(1), 5};
  const NewsReply out = roundtrip(in);
  EXPECT_TRUE(out.entries.empty());
}

TEST(Wire, InvalidFreshIdSurvives) {
  NewsPush in;
  in.fresh = {NodeId::invalid(), 0};
  const NewsPush out = roundtrip(in);
  EXPECT_FALSE(out.fresh.id.is_valid());
}

TEST(Wire, OversizedTimestampRejected) {
  // The wire keeps its historical 64-bit timestamp field, but the packed
  // in-memory CacheEntry carries a 32-bit logical clock — a larger wire
  // value is a malformed message, not a silent truncation. Layout of a
  // NewsPush: tag u8, fresh id u32, fresh timestamp u64 little-endian.
  NewsPush in;
  in.fresh = {NodeId(3), 17};
  auto bytes = encode(Message{in});
  bytes[1 + 4 + 4] = std::byte{1};  // timestamp bit 32 -> 2^32 + 17
  EXPECT_THROW(decode(bytes), require_error);
}

TEST(Wire, RandomizedRoundTrips) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    switch (rng.below(4)) {
      case 0: {
        AggPush m{rng(), rng(), rng.uniform(-1e9, 1e9)};
        const auto out = roundtrip(m);
        EXPECT_EQ(out.epoch, m.epoch);
        EXPECT_DOUBLE_EQ(out.value, m.value);
        break;
      }
      case 1: {
        AggReply m{rng(), rng(), rng.uniform(-1.0, 1.0), rng.chance(0.5)};
        const auto out = roundtrip(m);
        EXPECT_EQ(out.request_id, m.request_id);
        break;
      }
      default: {
        // Timestamps draw from the full packed 32-bit logical clock
        // (CacheEntry::kMaxTimestamp); larger wire values are malformed
        // by contract and rejected — see OversizedTimestampRejected.
        constexpr std::uint64_t kClock =
            membership::CacheEntry::kMaxTimestamp + 1;
        NewsPush m;
        m.fresh = {NodeId(static_cast<std::uint32_t>(rng.below(1000))),
                   rng.below(kClock)};
        const auto n = rng.below(50);
        for (std::uint64_t i = 0; i < n; ++i) {
          m.entries.push_back(
              {NodeId(static_cast<std::uint32_t>(rng.below(100000))),
               rng.below(kClock)});
        }
        EXPECT_EQ(roundtrip(m).entries, m.entries);
        break;
      }
    }
  }
}

TEST(Wire, SpecialDoublesSurvive) {
  for (double v : {0.0, -0.0, 1e308, 5e-324,
                   std::numeric_limits<double>::infinity()}) {
    AggPush in{1, 2, v};
    const auto out = roundtrip(in);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.value),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Wire, RejectsEmptyAndUnknownTag) {
  EXPECT_THROW((void)decode({}), require_error);
  const std::vector<std::byte> bad{std::byte{0x7f}};
  EXPECT_THROW((void)decode(bad), require_error);
}

TEST(Wire, RejectsTruncation) {
  const auto bytes = encode(Message{AggPush{1, 2, 3.0}});
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    EXPECT_THROW(
        (void)decode(std::span<const std::byte>(bytes.data(), cut)),
        require_error)
        << "cut at " << cut;
  }
}

TEST(Wire, RejectsTrailingBytes) {
  auto bytes = encode(Message{AggPush{1, 2, 3.0}});
  bytes.push_back(std::byte{0});
  EXPECT_THROW((void)decode(bytes), require_error);
}

TEST(Wire, RejectsOversizedEntryCount) {
  // Hand-craft a NewsPush claiming 2^20 entries.
  std::vector<std::byte> bytes;
  bytes.push_back(std::byte{3});                       // NewsPush tag
  for (int i = 0; i < 12; ++i) bytes.push_back(std::byte{0});  // fresh
  const std::uint32_t count = 1u << 20;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::byte>((count >> (8 * i)) & 0xff));
  }
  EXPECT_THROW((void)decode(bytes), require_error);
}

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// Round trips cannot see a layout change that encode and decode make
// together, so each message type is pinned to a hand-written byte
// string: little-endian fields, in declaration order.
TEST(Wire, GoldenBytesForEveryMessageType) {
  NewsPush news;
  news.fresh = {NodeId(7), 0x01020304};
  news.entries = {{NodeId(5), 9}, {NodeId(0x0a0b0c0d), 0xffffffff}};
  NewsReply empty;
  empty.fresh = {NodeId::invalid(), 0};
  const std::pair<Message, std::vector<std::byte>> goldens[] = {
      {AggPush{0x0102030405060708, 9, 1.5},
       bytes_of({0x01,                                            // tag
                 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // epoch
                 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request
                 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f})},  // 1.5
      {AggReply{2, 0x1122334455667788, -2.0, true},
       bytes_of({0x02,                                            // tag
                 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // epoch
                 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // request
                 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0,  // -2.0
                 0x01})},                                         // refused
      {news,
       bytes_of({0x03,                                            // tag
                 0x07, 0x00, 0x00, 0x00,                          // fresh id
                 0x04, 0x03, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00,  // fresh ts
                 0x02, 0x00, 0x00, 0x00,                          // count
                 0x05, 0x00, 0x00, 0x00,                          // id
                 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // ts
                 0x0d, 0x0c, 0x0b, 0x0a,                          // id
                 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00})},  // ts
      {empty,
       bytes_of({0x04,                                            // tag
                 0xff, 0xff, 0xff, 0xff,                          // invalid
                 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // fresh ts
                 0x00, 0x00, 0x00, 0x00})},                       // count
  };
  for (const auto& [message, golden] : goldens) {
    SCOPED_TRACE(message.index());
    EXPECT_EQ(encode(message), golden);
    EXPECT_EQ(encode(decode(golden)), golden);
  }
}

// A count below kMaxEntries that its bytes cannot hold is rejected by the
// one check of the entry block, before any entry vector is sized.
TEST(Wire, LyingEntryCountRejectedBeforeSizing) {
  for (const std::uint8_t tag : {3, 4}) {
    std::vector<std::byte> bytes(1 + 12 + 4 + 30, std::byte{0});
    bytes[0] = std::byte{tag};
    const std::uint32_t count = 40000;
    for (int i = 0; i < 4; ++i) {
      bytes[13 + i] = static_cast<std::byte>((count >> (8 * i)) & 0xff);
    }
    try {
      (void)decode(bytes);
      ADD_FAILURE() << "a 40000-entry count in 30 bytes decoded";
    } catch (const require_error& e) {
      EXPECT_NE(std::string(e.what()).find("entry count exceeds its bytes"),
                std::string::npos)
          << e.what();
    }
  }
}

// The reusable-buffer encode writes exactly the fresh encode's bytes, into
// a buffer that last held a longer message, a shorter one, or nothing.
TEST(Wire, EncodeIntoUsedBufferMatchesFreshEncode) {
  NewsPush big;
  big.fresh = {NodeId(1), 2};
  for (std::uint32_t i = 0; i < 64; ++i) big.entries.push_back({NodeId(i), i});
  NewsReply small;
  small.fresh = {NodeId(3), 4};
  small.entries = {{NodeId(8), 1}};
  const std::vector<Message> sequence{big,  AggPush{1, 2, 0.25}, small,
                                      AggReply{3, 4, -1.0, false}, big,
                                      small};
  std::vector<std::byte> buffer;
  for (const Message& message : sequence) {
    encode(message, buffer);
    EXPECT_EQ(buffer, encode(message)) << "message type " << message.index();
  }
}

TEST(Wire, BitFlipCorpusIsRejectedOrBenign) {
  // Single-bit corruption over every bit of every message type: decode
  // must either reject with require_error or produce a structurally
  // valid message that re-encodes within the original frame size. No
  // other exception, no crash, no growth — the deployment runtime feeds
  // decode() straight from the socket, so this is its safety contract.
  NewsPush news;
  news.fresh = {NodeId(9), 77};
  for (std::uint32_t i = 0; i < 30; ++i) news.entries.push_back({NodeId(i), i});
  const std::vector<Message> corpus{
      Message{AggPush{3, 0x1234567887654321ull, 1.5}},
      Message{AggReply{1, 42, -0.25, true}},
      Message{news},
      Message{NewsReply{{{NodeId(5), 6}}, {NodeId(7), 8}}},
  };
  for (const Message& message : corpus) {
    const auto original = encode(message);
    for (std::size_t bit = 0; bit < original.size() * 8; ++bit) {
      auto mutated = original;
      mutated[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      try {
        const Message out = decode(mutated);
        EXPECT_LE(encoded_size(out), mutated.size())
            << "decoded frame grew after flipping bit " << bit;
      } catch (const require_error&) {
        // rejected — the expected outcome for structural bits
      }
    }
  }
}

TEST(Wire, RandomizedTruncationRejectedForEveryType) {
  // Every strict prefix of every message type must be rejected — not
  // just the AggPush sweep above. Randomized content keeps the sweep
  // from overfitting one encoding.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    NewsPush news;
    news.fresh = {NodeId(static_cast<std::uint32_t>(rng.below(1000))), 3};
    const auto n = rng.below(40);
    for (std::uint64_t i = 0; i < n; ++i) {
      news.entries.push_back(
          {NodeId(static_cast<std::uint32_t>(rng.below(1000))),
           rng.below(membership::CacheEntry::kMaxTimestamp + 1)});
    }
    const std::vector<Message> corpus{
        Message{AggPush{rng(), rng(), rng.uniform(-1.0, 1.0)}},
        Message{AggReply{rng(), rng(), 0.0, rng.chance(0.5)}},
        Message{news},
    };
    for (const Message& message : corpus) {
      const auto bytes = encode(message);
      for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_THROW(
            (void)decode(std::span<const std::byte>(bytes.data(), cut)),
            require_error)
            << "cut at " << cut;
      }
    }
  }
}

TEST(Wire, PaperMessageSizeClaims) {
  // §4.4/§7.3 cost model: a full NEWSCAST exchange message with c = 30
  // entries, and the aggregation pair, are each "a few hundred bytes" at
  // most.
  NewsPush news;
  news.fresh = {NodeId(1), 1};
  for (std::uint32_t i = 0; i < 30; ++i) news.entries.push_back({NodeId(i), 1});
  const std::size_t news_size = encoded_size(Message{news});
  EXPECT_GT(news_size, 300u);
  EXPECT_LT(news_size, 500u);  // 377 bytes with c=30

  EXPECT_EQ(encoded_size(Message{AggPush{}}), 25u);
  EXPECT_EQ(encoded_size(Message{AggReply{}}), 26u);
  // 20 concurrent COUNT instances at 8 bytes each would add 160 bytes to
  // a push — still "a few hundred bytes" per §7.3.
  EXPECT_LT(25u + 20u * 8u, 300u);
}

TEST(Wire, PaperPerCycleByteBudget) {
  // §7.3 pins the whole per-cycle cost: one NEWSCAST cache exchange at
  // c = 30 (377 bytes) plus one aggregation push for each of 20
  // concurrent instances (25 bytes each) stays within a 1 KiB budget per
  // initiated exchange — the "modest communication cost" claim the
  // deployment runtime's bytes-on-wire counters measure live.
  NewsPush news;
  news.fresh = {NodeId(1), 1};
  for (std::uint32_t i = 0; i < 30; ++i) news.entries.push_back({NodeId(i), 1});
  const std::size_t cycle_bytes =
      encoded_size(Message{news}) + 20u * encoded_size(Message{AggPush{}});
  EXPECT_EQ(cycle_bytes, 377u + 20u * 25u);  // 877
  EXPECT_LT(cycle_bytes, 1024u);
}

}  // namespace
}  // namespace gossip::proto
