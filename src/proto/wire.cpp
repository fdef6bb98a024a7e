#include "proto/wire.hpp"

#include <bit>
#include <cstring>

#include "common/require.hpp"

namespace gossip::proto {

namespace {

enum class Tag : std::uint8_t {
  kAggPush = 1,
  kAggReply = 2,
  kNewsPush = 3,
  kNewsReply = 4,
};

// Entry counts are bounded far above any sane cache size; this is a
// malformed-input guard, not a protocol limit.
constexpr std::size_t kMaxEntries = 1 << 16;

// Little-endian field layout, one load or store per field.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies fields in host byte order");

constexpr std::size_t kEntryBytes = 4 + 8;  // u32 id, u64 timestamp

template <typename T>
std::byte* put(std::byte* out, T v) {
  std::memcpy(out, &v, sizeof(T));
  return out + sizeof(T);
}

template <typename T>
T load(const std::byte* in) {
  T v;
  std::memcpy(&v, in, sizeof(T));
  return v;
}

std::byte* put_entries(std::byte* out,
                       const std::vector<membership::CacheEntry>& entries,
                       const membership::CacheEntry& fresh) {
  GOSSIP_REQUIRE(entries.size() < kMaxEntries, "cache too large to encode");
  out = put<std::uint32_t>(out, fresh.id.value());
  out = put<std::uint64_t>(out, fresh.timestamp);
  out = put(out, static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    out = put<std::uint32_t>(out, e.id.value());
    out = put<std::uint64_t>(out, e.timestamp);
  }
  return out;
}

class Reader {
public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - pos_;
  }

  template <typename T>
  T next() {
    GOSSIP_REQUIRE(remaining() >= sizeof(T), "truncated message");
    const T v = load<T>(&bytes_[pos_]);
    pos_ += sizeof(T);
    return v;
  }

  std::uint8_t u8() { return next<std::uint8_t>(); }
  std::uint32_t u32() { return next<std::uint32_t>(); }
  std::uint64_t u64() { return next<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Reads `count` cache entries. The block's length is checked once,
  /// before the vector is sized, and the entries are read unchecked.
  void entries(std::uint32_t count,
               std::vector<membership::CacheEntry>& out) {
    GOSSIP_REQUIRE(count < kMaxEntries, "malformed entry count");
    GOSSIP_REQUIRE(kEntryBytes * count <= remaining(),
                   "truncated message: entry count exceeds its bytes");
    out.resize(count);
    if (count == 0) return;
    const std::byte* in = &bytes_[pos_];
    for (auto& e : out) {
      e = membership::CacheEntry{NodeId(load<std::uint32_t>(in)),
                                 load<std::uint64_t>(in + 4)};
      in += kEntryBytes;
    }
    pos_ += kEntryBytes * count;
  }

  void expect_end() const {
    GOSSIP_REQUIRE(pos_ == bytes_.size(), "trailing bytes after message");
  }

private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

void read_entries(Reader& r, std::vector<membership::CacheEntry>& entries,
                  membership::CacheEntry& fresh) {
  // The wire keeps the historical 64-bit timestamp field; the packed
  // in-memory descriptor narrows it through the guarded CacheEntry
  // constructor (a timestamp past the 32-bit logical clock is a
  // malformed message, same class as a bad entry count).
  const NodeId fresh_id(r.u32());
  fresh = membership::CacheEntry{fresh_id, r.u64()};
  r.entries(r.u32(), entries);
}

}  // namespace

std::size_t encoded_size(const Message& message) {
  struct Sizer {
    std::size_t operator()(const AggPush&) const { return 1 + 8 + 8 + 8; }
    std::size_t operator()(const AggReply&) const {
      return 1 + 8 + 8 + 8 + 1;
    }
    std::size_t operator()(const NewsPush& m) const {
      return 1 + 12 + 4 + 12 * m.entries.size();
    }
    std::size_t operator()(const NewsReply& m) const {
      return 1 + 12 + 4 + 12 * m.entries.size();
    }
  };
  return std::visit(Sizer{}, message);
}

void encode(const Message& message, std::vector<std::byte>& out) {
  out.resize(encoded_size(message));
  std::byte* p = out.data();
  if (const auto* push = std::get_if<AggPush>(&message)) {
    p = put(p, Tag::kAggPush);
    p = put(p, push->epoch);
    p = put(p, push->request_id);
    put(p, push->value);
  } else if (const auto* reply = std::get_if<AggReply>(&message)) {
    p = put(p, Tag::kAggReply);
    p = put(p, reply->epoch);
    p = put(p, reply->request_id);
    p = put(p, reply->value);
    put<std::uint8_t>(p, reply->refused ? 1 : 0);
  } else if (const auto* news = std::get_if<NewsPush>(&message)) {
    p = put(p, Tag::kNewsPush);
    put_entries(p, news->entries, news->fresh);
  } else {
    const auto& answer = std::get<NewsReply>(message);
    p = put(p, Tag::kNewsReply);
    put_entries(p, answer.entries, answer.fresh);
  }
}

std::vector<std::byte> encode(const Message& message) {
  std::vector<std::byte> out;
  encode(message, out);
  return out;
}

Message decode(std::span<const std::byte> bytes) {
  Reader r(bytes);
  const auto tag = r.u8();
  switch (static_cast<Tag>(tag)) {
    case Tag::kAggPush: {
      AggPush m;
      m.epoch = r.u64();
      m.request_id = r.u64();
      m.value = r.f64();
      r.expect_end();
      return m;
    }
    case Tag::kAggReply: {
      AggReply m;
      m.epoch = r.u64();
      m.request_id = r.u64();
      m.value = r.f64();
      m.refused = r.u8() != 0;
      r.expect_end();
      return m;
    }
    case Tag::kNewsPush: {
      NewsPush m;
      read_entries(r, m.entries, m.fresh);
      r.expect_end();
      return m;
    }
    case Tag::kNewsReply: {
      NewsReply m;
      read_entries(r, m.entries, m.fresh);
      r.expect_end();
      return m;
    }
  }
  GOSSIP_REQUIRE(false, "unknown message tag");
}

}  // namespace gossip::proto
