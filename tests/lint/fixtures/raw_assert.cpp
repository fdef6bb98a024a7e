// lint-fixture-path: src/proto/decode_fixture.cpp
// Seeded violations for rule raw-assert (scoped to src/proto/, src/failure/,
// src/runtime/). Never compiled — consumed by --self-test only.
#include <cassert>
#include <cstdint>

void decode_header(std::uint32_t count, std::uint32_t max_entries) {
  assert(count < max_entries);  // finding: vanishes in release builds
  // compile-time checks are fine: no finding.
  static_assert(sizeof(std::uint32_t) == 4, "wire uses 32-bit ids");
}
