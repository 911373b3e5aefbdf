// Golden replay scenarios shared by tests/test_golden_replay.cpp and
// tests/test_streaming.cpp: each scenario name with the RunMetrics digest
// pinned for it. See tests/test_golden_replay.cpp for where the digests come
// from and when they may be re-captured.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace libra::golden {

struct GoldenCase {
  const char* name;
  uint64_t digest;  // captured from the pre-refactor engine
};
// Its bytes are part of every registered test ID (below).
static_assert(sizeof(GoldenCase) == 16);

// gtest has no printer for GoldenCase, so it describes each instantiation as
// "GetParam() = 16-byte object <bytes>", and ctest registers that text as
// part of the test ID, bytes of the `name` pointer included. With the names
// as plain string literals, any change elsewhere in the test binary that
// moved .rodata renamed these tests. So the names sit at fixed offsets in a
// 64 KiB-aligned pool: the linker raises the alignment of the segment that
// holds the pool to 64 KiB and the loader keeps it under ASLR, so the low 16
// bits of every name pointer equal its offset here. The upper bytes still
// change from run to run, as before. The offsets are the ones the names had
// when these test IDs were first registered; moving one renames its tests.
struct GoldenEntry {
  std::size_t offset;  // into kNamePool
  std::string_view name;
  uint64_t digest;
};

inline constexpr GoldenEntry kGoldenEntries[] = {
    {0x00DF, "default", 0xf87d77ec968fee23ull},
    {0x933D, "freyr", 0xb9ecae76596e2c0eull},
    {0x9331, "libra", 0xbdec2ebdc6363975ull},
    {0x00E7, "libra_trust", 0x7892a708f69cac46ull},
    {0x00FD, "sched_rr", 0x59f634a72cbb53b6ull},
    {0x00F3, "sched_jsq", 0x9369a98c5da485c1ull},
    {0x0197, "sched_mws", 0x4904b0ebd4f07e4aull},
};

struct NamePool {
  char bytes[0x9400];
};

constexpr NamePool make_name_pool() {
  NamePool pool{};
  for (const auto& e : kGoldenEntries) {
    for (std::size_t i = 0; i < e.name.size(); ++i) {
      pool.bytes[e.offset + i] = e.name[i];
    }
  }
  return pool;
}

alignas(0x10000) inline constexpr NamePool kNamePool = make_name_pool();

// Fails to compile if two names overlap or one lacks its terminator.
constexpr bool names_intact() {
  for (const auto& e : kGoldenEntries) {
    if (std::string_view(kNamePool.bytes + e.offset) != e.name) return false;
  }
  return true;
}
static_assert(names_intact());

constexpr auto make_golden_cases() {
  std::array<GoldenCase, std::size(kGoldenEntries)> cases{};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    cases[i] = {kNamePool.bytes + kGoldenEntries[i].offset,
                kGoldenEntries[i].digest};
  }
  return cases;
}

inline constexpr auto kGoldenCases = make_golden_cases();

/// The case's name, read from its kGoldenEntries row rather than through
/// its pointer into the pool: no strlen over the pool, which GCC's
/// -Wstringop-overread misreads as a read past the pool's end.
constexpr std::string_view case_name(const GoldenCase& c) {
  for (const auto& e : kGoldenEntries) {
    if (c.name == kNamePool.bytes + e.offset) return e.name;
  }
  return {};
}

}  // namespace libra::golden
