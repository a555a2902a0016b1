//===- GoldenData.h - Helpers for tests that compare with pinned data -----==//
///
/// Shared by the golden-digest tests: a stable 64-bit hash for rendering
/// large observable outputs as one short token, and lookup of a pinned line
/// by its key in a data file under tests/data.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_TESTS_GOLDENDATA_H
#define DDA_TESTS_GOLDENDATA_H

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

namespace dda::golden {

inline std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

inline uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

/// The text after "<Key> " on the line of tests/data/<File> that starts
/// with it, or "<missing>" when no line does.
inline std::string pinnedLine(const std::string &File, const std::string &Key) {
  std::ifstream In(std::string(DDA_TEST_DATA_DIR) + "/" + File);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.size() > Key.size() && Line.compare(0, Key.size(), Key) == 0 &&
        Line[Key.size()] == ' ')
      return Line.substr(Key.size() + 1);
  return "<missing>";
}

} // namespace dda::golden

#endif // DDA_TESTS_GOLDENDATA_H
