// The ISA objects of rng::simd (rng/simd_kernels_avx2.cpp and
// rng/simd_kernels_avx512.cpp, compiled with AVX flags) must define no
// weak symbol and no global one other than their kernel tables, the
// *_avx2 / *_avx512 entry points. A weak or global copy of a shared
// inline function compiled with those flags could be the copy the
// linker keeps for the whole program, which would then run AVX code on
// a host without it. The build lists the objects in DWI_SIMD_OBJECTS
// and names its nm in DWI_NM.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

/// A demangled symbol named *_avx2 or *_avx512 (parameters aside), or
/// AddressSanitizer's ODR indicator of one (`__odr_asan.` and the
/// still-mangled name, which ends in E).
bool entry_point(const std::string& symbol) {
  const std::string name = symbol.substr(0, symbol.find('('));
  const auto ends_with = [&name](const std::string& tail) {
    return name.size() >= tail.size() &&
           name.compare(name.size() - tail.size(), tail.size(), tail) == 0;
  };
  if (name.rfind("__odr_asan.", 0) == 0) {
    return ends_with("_avx2E") || ends_with("_avx512E");
  }
  return ends_with("_avx2") || ends_with("_avx512");
}

TEST(SimdObjects, ExportOnlyEntryPoints) {
  std::ifstream list(DWI_SIMD_OBJECTS);
  std::vector<std::string> objects;
  for (std::string line; std::getline(list, line);) {
    if (!line.empty()) objects.push_back(line);
  }
  if (objects.empty()) GTEST_SKIP() << "this build compiles no ISA objects";
  for (const std::string& object : objects) {
    SCOPED_TRACE(object);
    const std::string command =
        std::string(DWI_NM) + " --defined-only -C '" + object + "'";
    FILE* nm = popen(command.c_str(), "r");
    ASSERT_NE(nm, nullptr) << command;
    // "<address> <type> <name>"; an upper-case type is a global symbol,
    // W/V (either case) a weak one, u a unique global one.
    std::vector<std::string> leaked;
    int entry_points = 0;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, nm) != nullptr) {
      std::string line(buf);
      if (!line.empty() && line.back() == '\n') line.pop_back();
      const auto type_at = line.find(' ');
      if (type_at == std::string::npos || type_at + 3 > line.size()) continue;
      const char type = line[type_at + 1];
      const std::string name = line.substr(type_at + 3);
      // The unwinder's pointer to the C++ personality routine (weak data
      // in every object with landing pads, e.g. under ThreadSanitizer).
      if (name.rfind("DW.ref.", 0) == 0) continue;
      const bool weak = type == 'W' || type == 'V' || type == 'w' ||
                        type == 'v';
      const bool global = (type >= 'A' && type <= 'Z') || type == 'u';
      if (!weak && global && entry_point(name)) {
        ++entry_points;
      } else if (weak || global) {
        leaked.push_back(std::string(1, type) + " " + name);
      }
    }
    ASSERT_EQ(pclose(nm), 0) << command;
    EXPECT_GE(entry_points, 1) << "no *_avx2 / *_avx512 entry point";
    EXPECT_TRUE(leaked.empty()) << [&leaked] {
      std::string all = "symbols that are not ISA entry points:";
      for (const std::string& s : leaked) all += "\n  " + s;
      return all;
    }();
  }
}

}  // namespace
