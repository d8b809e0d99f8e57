// The machine record a bench JSON carries, so a committed number names the
// host and build it came from: hardware threads, compiler, build type and
// the commit of the source tree.
//
// The compiler, build type and source directory come from compile
// definitions the bench targets get in CMakeLists.txt; a bench built any
// other way records "unknown" for them.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#ifndef MPX_BENCH_COMPILER
#define MPX_BENCH_COMPILER "unknown"
#endif
#ifndef MPX_BENCH_BUILD_TYPE
#define MPX_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MPX_BENCH_SOURCE_DIR
#define MPX_BENCH_SOURCE_DIR "."
#endif

namespace mpx::bench {

/// `git rev-parse HEAD` of the source tree, with "-dirty" appended when
/// the tracked files differ from that commit; "unknown" outside a git
/// checkout.
inline std::string git_sha() {
  const std::string dir = MPX_BENCH_SOURCE_DIR;
  std::FILE* pipe =
      popen(("git -C '" + dir + "' rev-parse HEAD 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buffer[64] = {};
  const bool read = std::fgets(buffer, sizeof(buffer), pipe) != nullptr;
  if (pclose(pipe) != 0 || !read) return "unknown";
  std::string sha(buffer);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  const std::string dirty_check =
      "git -C '" + dir + "' diff --quiet HEAD -- 2>/dev/null";
  if (std::system(dirty_check.c_str()) != 0) sha += "-dirty";
  return sha;
}

/// Writes `  "machine": {...},` as one line of an open JSON object.
inline void write_machine_json(std::FILE* f) {
  std::fprintf(f,
               "  \"machine\": {\"hardware_threads\": %u, \"compiler\": "
               "\"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\"},\n",
               std::thread::hardware_concurrency(), MPX_BENCH_COMPILER,
               MPX_BENCH_BUILD_TYPE, git_sha().c_str());
}

}  // namespace mpx::bench
