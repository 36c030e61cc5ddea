// perfbench_driver: the measuring half of the benchmark (run.py drives it).
//
//   perfbench_driver batch DIR --out FILE [...]   one in-process resolve run
//   perfbench_driver served --port N [...]        traffic against a daemon
//
// Each mode prints one JSON line of measurements on stdout; see batch.cc and
// served.cc for the flags.

#include <cstdio>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "batch") return perfbench::RunBatch(argc - 1, argv + 1);
  if (mode == "served") return perfbench::RunServed(argc - 1, argv + 1);
  std::fprintf(stderr, "usage: perfbench_driver batch|served [flags]\n");
  return 2;
}
