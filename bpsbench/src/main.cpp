// bpsbench — helper programs of the bpsio benchmark (driven by run.py).
//
//   bpsbench capture-app --files=A,B --seconds=S --seed=N   traced application
//   bpsbench fanin --agent-socket=P --collector-port=N ...  live load generator
//   bpsbench gen-traces --dir=D --seed=N --files=F --records=R
//   bpsbench layers --dir=D --seed=N ...                    per-layer replay
//
// Each prints one JSON object on stdout; errors go to stderr with exit 1.
#include <cstdio>
#include <exception>
#include <string>

#include "commands.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bpsbench capture-app|fanin|gen-traces|layers --key=value...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    bpsbench::Args args(argc, argv, 2);
    if (cmd == "capture-app") return bpsbench::capture_app(args);
    if (cmd == "fanin") return bpsbench::fanin(args);
    if (cmd == "gen-traces") return bpsbench::gen_traces(args);
    if (cmd == "layers") return bpsbench::layers(args);
    std::fprintf(stderr, "bpsbench: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bpsbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
