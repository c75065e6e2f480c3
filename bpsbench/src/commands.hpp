// The bpsbench subcommands (see main.cpp for the dispatch table).
#pragma once

#include "util.hpp"

namespace bpsbench {

int capture_app(Args& args);  // capture_app.cpp
int fanin(Args& args);        // fanin.cpp
int gen_traces(Args& args);   // layers.cpp
int layers(Args& args);       // layers.cpp

}  // namespace bpsbench
