// bpsio-lint — repo-specific static checks for the BPS metric pipeline.
//
// The BPS metric's validity rests on contracts a generic compiler never sees
// (PAPER.md §III.B): B must be accumulated in exact integer arithmetic, T
// must come from a deterministic interval merge, and the analysis paths must
// be replayable bit-for-bit. This tool is a token/regex scanner (no libclang)
// over src/ that turns those conventions into CI failures. It runs as a
// ctest (`bpsio_lint_src`) and self-verifies every rule against synthetic
// violations (`bpsio_lint_selftest`).
//
// Rules (see docs/STATIC_ANALYSIS.md for rationale):
//   iorecord-sort   std::sort/std::stable_sort over IoRecord ranges outside
//                   the blessed comparators in trace/ and metrics/overlap*.
//   raw-random      rand()/srand()/std::random_device/wall-clock reads
//                   outside common/rng (determinism: seeds only).
//   float-blocks    float/double variables holding block counts (B is exact;
//                   floating accumulation drifts).
//   bare-assert     assert( in src/ — contracts must use BPSIO_CHECK, which
//                   stays armed in Release.
//   mutable-global  static/namespace-scope mutable state that is not atomic,
//                   const, or a synchronization primitive.
//   records-materialize
//                   .records() member calls outside the source adapters in
//                   trace/ — materializing the full record vector caps
//                   analyzable traces at RAM; metric code pulls bounded
//                   chunks from a trace::RecordSource instead.
//   legacy-run-sweep
//                   calls to the removed positional run_sweep(specs,
//                   repeats, seed) overload — sweeps configure through
//                   core::SweepOptions.
//   unchecked-syscall
//                   discarded return values of read/write/pread/pwrite/
//                   ftruncate/fsync/fdatasync — a short or failed syscall
//                   that nobody noticed silently corrupts a trace file or
//                   drops records.
//   record-copy-loop
//                   range-for over an IoRecord span whose whole body is one
//                   unconditional push_back/add/append/ship/forward of the
//                   loop variable — every sink on the record path (spools,
//                   aggregators, the agent→collector forward link) has a
//                   bulk span overload; copying one record at a time
//                   forfeits it.
//   std-function-event-path
//                   std::function in src/sim, src/fs, src/device, src/pfs or
//                   src/mio — the simulated stack's per-event paths pass
//                   completions as the move-only, pool-backed sim::Callback;
//                   configuration-time callables take the allow comment.
//
// Escape hatch: `// bpsio-lint: allow(rule)` on the offending line or on a
// comment-only line directly above it. Every allow must carry a
// justification comment.
//
// Usage:
//   bpsio_lint --root <dir>     lint all .cpp/.hpp under <dir>
//   bpsio_lint <files...>       lint specific files
//   bpsio_lint --threads=N      fan the scan out over N workers (0 = all
//                               cores); output is order-stable either way
//   bpsio_lint --self-test      prove every rule fires and is suppressible
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "cli.hpp"
#include "source_model.hpp"
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// The comment/string-stripped token substrate is shared with bpsio_analyze
// (tools/source_model.hpp); only the rules live here.
using bpsio::srcmodel::SourceFile;
using bpsio::srcmodel::collect_files;
using bpsio::srcmodel::find_calls;
using bpsio::srcmodel::ident_char;
using bpsio::srcmodel::is_allowed;
using bpsio::srcmodel::path_contains;
using bpsio::srcmodel::statement_at;

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string detail;
};

SourceFile load_source(std::string path, const std::string& content) {
  return bpsio::srcmodel::load_source(std::move(path), content, "bpsio-lint");
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

using RuleFn = void (*)(const SourceFile&, std::vector<Finding>&);

void add_finding(const SourceFile& src, std::vector<Finding>& out,
                 std::size_t line, const char* rule, std::string detail) {
  if (is_allowed(src, line, rule)) return;
  out.push_back(Finding{src.path, line + 1, rule, std::move(detail)});
}

// Determinism contract (PAPER.md §III.B, Figure 3): IoRecord ranges are
// sorted only by the blessed comparators in trace/ and metrics/overlap*,
// which define the canonical (start_ns, end_ns) order that makes the
// parallel pipeline bit-identical to the serial one.
void rule_iorecord_sort(const SourceFile& src, std::vector<Finding>& out) {
  if (path_contains(src.path, "src/trace/") ||
      path_contains(src.path, "src/metrics/overlap")) {
    return;
  }
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    bool found = false;
    for (const char* fn : {"std::sort", "std::stable_sort", "std::partial_sort"}) {
      if (!find_calls(src.code[i], fn, /*require_paren=*/true).empty()) {
        found = true;
      }
    }
    if (!found) continue;
    const std::string stmt = statement_at(src, i);
    if (stmt.find("IoRecord") != std::string::npos) {
      add_finding(src, out, i, "iorecord-sort",
                  "sorting IoRecord range outside the blessed comparators in "
                  "trace/ and metrics/overlap*");
    }
  }
}

// Determinism contract: the only entropy source is common/rng (seeded,
// replayable); wall-clock reads would make runs non-reproducible.
void rule_raw_random(const SourceFile& src, std::vector<Finding>& out) {
  if (path_contains(src.path, "src/common/rng")) return;
  struct Probe {
    const char* token;
    bool call;  // must be followed by '('
  };
  const Probe probes[] = {
      {"rand", true},          {"srand", true},
      {"random_device", false}, {"time", true},
      {"clock", true},         {"gettimeofday", true},
      {"system_clock", false}, {"steady_clock", false},
      {"high_resolution_clock", false},
  };
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    for (const Probe& p : probes) {
      if (!find_calls(src.code[i], p.token, p.call).empty()) {
        add_finding(src, out, i, "raw-random",
                    std::string("'") + p.token +
                        "' outside common/rng breaks deterministic replay");
      }
    }
  }
}

// Exactness contract (paper: B is a *count* of required blocks): block
// counts accumulate in unsigned integers; a float/double accumulator loses
// exactness past 2^53 and drifts under reassociation.
void rule_float_blocks(const SourceFile& src, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& code = src.code[i];
    for (const char* type : {"double", "float"}) {
      for (std::size_t at : find_calls(code, type, /*require_paren=*/false)) {
        // Scan the declared name(s): stop at anything that ends the
        // declarator head (initializer, call, statement end).
        std::size_t end = code.find_first_of("=;,(){", at);
        if (end == std::string::npos) end = code.size();
        const std::string head = code.substr(at, end - at);
        const std::size_t b = head.find("block");
        // Require "block" to start an identifier-ish word (total_blocks,
        // blocks_, block_count), not e.g. a type name mid-token.
        if (b != std::string::npos) {
          add_finding(src, out, i, "float-blocks",
                      "block counts must accumulate in integers (B is exact); "
                      "convert to double only at the final division");
          break;
        }
      }
    }
  }
}

// Release-mode contract checks: assert() compiles out under NDEBUG (the
// default build), silently disarming every invariant. BPSIO_CHECK stays on.
void rule_bare_assert(const SourceFile& src, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    for (std::size_t at :
         find_calls(src.code[i], "assert", /*require_paren=*/true)) {
      // static_assert is compile-time and fine; find_calls already rejects
      // identifier-prefixed matches, but be explicit about intent.
      (void)at;
      add_finding(src, out, i, "bare-assert",
                  "use BPSIO_CHECK/BPSIO_DCHECK (common/check.hpp): assert() "
                  "is a no-op in Release builds");
      break;
    }
  }
}

// Concurrency contract: the analysis layer fans out through ThreadPool;
// non-atomic mutable shared state is a data race waiting for a schedule.
// Synchronization primitives and constants are exempt.
void rule_mutable_global(const SourceFile& src, std::vector<Finding>& out) {
  auto benign = [](const std::string& stmt) {
    for (const char* ok :
         {"const", "constexpr", "thread_local", "atomic", "Mutex", "mutex",
          "once_flag", "CondVar"}) {
      if (stmt.find(ok) != std::string::npos) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& code = src.code[i];

    // (a) `static` storage that is not const/atomic/sync and initializes or
    // declares a variable (function declarations contain '(' before any '='
    // or ';' and are skipped).
    for (std::size_t at : find_calls(code, "static", /*require_paren=*/false)) {
      const std::string stmt = statement_at(src, i).substr(
          i == 0 ? at : 0);  // cheap: whole joined statement
      if (benign(stmt)) continue;
      const std::size_t paren = stmt.find('(');
      const std::size_t eq = stmt.find('=');
      const std::size_t semi = stmt.find(';');
      const bool is_function =
          paren != std::string::npos &&
          (eq == std::string::npos || paren < eq) &&
          (semi == std::string::npos || paren < semi);
      if (is_function) continue;
      if (semi == std::string::npos && eq == std::string::npos) continue;
      add_finding(src, out, i, "mutable-global",
                  "static mutable state must be std::atomic, const, or a "
                  "synchronization primitive");
      break;
    }

    // (b) namespace-scope `g_` globals (project convention) that are not
    // atomic/const/sync-typed.
    for (std::size_t at : find_calls(code, "g_", /*require_paren=*/false)) {
      (void)at;
      // Only treat as a *declaration* when a type-ish token precedes g_ on
      // the same line (crude but effective: line must not start with g_ and
      // must end the statement with '=' or ';').
      const std::string stmt = statement_at(src, i);
      const std::size_t first = code.find_first_not_of(" \t");
      if (first == std::string::npos) continue;
      if (code.compare(first, 2, "g_") == 0) continue;  // use, not decl
      if (stmt.find('=') == std::string::npos &&
          stmt.find(';') == std::string::npos) {
        continue;
      }
      if (benign(stmt)) continue;
      // Reject expressions (assignment to member, function call args...):
      // require the g_ token to be directly preceded by an identifier or
      // '>' or '&' plus whitespace — i.e. `Type g_name`.
      const std::size_t g = code.find("g_");
      std::size_t p = g;
      while (p > 0 && code[p - 1] == ' ') --p;
      if (p == 0) continue;
      const char before = code[p - 1];
      if (!ident_char(before) && before != '>' && before != '&' &&
          before != '*') {
        continue;
      }
      add_finding(src, out, i, "mutable-global",
                  "namespace-scope mutable global must be std::atomic, "
                  "const, or a synchronization primitive");
      break;
    }
  }
}

// Bounded-memory contract (streaming pipeline): iterating a collector's or
// buffer's .records() vector materializes the whole trace, capping analyzable
// sizes at RAM. Only the source adapters in trace/ (collector_source, which
// filters and sorts a snapshot, and the buffers it wraps) may touch it;
// metric code pulls chunks from a trace::RecordSource.
void rule_records_materialize(const SourceFile& src,
                              std::vector<Finding>& out) {
  if (path_contains(src.path, "src/trace/")) return;
  const std::string token = "records";
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& code = src.code[i];
    std::size_t at = 0;
    while ((at = code.find(token, at)) != std::string::npos) {
      const std::size_t end = at + token.size();
      // Member access only (`.records()` / `->records()`): free identifiers
      // and longer names (record_count, records_) are unrelated.
      const bool member =
          (at >= 1 && code[at - 1] == '.') ||
          (at >= 2 && code[at - 2] == '-' && code[at - 1] == '>');
      const bool whole = end >= code.size() || !ident_char(code[end]);
      bool call = false;
      if (whole) {
        std::size_t j = end;
        while (j < code.size() && code[j] == ' ') ++j;
        call = j < code.size() && code[j] == '(';
      }
      if (member && whole && call) {
        add_finding(src, out, i, "records-materialize",
                    "iterating .records() materializes the whole trace; pull "
                    "bounded chunks from a trace::RecordSource "
                    "(trace/record_source.hpp) instead");
        break;
      }
      at = end;
    }
  }
}

// API contract: the positional run_sweep(specs, repeats, seed) overload was
// removed in favor of run_sweep(specs, SweepOptions) — the positional form
// silently reorders meaning when a parameter is added. This guard keeps the
// deleted overload from creeping back in call sites (a numeric second
// argument can only be the legacy shape).
void rule_legacy_run_sweep(const SourceFile& src, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    for (std::size_t at :
         find_calls(src.code[i], "run_sweep", /*require_paren=*/true)) {
      (void)at;
      const std::string stmt = statement_at(src, i);
      const std::size_t open = stmt.find("run_sweep");
      const std::size_t paren = stmt.find('(', open);
      if (paren == std::string::npos) continue;
      const std::size_t comma = stmt.find(',', paren);
      if (comma == std::string::npos) continue;  // single-argument call
      std::size_t arg = comma + 1;
      while (arg < stmt.size() && stmt[arg] == ' ') ++arg;
      const bool numeric_second =
          arg < stmt.size() &&
          std::isdigit(static_cast<unsigned char>(stmt[arg]));
      if (numeric_second || stmt.find("uint32_t repeats") != std::string::npos) {
        add_finding(src, out, i, "legacy-run-sweep",
                    "positional run_sweep(specs, repeats, seed) was removed; "
                    "pass a core::SweepOptions (core/experiment.hpp)");
        break;
      }
    }
  }
}

// Durability contract (capture subsystem, DESIGN.md §9): a discarded
// read/write/fsync result hides short transfers and failures — a spill file
// silently truncates, a trace silently drops records. Only calls whose
// result is discarded as a bare expression-statement are flagged; assigning,
// testing, or explicitly `(void)`-casting the result all pass, as do stream
// member calls like `out.write(...)`.
void rule_unchecked_syscall(const SourceFile& src, std::vector<Finding>& out) {
  const char* probes[] = {"read",   "write",     "pread",     "pwrite",
                          "pread64", "pwrite64", "ftruncate", "fsync",
                          "fdatasync"};
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& code = src.code[i];
    for (const char* probe : probes) {
      bool flagged = false;
      for (std::size_t at : find_calls(code, probe, /*require_paren=*/true)) {
        // Walk left past an optional `::` qualifier.
        std::size_t p = at;
        while (p > 0 && code[p - 1] == ' ') --p;
        if (p >= 2 && code[p - 1] == ':' && code[p - 2] == ':') p -= 2;
        while (p > 0 && code[p - 1] == ' ') --p;
        // The call discards its result only when it begins a statement: the
        // previous code character (possibly on an earlier line) must close a
        // statement or open a block.
        char before = '\0';
        if (p > 0) {
          before = code[p - 1];
        } else {
          for (std::size_t j = i; j-- > 0;) {
            const std::size_t last = src.code[j].find_last_not_of(" \t");
            if (last != std::string::npos) {
              before = src.code[j][last];
              break;
            }
          }
        }
        if (before != '\0' && before != ';' && before != '{' && before != '}') {
          continue;
        }
        add_finding(src, out, i, "unchecked-syscall",
                    std::string("discarded result of ") + probe +
                        "(): a short or failed call goes unnoticed — check "
                        "it, or cast to (void) with a justification");
        flagged = true;
        break;
      }
      if (flagged) break;
    }
  }
}

// Zero-copy contract (DESIGN.md §13): every sink on the record path has a
// bulk span overload — SpillWriter::append(span), MetricAggregator::add(span),
// SlidingWindowMetrics::add(span), vector range-insert. A range-for over an
// IoRecord span whose whole body is one unconditional push_back/add/append of
// the loop variable re-introduces exactly the per-record cost the span
// substrate removed; hand the span to the sink instead. Loops that filter,
// transform, or do anything else per record are untouched.
void rule_record_copy_loop(const SourceFile& src, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const auto keys = find_calls(src.code[i], "for", /*require_paren=*/true);
    if (keys.empty()) continue;
    // Join the for-header and its first body statement into one string; the
    // find_calls hit indexes line i, which is also joined's first segment.
    std::string joined;
    for (std::size_t j = i; j < src.code.size() && j < i + 6; ++j) {
      joined += src.code[j];
      joined += ' ';
    }
    const std::size_t open = joined.find('(', keys.front());
    if (open == std::string::npos) continue;
    std::size_t depth = 1;
    std::size_t close = open + 1;
    while (close < joined.size() && depth > 0) {
      if (joined[close] == '(') ++depth;
      if (joined[close] == ')') --depth;
      ++close;
    }
    if (depth != 0) continue;
    --close;  // index of the matching ')'
    const std::string header = joined.substr(open + 1, close - open - 1);
    // Range-for over records only: `for (const IoRecord& r : span)`.
    if (header.find("IoRecord") == std::string::npos) continue;
    if (header.find(';') != std::string::npos) continue;  // classic for
    const std::size_t colon = header.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        header[colon - 1] == ':' ||
        (colon + 1 < header.size() && header[colon + 1] == ':')) {
      continue;
    }
    std::size_t ve = colon;
    while (ve > 0 && header[ve - 1] == ' ') --ve;
    std::size_t vb = ve;
    while (vb > 0 && ident_char(header[vb - 1])) --vb;
    const std::string var = header.substr(vb, ve - vb);
    if (var.empty()) continue;
    // The body must be exactly one statement: `{ sink.push_back(r); }`,
    // where the closing brace follows the statement, or the braceless form,
    // whose statement ends the loop — what follows it belongs to the
    // enclosing block.
    std::string body = joined.substr(close + 1);
    const std::size_t semi = body.find(';');
    if (semi == std::string::npos) continue;
    const std::size_t first = body.find_first_not_of(' ');
    if (first != std::string::npos && body[first] == '{') {
      const std::size_t tail = body.find_first_not_of(' ', semi + 1);
      if (tail == std::string::npos || body[tail] != '}') continue;
    }
    std::string compact;
    for (char c : body.substr(0, semi + 1)) {
      if (c != ' ' && c != '{') compact += c;
    }
    for (const char* method :
         {"push_back", "add", "append", "insert", "ship", "forward"}) {
      for (const char* access : {".", "->"}) {
        const std::string suffix =
            std::string(access) + method + "(" + var + ");";
        if (compact.size() <= suffix.size()) continue;
        if (compact.compare(compact.size() - suffix.size(), suffix.size(),
                            suffix) != 0) {
          continue;
        }
        // The receiver must be a plain object expression — a '(' in it means
        // the copy is conditional (`if (...) out.push_back(r);`) or computed,
        // which this rule leaves alone.
        const std::string recv =
            compact.substr(0, compact.size() - suffix.size());
        if (recv.find('(') != std::string::npos) continue;
        add_finding(src, out, i, "record-copy-loop",
                    std::string("per-record ") + method + "(" + var +
                        ") loop over an IoRecord range; pass the whole span "
                        "to the sink's bulk overload instead");
        return;  // one finding per file is enough to fail the scan
      }
    }
  }
}

// Allocation-free event core (DESIGN.md §17): the simulated stack passes
// every completion as a move-only sim::Callback whose storage comes from the
// simulator's block pool. A std::function on those paths copies its captures
// and heap-allocates once they outgrow its small buffer, at every level of
// the nested completion chain — the cost the event core was rebuilt to
// remove. Callables set once at configuration time take the allow comment.
void rule_std_function_event_path(const SourceFile& src,
                                  std::vector<Finding>& out) {
  bool event_path = false;
  for (const char* dir :
       {"src/sim/", "src/fs/", "src/device/", "src/pfs/", "src/mio/"}) {
    event_path = event_path || path_contains(src.path, dir);
  }
  if (!event_path) return;
  for (std::size_t i = 0; i < src.code.size(); ++i) {
    const std::string& code = src.code[i];
    for (std::size_t at : find_calls(code, "function", /*require_paren=*/false)) {
      if (at < 5 || code.compare(at - 5, 5, "std::") != 0) continue;
      add_finding(src, out, i, "std-function-event-path",
                  "std::function on the simulated stack's event paths "
                  "allocates per completion; use the move-only sim::Callback "
                  "(sim/callback.hpp)");
      break;
    }
  }
}

const std::map<std::string, RuleFn>& all_rules() {
  static const std::map<std::string, RuleFn> rules = {
      {"iorecord-sort", rule_iorecord_sort},
      {"raw-random", rule_raw_random},
      {"float-blocks", rule_float_blocks},
      {"bare-assert", rule_bare_assert},
      {"mutable-global", rule_mutable_global},
      {"records-materialize", rule_records_materialize},
      {"legacy-run-sweep", rule_legacy_run_sweep},
      {"unchecked-syscall", rule_unchecked_syscall},
      {"record-copy-loop", rule_record_copy_loop},
      {"std-function-event-path", rule_std_function_event_path},
  };
  return rules;
}

std::vector<Finding> lint_source(const SourceFile& src) {
  std::vector<Finding> findings;
  for (const auto& [name, fn] : all_rules()) fn(src, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line < b.line;
            });
  return findings;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Lint every file, fanned out over `threads` workers. Output is
/// deterministic regardless of thread count: per-file results land in
/// order-indexed slots and print in input order once all workers join.
int lint_paths(const std::vector<std::string>& files, std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? hw : 1;
  }
  threads = std::min(threads, files.size() > 0 ? files.size() : std::size_t{1});

  std::vector<std::vector<Finding>> findings(files.size());
  std::vector<bool> unreadable(files.size(), false);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= files.size()) return;
      std::ifstream in(files[i], std::ios::binary);
      if (!in) {
        unreadable[i] = true;  // each worker owns its own slots: no race
        continue;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      findings[i] = lint_source(load_source(files[i], buf.str()));
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads > 0 ? threads - 1 : 0);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  std::size_t total = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (unreadable[i]) {
      std::fprintf(stderr, "bpsio-lint: cannot open %s\n", files[i].c_str());
      return 2;
    }
    for (const Finding& f : findings[i]) {
      std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.detail.c_str());
      ++total;
    }
  }
  if (total > 0) {
    std::printf("bpsio-lint: %zu violation(s) in %zu file(s) scanned\n", total,
                files.size());
    return 1;
  }
  std::printf("bpsio-lint: clean (%zu files)\n", files.size());
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: every rule must fire on a synthetic violation, stay quiet on a
// conforming twin, and honor the allow-comment.
// ---------------------------------------------------------------------------

struct SelfCase {
  const char* rule;
  const char* path;     // fake path (rules are path-sensitive)
  const char* bad;      // must produce exactly one finding for `rule`
  const char* good;     // must produce no finding for `rule`
};

const SelfCase kSelfCases[] = {
    {"iorecord-sort", "src/metrics/calculators.cpp",
     "void f(std::vector<IoRecord>& v) {\n"
     "  std::sort(v.begin(), v.end(),\n"
     "            [](const IoRecord& a, const IoRecord& b) {\n"
     "              return a.start_ns < b.start_ns;\n"
     "            });\n"
     "}\n",
     // Same sort is fine in the blessed location — checked via path below —
     // and sorting non-record data is fine anywhere.
     "void f(std::vector<double>& v) { std::sort(v.begin(), v.end()); }\n"},
    {"raw-random", "src/device/ssd_model.cpp",
     "int jitter() { return rand() % 7; }\n",
     "int jitter(Rng& rng) { return static_cast<int>(rng.next_u64() % 7); }\n"},
    {"raw-random", "src/device/ssd_model.cpp",
     "double now() { return std::chrono::system_clock::now().time_since_epoch().count(); }\n",
     "SimDuration busy = busy_time(now); // member call named time is fine\n"},
    {"float-blocks", "src/metrics/calculators.cpp",
     "double total_blocks = 0;\n",
     "std::uint64_t total_blocks = 0; double bps = 0;\n"},
    {"bare-assert", "src/sim/simulator.cpp",
     "void f(int x) { assert(x > 0); }\n",
     "void f(int x) { BPSIO_CHECK(x > 0); static_assert(sizeof(int) == 4); }\n"},
    {"mutable-global", "src/common/log.cpp",
     "static int g_counter = 0;\n",
     "static const int g_counter = 0;\n"
     "std::atomic<int> g_hits{0};\n"
     "Mutex g_mu;\n"
     "static std::size_t hardware_threads();\n"},
    {"records-materialize", "src/metrics/foo.cpp",
     "void f(const trace::TraceCollector& c) {\n"
     "  for (const auto& r : c.records()) { use(r); }\n"
     "}\n",
     "void f(const trace::TraceCollector& c) {\n"
     "  auto source = trace::collector_source(c);\n"
     "  const std::uint64_t n = acc.record_count();\n"
     "  std::vector<IoRecord> records;\n"
     "}\n"},
    {"legacy-run-sweep", "src/core/study.cpp",
     "auto r = run_sweep(specs, 5, 42);\n",
     "core::SweepOptions opt;\n"
     "auto r = run_sweep(specs, opt);\n"
     "auto s = run_sweep(specs);\n"},
    {"unchecked-syscall", "src/trace/spill_writer.cpp",
     "void f(int fd, const char* p, size_t n) {\n"
     "  ::write(fd, p, n);\n"
     "}\n",
     // Checked, assigned, or (void)-cast results are all fine, as are
     // stream member calls and function *definitions* named like syscalls.
     "ssize_t write_all(int fd, const char* p, size_t n) {\n"
     "  const ssize_t ret = ::write(fd, p, n);\n"
     "  if (fsync(fd) != 0) return -1;\n"
     "  (void)ftruncate(fd, 0);\n"
     "  out.write(p, n);\n"
     "  return ret;\n"
     "}\n"},
    {"record-copy-loop", "src/agent/server.cpp",
     "void f(std::span<const trace::IoRecord> chunk, SpillWriter& out) {\n"
     "  for (const trace::IoRecord& r : chunk) {\n"
     "    out.append(r);\n"
     "  }\n"
     "}\n",
     // Bulk hand-off, filtered copies, and per-record work other than a bare
     // copy are all fine.
     "void f(std::span<const trace::IoRecord> chunk, SpillWriter& out) {\n"
     "  out.append(chunk);\n"
     "  for (const trace::IoRecord& r : chunk) {\n"
     "    if (r.valid()) kept.push_back(r);\n"
     "  }\n"
     "  for (const trace::IoRecord& r : chunk) blocks += r.blocks;\n"
     "}\n"},
    {"record-copy-loop", "src/collector/server.cpp",
     // The forwarding path has the same bulk contract: ForwardLink::append
     // and friends take whole spans, so a one-record-at-a-time ship loop is
     // the same regression wearing a different method name.
     "void f(std::span<const trace::IoRecord> frame, ForwardLink& link) {\n"
     "  for (const trace::IoRecord& r : frame) {\n"
     "    link.ship(r);\n"
     "  }\n"
     "}\n",
     "void f(std::span<const trace::IoRecord> frame, ForwardLink& link) {\n"
     "  link.append(stream_id, frame);\n"
     "  for (const trace::IoRecord& r : frame) {\n"
     "    if (!r.valid()) link.forward(r);\n"
     "  }\n"
     "}\n"},
    {"record-copy-loop", "src/capture/record_shipper.cpp",
     // A braceless body ends at its statement: the `if` after it belongs
     // to the enclosing block and does not make the copy any less
     // per-record.
     "bool f(std::span<const trace::IoRecord> records) {\n"
     "  for (const trace::IoRecord& record : records) writer_->append(record);\n"
     "  if (!writer_->checkpoint().ok()) return false;\n"
     "  return true;\n"
     "}\n",
     // A braced body with a second statement does more than copy.
     "bool f(std::span<const trace::IoRecord> records) {\n"
     "  writer_->append(records);\n"
     "  for (const trace::IoRecord& record : records) {\n"
     "    writer_->append(record);\n"
     "    ++seen;\n"
     "  }\n"
     "  if (!writer_->checkpoint().ok()) return false;\n"
     "  return true;\n"
     "}\n"},
    {"record-copy-loop", "src/agent/spool.cpp",
     // Code after a braced loop's closing brace is not part of its body.
     "void f(std::span<const trace::IoRecord> chunk, SpillWriter& out) {\n"
     "  for (const trace::IoRecord& r : chunk) {\n"
     "    out.append(r);\n"
     "  }\n"
     "  flushed = out.flush().ok();\n"
     "}\n",
     "void f(std::span<const trace::IoRecord> chunk, SpillWriter& out) {\n"
     "  out.append(chunk);\n"
     "  flushed = out.flush().ok();\n"
     "}\n"},
    {"std-function-event-path", "src/fs/local_fs.hpp",
     "void write_out(Bytes offset, std::function<void(bool)> done);\n",
     // The pooled callback, the header that merely shares the prefix, and a
     // member or variable called `function` are all fine.
     "#include <functional>\n"
     "void write_out(Bytes offset, sim::JoinFn done);\n"
     "using IoDoneFn = sim::Callback<void(IoOutcome)>;\n"
     "const auto& f = spec.function;\n"},
};

int self_test() {
  int failures = 0;
  auto count_rule = [](const std::vector<Finding>& fs, const std::string& rule) {
    std::size_t n = 0;
    for (const auto& f : fs) {
      if (f.rule == rule) ++n;
    }
    return n;
  };
  for (const SelfCase& c : kSelfCases) {
    const SourceFile bad = load_source(c.path, c.bad);
    const SourceFile good = load_source(c.path, c.good);
    const std::size_t bad_hits = count_rule(lint_source(bad), c.rule);
    const std::size_t good_hits = count_rule(lint_source(good), c.rule);
    if (bad_hits == 0) {
      std::printf("SELF-TEST FAIL [%s]: rule did not fire on violation\n",
                  c.rule);
      ++failures;
    }
    if (good_hits != 0) {
      std::printf("SELF-TEST FAIL [%s]: rule fired on conforming code\n",
                  c.rule);
      ++failures;
    }
    // An allow-comment line directly above the firing line suppresses it.
    std::vector<Finding> bad_findings = lint_source(bad);
    for (const Finding& f : bad_findings) {
      if (f.rule != c.rule) continue;
      std::vector<std::string> lines = bad.raw;
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(f.line - 1),
                   std::string("// bpsio-lint: allow(") + c.rule + ")");
      std::string joined;
      for (const std::string& l : lines) joined += l + "\n";
      const SourceFile suppressed = load_source(c.path, joined);
      if (count_rule(lint_source(suppressed), c.rule) != 0) {
        std::printf("SELF-TEST FAIL [%s]: allow-comment did not suppress\n",
                    c.rule);
        ++failures;
      }
      break;
    }
  }
  // Path sensitivity: the same IoRecord sort is blessed inside trace/.
  {
    const SourceFile blessed = load_source(
        "src/trace/merge.cpp",
        "void f(std::vector<IoRecord>& v) {\n"
        "  std::sort(v.begin(), v.end(),\n"
        "            [](const IoRecord& a, const IoRecord& b) {\n"
        "              return a.start_ns < b.start_ns;\n"
        "            });\n"
        "}\n");
    if (count_rule(lint_source(blessed), "iorecord-sort") != 0) {
      std::printf("SELF-TEST FAIL [iorecord-sort]: fired in blessed path\n");
      ++failures;
    }
  }
  // Path sensitivity: the source adapters in trace/ may touch .records().
  {
    const SourceFile blessed = load_source(
        "src/trace/record_source.cpp",
        "void f(const TraceCollector& c) {\n"
        "  for (const auto& r : c.records()) { use(r); }\n"
        "}\n");
    if (count_rule(lint_source(blessed), "records-materialize") != 0) {
      std::printf(
          "SELF-TEST FAIL [records-materialize]: fired in blessed path\n");
      ++failures;
    }
  }
  // Comments and strings never trigger rules.
  {
    const SourceFile quiet = load_source(
        "src/metrics/calculators.cpp",
        "// assert(false) and rand() in a comment\n"
        "const char* kDoc = \"assert(rand())\";\n");
    if (!lint_source(quiet).empty()) {
      std::printf("SELF-TEST FAIL: comment/string text triggered a rule\n");
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("bpsio-lint self-test: all %zu rules verified\n",
                all_rules().size());
    return 0;
  }
  std::printf("bpsio-lint self-test: %d failure(s)\n", failures);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool run_self_test = false;
  std::string root;
  long long threads = 0;
  bpsio::cli::ArgParser parser(
      "bpsio_lint",
      "Repo-specific static checks for the BPS metric pipeline\n"
      "(see docs/STATIC_ANALYSIS.md).");
  parser.positionals("[<files...>]");
  parser.add_flag("--self-test", &run_self_test,
                  "prove every rule fires and is suppressible");
  parser.add_string("--root", &root, "DIR", "lint all .cpp/.hpp under DIR");
  parser.add_int("--threads", &threads, 0, 4096, "N",
                 "worker threads (0 = all cores; output order is "
                 "thread-count independent)");

  std::vector<std::string> files;
  switch (parser.parse(argc, argv, files)) {
    case bpsio::cli::ArgParser::Outcome::ok:
      break;
    case bpsio::cli::ArgParser::Outcome::help:
      return 0;
    case bpsio::cli::ArgParser::Outcome::error:
      return 2;
  }
  if (run_self_test) return self_test();
  if (!root.empty()) {
    const std::vector<std::string> found = collect_files(root);
    files.insert(files.end(), found.begin(), found.end());
  }
  if (files.empty()) {
    std::fputs(parser.usage().c_str(), stderr);
    return 2;
  }
  return lint_paths(files, static_cast<std::size_t>(threads));
}
