// bpsio-analyze: whole-program static analyzer for the capture hot path and
// the lock discipline. Where bpsio_lint judges single lines, this tool
// extracts function definitions and call sites across src/ + tools/ from the
// same comment/string-stripped token substrate (tools/source_model.hpp),
// builds a call graph, and runs three transitive checks:
//
//   interposer-unsafe   Every function reachable from the extern "C" entry
//                       points in src/capture/interpose.cpp (open/openat/
//                       close/read/write/pread(64)/pwrite(64)/fsync/
//                       fdatasync) must not reach a deny list of
//                       hot-path-unsafe operations — allocation (malloc/new),
//                       std::string/std::vector growth, stdio/iostream,
//                       locks (MutexLock, .lock(), lock_guard, ...), dlopen,
//                       abort/exit, BPSIO_CHECK — unless the call sits after
//                       a ReentrancyGuard in scope (bookkeeping that the
//                       wrappers themselves drop) or carries an explicit
//                       allow. Findings print the full call chain from the
//                       entry point to the unsafe call.
//   errno-preservation  Each interposed entry point that runs capture
//                       bookkeeping after the real call must save errno into
//                       a local and restore it before returning, so the host
//                       application only ever observes the real syscall's
//                       errno. (Bookkeeping that completes before the real
//                       call — close()'s note_close — needs no protection.)
//   lock-cycle          A static lock-order graph built from MutexLock
//                       nesting across function boundaries: an edge A -> B
//                       means B was acquired while A was held, transitively
//                       through calls. Any cycle is a potential deadlock.
//                       (src/common/mutex.hpp carries the matching runtime
//                       detector for Debug/sanitizer builds.)
//
// Suppression: `// bpsio-analyze: allow(check, ...)` on the offending line
// or on a comment-only line directly above. For interposer-unsafe, an allow
// on a call also vouches for the callee — traversal stops there.
//
// Model limits (deliberate, documented in docs/STATIC_ANALYSIS.md): calls
// resolve by simple name (same-file definitions preferred), so overload sets
// and virtual dispatch are over-approximated; operator overloads and macro
// bodies are not functions; template calls through an explicit argument list
// (`as_fn<Fn>(x)`) are invisible. The deny list is checked before
// resolution, so a project function shadowing a deny name still counts as
// unsafe. dlsym is intentionally NOT denied: the wrappers' one-time
// `static void* const real = dlsym(...)` resolution is part of the design.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cli.hpp"
#include "source_model.hpp"

namespace {

using bpsio::srcmodel::SourceFile;
using bpsio::srcmodel::collect_files;
using bpsio::srcmodel::is_allowed;
using bpsio::srcmodel::path_contains;

constexpr const char* kAllowTag = "bpsio-analyze";

struct Finding {
  std::string file;
  std::size_t line = 0;  // 0-based
  std::string check;
  std::string detail;
};

// ---------------------------------------------------------------------------
// Tokenization
// ---------------------------------------------------------------------------

struct Tok {
  bool ident = false;
  std::string text;
  std::size_t line = 0;  // 0-based
};

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "alignas",      "alignof",  "auto",       "bool",
      "break",        "case",     "catch",      "char",
      "class",        "co_await", "co_return",  "co_yield",
      "concept",      "const",    "const_cast", "consteval",
      "constexpr",    "constinit","continue",   "decltype",
      "default",      "delete",   "do",         "double",
      "dynamic_cast", "else",     "enum",       "explicit",
      "extern",       "false",    "float",      "for",
      "friend",       "goto",     "if",         "inline",
      "int",          "long",     "mutable",    "namespace",
      "new",          "noexcept", "nullptr",    "operator",
      "private",      "protected","public",     "register",
      "reinterpret_cast", "requires", "return", "short",
      "signed",       "sizeof",   "static",     "static_assert",
      "static_cast",  "struct",   "switch",     "template",
      "this",         "thread_local", "throw",  "true",
      "try",          "typedef",  "typeid",     "typename",
      "union",        "unsigned", "using",      "virtual",
      "void",         "volatile", "while",
  };
  return kKeywords.count(s) != 0;
}

std::vector<Tok> tokenize(const SourceFile& src) {
  std::vector<Tok> toks;
  for (std::size_t line = 0; line < src.code.size(); ++line) {
    const std::string& code = src.code[line];
    for (std::size_t i = 0; i < code.size();) {
      const char c = code[i];
      if (c == ' ' || c == '\t') {
        ++i;
        continue;
      }
      if (bpsio::srcmodel::ident_char(c)) {
        std::size_t j = i + 1;
        while (j < code.size() && bpsio::srcmodel::ident_char(code[j])) ++j;
        toks.push_back(Tok{true, code.substr(i, j - i), line});
        i = j;
        continue;
      }
      if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
        toks.push_back(Tok{false, "::", line});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
        toks.push_back(Tok{false, "->", line});
        i += 2;
        continue;
      }
      toks.push_back(Tok{false, std::string(1, c), line});
      ++i;
    }
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Function extraction
// ---------------------------------------------------------------------------

struct CallSite {
  std::string name;
  std::size_t line = 0;
  bool guarded = false;           ///< after a ReentrancyGuard in scope
  std::vector<std::string> held;  ///< lock ids held at the call
};

struct LockAcq {
  std::string lock;  ///< normalized id, e.g. "ThreadPool::mu" or "g_sink_mu"
  std::size_t line = 0;
  bool guarded = false;
  std::vector<std::string> held;  ///< locks already held when acquired
};

struct Function {
  std::string name;  ///< simple name ("append")
  std::string cls;   ///< enclosing class if any ("ThreadCapture")
  std::string file;
  std::size_t line = 0;  ///< 0-based definition line
  std::vector<CallSite> calls;
  std::vector<LockAcq> locks;
  bool has_errno_save = false;
  bool has_errno_restore = false;
};

class Parser {
 public:
  Parser(const SourceFile& src, std::deque<Function>& out)
      : src_(src), toks_(tokenize(src)), out_(out) {}

  void run() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Tok& t = toks_[i];
      if (!t.ident) {
        if (t.text == "{") {
          open_brace();
        } else if (t.text == "}") {
          close_brace();
        } else if (t.text == ";") {
          clear_pending();
        } else if (t.text == "(") {
          if (const auto jump = handle_paren(i)) i = *jump;
        }
        continue;
      }
      handle_ident(i);
    }
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kFunction, kBlock } kind = kBlock;
    std::string name;                     // class name
    std::size_t func = SIZE_MAX;          // index into out_
    bool guard = false;                   // ReentrancyGuard constructed here
    std::vector<std::string> locks;       // MutexLock acquired in this scope
  };

  void clear_pending() {
    pending_aggregate_.clear();
    pending_is_aggregate_ = false;
    pending_is_namespace_ = false;
    pending_bases_ = false;
  }

  void open_brace() {
    if (pending_is_namespace_) {
      scopes_.push_back(Scope{Scope::kNamespace, "", SIZE_MAX, false, {}});
    } else if (pending_is_aggregate_) {
      scopes_.push_back(
          Scope{Scope::kClass, pending_aggregate_, SIZE_MAX, false, {}});
    } else {
      scopes_.push_back(Scope{Scope::kBlock, "", SIZE_MAX, false, {}});
    }
    clear_pending();
  }

  void close_brace() {
    if (!scopes_.empty()) scopes_.pop_back();
  }

  bool in_function() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction) return true;
    }
    return false;
  }

  Function* current_function() {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction) return &out_[it->func];
    }
    return nullptr;
  }

  std::string current_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
    }
    return "";
  }

  bool any_guard() const {
    for (const Scope& s : scopes_) {
      if (s.guard) return true;
    }
    return false;
  }

  std::vector<std::string> held_locks() const {
    std::vector<std::string> held;
    for (const Scope& s : scopes_) {
      held.insert(held.end(), s.locks.begin(), s.locks.end());
    }
    return held;
  }

  const Tok* at(std::size_t i) const {
    return i < toks_.size() ? &toks_[i] : nullptr;
  }

  bool next_is(std::size_t i, const char* text) const {
    const Tok* t = at(i + 1);
    return t != nullptr && !t->ident && t->text == text;
  }

  /// Index just past the group that balances the opener at `i` ('(' or '{'),
  /// or nullopt if unbalanced.
  std::optional<std::size_t> skip_group(std::size_t i) const {
    const std::string open = toks_[i].text;
    const std::string close = open == "(" ? ")" : "}";
    int depth = 0;
    for (std::size_t j = i; j < toks_.size(); ++j) {
      if (toks_[j].ident) continue;
      if (toks_[j].text == open) ++depth;
      if (toks_[j].text == close && --depth == 0) return j + 1;
    }
    return std::nullopt;
  }

  void handle_ident(std::size_t i) {
    const Tok& t = toks_[i];
    if (t.text == "namespace") {
      pending_is_namespace_ = true;
      return;
    }
    if (t.text == "struct" || t.text == "class" || t.text == "union" ||
        t.text == "enum") {
      pending_is_aggregate_ = true;
      pending_bases_ = false;
      return;
    }
    if (pending_is_aggregate_ && !pending_bases_ && !is_keyword(t.text)) {
      // `class BPSIO_CAPABILITY("mutex") Mutex : Base {` — attribute macros
      // are skipped (with their parens), base names after ':' never
      // override, and the LAST plain identifier before ':' or '{' wins.
      if (next_is(i, "(")) return;  // the paren handler skips macro args
      if (i > 0 && !toks_[i - 1].ident && toks_[i - 1].text == ":") {
        pending_bases_ = true;
        return;
      }
      pending_aggregate_ = t.text;
      return;
    }
    if (!in_function()) return;
    Function* fn = current_function();
    if (t.text == "ReentrancyGuard") {
      scopes_.back().guard = true;
      return;
    }
    if (t.text == "MutexLock") {
      handle_mutex_lock(i, fn);
      return;
    }
    if (t.text == "new" || t.text == "delete" || t.text == "throw") {
      fn->calls.push_back(CallSite{t.text, t.line, any_guard(), held_locks()});
      return;
    }
    if (t.text == "cout" || t.text == "cerr" || t.text == "clog") {
      fn->calls.push_back(CallSite{t.text, t.line, any_guard(), held_locks()});
      return;
    }
    if (t.text == "errno") {
      // save:    `saved = errno`  (and not `x == errno` / `x != errno`)
      // restore: `errno = saved`  (and not `errno == x`)
      const Tok* p1 = i >= 1 ? at(i - 1) : nullptr;
      const Tok* p2 = i >= 2 ? at(i - 2) : nullptr;
      if (p1 && !p1->ident && p1->text == "=" && p2 && p2->ident &&
          !is_keyword(p2->text)) {
        fn->has_errno_save = true;
      }
      const Tok* n1 = at(i + 1);
      const Tok* n2 = at(i + 2);
      if (n1 && !n1->ident && n1->text == "=" &&
          !(n2 && !n2->ident && n2->text == "=")) {
        fn->has_errno_restore = true;
      }
      return;
    }
  }

  /// `MutexLock ident ( lock-expr )` — record the acquisition with the
  /// current held set and push the lock onto the innermost scope.
  void handle_mutex_lock(std::size_t i, Function* fn) {
    const Tok* var = at(i + 1);
    if (var == nullptr || !var->ident || !next_is(i + 1, "(")) return;
    const std::size_t open = i + 2;
    const auto past = skip_group(open);
    if (!past) return;
    std::string expr;
    for (std::size_t j = open + 1; j + 1 < *past; ++j) expr += toks_[j].text;
    if (expr.empty()) return;
    std::string id = expr;
    // Member locks get the enclosing class as a namespace so `mu_` in two
    // classes stays two distinct locks; globals (file-scope names) are
    // already unique enough within the repo's flat naming.
    if (!fn->cls.empty() && expr.find("::") == std::string::npos) {
      id = fn->cls + "::" + expr;
    }
    fn->locks.push_back(LockAcq{id, toks_[i].line, any_guard(), held_locks()});
    scopes_.back().locks.push_back(id);
  }

  /// '(' at index `i`: inside a function this records a call site; at file/
  /// class scope it may begin a function definition (returns the index of
  /// the body '{' to jump to, with the function scope already pushed).
  std::optional<std::size_t> handle_paren(std::size_t i) {
    const Tok* name = i >= 1 ? at(i - 1) : nullptr;
    if (name == nullptr || !name->ident || is_keyword(name->text)) {
      return std::nullopt;
    }
    if (std::isdigit(static_cast<unsigned char>(name->text[0]))) {
      return std::nullopt;
    }
    const Tok* before = i >= 2 ? at(i - 2) : nullptr;
    if (in_function()) {
      // Local declarations (`MutexLock lock(mu)`, `std::string s(x)`) have a
      // type token directly before the name; calls have punctuation or a
      // keyword (`return f(x)`).
      const bool decl =
          before != nullptr &&
          ((before->ident && !is_keyword(before->text)) ||
           (!before->ident &&
            (before->text == ">" || before->text == "*" || before->text == "&")));
      if (!decl) {
        current_function()->calls.push_back(
            CallSite{name->text, name->line, any_guard(), held_locks()});
      }
      return std::nullopt;
    }
    // Candidate definition. Member-access can't start one.
    if (before != nullptr && !before->ident &&
        (before->text == "." || before->text == "->")) {
      return std::nullopt;
    }
    return try_definition(i, *name);
  }

  std::optional<std::size_t> try_definition(std::size_t open,
                                            const Tok& name_tok) {
    // Gather `A::B::name` qualifiers and a possible '~' (destructor).
    std::string name = name_tok.text;
    std::string cls;
    {
      std::size_t j = open - 1;  // name index
      while (j >= 2 && !toks_[j - 1].ident && toks_[j - 1].text == "::" &&
             toks_[j - 2].ident) {
        cls = toks_[j - 2].text;  // innermost qualifier wins
        j -= 2;
      }
      if (j >= 1 && !toks_[j - 1].ident && toks_[j - 1].text == "~") {
        name = "~" + name;
      }
      // Only keep the qualifier nearest the name: A::B::f → cls B.
      if (!cls.empty()) {
        std::size_t k = open - 1;
        if (k >= 2 && toks_[k - 1].text == "::" && toks_[k - 2].ident) {
          cls = toks_[k - 2].text;
        }
      }
    }
    const auto params_end = skip_group(open);
    if (!params_end) return std::nullopt;

    // Walk the trailer (const/noexcept/override, attribute macros with
    // balanced parens, `-> type`, ctor-init list) to the body '{'. A ';' or
    // '=' means declaration; anything unexpected means "not a definition".
    std::size_t pos = *params_end;
    bool in_init_list = false;
    for (int steps = 0; steps < 4096 && pos < toks_.size(); ++steps) {
      const Tok& t = toks_[pos];
      if (t.ident) {
        if (next_is(pos, "(")) {
          const auto past = skip_group(pos + 1);
          if (!past) return std::nullopt;
          pos = *past;
        } else {
          ++pos;
        }
        continue;
      }
      if (t.text == "{") {
        // In a ctor-init list, `x_{0}` directly after an identifier or a
        // template '>' is an initializer brace, not the body.
        const Tok& prev = toks_[pos - 1];
        if (in_init_list && (prev.ident || prev.text == ">")) {
          const auto past = skip_group(pos);
          if (!past) return std::nullopt;
          pos = *past;
          continue;
        }
        return begin_function(std::move(name), std::move(cls), name_tok.line,
                              pos);
      }
      if (t.text == ";" || t.text == "=") return std::nullopt;
      if (t.text == ":") {
        in_init_list = true;
        ++pos;
        continue;
      }
      if (t.text == "<" || t.text == ">" || t.text == "*" || t.text == "&" ||
          t.text == "::" || t.text == "," || t.text == "->" ||
          t.text == "[" || t.text == "]") {
        ++pos;
        continue;
      }
      return std::nullopt;  // '+', '#', '\\', quotes, a second '(' — not a def
    }
    return std::nullopt;
  }

  std::optional<std::size_t> begin_function(std::string name, std::string cls,
                                            std::size_t line,
                                            std::size_t body_open) {
    if (cls.empty()) cls = current_class();
    out_.push_back(Function{std::move(name), std::move(cls), src_.path, line,
                            {}, {}, false, false});
    scopes_.push_back(
        Scope{Scope::kFunction, "", out_.size() - 1, false, {}});
    clear_pending();
    return body_open;  // the main loop resumes after the body '{'
  }

  const SourceFile& src_;
  std::vector<Tok> toks_;
  std::deque<Function>& out_;
  std::vector<Scope> scopes_;
  std::string pending_aggregate_;
  bool pending_is_aggregate_ = false;
  bool pending_is_namespace_ = false;
  bool pending_bases_ = false;
};

// ---------------------------------------------------------------------------
// Program model: all files, all functions, name index
// ---------------------------------------------------------------------------

struct Program {
  std::vector<SourceFile> files;
  std::map<std::string, const SourceFile*> by_path;
  std::deque<Function> functions;
  std::map<std::string, std::vector<const Function*>> by_name;

  void build() {
    for (const SourceFile& src : files) {
      by_path[src.path] = &src;
      Parser(src, functions).run();
    }
    for (const Function& f : functions) by_name[f.name].push_back(&f);
  }

  /// Same-file definitions win; otherwise every definition of the simple
  /// name is a candidate (over-approximation, by design).
  std::vector<const Function*> resolve(const std::string& name,
                                       const std::string& from_file) const {
    const auto it = by_name.find(name);
    if (it == by_name.end()) return {};
    std::vector<const Function*> same_file;
    for (const Function* f : it->second) {
      if (f->file == from_file) same_file.push_back(f);
    }
    return same_file.empty() ? it->second : same_file;
  }

  bool allowed(const std::string& file, std::size_t line,
               const std::string& check) const {
    const auto it = by_path.find(file);
    return it != by_path.end() && is_allowed(*it->second, line, check);
  }
};

// ---------------------------------------------------------------------------
// Check 1: interposer-safety
// ---------------------------------------------------------------------------

const std::set<std::string>& entry_point_names() {
  static const std::set<std::string> kEntries = {
      "open",  "open64",  "openat",  "openat64", "close",
      "read",  "write",   "pread",   "pwrite",   "pread64",
      "pwrite64", "fsync", "fdatasync",
      // creat and the _FORTIFY_SOURCE entry points
      "creat", "creat64", "__open_2", "__open64_2", "__openat_2",
      "__openat64_2", "__read_chk", "__pread_chk", "__pread64_chk",
  };
  return kEntries;
}

bool is_entry_point(const Function& f) {
  return f.cls.empty() && entry_point_names().count(f.name) != 0 &&
         path_contains(f.file, "capture/interpose");
}

/// Operations a wrapper must never reach outside the reentrancy guard.
/// Checked before call resolution: a project function shadowing one of
/// these names is still a finding. dlsym is deliberately absent (the
/// one-time trampoline resolution); `append`/`assign` are absent because
/// they collide with the project's own buffer/writer methods — vector and
/// string growth is caught through push_back/reserve/resize instead.
const std::set<std::string>& deny_list() {
  static const std::set<std::string> kDeny = {
      // allocation
      "malloc", "calloc", "realloc", "free", "strdup", "strndup",
      "aligned_alloc", "posix_memalign", "new", "delete",
      // container/string growth and formatting
      "push_back", "emplace_back", "reserve", "resize", "insert", "emplace",
      "shrink_to_fit", "to_string", "substr", "string", "getline",
      // stdio / iostream
      "printf", "fprintf", "vfprintf", "vprintf", "sprintf", "vsprintf",
      "snprintf", "vsnprintf", "puts", "fputs", "fputc", "fwrite", "fread",
      "fopen", "fclose", "fflush", "perror", "cout", "cerr", "clog",
      "ostringstream", "stringstream", "ofstream", "ifstream",
      // blocking synchronization
      "lock", "try_lock", "lock_guard", "unique_lock", "scoped_lock",
      "pthread_mutex_lock", "sem_wait", "wait",
      // dynamic loading, process control, contract aborts
      "dlopen", "dlclose", "abort", "exit", "_exit", "_Exit", "quick_exit",
      "terminate", "throw", "BPSIO_CHECK", "BPSIO_DCHECK",
  };
  return kDeny;
}

struct ChainStep {
  const Function* fn = nullptr;
  int parent = -1;               // index into the steps vector
  std::string call_file;         // where the parent called fn
  std::size_t call_line = 0;
};

std::string location(const std::string& file, std::size_t line) {
  return file + ":" + std::to_string(line + 1);
}

std::string chain_string(const std::vector<ChainStep>& steps, int leaf,
                         const std::string& unsafe_name,
                         const std::string& unsafe_file,
                         std::size_t unsafe_line) {
  std::vector<std::string> parts;
  for (int at = leaf; at >= 0; at = steps[static_cast<std::size_t>(at)].parent) {
    const ChainStep& s = steps[static_cast<std::size_t>(at)];
    const std::string where = s.parent < 0
                                  ? location(s.fn->file, s.fn->line)
                                  : location(s.call_file, s.call_line);
    parts.insert(parts.begin(), s.fn->name + " (" + where + ")");
  }
  parts.push_back(unsafe_name + " (" + location(unsafe_file, unsafe_line) +
                  ")");
  std::string chain;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) chain += " -> ";
    chain += parts[i];
  }
  return chain;
}

void check_interposer_safety(const Program& prog,
                             std::vector<Finding>& findings) {
  // Deterministic entry order: functions are parsed in sorted-file order, so
  // a plain scan finds entries in a stable order.
  std::vector<const Function*> entries;
  for (const Function& f : prog.functions) {
    if (is_entry_point(f)) entries.push_back(&f);
  }
  std::set<const Function*> visited;
  std::vector<ChainStep> steps;
  std::deque<int> queue;
  for (const Function* e : entries) {
    if (visited.insert(e).second) {
      steps.push_back(ChainStep{e, -1, "", 0});
      queue.push_back(static_cast<int>(steps.size()) - 1);
    }
  }
  while (!queue.empty()) {
    const int at = queue.front();
    queue.pop_front();
    const Function* fn = steps[static_cast<std::size_t>(at)].fn;
    const Function* entry = fn;
    for (int p = at; p >= 0; p = steps[static_cast<std::size_t>(p)].parent) {
      entry = steps[static_cast<std::size_t>(p)].fn;
    }
    for (const LockAcq& acq : fn->locks) {
      if (acq.guarded) continue;
      if (prog.allowed(fn->file, acq.line, "interposer-unsafe")) continue;
      findings.push_back(Finding{
          fn->file, acq.line, "interposer-unsafe",
          "MutexLock acquired on the capture hot path (reachable from "
          "interposed '" +
              entry->name + "'): " +
              chain_string(steps, at, "MutexLock", fn->file, acq.line) +
              " — the wrappers must stay lock-free"});
    }
    for (const CallSite& call : fn->calls) {
      if (call.guarded) continue;
      if (prog.allowed(fn->file, call.line, "interposer-unsafe")) continue;
      if (deny_list().count(call.name) != 0) {
        findings.push_back(Finding{
            fn->file, call.line, "interposer-unsafe",
            "hot-path-unsafe call '" + call.name +
                "' reachable from interposed '" + entry->name +
                "': " +
                chain_string(steps, at, call.name, fn->file, call.line) +
                " — move it behind the ReentrancyGuard or annotate "
                "// bpsio-analyze: allow(interposer-unsafe)"});
        continue;
      }
      for (const Function* callee : prog.resolve(call.name, fn->file)) {
        if (visited.insert(callee).second) {
          steps.push_back(ChainStep{callee, at, fn->file, call.line});
          queue.push_back(static_cast<int>(steps.size()) - 1);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 2: errno-preservation
// ---------------------------------------------------------------------------

void check_errno_preservation(const Program& prog,
                              std::vector<Finding>& findings) {
  static const std::set<std::string> kBookkeeping = {"record_io", "note_open",
                                                     "note_close"};
  for (const Function& f : prog.functions) {
    if (!is_entry_point(f)) continue;
    // The real call happens through the `fn` trampoline; bookkeeping that
    // runs after the LAST trampoline call can clobber the errno the host is
    // about to read. Bookkeeping fully before the real call (close()'s
    // note_close) is exempt.
    std::ptrdiff_t last_fn = -1;
    for (std::size_t i = 0; i < f.calls.size(); ++i) {
      if (f.calls[i].name == "fn") last_fn = static_cast<std::ptrdiff_t>(i);
    }
    bool needs_protection = false;
    for (std::size_t i = 0; i < f.calls.size(); ++i) {
      if (kBookkeeping.count(f.calls[i].name) != 0 &&
          static_cast<std::ptrdiff_t>(i) > last_fn) {
        needs_protection = true;
      }
    }
    if (!needs_protection) continue;
    if (f.has_errno_save && f.has_errno_restore) continue;
    if (prog.allowed(f.file, f.line, "errno-preservation")) continue;
    findings.push_back(Finding{
        f.file, f.line, "errno-preservation",
        "interposed '" + f.name +
            "' runs capture bookkeeping after the real call without a "
            "save/restore of errno (`const int saved_errno = errno;` ... "
            "`errno = saved_errno;`) — the host must only ever observe the "
            "real syscall's errno"});
  }
}

// ---------------------------------------------------------------------------
// Check 3: lock-discipline (static lock-order graph, cycle = deadlock risk)
// ---------------------------------------------------------------------------

struct LockEdge {
  std::string file;
  std::size_t line = 0;
  std::string via;  // function whose body contributed the edge
};

class LockGraph {
 public:
  explicit LockGraph(const Program& prog) : prog_(prog) {}

  void build() {
    for (const Function& f : prog_.functions) {
      for (const LockAcq& acq : f.locks) {
        if (prog_.allowed(f.file, acq.line, "lock-cycle")) continue;
        for (const std::string& held : acq.held) {
          if (held != acq.lock) {
            add_edge(held, acq.lock, f.file, acq.line, f.name);
          }
        }
      }
      for (const CallSite& call : f.calls) {
        if (call.held.empty()) continue;
        if (prog_.allowed(f.file, call.line, "lock-cycle")) continue;
        for (const Function* callee : prog_.resolve(call.name, f.file)) {
          for (const std::string& acquired : acquired_set(callee)) {
            for (const std::string& held : call.held) {
              if (held != acquired) {
                add_edge(held, acquired, f.file, call.line, f.name);
              }
            }
          }
        }
      }
    }
  }

  void report_cycles(std::vector<Finding>& findings) {
    std::set<std::string> seen_cycles;
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    for (const auto& [node, _] : edges_) {
      if (color[node] == 0) dfs(node, color, stack, seen_cycles, findings);
    }
  }

 private:
  /// Locks acquired in `f` or transitively in anything it calls.
  /// Memoized; recursion through the (cyclic) call graph yields the partial
  /// set computed so far, which is exactly the fixed-point-safe answer.
  const std::set<std::string>& acquired_set(const Function* f) {
    const auto it = acquired_.find(f);
    if (it != acquired_.end()) return it->second;
    auto& set = acquired_[f];  // inserted empty first: recursion terminator
    for (const LockAcq& acq : f->locks) {
      if (!prog_.allowed(f->file, acq.line, "lock-cycle")) set.insert(acq.lock);
    }
    for (const CallSite& call : f->calls) {
      for (const Function* callee : prog_.resolve(call.name, f->file)) {
        if (callee == f) continue;
        const std::set<std::string> sub = acquired_set(callee);
        set.insert(sub.begin(), sub.end());
      }
    }
    return set;
  }

  void add_edge(const std::string& from, const std::string& to,
                const std::string& file, std::size_t line,
                const std::string& via) {
    auto& slot = edges_[from];
    if (slot.find(to) == slot.end()) slot[to] = LockEdge{file, line, via};
    edges_[to];  // ensure the target node exists for the DFS
  }

  void dfs(const std::string& node, std::map<std::string, int>& color,
           std::vector<std::string>& stack, std::set<std::string>& seen,
           std::vector<Finding>& findings) {
    color[node] = 1;
    stack.push_back(node);
    for (const auto& [next, edge] : edges_[node]) {
      if (color[next] == 1) {
        report_cycle(next, stack, seen, findings);
      } else if (color[next] == 0) {
        dfs(next, color, stack, seen, findings);
      }
    }
    stack.pop_back();
    color[node] = 2;
  }

  void report_cycle(const std::string& back_to,
                    std::vector<std::string>& stack,
                    std::set<std::string>& seen,
                    std::vector<Finding>& findings) {
    std::vector<std::string> cycle;
    bool collecting = false;
    for (const std::string& n : stack) {
      if (n == back_to) collecting = true;
      if (collecting) cycle.push_back(n);
    }
    if (cycle.empty()) return;
    // Canonical rotation so each cycle reports once.
    std::size_t min_at = 0;
    for (std::size_t i = 1; i < cycle.size(); ++i) {
      if (cycle[i] < cycle[min_at]) min_at = i;
    }
    std::rotate(cycle.begin(),
                cycle.begin() + static_cast<std::ptrdiff_t>(min_at),
                cycle.end());
    std::string key;
    for (const std::string& n : cycle) key += n + "|";
    if (!seen.insert(key).second) return;

    std::string desc;
    const LockEdge* first_edge = nullptr;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const std::string& from = cycle[i];
      const std::string& to = cycle[(i + 1) % cycle.size()];
      const LockEdge& e = edges_[from][to];
      if (first_edge == nullptr) first_edge = &e;
      if (!desc.empty()) desc += ", ";
      desc += from + " -> " + to + " (in " + e.via + ", " +
              location(e.file, e.line) + ")";
    }
    findings.push_back(Finding{
        first_edge->file, first_edge->line, "lock-cycle",
        "lock-order cycle (potential deadlock): " + desc +
            " — acquire these locks in one global order, or annotate the "
            "intended exception with // bpsio-analyze: allow(lock-cycle)"});
  }

  const Program& prog_;
  std::map<std::string, std::map<std::string, LockEdge>> edges_;
  std::map<const Function*, std::set<std::string>> acquired_;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<Finding> analyze(std::vector<SourceFile> files) {
  Program prog;
  prog.files = std::move(files);
  prog.build();
  std::vector<Finding> findings;
  check_interposer_safety(prog, findings);
  check_errno_preservation(prog, findings);
  LockGraph lock_graph(prog);
  lock_graph.build();
  lock_graph.report_cycles(findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.check, a.detail) <
                     std::tie(b.file, b.line, b.check, b.detail);
            });
  return findings;
}

void print_findings(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    std::fprintf(stdout, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line + 1,
                 f.check.c_str(), f.detail.c_str());
  }
}

// ---------------------------------------------------------------------------
// Self-test: every check fires on a synthetic violation, stays quiet on the
// compliant twin, and honors the allow-comment escape hatch.
// ---------------------------------------------------------------------------

struct SelfFile {
  const char* path;
  const char* content;
};

std::vector<SourceFile> load_self_files(const std::vector<SelfFile>& files) {
  std::vector<SourceFile> sources;
  for (const SelfFile& f : files) {
    sources.push_back(
        bpsio::srcmodel::load_source(f.path, f.content, kAllowTag));
  }
  return sources;
}

std::size_t count_check(const std::vector<Finding>& findings,
                        const std::string& check) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (f.check == check) ++n;
  }
  return n;
}

/// Re-run with an allow-comment inserted above the finding line; the finding
/// must disappear.
bool suppressed_by_allow(const std::vector<SelfFile>& files,
                         const Finding& finding) {
  std::vector<SourceFile> sources;
  for (const SelfFile& f : files) {
    std::string content = f.content;
    if (finding.file == f.path) {
      std::stringstream in(content);
      std::string line;
      std::vector<std::string> lines;
      while (std::getline(in, line)) lines.push_back(line);
      const std::string allow =
          "// " + std::string(kAllowTag) + ": allow(" + finding.check + ")";
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(finding.line),
                   allow);
      content.clear();
      for (const std::string& l : lines) content += l + "\n";
    }
    sources.push_back(bpsio::srcmodel::load_source(f.path, content, kAllowTag));
  }
  const std::vector<Finding> rerun = analyze(std::move(sources));
  return count_check(rerun, finding.check) == 0;
}

int self_test() {
  int failures = 0;
  const auto fail = [&failures](const std::string& what) {
    std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
    ++failures;
  };

  // --- interposer-unsafe: fires through a 2-deep chain, with the chain in
  // the finding; the guarded twin and an allow both silence it. -------------
  {
    const std::vector<SelfFile> bad = {{
        "src/capture/interpose.cpp",
        "void helper_two() { void* p = malloc(32); use(p); }\n"
        "void helper_one() { helper_two(); }\n"
        "ssize_t read(int fd, void* buf, size_t count) {\n"
        "  helper_one();\n"
        "  return 0;\n"
        "}\n",
    }};
    const auto findings = analyze(load_self_files(bad));
    if (count_check(findings, "interposer-unsafe") != 1) {
      fail("interposer-unsafe did not fire through the call chain");
    } else {
      const Finding& f = findings.front();
      if (f.detail.find("read (") == std::string::npos ||
          f.detail.find("-> helper_one (") == std::string::npos ||
          f.detail.find("-> helper_two (") == std::string::npos ||
          f.detail.find("-> malloc (") == std::string::npos) {
        fail("interposer-unsafe finding lacks the full call chain: " +
             f.detail);
      }
      if (!suppressed_by_allow(bad, f)) {
        fail("allow-comment did not suppress interposer-unsafe");
      }
    }
    const std::vector<SelfFile> guarded = {{
        "src/capture/interpose.cpp",
        "void helper_two() {\n"
        "  ReentrancyGuard guard;\n"
        "  void* p = malloc(32);\n"
        "  use(p);\n"
        "}\n"
        "void helper_one() { helper_two(); }\n"
        "ssize_t read(int fd, void* buf, size_t count) {\n"
        "  helper_one();\n"
        "  return 0;\n"
        "}\n",
    }};
    if (count_check(analyze(load_self_files(guarded)), "interposer-unsafe") !=
        0) {
      fail("ReentrancyGuard did not excuse the guarded allocation");
    }
    const std::vector<SelfFile> unreachable = {{
        "src/capture/interpose.cpp",
        "void never_called() { void* p = malloc(32); use(p); }\n"
        "ssize_t read(int fd, void* buf, size_t count) { return 0; }\n",
    }};
    if (count_check(analyze(load_self_files(unreachable)),
                    "interposer-unsafe") != 0) {
      fail("interposer-unsafe flagged an unreachable function");
    }
    const std::vector<SelfFile> in_comment = {{
        "src/capture/interpose.cpp",
        "ssize_t read(int fd, void* buf, size_t count) {\n"
        "  // malloc(32) in a comment is not a call\n"
        "  const char* s = \"malloc(32)\";\n"
        "  use(s);\n"
        "  return 0;\n"
        "}\n",
    }};
    if (count_check(analyze(load_self_files(in_comment)),
                    "interposer-unsafe") != 0) {
      fail("interposer-unsafe matched inside a comment or string");
    }
    // A MutexLock anywhere on the reachable path is its own violation.
    const std::vector<SelfFile> locked = {{
        "src/capture/interpose.cpp",
        "void helper() { MutexLock lock(g_mu); touch(); }\n"
        "ssize_t write(int fd, const void* buf, size_t count) {\n"
        "  helper();\n"
        "  return 0;\n"
        "}\n",
    }};
    if (count_check(analyze(load_self_files(locked)), "interposer-unsafe") !=
        1) {
      fail("interposer-unsafe did not flag a MutexLock on the hot path");
    }
  }

  // --- errno-preservation ---------------------------------------------------
  {
    const std::vector<SelfFile> bad = {{
        "src/capture/interpose.cpp",
        "ssize_t write(int fd, const void* buf, size_t count) {\n"
        "  const ssize_t ret = fn(fd, buf, count);\n"
        "  record_io(1, count, ret);\n"
        "  return ret;\n"
        "}\n",
    }};
    const auto findings = analyze(load_self_files(bad));
    if (count_check(findings, "errno-preservation") != 1) {
      fail("errno-preservation did not fire on unprotected bookkeeping");
    } else if (!suppressed_by_allow(bad, findings.front())) {
      fail("allow-comment did not suppress errno-preservation");
    }
    const std::vector<SelfFile> good = {{
        "src/capture/interpose.cpp",
        "ssize_t write(int fd, const void* buf, size_t count) {\n"
        "  const ssize_t ret = fn(fd, buf, count);\n"
        "  const int saved_errno = errno;\n"
        "  record_io(1, count, ret);\n"
        "  errno = saved_errno;\n"
        "  return ret;\n"
        "}\n",
    }};
    if (count_check(analyze(load_self_files(good)), "errno-preservation") !=
        0) {
      fail("errno-preservation flagged a properly protected wrapper");
    }
    const std::vector<SelfFile> pre_call = {{
        "src/capture/interpose.cpp",
        "int close(int fd) {\n"
        "  note_close(fd);\n"
        "  return fn(fd);\n"
        "}\n",
    }};
    if (count_check(analyze(load_self_files(pre_call)),
                    "errno-preservation") != 0) {
      fail("errno-preservation flagged bookkeeping that runs pre-call");
    }
  }

  // --- lock-cycle -----------------------------------------------------------
  {
    const std::vector<SelfFile> bad = {{
        "src/agent/locks.cpp",
        "struct S {\n"
        "  void take_ab() {\n"
        "    MutexLock la(mu_a);\n"
        "    helper_b();\n"
        "  }\n"
        "  void helper_b() { MutexLock lb(mu_b); touch(); }\n"
        "  void take_ba() {\n"
        "    MutexLock lb(mu_b);\n"
        "    MutexLock la(mu_a);\n"
        "    touch();\n"
        "  }\n"
        "};\n",
    }};
    const auto findings = analyze(load_self_files(bad));
    if (count_check(findings, "lock-cycle") != 1) {
      fail("lock-cycle did not fire on an inverted pair across a call");
    } else {
      const Finding& f = findings.front();
      if (f.detail.find("S::mu_a -> S::mu_b") == std::string::npos ||
          f.detail.find("S::mu_b -> S::mu_a") == std::string::npos) {
        fail("lock-cycle finding lacks both edges: " + f.detail);
      }
      if (!suppressed_by_allow(bad, f)) {
        fail("allow-comment did not suppress lock-cycle");
      }
    }
    const std::vector<SelfFile> consistent = {{
        "src/agent/locks.cpp",
        "struct S {\n"
        "  void take_ab() {\n"
        "    MutexLock la(mu_a);\n"
        "    helper_b();\n"
        "  }\n"
        "  void helper_b() { MutexLock lb(mu_b); touch(); }\n"
        "  void also_ab() {\n"
        "    MutexLock la(mu_a);\n"
        "    MutexLock lb(mu_b);\n"
        "    touch();\n"
        "  }\n"
        "};\n",
    }};
    if (count_check(analyze(load_self_files(consistent)), "lock-cycle") != 0) {
      fail("lock-cycle flagged a consistent global order");
    }
    // Same member-lock names in two different classes are different locks.
    const std::vector<SelfFile> two_classes = {{
        "src/agent/locks.cpp",
        "struct A {\n"
        "  void f() { MutexLock l(mu_); g(); }\n"
        "};\n"
        "struct B {\n"
        "  void h() { MutexLock l(mu_); k(); }\n"
        "};\n",
    }};
    if (count_check(analyze(load_self_files(two_classes)), "lock-cycle") !=
        0) {
      fail("lock-cycle conflated same-named locks in different classes");
    }
  }

  if (failures == 0) {
    std::fprintf(stdout,
                 "bpsio-analyze self-test: all 3 checks verified (fire, "
                 "quiet twin, allow-comment)\n");
    return 0;
  }
  return 1;
}

// ---------------------------------------------------------------------------

std::optional<SourceFile> load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return bpsio::srcmodel::load_source(path, buffer.str(), kAllowTag);
}

}  // namespace

int main(int argc, char** argv) {
  bool run_self_test = false;
  std::string root;
  bpsio::cli::ArgParser parser(
      "bpsio_analyze",
      "Whole-program static analyzer: interposer hot-path safety, errno\n"
      "preservation in the capture wrappers, and static lock-order cycles.\n"
      "Suppress a finding with `// bpsio-analyze: allow(check)` on the line\n"
      "or a comment-only line above. See docs/STATIC_ANALYSIS.md.");
  parser.add_flag("--self-test", &run_self_test,
                  "verify every check fires and honors allow-comments");
  parser.add_string("--root", &root, "DIR",
                    "analyze all C++ sources under DIR/src and DIR/tools");
  parser.positionals("[file...]");
  std::vector<std::string> paths;
  switch (parser.parse(argc, argv, paths)) {
    case bpsio::cli::ArgParser::Outcome::ok:
      break;
    case bpsio::cli::ArgParser::Outcome::help:
      return 0;
    case bpsio::cli::ArgParser::Outcome::error:
      return 2;
  }
  if (run_self_test) return self_test();

  if (!root.empty()) {
    try {
      for (const char* sub : {"/src", "/tools"}) {
        for (std::string& f : collect_files(root + sub)) {
          paths.push_back(std::move(f));
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bpsio-analyze: cannot scan %s: %s\n", root.c_str(),
                   e.what());
      return 2;
    }
  }
  if (paths.empty()) {
    std::fputs(parser.usage().c_str(), stderr);
    return 2;
  }
  std::vector<SourceFile> sources;
  for (const std::string& path : paths) {
    auto src = load_file(path);
    if (!src) {
      std::fprintf(stderr, "bpsio-analyze: cannot read %s\n", path.c_str());
      return 2;
    }
    sources.push_back(std::move(*src));
  }
  const std::size_t scanned = sources.size();
  const std::vector<Finding> findings = analyze(std::move(sources));
  if (findings.empty()) {
    std::fprintf(stdout, "bpsio-analyze: clean (%zu files)\n", scanned);
    return 0;
  }
  print_findings(findings);
  std::fprintf(stdout, "bpsio-analyze: %zu finding(s) in %zu files\n",
               findings.size(), scanned);
  return 1;
}
