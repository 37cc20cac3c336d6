#include "tools/lint/lint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

namespace prism::lint {
namespace {

// ---------------------------------------------------------------------------
// Scanning: split content into per-line code text (comments and string
// literals blanked, so token searches cannot fire inside either) and per-line
// comment text (where the allow directives live).
// ---------------------------------------------------------------------------

struct ScanResult {
  std::vector<std::string> code;      // [line] source with comments/strings blanked.
  std::vector<std::string> comments;  // [line] concatenated comment text.
};

ScanResult ScanContent(const std::string& content) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  ScanResult out;
  std::string code_line;
  std::string comment_line;
  State state = State::kCode;
  std::string raw_delim;  // For R"delim( ... )delim".

  const auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };

  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      flush_line();
      if (state == State::kLineComment) {
        state = State::kCode;
      }
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(content[i - 1])) &&
                               content[i - 1] != '_'))) {
          // Raw string literal: R"delim( ... )delim".
          size_t j = i + 2;
          raw_delim.clear();
          while (j < content.size() && content[j] != '(') {
            raw_delim.push_back(content[j]);
            ++j;
          }
          state = State::kRawString;
          code_line.append("R\"\"");
          i = j;  // At the '('; body consumed by kRawString.
        } else if (c == '"') {
          state = State::kString;
          code_line.push_back('"');
        } else if (c == '\'') {
          state = State::kChar;
          code_line.push_back('\'');
        } else {
          code_line.push_back(c);
        }
        break;
      case State::kLineComment:
        comment_line.push_back(c);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          comment_line.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // Skip the escaped char (even across a fictitious newline).
        } else if (c == '"') {
          state = State::kCode;
          code_line.push_back('"');
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code_line.push_back('\'');
        }
        break;
      case State::kRawString: {
        const std::string closer = ")" + raw_delim + "\"";
        if (content.compare(i, closer.size(), closer) == 0) {
          state = State::kCode;
          i += closer.size() - 1;
        }
        break;
      }
    }
  }
  flush_line();
  return out;
}

bool IsBlank(const std::string& s) {
  return std::all_of(s.begin(), s.end(),
                     [](char c) { return std::isspace(static_cast<unsigned char>(c)); });
}

// ---------------------------------------------------------------------------
// Allow directives: `prism-lint: allow(<rule>): <reason>`. A directive
// suppresses its rule on its own line and on the first code line after the
// directive's contiguous comment block.
// ---------------------------------------------------------------------------

struct Allowances {
  // line (1-based) -> set of rules allowed there.
  std::map<size_t, std::set<std::string>> by_line;

  bool Allowed(size_t line, const std::string& rule) const {
    const auto it = by_line.find(line);
    return it != by_line.end() && it->second.count(rule) > 0;
  }
};

Allowances CollectAllowances(const std::string& path, const ScanResult& scan,
                             std::vector<Violation>* violations) {
  Allowances allow;
  constexpr std::string_view kMarker = "prism-lint: allow(";
  for (size_t i = 0; i < scan.comments.size(); ++i) {
    const std::string& comment = scan.comments[i];
    const size_t at = comment.find(kMarker);
    if (at == std::string::npos) {
      continue;
    }
    const size_t rule_begin = at + kMarker.size();
    const size_t rule_end = comment.find(')', rule_begin);
    if (rule_end == std::string::npos || comment.compare(rule_end, 2, "):") != 0) {
      violations->push_back({path, i + 1, "directive",
                             "malformed allow directive; expected "
                             "`prism-lint: allow(<rule>): <reason>`"});
      continue;
    }
    const std::string rule = comment.substr(rule_begin, rule_end - rule_begin);
    std::string reason = comment.substr(rule_end + 2);
    while (!reason.empty() && std::isspace(static_cast<unsigned char>(reason.front()))) {
      reason.erase(reason.begin());
    }
    if (reason.empty()) {
      violations->push_back({path, i + 1, "directive",
                             "allow(" + rule + ") without a reason; the reason is mandatory"});
      continue;
    }
    // Cover the directive's own line, then the first code line after the
    // contiguous comment/blank block it sits in.
    allow.by_line[i + 1].insert(rule);
    for (size_t j = i + 1; j < scan.code.size(); ++j) {
      if (!IsBlank(scan.code[j])) {
        allow.by_line[j + 1].insert(rule);
        break;
      }
    }
  }
  return allow;
}

// ---------------------------------------------------------------------------
// Rule 1: include-layering.
// ---------------------------------------------------------------------------

// The DAG, as ranks. An include is legal if the included layer's rank is
// strictly lower, or the layers are identical. Sibling layers share a rank
// (retrieval/runtime, core/apps) so that neither may include the other.
const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0}, {"tensor", 1},  {"storage", 2}, {"model", 3}, {"data", 4},
      {"retrieval", 5}, {"runtime", 5}, {"core", 6}, {"apps", 6}, {"serving", 7},
  };
  return kRanks;
}

// "src/<layer>/..." -> layer, or "" when the path is not in a known layer.
std::string LayerOf(const std::string& path) {
  constexpr std::string_view kPrefix = "src/";
  if (path.compare(0, kPrefix.size(), kPrefix) != 0) {
    return "";
  }
  const size_t slash = path.find('/', kPrefix.size());
  if (slash == std::string::npos) {
    return "";
  }
  const std::string layer = path.substr(kPrefix.size(), slash - kPrefix.size());
  return LayerRanks().count(layer) > 0 ? layer : "";
}

// The scanner blanks string interiors, which eats the include target — so
// detect `#include` on the comment-stripped line (a commented-out include
// must not count) but slice the quoted target out of the raw line.
void CheckIncludes(const std::string& path, const std::string& content, const ScanResult& scan,
                   const Allowances& allow, std::vector<Violation>* violations) {
  const std::string from_layer = LayerOf(path);
  if (from_layer.empty()) {
    return;
  }
  const int from_rank = LayerRanks().at(from_layer);
  std::istringstream raw(content);
  std::string raw_line;
  for (size_t i = 0; i < scan.code.size() && std::getline(raw, raw_line); ++i) {
    if (scan.code[i].find("#include") == std::string::npos) {
      continue;  // Not an include (or commented out).
    }
    const size_t q1 = raw_line.find('"');
    if (q1 == std::string::npos) {
      continue;  // System include.
    }
    const size_t q2 = raw_line.find('"', q1 + 1);
    if (q2 == std::string::npos) {
      continue;
    }
    const std::string target = raw_line.substr(q1 + 1, q2 - q1 - 1);
    const std::string to_layer = LayerOf(target);
    if (to_layer.empty() || to_layer == from_layer) {
      continue;
    }
    const int to_rank = LayerRanks().at(to_layer);
    if (to_rank < from_rank) {
      continue;
    }
    if (allow.Allowed(i + 1, "layering")) {
      continue;
    }
    violations->push_back(
        {path, i + 1, "layering",
         "src/" + from_layer + " (rank " + std::to_string(from_rank) + ") must not include " +
             target + " (src/" + to_layer + ", rank " + std::to_string(to_rank) +
             "): the layer DAG flows common -> tensor -> storage -> model -> data -> "
             "{retrieval, runtime} -> {core, apps} -> serving"});
  }
}

// ---------------------------------------------------------------------------
// Rule 2: wall-clock discipline.
// ---------------------------------------------------------------------------

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Finds `token` in `line` as a whole identifier (not a substring of a longer
// identifier). Returns npos when absent.
size_t FindToken(const std::string& line, std::string_view token, size_t from = 0) {
  for (size_t at = line.find(token, from); at != std::string::npos;
       at = line.find(token, at + 1)) {
    const bool left_ok = at == 0 || !IsIdentChar(line[at - 1]);
    const size_t end = at + token.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) {
      return at;
    }
  }
  return std::string::npos;
}

void CheckWallClock(const std::string& path, const ScanResult& scan, const Allowances& allow,
                    std::vector<Violation>* violations) {
  if (path.compare(0, 4, "src/") != 0) {
    return;
  }
  // The Clock seam itself is the one place allowed to touch the host clock.
  if (path == "src/common/clock.h" || path == "src/common/clock.cc") {
    return;
  }
  static constexpr std::array<std::string_view, 6> kBanned = {
      "steady_clock", "system_clock", "high_resolution_clock",
      "sleep_for",    "sleep_until",  "condition_variable",
  };
  for (size_t i = 0; i < scan.code.size(); ++i) {
    for (const std::string_view token : kBanned) {
      if (FindToken(scan.code[i], token) == std::string::npos) {
        continue;
      }
      if (allow.Allowed(i + 1, "wall-clock")) {
        continue;
      }
      violations->push_back(
          {path, i + 1, "wall-clock",
           std::string(token) +
               ": scheduling time must flow through the Clock seam (src/common/clock.h); if "
               "this is genuinely device-domain or measurement time, annotate it with "
               "`// prism-lint: allow(wall-clock): <reason>`"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: atomics hygiene (explicit memory order in the hot layers).
// ---------------------------------------------------------------------------

bool InAtomicsScope(const std::string& path) {
  return path.compare(0, 9, "src/core/") == 0 || path.compare(0, 12, "src/serving/") == 0;
}

void CheckAtomics(const std::string& path, const ScanResult& scan, const Allowances& allow,
                  std::vector<Violation>* violations) {
  if (!InAtomicsScope(path)) {
    return;
  }
  static constexpr std::array<std::string_view, 9> kOps = {
      "load",      "store",     "exchange",
      "fetch_add", "fetch_sub", "fetch_and",
      "fetch_or",  "fetch_xor", "compare_exchange_weak",
  };
  static constexpr std::string_view kStrong = "compare_exchange_strong";
  for (size_t i = 0; i < scan.code.size(); ++i) {
    const std::string& line = scan.code[i];
    const auto check_op = [&](std::string_view op) {
      for (size_t at = FindToken(line, op); at != std::string::npos;
           at = FindToken(line, op, at + 1)) {
        // Must be a member call: preceded by '.' or '->' and followed by '('.
        const bool member = at > 0 && (line[at - 1] == '.' ||
                                       (at > 1 && line[at - 1] == '>' && line[at - 2] == '-'));
        const size_t paren = at + op.size();
        if (!member || paren >= line.size() || line[paren] != '(') {
          continue;
        }
        // Collect the balanced-paren argument text, possibly across lines.
        std::string args;
        int depth = 0;
        size_t row = i;
        size_t col = paren;
        bool closed = false;
        while (row < scan.code.size() && !closed) {
          const std::string& l = scan.code[row];
          for (; col < l.size(); ++col) {
            if (l[col] == '(') {
              ++depth;
            } else if (l[col] == ')') {
              --depth;
              if (depth == 0) {
                closed = true;
                break;
              }
            } else if (depth > 0) {
              args.push_back(l[col]);
            }
          }
          ++row;
          col = 0;
        }
        if (args.find("memory_order") != std::string::npos) {
          continue;
        }
        if (allow.Allowed(i + 1, "atomics")) {
          continue;
        }
        std::string message = ".";
        message += op;
        message +=
            "(...) without an explicit std::memory_order: implicit seq_cst is banned in "
            "src/core and src/serving — spell the ordering "
            "(std::memory_order_seq_cst included, when seq_cst is the point)";
        violations->push_back({path, i + 1, "atomics", std::move(message)});
      }
    };
    for (const std::string_view op : kOps) {
      check_op(op);
    }
    check_op(kStrong);
  }
}

// ---------------------------------------------------------------------------
// Rule 4: raw mutexes (the annotated wrapper is mandatory in src/).
// ---------------------------------------------------------------------------

void CheckRawMutex(const std::string& path, const ScanResult& scan, const Allowances& allow,
                   std::vector<Violation>* violations) {
  if (path.compare(0, 4, "src/") != 0) {
    return;
  }
  if (path == "src/common/mutex.h") {
    return;  // The wrapper's own definition.
  }
  static constexpr std::array<std::string_view, 8> kBanned = {
      "std::mutex",       "std::timed_mutex", "std::recursive_mutex", "std::shared_mutex",
      "std::lock_guard",  "std::unique_lock", "std::scoped_lock",     "std::shared_lock",
  };
  for (size_t i = 0; i < scan.code.size(); ++i) {
    for (const std::string_view token : kBanned) {
      // "std::mutex" must not fire inside "std::mutex_something": FindToken
      // needs the token to start at a non-ident boundary; ':' is not an
      // ident char so the left edge is fine, and the right-edge check
      // rejects longer identifiers.
      if (FindToken(scan.code[i], token.substr(5)) == std::string::npos ||
          scan.code[i].find(token) == std::string::npos) {
        continue;
      }
      if (allow.Allowed(i + 1, "raw-mutex")) {
        continue;
      }
      violations->push_back(
          {path, i + 1, "raw-mutex",
           std::string(token) +
               ": use prism::Mutex / MutexLock (src/common/mutex.h) so clang's thread-safety "
               "analysis sees the lock"});
    }
  }
}

}  // namespace

std::string Violation::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

std::vector<Violation> LintFile(const std::string& path, const std::string& content) {
  std::vector<Violation> violations;
  const ScanResult scan = ScanContent(content);
  const Allowances allow = CollectAllowances(path, scan, &violations);
  CheckIncludes(path, content, scan, allow, &violations);
  CheckWallClock(path, scan, allow, &violations);
  CheckAtomics(path, scan, allow, &violations);
  CheckRawMutex(path, scan, allow, &violations);
  return violations;
}

std::vector<Violation> LintTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<Violation> violations;
  const fs::path src = fs::path(root) / "src";
  if (!fs::exists(src)) {
    violations.push_back({root, 0, "directive", "no src/ directory under the given root"});
    return violations;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());  // Deterministic report order.
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string rel = file.lexically_relative(root).generic_string();
    std::vector<Violation> file_violations = LintFile(rel, buffer.str());
    violations.insert(violations.end(), std::make_move_iterator(file_violations.begin()),
                      std::make_move_iterator(file_violations.end()));
  }
  return violations;
}

}  // namespace prism::lint
