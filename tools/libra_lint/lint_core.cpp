// Backend-agnostic pieces of libra-lint: check registry, suppression
// parsing/application, path rules, compile_commands.json file extraction,
// and the JSON findings artifact.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "lint.h"

namespace libra::lint {

namespace {

struct CheckNameRow {
  Check check;
  const char* name;
};

constexpr CheckNameRow kCheckNames[] = {
    {Check::kNondeterminismSource, "nondeterminism-source"},
    {Check::kUnorderedIteration, "unordered-iteration"},
    {Check::kGuardedByCoverage, "guarded-by-coverage"},
    {Check::kBareAssert, "bare-assert"},
    {Check::kLedgerNarrowing, "ledger-narrowing"},
    {Check::kFlatHotPath, "flat-hot-path"},
    {Check::kBadSuppression, "bad-suppression"},
};

std::string trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

const char* check_name(Check c) {
  for (const auto& row : kCheckNames)
    if (row.check == c) return row.name;
  return "unknown";
}

bool parse_check(const std::string& name, Check* out) {
  for (const auto& row : kCheckNames)
    if (name == row.name) {
      *out = row.check;
      return true;
    }
  return false;
}

std::vector<Check> all_checks() {
  return {Check::kNondeterminismSource, Check::kUnorderedIteration,
          Check::kGuardedByCoverage, Check::kBareAssert,
          Check::kLedgerNarrowing, Check::kFlatHotPath};
}

// ---- suppressions ----

std::vector<Suppression> parse_suppressions(const std::string& content,
                                            std::vector<Finding>* errors,
                                            const std::string& rule_path) {
  std::vector<Suppression> out;
  // Scan raw content (not the token stream): ALLOW markers live in comments.
  static const std::string kMarker = "LIBRA_LINT_ALLOW";
  size_t pos = 0;
  int line = 1;
  size_t line_start = 0;
  while (true) {
    const size_t hit = content.find(kMarker, pos);
    if (hit == std::string::npos) break;
    for (size_t i = line_start; i < hit; ++i)
      if (content[i] == '\n') ++line;
    line_start = hit;
    pos = hit + kMarker.size();

    // Skip the definition of the marker itself (string literals / docs that
    // merely mention it without a '(' directly after the name).
    bool file_wide = false;
    size_t p = pos;
    if (content.compare(p, 5, "_FILE") == 0) {
      file_wide = true;
      p += 5;
    }
    if (p >= content.size() || content[p] != '(') continue;
    const size_t close = content.find(')', p);
    if (close == std::string::npos) continue;
    const std::string name = trim(content.substr(p + 1, close - p - 1));
    Suppression sup;
    sup.line = line;
    sup.file_wide = file_wide;
    if (!parse_check(name, &sup.check) || sup.check == Check::kBadSuppression) {
      errors->push_back({Check::kBadSuppression, rule_path, line,
                         "LIBRA_LINT_ALLOW names unknown check '" + name + "'",
                         false,
                         {}});
      continue;
    }
    // Mandatory ": <reason>" after the closing paren.
    size_t r = close + 1;
    while (r < content.size() && (content[r] == ' ' || content[r] == '\t')) ++r;
    if (r >= content.size() || content[r] != ':') {
      errors->push_back({Check::kBadSuppression, rule_path, line,
                         std::string("LIBRA_LINT_ALLOW(") + name +
                             ") is missing the mandatory ': <reason>'",
                         false,
                         {}});
      continue;
    }
    const size_t eol = content.find('\n', r);
    const std::string reason = trim(content.substr(
        r + 1, (eol == std::string::npos ? content.size() : eol) - r - 1));
    if (reason.empty()) {
      errors->push_back({Check::kBadSuppression, rule_path, line,
                         std::string("LIBRA_LINT_ALLOW(") + name +
                             ") has an empty reason",
                         false,
                         {}});
      continue;
    }
    sup.reason = reason;
    out.push_back(sup);
  }
  return out;
}

void apply_suppressions(const std::vector<Suppression>& sups,
                        std::vector<Finding>* findings) {
  for (Finding& f : *findings) {
    if (f.check == Check::kBadSuppression) continue;  // never suppressible
    for (const Suppression& s : sups) {
      if (s.check != f.check) continue;
      if (s.file_wide || f.line == s.line || f.line == s.line + 1) {
        f.suppressed = true;
        f.suppression_reason = s.reason;
        break;
      }
    }
  }
}

// ---- path rules ----

std::string rule_path_of(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  static const char* kRoots[] = {"src/", "tests/", "bench/", "tools/",
                                 "examples/"};
  size_t best = std::string::npos;
  for (const char* root : kRoots) {
    // Last occurrence preceded by start-of-string or '/'.
    size_t at = p.rfind(root);
    while (at != std::string::npos && at != 0 && p[at - 1] != '/')
      at = (at == 0) ? std::string::npos : p.rfind(root, at - 1);
    if (at != std::string::npos && (best == std::string::npos || at < best))
      best = at;
  }
  return best == std::string::npos ? p : p.substr(best);
}

bool in_src(const std::string& rule_path) {
  return rule_path.rfind("src/", 0) == 0;
}

bool in_sim_core(const std::string& rule_path) {
  return rule_path.rfind("src/sim/", 0) == 0 ||
         rule_path.rfind("src/core/", 0) == 0 ||
         rule_path.rfind("src/gen/", 0) == 0 ||
         rule_path.rfind("src/workload/", 0) == 0;
}

bool in_ledger_files(const std::string& rule_path) {
  return rule_path.find("harvest_pool") != std::string::npos ||
         rule_path.find("pool_status") != std::string::npos ||
         rule_path.find("pool_event") != std::string::npos ||
         rule_path.find("invariant_auditor") != std::string::npos;
}

bool in_hot_path_files(const std::string& rule_path) {
  // "engine." (with the dot) keeps engine_config out of the engine stem;
  // engine.h holds the invocation store alias, the hot-path contract.
  return rule_path.rfind("src/sim/engine.", 0) == 0 ||
         rule_path.rfind("src/sim/event_queue", 0) == 0 ||
         rule_path.rfind("src/sim/cluster_state", 0) == 0 ||
         rule_path.rfind("src/sim/sharded_controller", 0) == 0 ||
         rule_path.rfind("src/sim/ctrl/control_plane", 0) == 0 ||
         rule_path.rfind("src/core/harvest_pool", 0) == 0 ||
         rule_path.rfind("src/core/scheduler", 0) == 0 ||
         rule_path.rfind("src/core/coverage", 0) == 0;
}

// ---- compile_commands.json ----

namespace {

std::string json_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u': i += 4; out += '?'; break;  // non-ASCII paths unsupported
      default: out += s[i];
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> compile_db_files(const std::string& db_path) {
  std::ifstream in(db_path);
  if (!in) throw std::runtime_error("cannot open " + db_path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::set<std::string> files;
  static const std::string kKey = "\"file\"";
  size_t pos = 0;
  while (true) {
    size_t hit = text.find(kKey, pos);
    if (hit == std::string::npos) break;
    pos = hit + kKey.size();
    size_t colon = text.find(':', pos);
    if (colon == std::string::npos) break;
    size_t open = text.find('"', colon);
    if (open == std::string::npos) break;
    size_t close = open + 1;
    while (close < text.size() &&
           !(text[close] == '"' && text[close - 1] != '\\'))
      ++close;
    if (close >= text.size()) break;
    files.insert(json_unescape(text.substr(open + 1, close - open - 1)));
    pos = close + 1;
  }
  return {files.begin(), files.end()};
}

// ---- lexical driver ----

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

RunResult run_lexical(const std::vector<std::string>& files,
                      const LintOptions& opt) {
  RunResult result;
  SymbolIndex index;
  std::vector<std::pair<std::string, std::string>> loaded;  // rule_path, text
  for (const std::string& path : files) {
    const std::string rp = rule_path_of(path);
    if (!in_src(rp)) continue;  // bench/tests/examples are not lint targets
    loaded.emplace_back(rp, read_file(path));
  }
  // Deterministic order regardless of input order.
  std::sort(loaded.begin(), loaded.end());
  loaded.erase(std::unique(loaded.begin(), loaded.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               loaded.end());
  for (const auto& [rp, text] : loaded) index_file(rp, text, &index);
  for (const auto& [rp, text] : loaded) {
    auto fs = analyze_content(rp, text, opt, &index);
    result.findings.insert(result.findings.end(), fs.begin(), fs.end());
    ++result.files_scanned;
  }
  for (const Finding& f : result.findings)
    if (!f.suppressed) ++result.unsuppressed;
  return result;
}

// ---- JSON artifact ----

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string findings_to_json(const RunResult& result,
                             const std::string& backend) {
  std::ostringstream os;
  os << "{\n  \"tool\": \"libra-lint\",\n  \"version\": 1,\n  \"backend\": \""
     << json_escape(backend) << "\",\n  \"files_scanned\": "
     << result.files_scanned
     << ",\n  \"unsuppressed\": " << result.unsuppressed
     << ",\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : result.findings) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"check\": \"" << check_name(f.check) << "\", \"file\": \""
       << json_escape(f.file) << "\", \"line\": " << f.line
       << ", \"suppressed\": " << (f.suppressed ? "true" : "false")
       << ", \"message\": \"" << json_escape(f.message) << "\"";
    if (f.suppressed)
      os << ", \"reason\": \"" << json_escape(f.suppression_reason) << "\"";
    os << "}";
  }
  os << (first ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

}  // namespace libra::lint
