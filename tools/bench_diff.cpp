// bench_diff — machine-checkable guard over the BENCH_*.json perf trajectory.
//
// Diffs two benchmark JSON files (a committed baseline and a fresh run) and
// exits nonzero when any *pinned* row regressed by more than the threshold.
// Pinned rows are the timing leaves: numeric values whose key ends in "_s"
// or "seconds" (the convention every BENCH_*.json in this repo follows —
// fig2's fmmp_*_s / panel seconds, ensemble_throughput's *_seconds, ...).
// Derived ratios (speedups), counts, and metadata are reported but never
// fail the diff: they move whenever their inputs move, and the timings are
// the ground truth.
//
// Rows are matched by a structural path.  Array elements that carry
// identifying keys (nu, backend, m, p, R, name) are addressed by those keys
// instead of their index — "rows[nu=16].panel[backend=serial,m=8].seconds"
// — so inserting a new nu row into a benchmark does not misalign every
// later comparison.
//
// Usage:
//   bench_diff BASELINE.json CANDIDATE.json [--threshold PCT] [--pin SUBSTR]
//              [--list]
//
//   --threshold PCT  allowed slowdown per pinned row, percent (default 10)
//   --pin SUBSTR     only compare pinned keys containing SUBSTR
//   --list           print the pinned keys of BASELINE and exit
//
// Exit codes: 0 = no pinned regression, 1 = at least one pinned row
// regressed (or went missing), 2 = usage or parse error.  Improvements
// never fail, and keys new in the candidate are informational only.
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "support/args.hpp"

namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader.  Only what the BENCH files need:
// objects, arrays, numbers, strings, true/false/null.  On malformed input it
// throws std::runtime_error with a byte offset.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { object, array, number, string, boolean, null } kind;
  double number = 0.0;
  bool boolean = false;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> members;  // object, in order
  std::vector<JsonValue> elements;                         // array

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::string;
        v.string = string_literal();
        return v;
      }
      case 't': literal("true"); return boolean_value(true);
      case 'f': literal("false"); return boolean_value(false);
      case 'n': {
        literal("null");
        JsonValue v;
        v.kind = JsonValue::Kind::null;
        return v;
      }
      default: return number();
    }
  }

  static JsonValue boolean_value(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::boolean;
    v.boolean = b;
    return v;
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string_literal();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.elements.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string_literal() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // BENCH files are plain ASCII; skip the four hex digits.
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            pos_ += 4;
            out += '?';
            break;
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::number;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Flattening: JSON tree -> path -> numeric leaf.
// ---------------------------------------------------------------------------

/// Keys that identify an array element better than its index.  Checked in
/// this order; every match is appended, so a fig2 panel row flattens to
/// [backend=serial,m=8] and survives row insertions in either dimension.
const char* const kIdentifyingKeys[] = {"nu", "backend", "m", "p", "R",
                                        "replicas", "name", "label"};

std::string element_tag(const JsonValue& element, std::size_t index) {
  if (element.kind == JsonValue::Kind::object) {
    std::string tag;
    for (const char* key : kIdentifyingKeys) {
      const JsonValue* id = element.find(key);
      if (id == nullptr) continue;
      if (!tag.empty()) tag += ',';
      tag += key;
      tag += '=';
      if (id->kind == JsonValue::Kind::string) {
        tag += id->string;
      } else if (id->kind == JsonValue::Kind::number) {
        std::ostringstream os;
        os << id->number;
        tag += os.str();
      }
    }
    if (!tag.empty()) return tag;
  }
  return std::to_string(index);
}

void flatten(const JsonValue& v, const std::string& path,
             std::map<std::string, double>& out) {
  switch (v.kind) {
    case JsonValue::Kind::object:
      for (const auto& [key, child] : v.members) {
        flatten(child, path.empty() ? key : path + "." + key, out);
      }
      break;
    case JsonValue::Kind::array:
      for (std::size_t i = 0; i < v.elements.size(); ++i) {
        flatten(v.elements[i], path + "[" + element_tag(v.elements[i], i) + "]",
                out);
      }
      break;
    case JsonValue::Kind::number:
      out[path] = v.number;
      break;
    default:
      break;  // strings/booleans/null: metadata, not comparable rows
  }
}

/// A pinned row is a timing: its key's final segment ends in "_s" or
/// "seconds".  Everything else (speedups, candidate counts, nu, n, ...) is
/// context.
bool pinned(const std::string& path) {
  const std::size_t dot = path.find_last_of('.');
  const std::string leaf = dot == std::string::npos ? path : path.substr(dot + 1);
  auto ends_with = [&leaf](const std::string& suffix) {
    return leaf.size() >= suffix.size() &&
           leaf.compare(leaf.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return ends_with("_s") || ends_with("seconds");
}

std::map<std::string, double> load_rows(const std::string& file) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot open " + file);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonReader reader(buffer.str());
  const JsonValue root = reader.parse();
  std::map<std::string, double> rows;
  flatten(root, "", rows);
  return rows;
}

void usage(std::ostream& os) {
  os << "usage: bench_diff BASELINE.json CANDIDATE.json [--threshold PCT]\n"
        "                  [--pin SUBSTR] [--list]\n"
        "Compares the pinned timing rows (keys ending in _s/seconds) of two\n"
        "BENCH_*.json files; exits 1 when any pinned row of BASELINE is\n"
        "missing from CANDIDATE or slower by more than PCT percent\n"
        "(default 10).  Improvements and non-timing rows never fail.\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const qs::ArgParser args(argc, argv);
    if (!args.only_known({"help", "list", "pin", "threshold"})) {
      return 2;
    }
    if (args.has("help")) {
      usage(std::cout);
      return EXIT_SUCCESS;
    }
    if (args.positional().size() < 1 ||
        (args.positional().size() < 2 && !args.has("list"))) {
      usage(std::cerr);
      return 2;
    }
    const double threshold = args.get_double("threshold", 10.0, 0.0, 1e6);
    const std::string pin = args.get("pin", "");

    const auto base = load_rows(args.positional()[0]);

    if (args.has("list")) {
      for (const auto& [key, value] : base) {
        if (pinned(key) && (pin.empty() || key.find(pin) != std::string::npos)) {
          std::cout << key << " = " << value << "\n";
        }
      }
      return EXIT_SUCCESS;
    }

    const auto cand = load_rows(args.positional()[1]);

    std::size_t compared = 0, regressed = 0, missing = 0, improved = 0;
    for (const auto& [key, base_value] : base) {
      if (!pinned(key)) continue;
      if (!pin.empty() && key.find(pin) == std::string::npos) continue;
      const auto it = cand.find(key);
      if (it == cand.end()) {
        // A pinned baseline row the candidate no longer reports is itself a
        // regression of the guard's coverage — fail loudly, not silently.
        std::cerr << "MISSING  " << key << " (baseline " << base_value
                  << ")\n";
        ++missing;
        continue;
      }
      ++compared;
      const double cand_value = it->second;
      if (base_value <= 0.0) continue;  // degenerate timing; nothing to pin
      const double delta_pct = (cand_value / base_value - 1.0) * 100.0;
      if (delta_pct > threshold) {
        std::cerr << "REGRESSED " << key << ": " << base_value << " -> "
                  << cand_value << " (+" << delta_pct << "% > " << threshold
                  << "%)\n";
        ++regressed;
      } else if (delta_pct < -threshold) {
        ++improved;
      }
    }

    std::cout << "bench_diff: " << compared << " pinned row(s) compared, "
              << regressed << " regressed, " << missing << " missing, "
              << improved << " improved beyond " << threshold << "%\n";
    if (compared == 0 && missing == 0) {
      std::cerr << "bench_diff: no pinned rows matched";
      if (!pin.empty()) std::cerr << " --pin '" << pin << "'";
      std::cerr << " — nothing was checked\n";
      return 2;
    }
    return (regressed != 0 || missing != 0) ? EXIT_FAILURE : EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "bench_diff: " << e.what() << "\n";
    return 2;
  }
}
