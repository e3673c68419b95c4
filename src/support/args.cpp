#include "support/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "support/contracts.hpp"

namespace qs {

ArgParser::ArgParser(int argc, const char* const* argv) {
  require(argc >= 1, "ArgParser: argc must be >= 1");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    order_.push_back(body.substr(0, eq));
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token is not itself an option;
    // otherwise a bare flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::string ArgParser::get(const std::string& name, const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

namespace {

/// Throws usage_error unless `value`, given as `text`, lies in [lo, hi].
template <typename T>
void require_in_range(const std::string& name, const std::string& text, T value,
                      T lo, T hi) {
  if (value >= lo && value <= hi) return;
  std::ostringstream out;
  out << "option --" << name << " out of range: " << text << " is not in [" << lo
      << ", " << hi << "]";
  throw usage_error(out.str());
}

}  // namespace

double ArgParser::get_double(const std::string& name, double fallback, double lo,
                             double hi) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == nullptr || *end != '\0' || it->second.empty()) {
    throw usage_error("option --" + name + " expects a number, got '" + it->second +
                      "'");
  }
  require_in_range(name, it->second, value, lo, hi);
  return value;
}

long ArgParser::get_long(const std::string& name, long fallback, long lo,
                         long hi) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const long value = std::strtol(it->second.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || it->second.empty()) {
    throw usage_error("option --" + name + " expects an integer, got '" +
                      it->second + "'");
  }
  require_in_range(name, it->second, value, lo, hi);
  return value;
}

bool ArgParser::only_known(std::initializer_list<std::string_view> known) const {
  for (const std::string& name : order_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << std::filesystem::path(program_).filename().string()
                << ": unknown option --" << name << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace qs
