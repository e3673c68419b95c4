// Minimal command-line argument parsing for the tools and examples.
//
// Supports --key value and --key=value options plus --flag booleans; keeps
// the library free of external dependencies while giving the CLI tools real
// option handling with validation and error messages.
#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/contracts.hpp"

namespace qs {

/// A command-line value a tool cannot use: not a number, or outside the
/// option's range.  The message is plain ("option --tolerance out of
/// range: ..."); every tool prints it as "error: <message>" and exits 2.
class usage_error : public precondition_error {
 public:
  using precondition_error::precondition_error;
};

/// Parsed command line: options plus positional arguments.
class ArgParser {
 public:
  /// Parses argv; throws precondition_error on malformed input (an option
  /// without a value at the end of the line).
  ArgParser(int argc, const char* const* argv);

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  /// True iff --name was present (with or without a value).
  bool has(const std::string& name) const;

  /// String option value, or fallback when absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Numeric option values with range validation; throw usage_error, naming
  /// the option and its range [lo, hi], on parse failure or range violation.
  double get_double(const std::string& name, double fallback, double lo,
                    double hi) const;
  long get_long(const std::string& name, long fallback, long lo, long hi) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// False, after printing "<program>: unknown option --<name>" to stderr,
  /// when an option outside `known` (the options the tool reads) was given;
  /// <name> is the first such option in command-line order.  Tools exit 2.
  bool only_known(std::initializer_list<std::string_view> known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> order_;  ///< Option names in command-line order.
  std::vector<std::string> positional_;
};

}  // namespace qs
