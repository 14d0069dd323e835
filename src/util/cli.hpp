#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace scod {

/// Minimal command-line option parser for the benchmark harness binaries.
///
/// Accepts `--name value`, `--name=value` and bare `--flag` forms. Unknown
/// options are collected and reported so a typo in a sweep script fails
/// loudly instead of silently benchmarking the default configuration.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& known_options);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name, const std::string& fallback) const;
  /// Numeric getters throw std::invalid_argument naming the option when
  /// the value is not a number of that kind in full (e.g. `--count 12x`).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list, e.g. `--sizes 2000,4000,8000`.
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         std::vector<std::int64_t> fallback) const;

  const std::vector<std::string>& unknown() const { return unknown_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> unknown_;
};

}  // namespace scod
