#include "util/cli.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace scod {

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& known_options) {
  program_ = argc > 0 ? argv[0] : "";
  auto known = [&](const std::string& name) {
    return std::find(known_options.begin(), known_options.end(), name) != known_options.end();
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      unknown_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string name, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // Consume the next token as the value unless it is another option or
      // the option is a known bare flag at the end of the command line.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (!known(name)) {
      unknown_.push_back("--" + name);
      continue;
    }
    values_[name] = value;
  }
}

namespace {

/// Parses all of `value` with `parse` (std::stoll / std::stod); a failure,
/// an out-of-range value or trailing characters throw
/// std::invalid_argument naming the option.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& value, const char* what,
                 Parse parse) {
  std::size_t used = 0;
  try {
    const auto parsed = parse(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::logic_error&) {
  }
  throw std::invalid_argument("--" + name + ": expected " + what + ", got '" + value +
                              "'");
}

std::int64_t parse_int(const std::string& name, const std::string& value) {
  return parse_whole(name, value, "an integer",
                     [](const std::string& v, std::size_t* used) {
                       return std::stoll(v, used);
                     });
}

}  // namespace

bool CliArgs::has(const std::string& name) const { return values_.count(name) > 0; }

std::string CliArgs::get_string(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : fallback;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_int(name, it->second);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_whole(name, it->second, "a number",
                     [](const std::string& v, std::size_t* used) {
                       return std::stod(v, used);
                     });
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::int64_t> CliArgs::get_int_list(const std::string& name,
                                                std::vector<std::int64_t> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(parse_int(name, token));
  }
  return out;
}

}  // namespace scod
