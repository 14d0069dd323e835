#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Insertion-ordered JSON object whose values are serialized on add.
/// Numbers keep all their digits; non-finite ones are written as 0 so the
/// output always parses as strict JSON.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, const char* value);
  JsonObject& add(const std::string& key, bool value);
  JsonObject& add(const std::string& key, const std::vector<double>& values);
  JsonObject& add(const std::string& key, const JsonObject& value);
  /// Adds an already-serialized JSON value.
  JsonObject& add_raw(const std::string& key, std::string json);

  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
