#include "json.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

}  // namespace

JsonObject& JsonObject::add(const std::string& key, double value) {
  return add_raw(key, json_number(value));
}

JsonObject& JsonObject::add(const std::string& key, const std::string& value) {
  return add_raw(key, json_string(value));
}

JsonObject& JsonObject::add(const std::string& key, const char* value) {
  return add_raw(key, json_string(value));
}

JsonObject& JsonObject::add(const std::string& key, bool value) {
  return add_raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::add(const std::string& key, const std::vector<double>& values) {
  return add_raw(key, json_array(values));
}

JsonObject& JsonObject::add(const std::string& key, const JsonObject& value) {
  return add_raw(key, value.str());
}

JsonObject& JsonObject::add_raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ",";
    out += json_string(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
