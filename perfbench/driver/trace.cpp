#include "trace.hpp"

#include <sys/resource.h>

#include <stdexcept>

#include "json.hpp"

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Trace::Trace(std::size_t threads)
    : origin_(std::chrono::steady_clock::now()), threads_(threads) {}

Trace::Scope::Scope(Trace& trace, std::string name)
    : trace_(trace), id_(trace.open(std::move(name))) {}

Trace::Scope::~Scope() { trace_.close(id_); }

double Trace::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int Trace::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  open_cpu_.push_back(process_cpu_seconds());
  return spans_.back().id;
}

void Trace::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = now();
  span.cpu_s = process_cpu_seconds() - open_cpu_.back();
  open_.pop_back();
  open_cpu_.pop_back();
}

const Span& Trace::find(const std::string& name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->name == name) return *it;
  }
  throw std::out_of_range("no span named " + name);
}

double Trace::self(const std::string& name) const {
  const Span& span = find(name);
  double children = 0.0;
  for (const Span& child : spans_) {
    if (child.parent == span.id) children += child.wall();
  }
  return span.wall() - children;
}

double Trace::cpu_util(const std::string& name) const {
  const Span& span = find(name);
  const double capacity = span.wall() * static_cast<double>(threads_);
  return capacity > 0.0 ? span.cpu_s / capacity : 0.0;
}

std::string Trace::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) out += ",";
    out += JsonObject()
               .add("name", s.name)
               .add("id", static_cast<double>(s.id))
               .add("parent", static_cast<double>(s.parent))
               .add("start_s", s.start_s)
               .add("end_s", s.end_s)
               .add("cpu_s", s.cpu_s)
               .str();
  }
  return out + "]";
}

}  // namespace perfbench
