#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// CPU seconds (user + system) of the whole process so far, all threads.
double process_cpu_seconds();

/// Peak resident set size of the process [MiB] (getrusage ru_maxrss).
double peak_rss_mib();

/// One recorded interval around a call into a layer.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;       ///< id of the span that was open when this one began
  double start_s = 0.0;  ///< relative to the trace's origin
  double end_s = 0.0;
  double cpu_s = 0.0;    ///< process CPU seconds spent inside the span

  double wall() const { return end_s - start_s; }
};

/// In-memory span recorder for the traced run. Spans are recorded from the
/// benchmark's own code around each public layer call and written out only
/// when the run ends. Single-threaded: spans open and close on the driver
/// thread, while the work inside them may fan out over the pool.
class Trace {
 public:
  explicit Trace(std::size_t threads);

  /// RAII span: opens on construction, closes on destruction (also on the
  /// exception path, so a failed call still leaves a well-formed trace).
  class Scope {
   public:
    Scope(Trace& trace, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    int id_;
  };

  /// Last recorded span with this name; throws std::out_of_range if none.
  const Span& find(const std::string& name) const;

  double wall(const std::string& name) const { return find(name).wall(); }
  /// Span duration minus the part its direct children cover.
  double self(const std::string& name) const;
  /// CPU seconds / (wall seconds x threads): the parallel share of a span.
  double cpu_util(const std::string& name) const;

  const std::vector<Span>& spans() const { return spans_; }
  std::string to_json() const;

 private:
  int open(std::string name);
  void close(int id);
  double now() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> open_cpu_;
  std::chrono::steady_clock::time_point origin_;
  std::size_t threads_;
};

}  // namespace perfbench
