// Machine-readable benchmark export (ISSUE 5 satellite c).
//
// google-benchmark's console output is for humans; CI wants one stable JSON
// file per bench binary (BENCH_*.json) with attempts/sec per variant and the
// user counters (live-task count, traced overhead %). This header provides a
// collecting ConsoleReporter — console output is unchanged — plus a minimal
// JSON writer, so each bench's main() runs the suite once and exports the
// captured results. The output path defaults to the REPO ROOT (compiled in
// as FRAP_REPO_ROOT by bench/CMakeLists.txt) so the BENCH_*.json trajectory
// accumulates where the roadmap tooling expects it, regardless of the
// binary's working directory; FRAP_BENCH_JSON overrides it (the CI
// bench-smoke job points it at the artifact directory). A failed export is
// a bench FAILURE: main() must propagate write_json's false into a nonzero
// exit so CI cannot silently lose the trajectory again.
//
// Bench-only code: wall-clock and environment access are fine here
// (frap-lint R5 governs src/).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace frap::benchjson {

struct Result {
  std::string name;
  std::int64_t iterations = 0;
  double real_time = 0;  // per-iteration, in `time_unit`
  double cpu_time = 0;
  std::string time_unit;
  std::map<std::string, double> counters;  // includes items_per_second
};

// Console reporter that additionally captures every per-iteration run (the
// counters it sees are already finalized, i.e. rates are per-second).
class CollectingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Result r;
      r.name = run.benchmark_name();
      r.iterations = static_cast<std::int64_t>(run.iterations);
      r.real_time = run.GetAdjustedRealTime();
      r.cpu_time = run.GetAdjustedCPUTime();
      r.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      for (const auto& [key, counter] : run.counters) {
        r.counters.emplace(key, static_cast<double>(counter));
      }
      results_.push_back(std::move(r));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const std::vector<Result>& results() const {
    return results_;
  }

  // Counter value of the named benchmark. A name ending in '*' matches any
  // run whose full name (including arg / thread suffixes the library
  // appends) starts with the prefix. When the benchmark or the counter is
  // absent (e.g. a --benchmark_filter excluded it) the value is 0 and the
  // source is recorded in missing(), so main() can refuse to publish a
  // summary built on it (see export_json).
  [[nodiscard]] double counter_of(const std::string& benchmark_name,
                                  const std::string& counter) {
    const bool prefix = !benchmark_name.empty() && benchmark_name.back() == '*';
    const std::string want =
        prefix ? benchmark_name.substr(0, benchmark_name.size() - 1)
               : benchmark_name;
    for (const Result& r : results_) {
      const bool match =
          prefix ? r.name.compare(0, want.size(), want) == 0 : r.name == want;
      if (!match) continue;
      const auto it = r.counters.find(counter);
      if (it != r.counters.end()) return it->second;
    }
    missing_.push_back(benchmark_name + " [" + counter + "]");
    return 0;
  }

  // Summary sources counter_of() looked up but did not find.
  [[nodiscard]] const std::vector<std::string>& missing() const {
    return missing_;
  }

 private:
  std::vector<Result> results_;
  std::vector<std::string> missing_;
};

inline std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

inline void write_number(std::ofstream& os, double v) {
  // JSON has no inf/nan; clamp to null so consumers fail loudly, not on a
  // parse error.
  if (v != v || v == std::numeric_limits<double>::infinity() ||
      v == -std::numeric_limits<double>::infinity()) {
    os << "null";
  } else {
    os << v;
  }
}

// Output path: FRAP_BENCH_JSON if set and non-empty, else `filename` under
// the repo root (falling back to the working directory only when the build
// system did not define FRAP_REPO_ROOT).
inline std::string json_path(const char* filename) {
  const char* env = std::getenv("FRAP_BENCH_JSON");
  if (env != nullptr && *env != '\0') return env;
#ifdef FRAP_REPO_ROOT
  return std::string(FRAP_REPO_ROOT) + "/" + filename;
#else
  return filename;
#endif
}

// Writes {"summary": {...}, "benchmarks": [...]}; returns false on I/O
// failure. Callers must treat false as fatal (nonzero exit) so a missing
// export fails CI instead of silently dropping a trajectory point.
inline bool write_json(const std::string& path,
                       const std::vector<Result>& results,
                       const std::map<std::string, double>& summary) {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(17);
  os << "{\n  \"summary\": {";
  bool first = true;
  for (const auto& [key, value] : summary) {
    os << (first ? "\n" : ",\n") << "    \"" << escape(key) << "\": ";
    write_number(os, value);
    first = false;
  }
  os << "\n  },\n  \"benchmarks\": [";
  first = true;
  for (const Result& r : results) {
    os << (first ? "\n" : ",\n");
    os << "    {\n      \"name\": \"" << escape(r.name) << "\",\n"
       << "      \"iterations\": " << r.iterations << ",\n"
       << "      \"real_time\": ";
    write_number(os, r.real_time);
    os << ",\n      \"cpu_time\": ";
    write_number(os, r.cpu_time);
    os << ",\n      \"time_unit\": \"" << escape(r.time_unit) << "\",\n"
       << "      \"counters\": {";
    bool cfirst = true;
    for (const auto& [key, value] : r.counters) {
      os << (cfirst ? "\n" : ",\n") << "        \"" << escape(key) << "\": ";
      write_number(os, value);
      cfirst = false;
    }
    os << "\n      }\n    }";
    first = false;
  }
  os << "\n  ]\n}\n";
  return static_cast<bool>(os);
}

// Exports the reporter's results and `summary` to json_path(filename).
// Every missing summary source is listed on stderr. A summary with missing
// sources is never written to the repo root: its keys would read 0 and
// overwrite the committed BENCH_*.json with a filtered run. Such a run may
// still export when FRAP_BENCH_JSON points elsewhere. Returns false (the
// caller exits nonzero) on a refused or failed write.
inline bool export_json(const char* filename,
                        const CollectingReporter& reporter,
                        const std::map<std::string, double>& summary) {
  for (const std::string& source : reporter.missing()) {
    std::fprintf(stderr, "summary source did not run: %s\n", source.c_str());
  }
  const char* env = std::getenv("FRAP_BENCH_JSON");
  const bool repo_root = env == nullptr || *env == '\0';
  if (repo_root && !reporter.missing().empty()) {
    std::fprintf(stderr,
                 "FATAL: refusing to write %s from a run that left %zu "
                 "summary source(s) unmeasured\n",
                 filename, reporter.missing().size());
    return false;
  }
  const std::string path = json_path(filename);
  if (!write_json(path, reporter.results(), summary)) {
    std::fprintf(stderr, "FATAL: could not write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace frap::benchjson
