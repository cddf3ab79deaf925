// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload oltp|analytic|adhoc --seed N --seconds S
//             --trace 0|1 [--out DIR]
//   perfbench --selftest
//
// One run generates the dataset and statement sequence from the seed, sets
// the database up several times (reporting the median set-up; all but the
// first in a child `perfbench --setup-only --workload W --seed N`, which
// prints one set-up's timings), then runs a closed loop of one client for
// S seconds, checking every answer against the oracle. With --trace 1 it
// also replays a sample of the SELECTs layer by layer and reports
// per-layer metrics instead of the end-to-end ones. The last line of
// standard output is the result JSON.
// See perfbench/README.md for the workloads and metric definitions.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "harness.h"
#include "model.h"
#include "oracle.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string self;  // this program, as it was started
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  bool setup_only = false;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  a->self = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (k == "--setup-only") {
      a->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// A fixed CPU loop timed around each run: its spread is the host's own
// run-to-run noise, the floor any claimed speed-up must clear.
double CalibrationMs() {
  std::vector<uint64_t> v(1 << 18);
  Rng rng(7);
  for (uint64_t& x : v) x = rng.Next();
  Clock::time_point t0 = Clock::now();
  std::sort(v.begin(), v.end());
  uint64_t sink = 0;
  for (int pass = 0; pass < 8; ++pass) {
    for (size_t i = 1; i < v.size(); ++i) sink += v[i] ^ (v[i - 1] >> pass);
  }
  double ms = SecondsSince(t0) * 1e3;
  if (sink == 42) std::fputs("", stderr);  // keeps the loop observable
  return ms;
}

std::string Json(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o + "\"";
}

/// Each read/write percentile is the geometric mean, over the templates of
/// that kind, of each template's own percentile: pooling templates whose
/// latencies differ 5-10x would put the percentile on a band edge.
void LatencyMetrics(const Workload& wl, const LoopStats& loop,
                    std::vector<Metric>* out, std::string* why) {
  for (bool write : {false, true}) {
    std::vector<double> p50, p90;
    for (size_t t = 0; t < wl.templates().size(); ++t) {
      if (wl.templates()[t].write != write) continue;
      std::vector<double> s = loop.samples[t];
      if (s.empty()) {
        *why = "template " + wl.templates()[t].name + " never ran";
        return;
      }
      p50.push_back(BlockMedian(s));
      std::optional<double> tail = TailQuantile(s, 0.9);
      if (!tail) {
        *why = "template " + wl.templates()[t].name + " has " +
               std::to_string(s.size()) +
               " samples, too few for 10 beyond its p90";
        return;
      }
      p90.push_back(*tail);
    }
    std::string kind = write ? "write" : "read";
    out->push_back({kind + "_p50_us", "us", GeoMean(p50)});
    out->push_back({kind + "_p90_us", "us", GeoMean(p90)});
  }
}

std::string HostBlock(const std::vector<double>& calib) {
  std::vector<double> c = calib;
  std::string s = "{\"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"compiler\": " + Quote(__VERSION__) +
                  ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
                  ", \"parallelism\": " + std::to_string(kParallelism) +
                  ", \"calibration_ms\": [";
  for (size_t i = 0; i < calib.size(); ++i) {
    s += (i ? ", " : "") + Json(calib[i]);
  }
  s += "], \"calibration_median_ms\": " + Json(Median(c)) +
       ", \"noise_floor_iqr\": " + Json(RelativeIqr(c)) + "}";
  return s;
}

int RunBenchmark(const Args& args) {
  Model model = Model::Generate(args.seed, Sizes{});
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, model, args.seed);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  starburst::Result<Setup> setup =
      SetUp(model, *wl, model.InsertSql(kRowsPerInsert));
  if (!setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  if (args.setup_only) {
    std::fputs(SetupLine(*setup).c_str(), stdout);
    return 0;
  }
  std::vector<double> calib;
  for (int i = 0; i < 5; ++i) calib.push_back(CalibrationMs());

  SetupTimes setup_times;
  setup_times.Add(*setup);
  // The other set-ups run at even intervals through the measured phase:
  // the host alternates between fast and slow phases lasting seconds, and
  // set-ups done back to back would all land in one.
  std::string failure;
  Interlude interlude{[&] {
                        std::string why = SetUpInChild(args.self, args.workload,
                                                       args.seed, &setup_times);
                        if (failure.empty()) failure = why;
                      },
                      args.seconds / kSetups};
  Rng rng(args.seed);
  std::vector<Metric> metrics;
  LoopStats loop;
  TraceReport trace;
  if (!args.trace) {
    loop = RunLoop(*setup, *wl, model, rng, args.seconds, nullptr, interlude);
    metrics.push_back({"setup_s", "s", Median(setup_times.setup_s)});
    metrics.push_back(
        {"throughput_sps", "1/s",
         static_cast<double>(loop.attempted) / loop.busy_s});
    LatencyMetrics(*wl, loop, &metrics, &failure);
    metrics.push_back({"peak_rss_mb", "MB", PeakRssMb()});
  } else {
    trace = TracedRun(*setup, *wl, model, rng, args.seconds, interlude,
                      setup_times);
    loop = std::move(trace.loops);
    metrics = trace.metrics;
    if (!trace.error.empty() && failure.empty()) failure = trace.error;
  }
  if (!failure.empty()) loop.correct = false;
  for (int i = 0; i < 5; ++i) calib.push_back(CalibrationMs());

  double error_ratio = loop.attempted == 0
                           ? 1.0
                           : static_cast<double>(loop.failed) /
                                 static_cast<double>(loop.attempted);
  bool correct = loop.correct && loop.failed == 0 && loop.selftest_caught;
  if (!loop.selftest_caught && failure.empty()) {
    failure = "the oracle accepted a corrupted answer";
  }

  // Human-readable summary; the JSON line comes last.
  std::printf("workload %s seed %llu parallelism %d: %llu statements, %llu "
              "failed, error_ratio %.6f\n",
              wl->name().c_str(), static_cast<unsigned long long>(args.seed),
              kParallelism,
              static_cast<unsigned long long>(loop.attempted),
              static_cast<unsigned long long>(loop.failed), error_ratio);
  std::string templates_json;
  for (size_t t = 0; t < wl->templates().size(); ++t) {
    const Template& tm = wl->templates()[t];
    std::vector<double> s = loop.samples[t];
    double p50 = BlockMedian(s), p90 = Quantile(s, 0.9);
    std::printf("  %-16s %-5s n=%-7zu p50=%10.1f us  p90=%10.1f us\n",
                tm.name.c_str(), tm.write ? "write" : "read", s.size(), p50, p90);
    templates_json += std::string(t ? ", " : "") + "{\"name\": " +
                      Quote(tm.name) + ", \"write\": " +
                      (tm.write ? "true" : "false") +
                      ", \"n\": " + std::to_string(s.size()) +
                      ", \"p50_us\": " + Json(p50) + ", \"p90_us\": " + Json(p90) + "}";
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-32s %14.6f ratio\n", "error_ratio", error_ratio);
  for (const std::string& e : loop.errors) {
    std::printf("  error: %s\n", e.c_str());
  }
  if (!failure.empty()) std::printf("  failure: %s\n", failure.c_str());

  std::string metrics_json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    metrics_json += (i ? ", " : "") + Quote(metrics[i].name) +
                    ": {\"value\": " + Json(metrics[i].value) +
                    ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  metrics_json += "}";

  std::filesystem::create_directories(args.out);
  std::string stem = args.out + "/" + wl->name() + "-seed" +
                     std::to_string(args.seed) + (args.trace ? "-trace" : "");
  {
    std::ofstream f(stem + ".json");
    f << "{\"workload\": " << Quote(wl->name()) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << Json(args.seconds)
      << ",\n \"host\": " << HostBlock(calib)
      << ",\n \"error_ratio\": " << Json(error_ratio)
      << ",\n \"setup_s_samples\": [";
    for (size_t i = 0; i < setup_times.setup_s.size(); ++i) {
      f << (i ? ", " : "") << Json(setup_times.setup_s[i]);
    }
    f << "]"
      << ",\n \"templates\": [" << templates_json;
    f << "],\n \"metrics\": " << metrics_json;
    if (args.trace) f << ",\n \"layers\": " << trace.layers_json;
    f << "}\n";
  }
  if (args.trace) {
    std::ofstream f(stem + ".chrome.json");
    f << trace.chrome_json;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(loop.attempted),
              static_cast<unsigned long long>(loop.failed),
              metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] | --selftest | "
                 "--setup-only --workload NAME --seed N\n");
    return 2;
  }
  if (args.selftest) return perfbench::SelfTest();
  return perfbench::RunBenchmark(args);
}
