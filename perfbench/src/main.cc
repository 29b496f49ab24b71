// Dema benchmark binary: runs one workload for a fixed time and prints its
// metrics as one JSON object on the last line of standard output.
//
//   dema_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-dir <dir>]

#include <sys/stat.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "alloc_count.h"
#include "common.h"
#include "workloads.h"

namespace perfbench {

void WriteTrace(const Options& opt, const TraceRecorder& recorder) {
  ::mkdir(opt.trace_dir.c_str(), 0755);
  const std::string path =
      opt.trace_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".tsv";
  if (recorder.WriteTsv(path)) {
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: could not write spans to %s\n", path.c_str());
  }
}

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: dema_perfbench --workload "
               "<flat_paper|fanin_64|keyed_tenants|tcp_loopback> --seed <n> "
               "--seconds <1..600> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) Usage("--seed takes a non-negative integer");
      opt.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n < 1 || n > 600) Usage("--seconds takes 1..600");
      opt.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return opt;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : "null";
}

std::string JsonLine(const Report& r, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  alloc::RegisterThread();
  const Options opt = ParseArgs(argc, argv);
  if (!RunSelfTests()) return 4;

  Report report;
  if (opt.workload == "flat_paper") {
    FabricShape shape;
    shape.locals = 4;
    shape.events_per_local = 50'000;
    shape.adaptive_gamma = true;
    report = RunFabricWorkload(opt, shape);
  } else if (opt.workload == "fanin_64") {
    FabricShape shape;
    shape.locals = 64;
    shape.events_per_local = 1'500;
    shape.adaptive_gamma = false;
    report = RunFabricWorkload(opt, shape);
  } else if (opt.workload == "keyed_tenants") {
    report = RunKeyedWorkload(opt);
  } else if (opt.workload == "tcp_loopback") {
    report = RunTcpWorkload(opt);
  } else {
    Usage(("unknown workload " + opt.workload).c_str());
  }

  for (const auto* family : {&report.end_to_end, &report.per_layer}) {
    for (const Metric& m : *family) {
      std::fprintf(stderr, "  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::fprintf(stderr, "  operations: %llu attempted, %llu failed%s\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               report.correct ? "" : " (INCORRECT)");
  const auto& metrics = opt.trace ? report.per_layer : report.end_to_end;
  std::printf("%s\n", JsonLine(report, metrics).c_str());
  std::fflush(stdout);
  return 0;
}
