// The end-to-end benchmark binary; bench/e2e/run.sh builds and drives it.
//
//   tvdp_e2e --workload W [--seed S] [--seconds T] [--trace [0|1]]
//            [--images N] [--smoke] --out DIR
//   tvdp_e2e --check-seeding [--seed S] --out DIR
//
// A workload run prints "<workload> <metric> <value> <unit>" lines, then one
// JSON line {"correct","attempted","failed","metrics"} as the last line of
// stdout, and writes result_<workload>.json (plus trace_<workload>.json when
// traced) under --out. It exits 1 when a correctness check fails.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/strings.h"
#include "storage/serializer.h"
#include "workloads.h"

namespace tvdp::e2e {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: tvdp_e2e --workload W [--seed S] [--seconds T] "
               "[--trace [0|1]] [--images N] [--smoke] --out DIR\n"
               "       tvdp_e2e --check-seeding [--seed S] --out DIR\n",
               why);
  return 2;
}

Json MetricsJson(const std::vector<Metric>& metrics) {
  Json out = Json::MakeObject();
  for (const Metric& m : metrics) {
    Json v = Json::MakeObject();
    v["value"] = std::isfinite(m.value) ? m.value : 0.0;
    v["unit"] = m.unit;
    out[m.name] = std::move(v);
  }
  return out;
}

Status WriteJson(const std::string& path, const Json& json) {
  const std::string text = json.Dump() + "\n";
  return storage::WriteFile(path,
                            std::vector<uint8_t>(text.begin(), text.end()));
}

int Main(int argc, char** argv) {
  Options options;
  bool smoke = false;
  bool check_seeding = false;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workload") {
      const char* v = value();
      if (!v) return Usage("--workload needs a value");
      options.workload = v;
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v) return Usage("--seed needs a value");
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      const char* v = value();
      if (!v || std::atof(v) <= 0) {
        return Usage("--seconds needs a positive value");
      }
      options.seconds = std::atof(v);
    } else if (arg == "--images") {
      const char* v = value();
      if (!v || std::atoi(v) <= 0) {
        return Usage("--images needs a positive value");
      }
      options.images = std::atoi(v);
    } else if (arg == "--trace") {
      // Accepts a bare flag or an explicit 0/1.
      options.trace = true;
      if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                           std::string(argv[i + 1]) == "1")) {
        options.trace = std::string(argv[++i]) == "1";
      }
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--check-seeding") {
      check_seeding = true;
    } else if (arg == "--out") {
      const char* v = value();
      if (!v) return Usage("--out needs a value");
      out_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (out_dir.empty()) return Usage("--out is required");
  std::filesystem::create_directories(out_dir);
  const std::string scratch =
      StrFormat("%s/data-%d", out_dir.c_str(), static_cast<int>(::getpid()));

  if (check_seeding) {
    constexpr int kEquivalenceImages = 500;
    Status s =
        CheckSeedingEquivalence(options.seed, kEquivalenceImages, scratch);
    if (!s.ok()) {
      std::fprintf(stderr, "seeding equivalence FAILED: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf(
        "seeding equivalence: %d images, rows vs facade, identical "
        "envelopes\n",
        kEquivalenceImages);
    return 0;
  }

  if (DefaultImages(options.workload) == 0) {
    return Usage(("unknown workload: " + options.workload).c_str());
  }
  if (smoke) {
    if (options.images == 0) {
      options.images = DefaultImages(options.workload) / 20;
    }
    options.seconds = 2;
  }
  options.data_dir = scratch;
  Result<Outcome> run = RunWorkload(options);
  if (!run.ok()) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(),
                 run.status().ToString().c_str());
    return 1;
  }
  const Outcome& o = *run;
  for (const std::string& v : o.violations) {
    std::fprintf(stderr, "%s: CHECK FAILED: %s\n", options.workload.c_str(),
                 v.c_str());
  }
  for (const auto* list : {&o.metrics, &o.details}) {
    for (const Metric& m : *list) {
      std::printf("%s %s %.6g %s\n", options.workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }

  Json line = Json::MakeObject();
  line["correct"] = o.violations.empty();
  line["attempted"] = o.attempted;
  line["failed"] = o.failed;
  line["metrics"] = MetricsJson(o.metrics);

  Json result = line;
  result["workload"] = options.workload;
  result["seed"] = static_cast<int64_t>(options.seed);
  result["seconds"] = options.seconds;
  result["trace"] = options.trace;
  result["details"] = MetricsJson(o.details);
  Json violations = Json::MakeArray();
  for (const std::string& v : o.violations) violations.Append(v);
  result["violations"] = std::move(violations);
  Status written =
      WriteJson(out_dir + "/result_" + options.workload + ".json", result);
  if (written.ok() && options.trace) {
    written =
        WriteJson(out_dir + "/trace_" + options.workload + ".json", o.trace);
  }
  if (!written.ok()) {
    std::fprintf(stderr, "writing results: %s\n", written.ToString().c_str());
  }

  std::printf("%s\n", line.Dump().c_str());
  return o.violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace tvdp::e2e

int main(int argc, char** argv) { return tvdp::e2e::Main(argc, argv); }
