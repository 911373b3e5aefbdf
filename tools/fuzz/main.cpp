// libra_fuzz: differential scenario fuzzer driver.
//
//   libra_fuzz [--iterations N] [--seed S] [--artifact-dir DIR]
//              [--inject conservation|quota] [--max-shrink-rounds N]
//   libra_fuzz --replay FILE
//
// Fuzz mode generates N random-but-valid scenarios from the seed and runs
// the differential oracle on each (digest identity across 1 vs controllers_b
// front-end controllers, invariant-auditor cleanliness, retry/loss
// accounting, cross-platform goodput sanity). The first failure is greedily shrunk, serialized as a
// repro artifact, and the artifact is re-parsed and re-checked to prove it
// replays to the same failure class; exit code 1.
//
// Replay mode reloads a serialized artifact bit-identically and re-runs the
// oracle: exit 0 when the scenario is clean, 1 when it still fails (the
// expected outcome when replaying a repro artifact).
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "sim/chaos/fuzzer.h"
#include "sim/chaos/oracle.h"
#include "sim/chaos/repro.h"
#include "sim/chaos/shrinker.h"

namespace {

using libra::chaos::InjectKind;
using libra::chaos::Scenario;
using libra::chaos::ScenarioFuzzer;
using libra::chaos::Verdict;

struct Options {
  long iterations = 20;
  uint64_t seed = 1;
  std::string replay_file;
  std::string artifact_dir = ".";
  InjectKind inject = InjectKind::kNone;
  long inject_at_event = 200;
  int max_shrink_rounds = 8;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "libra_fuzz: " << what << "\n"
            << "usage: libra_fuzz [--iterations N] [--seed S]\n"
            << "                  [--artifact-dir DIR]\n"
            << "                  [--inject conservation|quota]\n"
            << "                  [--inject-at-event N]\n"
            << "                  [--max-shrink-rounds N]\n"
            << "       libra_fuzz --replay FILE\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--iterations") {
      opt.iterations = std::strtol(value().c_str(), nullptr, 10);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--replay") {
      opt.replay_file = value();
    } else if (arg == "--artifact-dir") {
      opt.artifact_dir = value();
    } else if (arg == "--inject") {
      const std::string kind = value();
      if (kind == "conservation")
        opt.inject = InjectKind::kConservation;
      else if (kind == "quota")
        opt.inject = InjectKind::kTenantQuota;
      else
        usage_error("unknown --inject kind '" + kind + "'");
    } else if (arg == "--inject-at-event") {
      opt.inject_at_event = std::strtol(value().c_str(), nullptr, 10);
    } else if (arg == "--max-shrink-rounds") {
      opt.max_shrink_rounds =
          static_cast<int>(std::strtol(value().c_str(), nullptr, 10));
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (opt.iterations < 1 && opt.replay_file.empty())
    usage_error("--iterations must be >= 1");
  return opt;
}

int replay(const Options& opt) {
  std::ifstream in(opt.replay_file);
  if (!in) {
    std::cerr << "libra_fuzz: cannot open " << opt.replay_file << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Scenario sc;
  try {
    sc = libra::chaos::parse_scenario(buf.str());
  } catch (const std::exception& e) {
    std::cerr << "libra_fuzz: parse failed: " << e.what() << "\n";
    return 2;
  }
  const Verdict v = libra::chaos::check_scenario(sc);
  if (v.ok) {
    std::cout << "replay " << opt.replay_file << ": verdict ok\n";
    return 0;
  }
  std::cout << "replay " << opt.replay_file << ": verdict " << v.failure
            << "\n  " << v.detail << "\n";
  return 1;
}

int fuzz(const Options& opt) {
  ScenarioFuzzer fuzzer(opt.seed);
  for (long i = 0; i < opt.iterations; ++i) {
    Scenario sc = fuzzer.next();
    if (opt.inject != InjectKind::kNone)
      libra::chaos::arm_injection(sc, opt.inject, opt.inject_at_event);
    const Verdict v = libra::chaos::check_scenario(sc);
    if (v.ok) {
      if ((i + 1) % 10 == 0 || i + 1 == opt.iterations)
        std::cout << "iteration " << (i + 1) << "/" << opt.iterations
                  << " clean\n";
      continue;
    }
    std::cout << "iteration " << (i + 1) << " FAILED: " << v.failure << "\n  "
              << v.detail << "\n";

    const auto shrunk =
        libra::chaos::shrink_scenario(sc, v, opt.max_shrink_rounds);
    std::cout << "shrink: " << shrunk.accepted << " reduction(s) over "
              << shrunk.rounds << " round(s)\n";

    const std::string text =
        libra::chaos::serialize_scenario(shrunk.scenario);
    std::error_code ec;
    std::filesystem::create_directories(opt.artifact_dir, ec);
    const std::string path = opt.artifact_dir + "/libra_fuzz_repro_seed" +
                             std::to_string(opt.seed) + "_iter" +
                             std::to_string(i) + ".txt";
    std::ofstream out(path);
    out << text;
    out.close();
    if (!out) {
      std::cerr << "INTERNAL: could not write repro artifact " << path << "\n";
      return 3;
    }
    std::cout << "repro artifact: " << path << "\n";

    // Close the loop: the artifact must reload bit-identically and replay
    // to the same failure class.
    const Scenario reloaded = libra::chaos::parse_scenario(text);
    if (libra::chaos::serialize_scenario(reloaded) != text) {
      std::cerr << "INTERNAL: artifact does not round-trip bit-identically\n";
      return 3;
    }
    const Verdict rv = libra::chaos::check_scenario(reloaded);
    if (rv.ok || rv.failure != v.failure) {
      std::cerr << "INTERNAL: replayed artifact verdict '"
                << (rv.ok ? std::string("ok") : rv.failure)
                << "' != original '" << v.failure << "'\n";
      return 3;
    }
    std::cout << "artifact replays to the same failure: " << rv.failure
              << "\n";
    return 1;
  }
  std::cout << opt.iterations << " iteration(s) clean (seed " << opt.seed
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return opt.replay_file.empty() ? fuzz(opt) : replay(opt);
  } catch (const std::exception& e) {
    std::cerr << "libra_fuzz: " << e.what() << "\n";
    return 2;
  }
}
