#include "exp/cli.h"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <system_error>

namespace libra::exp {

namespace {

/// Matches "--flag value" and "--flag=value"; advances *i past a consumed
/// separate value argument. Throws std::invalid_argument when the flag is
/// the last argument and so has no value.
bool take_value(int argc, char** argv, int* i, const char* flag,
                std::string* out) {
  const char* arg = argv[*i];
  const size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) != 0) return false;
  if (arg[flag_len] == '=') {
    *out = arg + flag_len + 1;
    return true;
  }
  if (arg[flag_len] != '\0') return false;
  if (*i + 1 >= argc)
    throw std::invalid_argument(std::string(flag) + ": missing value");
  *out = argv[++*i];
  return true;
}

/// The whole of `value` as a T: base-10 digits for an integer (a leading
/// '-' only when T is signed), or a fixed, scientific, inf or nan float.
/// Throws std::invalid_argument naming `flag` on anything else — trailing
/// text included — and on a value T cannot hold.
template <typename T>
T parse_value(const char* flag, const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec == std::errc::result_out_of_range)
    throw std::invalid_argument(std::string(flag) + ": '" + value +
                                "' is out of range");
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument(std::string(flag) + ": malformed value '" +
                                value + "'");
  return out;
}

}  // namespace

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(arg, "--obs") == 0) {
      opt.obs = true;
    } else if (std::strcmp(arg, "-h") == 0 ||
               std::strcmp(arg, "--help") == 0) {
      opt.help = true;
    } else if (take_value(argc, argv, &i, "--trace-out", &value)) {
      opt.trace_out = value;
    } else if (take_value(argc, argv, &i, "--trace-ndjson", &value)) {
      opt.trace_ndjson = value;
    } else if (take_value(argc, argv, &i, "--obs-every-n", &value)) {
      opt.obs_every_n = parse_value<int>("--obs-every-n", value);
      if (opt.obs_every_n < 1)
        throw std::invalid_argument("--obs-every-n: must be >= 1, got " +
                                    value);
    } else if (take_value(argc, argv, &i, "--gen-functions", &value)) {
      // A well-formed value GenConfig forbids (e.g. 0) is kept verbatim:
      // GenConfig::validate() rejects it with a message naming the knob.
      opt.gen = true;
      opt.gen_cfg.functions = parse_value<int>("--gen-functions", value);
    } else if (take_value(argc, argv, &i, "--gen-rpm", &value)) {
      opt.gen = true;
      opt.gen_cfg.rpm = parse_value<double>("--gen-rpm", value);
    } else if (take_value(argc, argv, &i, "--gen-seed", &value)) {
      opt.gen = true;
      opt.gen_cfg.seed = parse_value<uint64_t>("--gen-seed", value);
    } else if (take_value(argc, argv, &i, "--gen-minutes", &value)) {
      opt.gen = true;
      opt.gen_cfg.duration = parse_value<double>("--gen-minutes", value) * 60.0;
    } else if (take_value(argc, argv, &i, "--json-out", &value)) {
      opt.json_out = value;
    } else {
      opt.extra.emplace_back(arg);
    }
  }
  return opt;
}

CliOptions parse_cli_or_exit(int argc, char** argv, const char* program) {
  CliOptions opt;
  try {
    opt = parse_cli(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << program << ": " << e.what() << "\n\n"
              << program << " [options]\n"
              << cli_usage();
    std::exit(2);
  }
  if (opt.help) {
    std::cout << program << " [options]\n" << cli_usage();
    std::exit(0);
  }
  return opt;
}

std::string cli_usage() {
  return "  --smoke              reduced workload for CI smoke runs\n"
         "  --obs                enable observability (summary to stdout)\n"
         "  --trace-out PREFIX   write PREFIX.trace.json (Chrome trace) and\n"
         "                       PREFIX.csv (time series); implies --obs\n"
         "  --trace-ndjson PATH  stream trace events to PATH as NDJSON while\n"
         "                       running (unbounded); implies --obs\n"
         "  --obs-every-n N      sample 1-in-N series points (default 1)\n"
         "  --gen-functions N    synthetic workload: distinct functions\n"
         "  --gen-rpm X          synthetic workload: base requests/minute\n"
         "  --gen-seed S         synthetic workload: generator seed\n"
         "  --gen-minutes M      synthetic workload: trace length, minutes\n"
         "  --json-out PATH      merge perf rows into a BenchArtifact JSON\n"
         "                       file (compare runs with tools/bench_diff)\n"
         "  -h, --help           this help\n";
}

obs::ObsConfig obs_config_from(const CliOptions& opt) {
  obs::ObsConfig cfg;
  cfg.series_every_n = opt.obs_every_n;
  cfg.ndjson_path = opt.trace_ndjson;
  return cfg;
}

bool export_obs(const obs::ObsSession& session, const CliOptions& opt) {
  if (!opt.obs_requested()) return true;
  bool ok = true;
  if (!opt.trace_ndjson.empty())
    std::cout << "streamed " << session.trace().streamed()
              << " trace events to " << opt.trace_ndjson << "\n";
  if (!opt.trace_out.empty()) {
    std::string error;
    const std::string trace_path = opt.trace_out + ".trace.json";
    if (session.export_chrome_trace(trace_path, &error)) {
      std::cout << "wrote " << trace_path << " (" << session.trace().size()
                << " events)\n";
    } else {
      std::cerr << "trace export failed: " << error << "\n";
      ok = false;
    }
    const std::string csv_path = opt.trace_out + ".csv";
    if (session.export_csv(csv_path, &error)) {
      std::cout << "wrote " << csv_path << "\n";
    } else {
      std::cerr << "csv export failed: " << error << "\n";
      ok = false;
    }
  }
  session.write_summary(std::cout);
  return ok;
}

}  // namespace libra::exp
