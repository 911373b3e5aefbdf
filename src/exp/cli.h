// Shared command-line parsing for the bench binaries. Every bench
// understands the same flags:
//
//   --smoke              reduced workload for CI smoke runs
//   --obs                enable the observability session (no files written)
//   --trace-out PREFIX   enable observability and export PREFIX.trace.json
//                        (Chrome trace-event) + PREFIX.csv (time series);
//                        also accepts --trace-out=PREFIX
//   --trace-ndjson PATH  enable observability and stream trace events to
//                        PATH as newline-delimited JSON while the run is in
//                        flight (not bounded by the in-memory event cap)
//   --obs-every-n N      sample 1-in-N pool/ping series points (default 1)
//   --gen-functions N    synthetic workload: number of distinct functions
//   --gen-rpm X          synthetic workload: base arrival rate, req/minute
//   --gen-seed S         synthetic workload: generator seed
//   --gen-minutes M      synthetic workload: trace length in minutes
//   --json-out PATH      append/merge this bench's perf rows into a
//                        BenchArtifact JSON file (tools/bench_diff compares
//                        two such artifacts; CI gates on the diff)
//   -h / --help          print usage for these shared flags
//
// A bench's main() calls parse_cli_or_exit, which prints the usage and
// exits 0 on --help, or exits 2 with the message on a bad flag.
//
// Unrecognized arguments are passed through in `extra` (order preserved) so
// google-benchmark binaries can forward --benchmark_* flags untouched.
#pragma once

#include <string>
#include <vector>

#include "gen/gen_config.h"
#include "obs/obs_config.h"
#include "obs/obs_session.h"

namespace libra::exp {

struct CliOptions {
  bool smoke = false;
  bool obs = false;
  bool help = false;
  std::string trace_out;
  std::string trace_ndjson;
  int obs_every_n = 1;
  /// True when any --gen-* flag was seen: the bench should pull its
  /// workload from a gen::SyntheticSource built from gen_config().
  bool gen = false;
  /// Synthetic-generator knobs (--gen-functions / --gen-rpm / --gen-seed /
  /// --gen-minutes), pre-populated with the GenConfig defaults.
  gen::GenConfig gen_cfg;
  /// Perf-artifact destination (--json-out); empty = no artifact written.
  std::string json_out;
  /// Unrecognized argv entries, in order (argv[0] excluded).
  std::vector<std::string> extra;

  /// Whether this run should build an ObsSession.
  bool obs_requested() const {
    return obs || !trace_out.empty() || !trace_ndjson.empty();
  }

  /// The generator config for this run, after GenConfig::validate(). Throws
  /// std::invalid_argument when the flag values are inconsistent.
  gen::GenConfig gen_config() const {
    gen_cfg.validate();
    return gen_cfg;
  }
};

/// Parses the shared flags out of argv; never exits. Throws
/// std::invalid_argument naming the flag when a recognized flag's value is
/// missing, malformed (trailing text included), out of range for its type,
/// or an --obs-every-n below 1. A well-formed --gen-* value that GenConfig
/// forbids (e.g. --gen-rpm 0 or inf) is kept for gen_config() to reject.
CliOptions parse_cli(int argc, char** argv);

/// parse_cli for a bench's main(). On --help it prints "<program>
/// [options]" and the usage to stdout and exits 0; on a flag parse_cli
/// rejects it prints the message and the usage to stderr and exits 2.
CliOptions parse_cli_or_exit(int argc, char** argv, const char* program);

/// Usage text for the shared flags (callers prepend their own).
std::string cli_usage();

/// ObsConfig matching the parsed options; a bench builds a session from it
/// only when obs_requested().
obs::ObsConfig obs_config_from(const CliOptions& opt);

/// Writes <trace_out>.trace.json and <trace_out>.csv plus a summary to
/// stdout when --trace-out was given; prints the summary only under plain
/// --obs. Returns false (with a message to stderr) if a write failed.
bool export_obs(const obs::ObsSession& session, const CliOptions& opt);

}  // namespace libra::exp
