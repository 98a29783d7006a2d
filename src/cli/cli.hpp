// smartctl: command-line front end for the StencilMART pipeline.
//
//   smartctl generate --dims 2 --order 3 --count 5 [--seed N]
//   smartctl profile  --dims 2 --stencils 40 --out corpus.txt [--shard i/N]
//   smartctl merge    --out corpus.txt shard0.txt shard1.txt ...
//   smartctl ocs                          # list Table I combinations
//   smartctl gpus                         # list Table III GPUs
//   smartctl train    --corpus corpus.txt --out model.smart
//   smartctl advise   --model model.smart --shape star --order 2 --gpu V100
//   smartctl advise   --corpus corpus.txt --shape star --order 2 --gpu V100
//   smartctl serve    --model model.smart --socket /tmp/smart.sock
//   smartctl codegen  --shape box --dims 3 --order 2 --oc ST_RT
//
// The argument parser and command dispatch live in the library so they are
// unit-testable; tools/smartctl.cpp is a thin main().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace smart::cli {

/// Parsed command line: one subcommand plus --key value options. Commands
/// that take file operands (`smartctl merge --out FILE SHARD...`) also get
/// the bare positional tokens, in order; for every other command a bare
/// token stays a parse error.
struct CommandLine {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;

  bool has(const std::string& key) const { return options.contains(key); }
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Strict integer option: the whole value must parse and fit in int.
  /// Throws std::invalid_argument naming the option on "2x", "", overflow.
  int get_int(const std::string& key, int fallback) const;
  /// Strict unsigned 64-bit option (seeds): rejects negatives and overflow.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
};

/// Parses argv into a CommandLine. Throws std::invalid_argument for
/// malformed input (option without value, unknown leading token).
CommandLine parse_command_line(const std::vector<std::string>& args);

/// Executes a parsed command, writing human-readable output to `out`.
/// Returns a process exit code (0 = success). Unknown commands print the
/// usage text and return 2; an option the command does not read throws
/// std::invalid_argument before any work starts.
int run_command(const CommandLine& cmd, std::ostream& out);

/// The usage/help text.
std::string usage();

}  // namespace smart::cli
