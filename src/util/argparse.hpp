// Minimal command-line flag parser for the bench harness and examples.
//
// Usage:
//   util::ArgParser args(argc, argv);
//   const int nodes = args.get_int("nodes", 4);
//   const std::string scale = args.get_string("scale", "mini");
//   if (args.has_flag("help")) { ... }
//
// Flags are written as `--name value` or `--name=value`; boolean flags as
// bare `--name`. Unknown positional arguments are rejected so typos fail
// loudly instead of silently running the default experiment, and so is a
// numeric or boolean value that does not parse in full: the typed getters
// throw std::invalid_argument naming the flag and the token. The parser
// records which flags a getter or has_flag() asked for; a program that has
// read every flag it takes calls reject_unread(), so a misspelt or foreign
// flag fails too.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace dynkge::util {

/// A flag on the command line that the program never read.
struct UnreadFlagError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True if --name appeared (with or without a value).
  bool has_flag(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated list of integers, e.g. --nodes 1,2,4,8.
  std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

  /// Throws UnreadFlagError naming the first flag, in name order, that no
  /// getter and no has_flag() has asked for.
  void reject_unread() const;

 private:
  /// The value given for --name, or null; marks the flag read.
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace dynkge::util
