#include "util/argparse.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace dynkge::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` if the next token is not itself a flag, else bare flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";
    }
  }
}

bool ArgParser::has_flag(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return std::stoll(it->second);
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return std::stod(it->second);
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second.empty() || it->second == "1" || it->second == "true" ||
      it->second == "yes" || it->second == "on") {
    return true;
  }
  return false;
}

std::vector<std::int64_t> ArgParser::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stoll(tok));
  }
  return out;
}

}  // namespace dynkge::util
