#include "util/argparse.hpp"

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

const std::string* ArgParser::find(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  read_.insert(name);
  return &it->second;
}

bool ArgParser::has_flag(const std::string& name) const {
  return find(name) != nullptr;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

void ArgParser::reject_unread() const {
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) {
      throw UnreadFlagError("unknown flag --" + name +
                            " (this command does not read it)");
    }
  }
}

namespace {

/// `parse(token, &used)` when it reads all of `token`; otherwise an error
/// naming the flag and the token ("--nodes: expected an integer, got
/// '2x'").
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& token,
                 const char* expected, Parse parse) {
  std::size_t used = 0;
  try {
    const auto value = parse(token, &used);
    if (used == token.size()) return value;
  } catch (const std::logic_error&) {
    // std::invalid_argument or std::out_of_range: reported below.
  }
  throw std::invalid_argument("--" + name + ": expected " + expected +
                              ", got '" + token + "'");
}

std::int64_t parse_int(const std::string& name, const std::string& token) {
  return parse_whole(name, token, "an integer",
                     [](const std::string& s, std::size_t* used) {
                       return static_cast<std::int64_t>(std::stoll(s, used));
                     });
}

}  // namespace

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const std::string* value = find(name);
  if (value == nullptr || value->empty()) return fallback;
  return parse_int(name, *value);
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  if (value == nullptr || value->empty()) return fallback;
  return parse_whole(name, *value, "a number",
                     [](const std::string& s, std::size_t* used) {
                       return std::stod(s, used);
                     });
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const std::string* found = find(name);
  if (found == nullptr) return fallback;
  const std::string& value = *found;
  if (value.empty() || value == "1" || value == "true" || value == "yes" ||
      value == "on") {
    return true;
  }
  if (value == "0" || value == "false" || value == "no" || value == "off") {
    return false;
  }
  throw std::invalid_argument("--" + name +
                              ": expected true/false, yes/no, on/off or "
                              "1/0, got '" + value + "'");
}

std::vector<std::int64_t> ArgParser::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  const std::string* value = find(name);
  if (value == nullptr || value->empty()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(*value);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(parse_int(name, tok));
  }
  return out;
}

}  // namespace dynkge::util
